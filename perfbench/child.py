"""One benchmark process: set a workload up, then probe or measure it.

``run.py`` starts this script; it is not a user entry point.  The clock
starts on the first line, before ``repro`` is imported, so ``setup_s``
covers the import, the workload's set-up and one untimed warm-up
request.  ``--role probe`` stops there; ``--role measure`` goes on to the
timed loop (``--trace 0``) or to an untraced loop followed by a traced
one (``--trace 1``; on ``sweep_cold`` an untraced in-process loop runs
between them).  The last line of stdout is one JSON object.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (the clock must start before any import)
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from harness import (NOMINAL_REFERENCE_S, NullTracer,  # noqa: E402
                     ReferenceProcess, RequestRecord, SpeedReference, Tracer,
                     calls_by_layer, environment, failed_count, failed_frac,
                     layer_metrics, normalized_seconds, repeated_counts,
                     request_breakdowns, spans_to_json, tail_percentile)

MIN_TRACED_REQUESTS = 2
# Stop issuing requests after this much wall time, whatever the minimum,
# so a very slow program still ends inside the run's time limit.
LOOP_WALL_CAP_S = 100.0


def run_loop(workload, seconds, min_requests, tracer=None, first_index=0,
             speed=None, chain=False):
    """Closed loop: request after request until ``seconds`` of request
    time, at least ``min_requests`` and a whole rotation round.

    A request is the workload's public call, or with a ``tracer`` its
    layer chain under spans, or with ``chain`` its layer chain untraced.
    With a :class:`~harness.SpeedReference`, the reference is sampled
    between requests and each record gets the reference around it."""
    records = []
    spent = 0.0
    loop_start = time.perf_counter()
    while (spent < seconds or len(records) < min_requests
           or len(records) % workload.round_size):
        if time.perf_counter() - loop_start > LOOP_WALL_CAP_S:
            break
        index = first_index + len(records)
        request = workload.new_request()
        if speed is not None:
            speed.tick()
        begin = time.perf_counter()
        try:
            if tracer is None:
                output = (workload.traced(request, NullTracer()) if chain
                          else workload.run(request))
                elapsed = time.perf_counter() - begin
            else:
                with tracer.span("request", request=f"r{index}") as span:
                    output = workload.traced(request, tracer)
                elapsed = span.seconds
        except Exception as exc:  # a failing request is counted, not fatal
            traceback.print_exc()
            elapsed = time.perf_counter() - begin
            records.append(RequestRecord(index, elapsed, 0,
                                         [f"{type(exc).__name__}: {exc}"],
                                         begin=begin))
            spent += elapsed
            continue
        record = RequestRecord(index, elapsed, workload.work(request),
                               begin=begin)
        record.failures.extend(workload.check(record, request, output,
                                              tracer is not None or chain))
        records.append(record)
        spent += elapsed
    if speed is not None:
        speed.tick()
        for record in records:
            record.reference_s = speed.around(record.begin,
                                              record.begin + record.seconds)
    return records


def peak_rss_mb(pool_workers):
    """The process's peak plus, per pool worker, the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def request_figures(records, seconds_of):
    latencies = [seconds_of(record) for record in records]
    tail = tail_percentile(latencies)
    if tail is None:  # too few requests for the rule: report the slowest
        tail = (max(latencies), 100, len(latencies))
    return {"request_p50_s": statistics.median(latencies),
            "request_tail_s": tail[0],
            "work_per_s": sum(r.work for r in records) / sum(latencies)}, tail


def end_to_end(workload, records, speed):
    """The timings speed-normalized (see SpeedReference), and raw."""
    metrics, tail = request_figures(records, lambda r: normalized_seconds(
        r.seconds, r.reference_s))
    metrics["peak_rss_mb"] = peak_rss_mb(workload.pool_workers)
    raw, _ = request_figures(records, lambda r: r.seconds)
    extras = {"request_tail_percentile": tail[1], "requests": tail[2],
              "tail_rule_met": tail[1] < 100, "raw": raw,
              "reference_samples": len(speed.samples),
              "reference_median_s": statistics.median(speed.samples),
              "nominal_reference_s": NOMINAL_REFERENCE_S,
              "reference_ratio": (statistics.median(speed.samples)
                                  / NOMINAL_REFERENCE_S)}
    return metrics, extras


def traced_figures(workload, bench_seed, untraced, chain, tracer,
                   run_failures):
    """Every per-layer metric of a traced run.

    ``untraced`` holds the public-call requests and ``chain`` the untraced
    in-process layer chain's (``sweep_cold`` only; empty elsewhere, where
    the public call runs in-process already).  Tracing overhead compares
    the traced chain with the untraced one; the pool's speed-up compares
    the untraced chain (serial cells) with the pooled public call.
    """
    import scenarios

    untraced_p50 = statistics.median(r.seconds for r in untraced)
    serial_p50 = (statistics.median(r.seconds for r in chain) if chain
                  else untraced_p50)
    figures = layer_metrics(tracer.spans, serial_p50)
    for breakdown in request_breakdowns(tracer.spans):
        if abs(breakdown.residual) > 1e-6:
            run_failures.append(f"spans of {breakdown.request} do not add "
                                f"up to its wall time")
    figures.update({"exec.pool.spawn_s": 0.0, "exec.pool.workers": 0.0,
                    "exec.pool.speedup": 0.0})
    if workload.pool_workers:
        figures["exec.pool.speedup"] = serial_p50 / untraced_p50
    figures.update({f"lint.project.{family}_s": 0.0
                    for family in scenarios.LINT_FAMILIES})
    figures.update(workload.probes(tracer))

    figures.update({"core.ipc": 0.0, "core.sleep_frac": 0.0,
                    "memory.l2_miss_rate": 0.0, "power.energy_saving": 0.0,
                    "sim.result_digest": 0.0})
    figures.update(workload.modelled())

    first, second, norms = scenarios.profile_passes(
        type(workload), bench_seed, workload.work_dir / "profile")
    kept = repeated_counts(first, second)
    by_layer = calls_by_layer(kept)
    unsteady = sorted(set(first) - set(kept))
    if set(calls_by_layer(first).items()) != set(by_layer.items()):
        run_failures.append(f"call counts did not repeat in {unsteady}")

    def per(count, key):
        return count / norms[key] if norms.get(key) else 0.0

    figures.update({
        "workloads.py_calls_per_op": per(by_layer["workloads"], "gen_ops"),
        "fastsim.py_calls_per_op": per(by_layer["fastsim"], "replay_ops"),
        "sim.py_calls_per_op": per(by_layer["sim"], "replay_ops"),
        "exec.py_calls_per_cell": per(by_layer["exec"], "cells"),
        "lint.py_calls": float(by_layer["lint"]),
    })
    return figures, {"calls_by_package": kept, "unsteady_packages": unsteady}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("probe", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", required=True)
    args = parser.parse_args()

    import scenarios

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = scenarios.WORKLOADS[args.workload](args.seed, work_dir)
    try:
        workload.setup()
        warm_request = workload.new_request()
        warm_output = workload.run(warm_request)
        setup_s = time.perf_counter() - START
        if args.role == "probe":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        run_failures = workload.warmup_checks(warm_request, warm_output)
        out = {"setup_s": setup_s,
               "env": environment(ROOT, args.seed, workload.pool_workers)}
        if args.trace:
            share = args.seconds / (3 if workload.pool_workers else 2)
            untraced = run_loop(workload, share, MIN_TRACED_REQUESTS)
            chain = []
            if workload.pool_workers:
                chain = run_loop(workload, share, MIN_TRACED_REQUESTS,
                                 first_index=len(untraced), chain=True)
            tracer = Tracer()
            traced = run_loop(workload, share, MIN_TRACED_REQUESTS, tracer,
                              first_index=len(untraced) + len(chain))
            figures, counts = traced_figures(workload, args.seed, untraced,
                                             chain, tracer, run_failures)
            records = untraced + chain + traced
            out.update(per_layer=figures, **counts)
            spans_path = Path(args.results_dir) / (
                f"{args.workload}-seed{args.seed}.spans.json")
            spans_path.write_text(json.dumps(spans_to_json(tracer.spans)),
                                  encoding="utf-8")
            out["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            with ReferenceProcess() as reference:
                speed = SpeedReference(reference)
                records = run_loop(workload, args.seconds,
                                   workload.min_requests, speed=speed)
            out["end_to_end"], out["extras"] = end_to_end(workload, records,
                                                          speed)
        workload.post_checks()
        run_failures.extend(workload.run_checks())
        failed = failed_count(records)
        out.update(
            attempted=len(records), failed=failed,
            failed_frac=failed_frac(records),
            run_failures=run_failures,
            request_failures={r.index: r.failures for r in records
                              if r.failures},
            latencies=[r.seconds for r in records],
            correct=not failed and not run_failures)
        print(json.dumps(out))
        return 0
    finally:
        for child in multiprocessing.active_children():
            child.join()
        workload.cleanup()


if __name__ == "__main__":
    sys.exit(main())
