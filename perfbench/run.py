"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload cell_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints every
end-to-end metric of ``BENCHMARK.json`` (set-up time is the median of
three fresh processes, two set-up probes and the measuring process, each
speed-normalized like the request timings);
with ``--trace 1`` every per-layer metric, from a traced replay.  The
output checks run either way.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
the environment it ran in, goes to ``.perfbench_work/results/``.  Exit
status 0 means every check passed.  README.md explains the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from harness import ReferenceProcess, normalized_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = ROOT / ".perfbench_work" / "results"

SETUP_PROBES = 2
# Every process of a run must have ended this long after the start.
RUN_DEADLINE_S = 170.0


class RunFailure(RuntimeError):
    """A benchmark process failed or ran out of time."""


def stop_group(pgid: int) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise RunFailure(f"processes of group {pgid} did not stop")


def run_child(arguments: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``child.py`` in its own process group; its last line is JSON."""
    command = [sys.executable, str(HERE / "child.py"), *arguments]
    env = dict(os.environ, PYTHONHASHSEED="0")
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailure(f"{' '.join(arguments)}: out of time") from None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        stop_group(process.pid)
    if process.returncode != 0:
        raise RunFailure(f"{' '.join(arguments)}: exit status "
                         f"{process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunFailure(f"{' '.join(arguments)}: no result")
    return json.loads(lines[-1])


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no program source (src/repro) in this checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--results-dir", str(RESULTS_DIR)]
    measure = ["--role", "measure", "--trace", str(args.trace), *common]
    # Raw set-up seconds of each process, and the speed reference around
    # each: the mean of the samples just before and after a probe, and
    # the sample just before the measuring process, which sets up first.
    setup_samples: List[float] = []
    setup_references: List[float] = []
    try:
        if args.trace:
            measured = run_child(measure, deadline)
        else:
            with ReferenceProcess() as reference:
                for _ in range(SETUP_PROBES):
                    before = reference()
                    probe = run_child(["--role", "probe", *common], deadline)
                    setup_samples.append(probe["setup_s"])
                    setup_references.append((before + reference()) / 2)
                setup_references.append(reference())
                measured = run_child(measure, deadline)
    except (RunFailure, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(measured["setup_s"])

    if args.trace:
        wanted = spec["per_layer"]
        values = measured["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = dict(measured["end_to_end"], setup_s=statistics.median(
            normalized_seconds(seconds, reference_s) for seconds, reference_s
            in zip(setup_samples, setup_references)))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = dict(measured, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_samples=setup_samples,
                  setup_references=setup_references, metrics=metrics)
    result_path = RESULTS_DIR / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True),
                           encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{args.workload:<11} {name:<28} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    if not args.trace:
        extras = measured["extras"]
        # The tail is not gated: on workloads with few, long requests the
        # rule's percentile falls to the median or below.
        print(f"{args.workload:<11} {'request_tail_s':<28} "
              f"{measured['end_to_end']['request_tail_s']:>16.6g} s "
              f"(p{extras['request_tail_percentile']} of "
              f"{extras['requests']} requests)")
        raw = extras["raw"]
        print(f"{args.workload:<11} timings are speed-normalized; raw: "
              f"setup {statistics.median(setup_samples):.6g} s, "
              f"p50 {raw['request_p50_s']:.6g} s, tail "
              f"{raw['request_tail_s']:.6g} s, {raw['work_per_s']:.6g} 1/s "
              f"(reference {extras['reference_median_s']:.6g} s, "
              f"{extras['reference_ratio']:.3f}x the nominal "
              f"{extras['nominal_reference_s']} s)")
    print(f"{args.workload:<11} failed_frac {measured['failed_frac']:.6g} "
          f"({measured['failed']}/{measured['attempted']}); run checks "
          f"{'passed' if not measured['run_failures'] else measured['run_failures']}")
    for index, failures in measured["request_failures"].items():
        print(f"  request {index}: {'; '.join(failures)}", file=sys.stderr)
    print(json.dumps({"correct": measured["correct"],
                      "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    return 0 if measured["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
