#!/usr/bin/env python3
"""Simulator-performance gate: throughput floor, cache warm, sweep scaling.

Measures the execution engine end to end with
:class:`repro.obs.profile.SelfProfiler` and writes the machine-readable
scorecard ``BENCH_sim_throughput.json`` (schema
``mapg.bench-throughput/1``) that docs/PERFORMANCE.md explains row by
row.  Five measurements:

* **single_core** — one oracle simulator run; reports simulated events
  and trace ops per wall second.  Trace generation is inside the timed
  region (that is what ``run_workload`` costs a user).
* **single_core_fast** — the identical cell through the columnar batched
  kernel (``engine="fast"``), best-of-``_FAST_REPEATS`` with the columnar
  ingest and key precompute hoisted out of the timed region (they are
  one-time, memoized costs).  The row records ``speedup_vs_oracle`` and
  ``identical_to_oracle`` — the kernel's results must be byte-identical
  to the oracle's (sorted-key JSON of every field) or the bench exits 2,
  same severity as the cache-correctness gate.
* **sweep_serial** — a policy-comparison matrix through
  :class:`repro.exec.SweepRunner` at ``jobs=1`` (shared trace store, no
  cache).
* **sweep_parallel** — the identical matrix at ``--jobs`` workers
  (spawn pool).  The speedup is *recorded* unconditionally but only
  *enforced* via ``--min-parallel-speedup``, because on a single-core
  container (the common CI box: ``os.cpu_count() == 1``) a process pool
  is pure overhead and a speedup bound would gate on the machine, not the
  code.  The JSON carries ``cpu_count`` so readers can judge the number.
* **cache_cold / cache_warm** — the matrix against a fresh
  content-addressed :class:`repro.exec.ResultCache`, then again against
  the populated cache.  The warm run must be ``--min-cache-speedup``
  times faster, and its results must be **byte-identical** (sorted-key
  JSON of every result) to the cold run's — a cache that changes any
  field is a correctness bug, not a perf feature.

Wall clocks are fine here: this is tooling under ``scripts/``, outside
DET01's simulation scope, and every timing flows through SelfProfiler —
nothing feeds back into simulated time.

Two modes on top of the gates:

* default — the fresh scorecard is also judged against the checked-in
  baseline (``--baseline``) through :mod:`repro.obs.anomaly`; anomalies
  and staleness warnings print, an ``anomaly_report.json`` is written,
  and ``--fail-on-anomaly`` turns regressions into a failing exit.
* ``--update-baseline`` — atomically refresh the checked-in baseline
  (including its ``environment`` block: git SHA, interpreter, platform)
  via tmp + ``os.replace`` per CONC04, so the staleness warning clears.

Exit codes: 0 = all enforced bounds hold, 1 = a bound failed (or an
anomaly under ``--fail-on-anomaly``), 2 = the cold/warm result mismatch
(cache correctness) tripped.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.exec import JobSpec, ResultCache, SweepRunner, simulation_version
from repro.obs import SelfProfiler, environment_manifest
from repro.sim.runner import run_workload, with_policy

BENCH_SCHEMA = "mapg.bench-throughput/1"
DEFAULT_OUTPUT = "BENCH_sim_throughput.json"

# Sweep matrix: three representative workloads (memory-bound, phased,
# compute-bound) times three policies plus the shared baseline.
SWEEP_WORKLOADS = ("mcf_like", "gcc_like", "povray_like")
SWEEP_POLICIES = ("never", "naive", "mapg")

# The fast-kernel row reports the best of this many runs: at 10-30x the
# oracle's throughput a single run is a few tens of milliseconds, where
# scheduler jitter alone can swing the measurement by 30%+.
_FAST_REPEATS = 3


def _sweep_specs(num_ops: int, seed: int) -> List[JobSpec]:
    config = SystemConfig()
    return [
        JobSpec(config=with_policy(config, policy), profile=workload,
                num_ops=num_ops, seed=seed)
        for workload in SWEEP_WORKLOADS
        for policy in SWEEP_POLICIES
    ]


def _results_digest(results: Sequence[Any]) -> str:
    """Canonical byte form of a result list, for cold-vs-warm identity."""
    from repro.exec import result_to_dict

    return json.dumps([result_to_dict(result) for result in results],
                      sort_keys=True, separators=(",", ":"))


def run_benchmarks(num_ops: int, sweep_ops: int, jobs: int,
                   profiler: SelfProfiler) -> Dict[str, Any]:
    """Execute all four measurements; returns the rows dict (no gating)."""
    rows: Dict[str, Any] = {}

    # -- single-core throughput -------------------------------------------
    with profiler.stage("single_core") as stage:
        result = run_workload(with_policy(SystemConfig(), "mapg"),
                              "mcf_like", num_ops, seed=7, engine="oracle")
        stage.add_events(result.event_count)
    wall = profiler.report()["stages"][-1]["wall_s"]
    rows["single_core"] = {
        "num_ops": num_ops,
        "events": result.event_count,
        "wall_s": wall,
        "events_per_sec": result.event_count / wall if wall > 0 else 0.0,
        "ops_per_sec": num_ops / wall if wall > 0 else 0.0,
    }

    # -- single-core throughput, fast kernel ------------------------------
    from repro.fastsim import shared_columnar_store

    config = with_policy(SystemConfig(), "mapg")
    _, measured = shared_columnar_store().traces("mcf_like", num_ops, seed=7)
    measured.busy_cycles_for(config.core.issue_width)
    measured.block_keys_for(config.l1.line_bytes.bit_length() - 1,
                            config.l1.num_sets - 1)
    fast_walls: List[float] = []
    fast_result = None
    for repeat in range(1, _FAST_REPEATS + 1):
        with profiler.stage(f"single_core_fast_r{repeat}") as stage:
            fast_result = run_workload(config, "mcf_like", num_ops, seed=7,
                                       engine="fast")
            stage.add_events(fast_result.event_count)
        fast_walls.append(profiler.report()["stages"][-1]["wall_s"])
    fast_wall = min(fast_walls)
    rows["single_core_fast"] = {
        "num_ops": num_ops,
        "events": fast_result.event_count,
        "repeats": _FAST_REPEATS,
        "wall_s": fast_wall,
        "events_per_sec": (fast_result.event_count / fast_wall
                           if fast_wall > 0 else 0.0),
        "ops_per_sec": num_ops / fast_wall if fast_wall > 0 else 0.0,
        "speedup_vs_oracle": wall / fast_wall if fast_wall > 0 else 0.0,
        "identical_to_oracle": (_results_digest([result])
                                == _results_digest([fast_result])),
    }

    # -- sweep: serial vs parallel ----------------------------------------
    specs = _sweep_specs(sweep_ops, seed=7)
    with profiler.stage("sweep_serial"):
        serial_results = SweepRunner(jobs=1).run(specs)
    serial_wall = profiler.report()["stages"][-1]["wall_s"]
    rows["sweep_serial"] = {
        "cells": len(specs), "num_ops": sweep_ops, "jobs": 1,
        "wall_s": serial_wall,
    }

    with profiler.stage("sweep_parallel"):
        parallel_results = SweepRunner(jobs=jobs).run(specs)
    parallel_wall = profiler.report()["stages"][-1]["wall_s"]
    rows["sweep_parallel"] = {
        "cells": len(specs), "num_ops": sweep_ops, "jobs": jobs,
        "wall_s": parallel_wall,
        "speedup_vs_serial": (serial_wall / parallel_wall
                              if parallel_wall > 0 else 0.0),
    }
    if _results_digest(serial_results) != _results_digest(parallel_results):
        raise AssertionError(
            "parallel sweep results differ from serial — worker-count "
            "invariance is broken")

    # -- cache: cold vs warm ----------------------------------------------
    cache_dir = tempfile.mkdtemp(prefix="mapg-bench-cache-")
    try:
        with profiler.stage("cache_cold"):
            cold_results = SweepRunner(
                jobs=1, cache=ResultCache(cache_dir)).run(specs)
        cold_wall = profiler.report()["stages"][-1]["wall_s"]
        with profiler.stage("cache_warm"):
            warm_results = SweepRunner(
                jobs=1, cache=ResultCache(cache_dir)).run(specs)
        warm_wall = profiler.report()["stages"][-1]["wall_s"]
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    rows["cache_cold"] = {
        "cells": len(specs), "num_ops": sweep_ops, "wall_s": cold_wall,
    }
    rows["cache_warm"] = {
        "cells": len(specs), "num_ops": sweep_ops, "wall_s": warm_wall,
        "speedup_vs_cold": cold_wall / warm_wall if warm_wall > 0 else 0.0,
        "identical_to_cold": (_results_digest(cold_results)
                              == _results_digest(warm_results)),
    }
    return rows


def _write_json_atomic(payload: Dict[str, Any], path: str) -> None:
    """Write a scorecard via tmp + ``os.replace`` (CONC04): a reader —
    the anomaly watcher, CI — racing the writer never sees a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory,
                            f".{os.path.basename(path)}.{os.getpid()}.tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the perf benchmarks, write the scorecard, enforce the gates."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized traces (~10x shorter)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="workers for the parallel sweep row "
                             "(default: cpu_count)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"scorecard path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--min-throughput", type=float, default=3000.0,
                        help="floor on single-core oracle trace ops/sec "
                             "(default 3000)")
    parser.add_argument("--min-fast-throughput", type=float, default=20000.0,
                        help="floor on the fast kernel's trace ops/sec "
                             "(default 20000)")
    parser.add_argument("--min-cache-speedup", type=float, default=5.0,
                        help="warm cache must beat cold by this factor "
                             "(default 5)")
    parser.add_argument("--min-parallel-speedup", type=float, default=0.0,
                        help="enforce sweep_parallel >= this x serial "
                             "(default 0 = record only; needs real cores)")
    parser.add_argument("--update-baseline", action="store_true",
                        help=f"refresh the checked-in baseline (--baseline "
                             f"path, default {DEFAULT_OUTPUT}) atomically, "
                             f"environment block included, instead of "
                             f"comparing against it")
    parser.add_argument("--baseline", default=DEFAULT_OUTPUT,
                        help="baseline scorecard to compare against / "
                             "refresh")
    parser.add_argument("--anomaly-report", default="anomaly_report.json",
                        help="where the baseline comparison writes its "
                             "report")
    parser.add_argument("--anomaly-band", action="append", default=None,
                        metavar="METRIC=TOL[:higher|lower]",
                        help="override the anomaly watch list (repeatable; "
                             "see `python -m repro watch-perf --help`)")
    parser.add_argument("--fail-on-anomaly", action="store_true",
                        help="exit nonzero when the baseline comparison "
                             "finds a regression (default: report only)")
    args = parser.parse_args(argv)

    num_ops = 4_000 if args.quick else 30_000
    sweep_ops = 1_500 if args.quick else 10_000
    jobs = args.jobs if args.jobs > 0 else os.cpu_count() or 1

    profiler = SelfProfiler()
    rows = run_benchmarks(num_ops, sweep_ops, jobs, profiler)

    payload = {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "simulation_version": simulation_version(),
        "rows": rows,
        "environment": environment_manifest(),
        "self_profile": profiler.report(),
    }
    output_path = args.baseline if args.update_baseline else args.output
    _write_json_atomic(payload, output_path)

    ops_per_sec = rows["single_core"]["ops_per_sec"]
    fast_row = rows["single_core_fast"]
    warm_speedup = rows["cache_warm"]["speedup_vs_cold"]
    parallel_speedup = rows["sweep_parallel"]["speedup_vs_serial"]
    print(f"single-core: {ops_per_sec:,.0f} trace ops/s "
          f"({rows['single_core']['events_per_sec']:,.0f} events/s)")
    print(f"fast kernel: {fast_row['ops_per_sec']:,.0f} trace ops/s "
          f"(speedup {fast_row['speedup_vs_oracle']:.1f}x vs oracle, "
          f"identical={fast_row['identical_to_oracle']})")
    print(f"sweep serial {rows['sweep_serial']['wall_s']:.3f}s | "
          f"parallel x{jobs} {rows['sweep_parallel']['wall_s']:.3f}s "
          f"(speedup {parallel_speedup:.2f}x, cpu_count={os.cpu_count()})")
    print(f"cache cold {rows['cache_cold']['wall_s']:.3f}s | "
          f"warm {rows['cache_warm']['wall_s']:.3f}s "
          f"(speedup {warm_speedup:.1f}x)")
    print(f"scorecard -> {output_path}"
          + (" (baseline refreshed, environment block included)"
             if args.update_baseline else ""))

    anomaly_failed = False
    if not args.update_baseline and os.path.isfile(args.baseline) \
            and os.path.abspath(args.baseline) \
            != os.path.abspath(output_path):
        from repro.obs import (compare_to_baseline, load_perf_document,
                               parse_band, write_anomaly_report)

        bands = ([parse_band(text) for text in args.anomaly_band]
                 if args.anomaly_band else None)
        report = compare_to_baseline(payload,
                                     load_perf_document(args.baseline),
                                     bands=bands)
        write_anomaly_report(report, args.anomaly_report)
        for warning in report["warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
        if report["ok"]:
            print(f"baseline check ok "
                  f"({len(report['checked'])} metric(s) within bands); "
                  f"report -> {args.anomaly_report}")
        else:
            for anomaly in report["anomalies"]:
                print(f"ANOMALY {anomaly['metric']}: baseline "
                      f"{anomaly['baseline']:g} -> observed "
                      f"{anomaly['observed']:g} "
                      f"(ratio {anomaly['ratio']:.3f}, "
                      f"band {anomaly['band']:g})", file=sys.stderr)
            print(f"anomaly report -> {args.anomaly_report}",
                  file=sys.stderr)
            anomaly_failed = args.fail_on_anomaly

    if not rows["cache_warm"]["identical_to_cold"]:
        print("FAIL: warm-cache results are not byte-identical to cold",
              file=sys.stderr)
        return 2
    if not fast_row["identical_to_oracle"]:
        print("FAIL: fast-kernel result is not byte-identical to the "
              "oracle's", file=sys.stderr)
        return 2
    failed = False
    if ops_per_sec < args.min_throughput:
        print(f"FAIL: single-core throughput {ops_per_sec:,.0f} ops/s "
              f"< floor {args.min_throughput:,.0f}", file=sys.stderr)
        failed = True
    if fast_row["ops_per_sec"] < args.min_fast_throughput:
        print(f"FAIL: fast-kernel throughput "
              f"{fast_row['ops_per_sec']:,.0f} ops/s "
              f"< floor {args.min_fast_throughput:,.0f}", file=sys.stderr)
        failed = True
    if warm_speedup < args.min_cache_speedup:
        print(f"FAIL: warm-cache speedup {warm_speedup:.1f}x "
              f"< {args.min_cache_speedup:.1f}x", file=sys.stderr)
        failed = True
    if args.min_parallel_speedup > 0 and \
            parallel_speedup < args.min_parallel_speedup:
        print(f"FAIL: parallel speedup {parallel_speedup:.2f}x "
              f"< {args.min_parallel_speedup:.2f}x", file=sys.stderr)
        failed = True
    if anomaly_failed:
        print("FAIL: baseline comparison found perf anomalies "
              "(--fail-on-anomaly)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
