"""The four benchmark workloads, driven through repro's public functions.

Each workload is a closed loop: one caller sends the next request only
after the previous one returned.  The only parallelism is the
``SweepRunner`` pool of ``sweep_cold``.  Every trace seed comes from a
:class:`~harness.SeedStream` over the benchmark seed, and every request
except those of ``sweep_warm`` draws fresh ones, so the per-process trace
memos never serve a request that is meant to be cold.

A workload answers five questions: how to make its next request
(``new_request``), the timed call (``run``), the output checks made
outside the timed region (``check``, ``post_checks`` and
``run_checks``), the same
request replayed layer by layer under spans (``traced``), and the
modelled-design figures that a speed-only change must leave identical
(``modelled``).  README.md says why each workload exists.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import inspect
import json
import shutil
import statistics
import tarfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import golden
from harness import (NullTracer, RequestRecord, SeedStream, canonical_json,
                     digest_id, nproc)

POLICIES = ("never", "naive", "bet_guard", "mapg", "mapg_adaptive", "oracle")

# Memory-bound, phased and compute-bound: the three shapes of cost the
# oracle's replay has.
CELL_PROFILES = ("mcf_like", "gcc_like", "povray_like")
CELL_OPS = 10_000

# libquantum_like streams, so its prefetcher cell is the F11 case.
SWEEP_PROFILES = ("mcf_like", "gcc_like", "povray_like", "libquantum_like")
# The ops per cell `repro sweep` runs by default.
SWEEP_OPS = 10_000
# Timed sweeps per run whose sampled cell is re-run on the oracle: one
# per profile (see SweepCold.check).
ORACLE_SAMPLES = len(SWEEP_PROFILES)
# Cache entries do not grow with trace length, so the warm study's cells
# are short: that keeps populating the cache cheap in set-up.  The study
# repeats the matrix over several seeds, so one request reads many
# entries and a single slow read barely moves it.
WARM_OPS = 200
WARM_SEEDS = 2

# The rules that share each call-graph fixpoint of mapglint.
LINT_FAMILIES = {
    "effects": ("PURE01", "CONC01", "CONC03"),
    "errflow": ("ERR01", "ERR02", "ERR03", "ERR04", "RES01"),
    "twin": ("TWIN01", "TWIN02", "TWIN03", "TWIN04"),
}

CORPUS_ARCHIVE = Path(__file__).resolve().parent / "lint_corpus.tar.gz"
CORPUS_MANIFEST = Path(__file__).resolve().parent / "lint_corpus.json"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run as defined (missing input, bad set-up)."""


def default_engine() -> str:
    """The engine ``run_workload`` uses when the caller names none."""
    from repro.sim.runner import run_workload

    return inspect.signature(run_workload).parameters["engine"].default


def result_json(result: Any) -> str:
    from repro.exec import result_to_dict

    return canonical_json(result_to_dict(result))


def result_failures(result: Any, profile: str, policy: str) -> List[str]:
    """Invariants every simulation result must satisfy."""
    failures = []
    if result.workload != profile or result.policy != policy:
        failures.append(f"result is for {result.workload}/{result.policy}, "
                        f"expected {profile}/{policy}")
    if sum(result.state_cycles.values()) != result.total_cycles:
        failures.append(f"{profile}/{policy}: state cycles do not tile "
                        f"the run")
    if result.instructions <= 0 or result.energy_j <= 0.0:
        failures.append(f"{profile}/{policy}: empty result")
    return failures


def modelled_figures(mapg: Sequence[Any], never: Sequence[Any]) -> Dict[str, float]:
    """Figures of the modelled design over paired mapg/never results."""
    from repro.exec import result_to_dict

    l2_accesses = sum(r.memory_counters.get("l2_accesses", 0.0) for r in mapg)
    l2_misses = sum(r.memory_counters.get("l2_misses", 0.0) for r in mapg)
    savings = [m.compare(n).energy_saving for m, n in zip(mapg, never)]
    return {
        "core.ipc": statistics.fmean(r.ipc for r in mapg),
        "core.sleep_frac": statistics.fmean(r.sleep_fraction for r in mapg),
        "memory.l2_miss_rate": l2_misses / l2_accesses,
        "power.energy_saving": statistics.fmean(savings),
        "sim.result_digest": float(digest_id(result_to_dict(r)
                                             for r in list(mapg) + list(never))),
    }


# ---- layer chains (the traced replay of one request) -------------------------

def generate(tracer: Any, profile: str, seed: int, num_ops: int) -> tuple:
    from repro.workloads.profiles import get_profile
    from repro.workloads.synthetic import SyntheticTraceGenerator

    with tracer.span("workloads.gen") as span:
        ops = tuple(SyntheticTraceGenerator(get_profile(profile), seed=seed)
                    .operations(num_ops))
        span.attrs["ops"] = len(ops)
    return ops


def replay_events(result: Any) -> float:
    """Simulated events of one replay: L1 accesses plus off-chip stalls."""
    return (result.memory_counters.get("l1_accesses", 0.0)
            + result.controller_counters.get("offchip_stalls", 0.0))


def oracle_cell(tracer: Any, config: Any, profile: str, seed: int,
                num_ops: int) -> Any:
    """``run_workload`` on the oracle: generate, build, replay."""
    from repro.sim.simulator import Simulator

    ops = generate(tracer, profile, seed, num_ops)
    with tracer.span("sim.setup"):
        simulator = Simulator(config, workload=profile, seed=seed)
    with tracer.span("sim.replay") as span:
        result = simulator.run(ops)
        span.attrs["ops"] = len(ops)
        span.attrs["events"] = replay_events(result)
    return result


def fast_cell(tracer: Any, config: Any, profile: str, seed: int, num_ops: int,
              traces: Dict[Tuple[str, int, int], Any]) -> Any:
    """One fast-engine cell: generate and ingest once per trace (as a
    worker's trace store does), precompute keys, build, replay."""
    from repro.fastsim import ColumnarTrace, FastSimulator

    trace_key = (profile, seed, num_ops)
    trace = traces.get(trace_key)
    if trace is None:
        ops = generate(tracer, profile, seed, num_ops)
        with tracer.span("fastsim.ingest") as span:
            trace = ColumnarTrace(ops)
            span.attrs["ops"] = trace.num_ops
        traces[trace_key] = trace
    with tracer.span("fastsim.setup") as span:
        fast = FastSimulator(config, workload=profile, seed=seed)
        span.attrs["cells"] = 1
        span.attrs["fallbacks"] = 0 if fast.used_fast_path else 1
    if not fast.used_fast_path:
        with tracer.span("sim.replay") as span:
            result = fast.run(trace)
            span.attrs["ops"] = trace.num_ops
            span.attrs["events"] = replay_events(result)
        return result
    with tracer.span("fastsim.keys"):
        # The kernel memoizes these per trace and geometry; computing them
        # here, with the kernel's own geometry, moves that work out of the
        # replay span into its own.
        trace.busy_cycles_for(config.core.issue_width)
        trace.block_keys_for(config.l1.line_bytes.bit_length() - 1,
                             config.l1.num_sets - 1)
    with tracer.span("fastsim.replay") as span:
        result = fast.run(trace)
        span.attrs["ops"] = trace.num_ops
    return result


# ---- workloads -----------------------------------------------------------------

class Workload:
    """One benchmark workload; see the module docstring."""

    name = ""
    round_size = 1  # requests per rotation: a run stops on a whole round
    pool_workers = 0  # SweepRunner pool size of a timed request
    # Timed requests a run makes at least: enough for a tail percentile
    # with ten samples beyond it.
    min_requests = 11
    # Whether a run re-checks the simulator's fixed cells (golden.py).
    checks_fixed_cells = True

    def __init__(self, bench_seed: int, work_dir: Path, stream: int = 0) -> None:
        self.seeds = SeedStream(bench_seed, stream)
        self.work_dir = work_dir
        # (record, reference thunk, actual canonical JSON) to re-check
        # after the timed loop.
        self._samples: List[Tuple[RequestRecord, Callable[[], str], str]] = []

    def setup(self) -> None:
        """Set-up work besides the warm-up request."""

    def new_request(self) -> Any:
        raise NotImplementedError

    def run(self, request: Any) -> Any:
        raise NotImplementedError

    def work(self, request: Any) -> int:
        """Simulated trace ops (or source lines) one request handles."""
        raise NotImplementedError

    def check(self, record: RequestRecord, request: Any, output: Any,
              traced: bool) -> List[str]:
        raise NotImplementedError

    def warmup_checks(self, request: Any, output: Any) -> List[str]:
        return []

    def traced(self, request: Any, tracer: Any) -> Any:
        raise NotImplementedError

    def probes(self, tracer: Any) -> Dict[str, float]:
        """Per-layer figures measured by a probe outside the requests."""
        return {}

    def modelled(self) -> Dict[str, float]:
        return {}

    def counted(self, request: Any) -> Dict[str, float]:
        """Normalizers of the call counts: gen/replayed ops and cells."""
        return {}

    def reset(self, request: Any) -> None:
        """Undo what a traced replay of ``request`` left behind."""

    def post_checks(self) -> None:
        """Compare the sampled outputs with references, outside timing."""
        for record, reference, actual in self._samples:
            if reference() != actual:
                record.failures.append("output differs from its reference")
        self._samples.clear()

    def run_checks(self) -> List[str]:
        """Run-level checks that do not depend on the seed."""
        return golden.golden_failures() if self.checks_fixed_cells else []

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


@dataclasses.dataclass(frozen=True)
class Cell:
    profile: str
    seed: int


class CellCold(Workload):
    """Back-to-back cold ``run_workload`` calls at the default engine."""

    name = "cell_cold"
    round_size = len(CELL_PROFILES)

    def __init__(self, bench_seed: int, work_dir: Path, stream: int = 0) -> None:
        super().__init__(bench_seed, work_dir, stream)
        from repro.config import SystemConfig
        from repro.sim.runner import with_policy

        self.config = with_policy(SystemConfig(), "mapg")
        self.engine = default_engine()
        self._issued = 0
        self._first_round: List[Tuple[Cell, Any]] = []
        self._checked_traced = False

    def new_request(self) -> Cell:
        profile = CELL_PROFILES[self._issued % len(CELL_PROFILES)]
        self._issued += 1
        return Cell(profile, self.seeds.next())

    def run(self, cell: Cell) -> Any:
        from repro.sim.runner import run_workload

        return run_workload(self.config, cell.profile, CELL_OPS, seed=cell.seed)

    def work(self, cell: Cell) -> int:
        return CELL_OPS

    def _oracle_reference(self, cell: Cell) -> Callable[[], str]:
        from repro.sim.runner import run_workload

        return lambda: result_json(run_workload(
            self.config, cell.profile, CELL_OPS, seed=cell.seed,
            engine="oracle"))

    def check(self, record: RequestRecord, cell: Cell, result: Any,
              traced: bool) -> List[str]:
        # The first round of timed cells, and the first traced cell, are
        # re-run on the oracle engine after the loop.  While the default
        # engine is the oracle this checks that the same seed gives the
        # same bytes and that the traced chain equals the public path;
        # the stored fixed cells (golden.py) pin the outputs themselves.
        if not traced and record.index < len(CELL_PROFILES):
            self._first_round.append((cell, result))
            self._samples.append((record, self._oracle_reference(cell),
                                  result_json(result)))
        elif traced and not self._checked_traced:
            self._checked_traced = True
            self._samples.append((record, self._oracle_reference(cell),
                                  result_json(result)))
        return result_failures(result, cell.profile, "mapg")

    def traced(self, cell: Cell, tracer: Any) -> Any:
        if self.engine == "fast":
            return fast_cell(tracer, self.config, cell.profile, cell.seed,
                             CELL_OPS, {})
        return oracle_cell(tracer, self.config, cell.profile, cell.seed,
                           CELL_OPS)

    def counted(self, cell: Cell) -> Dict[str, float]:
        return {"gen_ops": CELL_OPS, "replay_ops": CELL_OPS, "cells": 1}

    def modelled(self) -> Dict[str, float]:
        from repro.sim.runner import run_workload, with_policy

        never_config = with_policy(self.config, "never")
        never = [run_workload(never_config, cell.profile, CELL_OPS,
                              seed=cell.seed)
                 for cell, _ in self._first_round]
        return modelled_figures([result for _, result in self._first_round],
                                never)


def sweep_specs(seeds: Dict[str, int], num_ops: int) -> List[Any]:
    """The sweep matrix: every profile under the six policies on the
    default config, plus one prefetcher cell (outside the fast envelope)."""
    from repro.config import PrefetcherConfig, SystemConfig
    from repro.exec import JobSpec
    from repro.sim.runner import with_policy

    base = SystemConfig()
    prefetching = with_policy(base.replace(
        prefetcher=PrefetcherConfig(enabled=True, degree=4)), "mapg")
    specs = []
    for profile in SWEEP_PROFILES:
        configs = [with_policy(base, policy) for policy in POLICIES]
        configs.append(prefetching)
        specs.extend(JobSpec(config=config, profile=profile, num_ops=num_ops,
                             seed=seeds[profile], engine="fast")
                     for config in configs)
    return specs


def sweep_modelled(specs: Sequence[Any], results: Sequence[Any]) -> Dict[str, float]:
    by_cell = {(spec.profile, spec.config.gating.policy,
                spec.config.prefetcher.enabled): result
               for spec, result in zip(specs, results)}
    mapg = [by_cell[(profile, "mapg", False)] for profile in SWEEP_PROFILES]
    never = [by_cell[(profile, "never", False)] for profile in SWEEP_PROFILES]
    return modelled_figures(mapg, never)


def sweep_failures(specs: Sequence[Any], results: Sequence[Any]) -> List[str]:
    if len(results) != len(specs):
        return [f"{len(results)} results for {len(specs)} cells"]
    failures = []
    for spec, result in zip(specs, results):
        failures.extend(result_failures(result, spec.profile,
                                        spec.config.gating.policy))
    return failures


def cache_entries(cache_dir: Path) -> int:
    return len(list(cache_dir.glob("*/*.json")))


@dataclasses.dataclass
class SweepRequest:
    specs: List[Any]
    cache_dir: Path


class SweepCold(Workload):
    """One pooled fast-engine sweep per request into an empty cache."""

    name = "sweep_cold"
    # A sweep takes 1.3 to 2.5 s: eleven of them would not fit a run, and
    # only cell_cold reports a true tail.
    min_requests = 7

    def __init__(self, bench_seed: int, work_dir: Path, stream: int = 0) -> None:
        super().__init__(bench_seed, work_dir, stream)
        self.cells = len(SWEEP_PROFILES) * (len(POLICIES) + 1)
        self.pool_workers = min(nproc(), self.cells)
        self._issued = 0
        self._warm: Optional[Tuple[List[Any], List[Any]]] = None

    def new_request(self) -> SweepRequest:
        self._issued += 1
        seeds = {profile: self.seeds.next() for profile in SWEEP_PROFILES}
        return SweepRequest(sweep_specs(seeds, SWEEP_OPS),
                            self.work_dir / f"cache-{self._issued}")

    def run(self, request: SweepRequest) -> List[Any]:
        from repro.exec import ResultCache, SweepRunner

        runner = SweepRunner(jobs=self.pool_workers,
                             cache=ResultCache(str(request.cache_dir)))
        return runner.run(request.specs)

    def work(self, request: SweepRequest) -> int:
        return len(request.specs) * SWEEP_OPS

    def check(self, record: RequestRecord, request: SweepRequest,
              results: List[Any], traced: bool) -> List[str]:
        failures = sweep_failures(request.specs, results)
        stored = cache_entries(request.cache_dir)
        if stored != len(request.specs):
            failures.append(f"{stored} cache entries for "
                            f"{len(request.specs)} cells")
        shutil.rmtree(request.cache_dir, ignore_errors=True)
        # One in-envelope cell of each of the first requests against the
        # oracle engine.  The stride (7, coprime with the 24 cells) makes
        # consecutive requests sample different profiles and policies.
        if len(self._samples) >= ORACLE_SAMPLES:
            return failures
        in_envelope = [index for index, spec in enumerate(request.specs)
                       if not spec.config.prefetcher.enabled]
        index = in_envelope[7 * record.index % len(in_envelope)]
        spec = dataclasses.replace(request.specs[index], engine="oracle")
        if index < len(results):
            self._samples.append((record,
                                  lambda: result_json(spec.execute()),
                                  result_json(results[index])))
        return failures

    def warmup_checks(self, request: SweepRequest, results: List[Any]) -> List[str]:
        from repro.exec import SweepRunner

        self._warm = (request.specs, results)
        serial = SweepRunner(jobs=1).run(request.specs)
        failures = sweep_failures(request.specs, results)
        if [result_json(r) for r in serial] != [result_json(r) for r in results]:
            failures.append("the pooled sweep differs from the serial sweep")
        shutil.rmtree(request.cache_dir, ignore_errors=True)
        return failures

    def traced(self, request: SweepRequest, tracer: Any) -> List[Any]:
        """The sweep's cells in-process, in the runner's dispatch order."""
        from repro.exec import ResultCache, result_from_dict, result_to_dict

        cache = ResultCache(str(request.cache_dir))
        traces: Dict[Tuple[str, int, int], Any] = {}
        results = []
        for spec in request.specs:  # grouped by trace, as the runner orders them
            with tracer.span("exec.key"):
                spec.key
                cache.key(spec)
            with tracer.span("exec.cache.miss_probe") as span:
                span.attrs["hit"] = 0 if cache.load(spec) is None else 1
            result = fast_cell(tracer, spec.config, spec.profile, spec.seed,
                               spec.num_ops, traces)
            with tracer.span("exec.serialize"):
                result = result_from_dict(result_to_dict(result))
            with tracer.span("exec.cache.store"):
                cache.store(spec, result)
            results.append(result)
        return results

    def reset(self, request: SweepRequest) -> None:
        shutil.rmtree(request.cache_dir, ignore_errors=True)

    def probes(self, tracer: Any) -> Dict[str, float]:
        """Pool start-up: a two-cell one-op sweep pooled minus serial."""
        from repro.exec import SweepRunner

        jobs = min(nproc(), 2)
        differences = []
        for _ in range(3):
            timings = []
            for runner_jobs in (jobs, 1):
                specs = sweep_specs({p: self.seeds.next()
                                     for p in SWEEP_PROFILES}, 1)[:2]
                with tracer.span("exec.pool.probe",
                                 request=f"probe:pool:{runner_jobs}") as span:
                    SweepRunner(jobs=runner_jobs).run(specs)
                timings.append(span.seconds)
            differences.append(timings[0] - timings[1])
        return {"exec.pool.spawn_s": statistics.median(differences),
                "exec.pool.workers": float(self.pool_workers)}

    def counted(self, request: SweepRequest) -> Dict[str, float]:
        return {"gen_ops": len(SWEEP_PROFILES) * SWEEP_OPS,
                "replay_ops": len(request.specs) * SWEEP_OPS,
                "cells": len(request.specs)}

    def modelled(self) -> Dict[str, float]:
        if self._warm is None:
            raise BenchmarkError("no warm-up sweep to take figures from")
        return sweep_modelled(*self._warm)


class SweepWarm(Workload):
    """The sweep matrix re-run against a cache filled in set-up."""

    name = "sweep_warm"

    def setup(self) -> None:
        from repro.exec import ResultCache, SweepRunner

        self.specs = []
        for _ in range(WARM_SEEDS):
            seeds = {profile: self.seeds.next() for profile in SWEEP_PROFILES}
            self.specs.extend(sweep_specs(seeds, WARM_OPS))
        self.cache_dir = self.work_dir / "cache"
        self.cold = SweepRunner(jobs=1, cache=ResultCache(
            str(self.cache_dir))).run(self.specs)
        self.expected = [result_json(result) for result in self.cold]

    def new_request(self) -> List[Any]:
        return self.specs

    def run(self, specs: List[Any]) -> Tuple[List[Any], Dict[str, int]]:
        from repro.exec import ResultCache, SweepRunner

        runner = SweepRunner(jobs=1, cache=ResultCache(str(self.cache_dir)))
        return runner.run(specs), runner.stats()

    def work(self, specs: List[Any]) -> int:
        return len(specs) * WARM_OPS

    def check(self, record: RequestRecord, specs: List[Any],
              output: Tuple[List[Any], Dict[str, int]], traced: bool) -> List[str]:
        results, stats = output
        failures = []
        if stats["executed"] or stats["cache_hits"] != len(specs):
            failures.append(f"not every cell was a hit: {stats}")
        if [result_json(result) for result in results] != self.expected:
            failures.append("warm results differ from the cold results cached")
        return failures

    def traced(self, specs: List[Any], tracer: Any) -> Tuple[List[Any], Dict[str, int]]:
        from repro.exec import ResultCache

        cache = ResultCache(str(self.cache_dir))
        results = []
        for spec in specs:
            with tracer.span("exec.key"):
                spec.key
                cache.key(spec)
            with tracer.span("exec.cache.hit_load") as span:
                result = cache.load(spec)
                span.attrs["hit"] = 0 if result is None else 1
            results.append(result)
        hits = sum(result is not None for result in results)
        return results, {"executed": 0, "cache_hits": hits}

    def counted(self, specs: List[Any]) -> Dict[str, float]:
        return {"cells": len(specs)}

    def modelled(self) -> Dict[str, float]:
        matrix = len(self.specs) // WARM_SEEDS
        return sweep_modelled(self.specs[:matrix], self.cold[:matrix])


def finding_rows(findings: Sequence[Any], root: Path) -> List[Tuple]:
    """Findings as plain rows, with paths relative to the linted tree."""
    rows = []
    for finding in findings:
        path = Path(finding.path)
        if path.is_absolute():
            path = path.relative_to(root)
        rows.append((path.as_posix(), finding.line, finding.column,
                     finding.rule_id, finding.message))
    return sorted(rows)


def materialize_corpus(destination: Path) -> List[str]:
    """Unpack the frozen lint input, archived by ``git archive`` from the
    commit the benchmark was defined at; returns its top-level paths.

    The archive's digest and its embedded commit id must match the
    manifest.  There is no fallback to the live tree: source added after
    that commit must not move this workload.
    """
    try:
        manifest = json.loads(CORPUS_MANIFEST.read_text(encoding="utf-8"))
        payload = CORPUS_ARCHIVE.read_bytes()
    except OSError as exc:
        raise BenchmarkError(f"lint corpus missing: {exc}") from exc
    if hashlib.sha256(payload).hexdigest() != manifest["sha256"]:
        raise BenchmarkError("lint corpus archive does not match its manifest")
    with tarfile.open(CORPUS_ARCHIVE) as archive:
        if archive.pax_headers.get("comment") != manifest["commit"]:
            raise BenchmarkError("lint corpus is not the archive of "
                                 f"commit {manifest['commit']}")
        archive.extractall(destination, filter="data")
    return [str(destination / top) for top in manifest["paths"]]


class LintCold(Workload):
    """One cold, serial, uncached mapglint pass over the frozen tree."""

    name = "lint_cold"
    # A pass takes 3 to 6 s: eleven of them would not fit a run, and
    # fewer than five leave its median at the mercy of the box's drift.
    min_requests = 5
    checks_fixed_cells = False

    def setup(self) -> None:
        from repro.lint.runner import collect_files

        self.root = self.work_dir / "lint"
        self.paths = materialize_corpus(self.root)
        self.files = collect_files(self.paths)
        self.lines = sum(len(Path(path).read_text(encoding="utf-8").splitlines())
                         for path in self.files)
        self.expected: Optional[List[Tuple]] = None
        self._summaries: List[Any] = []

    def new_request(self) -> List[str]:
        return self.paths

    def run(self, paths: List[str]) -> Any:
        from repro.lint.baseline import Baseline
        from repro.lint.runner import lint_paths

        return lint_paths(paths, baseline=Baseline(), jobs=1, cache=None)

    def work(self, paths: List[str]) -> int:
        return self.lines

    def check(self, record: RequestRecord, paths: List[str], report: Any,
              traced: bool) -> List[str]:
        failures = []
        if report.parse_errors:
            failures.append(f"{len(report.parse_errors)} parse errors")
        if report.files_checked != len(self.files):
            failures.append(f"{report.files_checked} files checked of "
                            f"{len(self.files)}")
        if finding_rows(report.findings, self.root) != self.expected:
            failures.append("findings differ from the warm-up pass")
        return failures

    def warmup_checks(self, paths: List[str], report: Any) -> List[str]:
        self.expected = finding_rows(report.findings, self.root)
        return ([f"{len(report.parse_errors)} parse errors"]
                if report.parse_errors else [])

    def traced(self, paths: List[str], tracer: Any) -> Any:
        """``lint_files`` at jobs=1 without a cache, phase by phase."""
        from repro.lint.base import FileContext, all_rules, parse_suppressions
        from repro.lint.baseline import Baseline
        from repro.lint.project.summary import extract_summary
        from repro.lint.runner import LintReport, collect_files, run_project_rules

        with tracer.span("lint.collect") as span:
            files = collect_files(paths)
            span.attrs["files"] = len(files)
        raw: List[Any] = []
        summaries = []
        for path in files:
            with tracer.span("lint.file_rules"):
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                tree = ast.parse(source, filename=path)
                context = FileContext(path, source, tree)
                for rule_class in all_rules():
                    raw.extend(rule_class().check(context))
            with tracer.span("lint.summary"):
                summaries.append(extract_summary(path, source, tree,
                                                 parse_suppressions(source)))
        with tracer.span("lint.project"):
            raw.extend(run_project_rules(summaries))
        self._summaries = summaries
        findings, _ = Baseline().filter(raw)
        return LintReport(findings=findings, files_checked=len(files))

    def probes(self, tracer: Any) -> Dict[str, float]:
        """Each fixpoint family's rules alone, over the last summaries."""
        from repro.lint.runner import run_project_rules

        figures = {}
        for family, rule_ids in LINT_FAMILIES.items():
            timings = []
            for repeat in range(3):
                with tracer.span(f"lint.project.{family}",
                                 request=f"probe:{family}:{repeat}") as span:
                    run_project_rules(self._summaries, rule_ids=rule_ids)
                timings.append(span.seconds)
            figures[f"lint.project.{family}_s"] = statistics.median(timings)
        return figures


WORKLOADS = {cls.name: cls for cls in (CellCold, SweepCold, SweepWarm, LintCold)}


def profile_passes(workload_class: type, bench_seed: int, work_dir: Path
                   ) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, float]]:
    """Python call counts by repro subpackage over one request, twice.

    A fresh workload on seed stream 1 makes the request, so its inputs
    depend only on the benchmark seed.  The request runs once unprofiled
    first, so lazily built module state is in place for both profiled
    passes; every pass replays identical inputs through the layer chain,
    which touches no per-process memo.
    """
    import cProfile

    from harness import calls_by_package

    workload = workload_class(bench_seed, work_dir, stream=1)
    try:
        workload.setup()
        request = workload.new_request()
        workload.traced(request, NullTracer())
        workload.reset(request)
        passes = []
        for _ in range(2):
            profiler = cProfile.Profile()
            profiler.enable()
            workload.traced(request, NullTracer())
            profiler.disable()
            workload.reset(request)
            profiler.create_stats()
            passes.append(calls_by_package(profiler.stats))
        return passes[0], passes[1], workload.counted(request)
    finally:
        workload.cleanup()
