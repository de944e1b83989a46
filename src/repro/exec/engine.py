"""The parallel sweep runner: cache, fan out, merge deterministically.

``SweepRunner.run`` takes a sequence of :class:`~repro.exec.jobspec.JobSpec`
cells and returns their results **in input order**, built in three steps:

1. **Cache probe** — every distinct spec is looked up in the
   :class:`~repro.exec.cache.ResultCache` (when one is attached); hits
   skip simulation entirely.
2. **Execution** — cache misses run either inline (``jobs=1``) or over a
   spawn-safe ``multiprocessing`` pool.  Workers receive plain-dict
   payloads (no pickled code objects) and rebuild the spec.  Every
   process memoizes traces in its own
   :func:`~repro.fastsim.columnar.shared_columnar_store`, so a process
   simulating several policies of one workload generates its trace once.
3. **Deterministic merge** — results are keyed by the spec's sha256 job
   key and emitted in the caller's spec order, so sweep output is
   byte-identical at any worker count and any completion order.

Nothing here reads the wall clock or draws randomness: scheduling order
cannot leak into results because every cell is hermetic by construction.
Sweep telemetry (``recorder=``) keeps that contract: every emission is
behind a single ``self._obs.enabled`` attribute check, all timestamps
live inside :mod:`repro.obs.sweep` (this module stays clock-free under
DET01), and worker identities ride back as plain dicts the parent strips
before results merge — so output is byte-identical with the recorder
attached or not, at any ``jobs`` count.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, SweepError
from repro.exec.cache import ResultCache, result_from_dict, result_to_dict
from repro.exec.jobspec import JobSpec
from repro.exec.version import simulation_version
from repro.obs.sweep import NULL_SWEEP_RECORDER, NullSweepRecorder
from repro.sim.results import SimulationResult


def _execute_payload(item: "Tuple[str, Dict[str, Any]]"  # mapglint: error-boundary
                     ) -> "Tuple[str, Dict[str, Any]]":
    """Pool worker: rebuild one spec, simulate it, return (key, result).

    Module-level (not a closure) so it pickles under the ``spawn`` start
    method; the result travels back as a plain dict for the same reason.
    The worker's identity and engine telemetry ride along under
    ``__mapg_obs__``, which the parent pops before rebuilding the result,
    so telemetry can never reach a
    :class:`~repro.sim.results.SimulationResult`.

    Nothing may escape a pool worker — an uncaught exception surfaces as
    a bare re-raise at the pool join and discards every in-flight cell —
    so any failure comes back as a ``__mapg_error__`` record under the
    same key, and the parent aggregates them into one
    :class:`~repro.errors.SweepError` after the surviving cells land.
    """
    key, payload = item
    obs: Dict[str, Any] = {"worker": os.getpid()}
    try:
        result, telemetry = JobSpec.from_payload(payload) \
            .execute_with_telemetry()
    except Exception as exc:
        return key, {"__mapg_error__": f"{type(exc).__name__}: {exc}",
                     "__mapg_obs__": obs}
    obs["engine"] = telemetry["engine"]
    obs["fallback_reasons"] = telemetry["fallback_reasons"]
    out = result_to_dict(result)
    out["__mapg_obs__"] = obs
    return key, out


class SweepRunner:
    """Run many simulation cells: cached, parallel, deterministic.

    ``recorder`` accepts a :class:`~repro.obs.sweep.SweepRecorder`; the
    default is the shared :data:`~repro.obs.sweep.NULL_SWEEP_RECORDER`,
    so an unobserved sweep pays one attribute check per lifecycle site.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 recorder: Optional[NullSweepRecorder] = None) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self._obs = recorder if recorder is not None else NULL_SWEEP_RECORDER
        self.executed = 0
        self.cache_hits = 0

    def run(self, specs: Sequence[JobSpec]) -> List[SimulationResult]:  # mapglint: error-boundary
        """Results for ``specs``, in input order; duplicates run once.

        Failures degrade gracefully: a failing cell never takes the
        sweep down with it.  Every other cell still completes and (when
        a cache is attached) lands in the cache; the failures are then
        re-raised together as one :class:`~repro.errors.SweepError`
        naming each failed cell by its spec key, so a 10^4-cell study
        loses only the broken cells — and only once.
        """
        unique: "OrderedDict[str, JobSpec]" = OrderedDict()
        for spec in specs:
            unique.setdefault(spec.key, spec)
        if self._obs.enabled:
            self._obs.sweep_begin(
                cells=len(specs), unique=len(unique), jobs=self.jobs,
                simulation_version=simulation_version(),
                cache_attached=self.cache is not None)
            for key, spec in unique.items():
                self._obs.cell_queued(key, profile=spec.profile,
                                      policy=spec.config.gating.policy,
                                      seed=spec.seed, num_ops=spec.num_ops,
                                      engine=spec.engine)

        results: Dict[str, SimulationResult] = {}
        if self.cache is not None:
            for key, spec in unique.items():
                cached = self.cache.load(spec)
                if cached is not None:
                    results[key] = cached
                    if self._obs.enabled:
                        self._obs.cell_cache_hit(key)
                elif self._obs.enabled:
                    self._obs.cell_cache_miss(key)
        self.cache_hits += len(results)

        # Deterministic dispatch order: cells sharing a trace first (so the
        # LRU trace store never thrashes), content key last —
        # the work list is identical however the caller ordered the sweep.
        missing = sorted(
            ((key, spec) for key, spec in unique.items()
             if key not in results),
            key=lambda item: (item[1].profile, item[1].seed,
                              item[1].warmup_ops, item[1].num_ops, item[0]))
        failures: Dict[str, str] = {}
        if self.jobs > 1 and len(missing) > 1:
            payloads = [(key, spec.to_payload()) for key, spec in missing]
            context = multiprocessing.get_context("spawn")
            workers = min(self.jobs, len(payloads))
            if self._obs.enabled:
                self._obs.dispatch(cells=len(payloads), workers=workers,
                                   mode="pool")
            with context.Pool(processes=workers) as pool:
                # The worker's only effect beyond simulation is os.getpid()
                # for the telemetry side channel; it is stripped below
                # before any result is rebuilt, so the PROCESS effect cannot
                # reach simulation output.
                result_iter = pool.imap_unordered(  # mapglint: disable=PURE01
                    _execute_payload, payloads, chunksize=1)
                for key, result_dict in result_iter:
                    obs_info = result_dict.pop("__mapg_obs__")
                    worker_id = int(obs_info["worker"])
                    error = result_dict.get("__mapg_error__")
                    if error is not None:
                        failures[key] = str(error)
                        if self._obs.enabled:
                            self._obs.cell_failed(key, failures[key],
                                                  worker=worker_id)
                    else:
                        results[key] = result_from_dict(result_dict)
                        if self._obs.enabled:
                            self._obs.cell_done(
                                key, worker=worker_id,
                                engine=obs_info["engine"],
                                fallback_reasons=obs_info["fallback_reasons"])
        else:
            if missing and self._obs.enabled:
                self._obs.dispatch(cells=len(missing), workers=1,
                                   mode="serial")
            for key, spec in missing:
                if self._obs.enabled:
                    self._obs.cell_start(key)
                try:
                    results[key], telemetry = spec.execute_with_telemetry()
                except Exception as exc:
                    failures[key] = f"{type(exc).__name__}: {exc}"
                    if self._obs.enabled:
                        self._obs.cell_failed(key, failures[key])
                else:
                    if self._obs.enabled:
                        self._obs.cell_done(
                            key, engine=telemetry["engine"],
                            fallback_reasons=telemetry["fallback_reasons"])
        self.executed += len(missing)

        if self.cache is not None:
            for key, spec in missing:
                if key in results:
                    self.cache.store(spec, results[key])
        if self._obs.enabled:
            self._obs.sweep_end()
        if failures:
            raise SweepError(failures)
        return [results[spec.key] for spec in specs]

    def stats(self) -> Dict[str, int]:
        """Lifetime counters: cells executed vs served from the cache."""
        return {"executed": self.executed, "cache_hits": self.cache_hits}
