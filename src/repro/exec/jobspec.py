"""Canonical description of one simulation cell, hashable to a stable key.

A :class:`JobSpec` pins everything that determines a
:class:`~repro.sim.results.SimulationResult`: the full system
configuration (via its sha256 digest from :mod:`repro.obs.manifest`), the
workload profile, the trace seed, the op counts, and the operating
temperature.  Two specs with equal keys produce bit-identical results by
the determinism discipline, which is what makes the key safe to use as a
cache address and as the deterministic merge order of parallel sweeps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.engines import DEFAULT_ENGINE, validate_engine
from repro.errors import ConfigError
from repro.obs.manifest import config_digest

JOB_SCHEMA = "mapg.job-spec/1"


@dataclass(frozen=True)
class JobSpec:
    """One simulation cell: exactly the inputs of ``run_workload``."""

    config: SystemConfig
    profile: str
    num_ops: int
    seed: int = 1
    warmup_ops: int = 0
    temperature_c: Optional[float] = None
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        if not self.profile:
            raise ConfigError("JobSpec needs a workload profile name")
        if self.num_ops < 0:
            raise ConfigError(f"num_ops must be >= 0, got {self.num_ops}")
        if self.warmup_ops < 0:
            raise ConfigError(
                f"warmup_ops must be >= 0, got {self.warmup_ops}")
        validate_engine(self.engine)

    def canonical(self) -> Dict[str, Any]:
        """The key-relevant content, JSON-ready and stably ordered.

        The configuration enters through its sha256 digest: any field
        change anywhere in the config tree changes the digest and
        therefore the job key.

        ``engine`` is deliberately **not** part of the key: the fast
        kernel's contract is bit-identical results (enforced by the
        crosscheck parity suite), so oracle- and fast-engine runs of the
        same cell are the same result and may share cache entries.
        """
        return {
            "schema": JOB_SCHEMA,
            "config_digest": config_digest(self.config),
            "profile": self.profile,
            "num_ops": self.num_ops,
            "seed": self.seed,
            "warmup_ops": self.warmup_ops,
            "temperature_c": self.temperature_c,
        }

    @property
    def key(self) -> str:
        """Stable sha256 over the canonical form (code version excluded —
        the :class:`~repro.exec.cache.ResultCache` mixes that in)."""
        payload = json.dumps(self.canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_payload(self) -> Dict[str, Any]:
        """A picklable, spawn-safe wire form for pool workers."""
        return {
            "config": self.config.to_dict(),
            "profile": self.profile,
            "num_ops": self.num_ops,
            "seed": self.seed,
            "warmup_ops": self.warmup_ops,
            "temperature_c": self.temperature_c,
            "engine": self.engine,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_payload` output (in a worker)."""
        return cls(
            config=SystemConfig.from_dict(payload["config"]),
            profile=payload["profile"],
            num_ops=payload["num_ops"],
            seed=payload["seed"],
            warmup_ops=payload["warmup_ops"],
            temperature_c=payload["temperature_c"],
            engine=payload["engine"],
        )

    def execute(self) -> Any:
        """Run this cell and return its ``SimulationResult``.

        Exactly ``run_workload`` semantics, with the (warmup, measured)
        traces memoized per process in
        :func:`~repro.fastsim.columnar.shared_columnar_store` for either
        engine.  ``engine="fast"`` routes through the columnar batched
        kernel (bit-identical by contract).
        """
        return self.execute_with_telemetry()[0]

    def execute_with_telemetry(self) -> Tuple[Any, Dict[str, Any]]:
        """:meth:`execute`, plus how the cell actually ran.

        Returns ``(result, telemetry)``; see
        :func:`repro.sim.runner._dispatch_cell` for the telemetry fields.
        It is the ground truth the sweep recorder aggregates, so a sweep
        manifest can show how much of the grid took the fast path.
        """
        from repro.sim.runner import _dispatch_cell

        return _dispatch_cell(self.config, self.profile, self.num_ops,
                              seed=self.seed,
                              temperature_c=self.temperature_c,
                              warmup_ops=self.warmup_ops, engine=self.engine)
