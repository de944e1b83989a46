"""Cycle-accurate cross-checks: wakeup algebra, and kernel vs oracle.

``repro.core.wakeup.resolve_wakeup`` computes a gated stall's timeline
*algebraically*.  :func:`resolve_by_events` recomputes the same timeline
the way the hardware actually produces it — as a sequence of discrete
events on the :class:`~repro.events.EventQueue`:

* ``t = 0``        stall begins, drain starts
* ``t = drain``    drain completes; the domain sleeps (unless aborted)
* planned timer    wake starts (if scheduled and not already triggered)
* ``t = D``        data returns; the fallback trigger fires if the domain
                   is still asleep
* trigger + token  wake actually begins (token grant may defer it)
* wake start + w   domain ready; the stall ends at ``max(D, ready)``

The two implementations share no code, so agreement across randomized
inputs (``tests/test_crosscheck.py``) is genuine evidence the algebra is
right — the same role a SPICE-vs-analytic comparison plays for the circuit
model.

:func:`crosscheck_engines` extends the same discipline one level up: it
runs a whole simulation cell through the event-driven oracle *and*
through the columnar batched kernel (:mod:`repro.fastsim`) and compares
the two :class:`~repro.sim.results.SimulationResult` objects **byte for
byte** (canonical JSON of every field — energy ledger, state cycles,
controller counters, histograms, timeline).  The fast kernel's contract
is bit-identity, not tolerance bands, so any divergence is a bug by
definition.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Optional, Tuple

from repro.core.wakeup import WakeupPlan
from repro.errors import SimulationError
from repro.events import EventQueue


class _DomainState:
    """Mutable event-driven state of one gated domain during one stall."""

    __slots__ = ("asleep", "wake_started", "wake_start_cycle",
                 "data_returned", "drain_done_cycle")

    def __init__(self) -> None:
        self.asleep = False
        self.wake_started = False
        self.wake_start_cycle: Optional[int] = None
        self.data_returned = False
        self.drain_done_cycle: Optional[int] = None


def resolve_by_events(actual_stall: int, drain: int, wake: int,
                      planned_wake_offset: Optional[int],
                      token_delay: int = 0) -> WakeupPlan:
    """Event-driven equivalent of :func:`repro.core.wakeup.resolve_wakeup`."""
    if actual_stall < 0 or drain < 0 or wake < 0 or token_delay < 0:
        raise SimulationError("cross-check needs non-negative cycle counts")
    if planned_wake_offset is not None and planned_wake_offset < drain:
        raise SimulationError("planned wake offset precedes drain end")

    # Abort: data returns while still draining — no sleep, no wake.
    if actual_stall <= drain:
        return WakeupPlan(drain=actual_stall, sleep=0, wake=0,
                          idle_awake=0, penalty=0)

    queue = EventQueue()
    state = _DomainState()

    def drain_done() -> None:
        state.drain_done_cycle = queue.now
        state.asleep = True

    def try_start_wake() -> None:
        if state.wake_started or not state.asleep:
            return
        state.wake_started = True
        state.wake_start_cycle = queue.now + token_delay

    def data_return() -> None:
        state.data_returned = True
        try_start_wake()  # fallback trigger

    queue.schedule(drain, drain_done)
    queue.schedule(actual_stall, data_return)
    if planned_wake_offset is not None:
        queue.schedule(planned_wake_offset, try_start_wake)
    queue.run()

    if not state.wake_started or state.wake_start_cycle is None:
        raise SimulationError("wake never started — event model bug")

    ready = state.wake_start_cycle + wake
    sleep = state.wake_start_cycle - drain
    penalty = max(0, ready - actual_stall)
    idle_awake = max(0, actual_stall - ready)
    # The wake trigger never precedes drain completion, so the sleep always
    # contains the whole token wait.
    return WakeupPlan(drain=drain, sleep=sleep, wake=wake,
                      idle_awake=idle_awake, penalty=penalty,
                      token_wait=token_delay)


# ---- kernel vs oracle -------------------------------------------------------------


def result_digest(result: Any) -> str:
    """sha256 over the canonical JSON of a ``SimulationResult``.

    Every field participates — two results share a digest iff they are
    byte-identical under ``json.dumps(asdict(result), sort_keys=True)``,
    the same serialization the parity tests compare directly.
    """
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class EngineCrosscheck:
    """Outcome of one oracle-vs-kernel comparison of a simulation cell."""

    workload: str
    policy: str
    num_ops: int
    seed: int
    warmup_ops: int
    identical: bool
    oracle_digest: str
    fast_digest: str
    diverging_fields: Tuple[str, ...]
    fallback_reasons: Tuple[str, ...]

    @property
    def used_fast_path(self) -> bool:
        """False when the kernel transparently fell back to the oracle
        (the comparison is then trivially identical, not evidence)."""
        return not self.fallback_reasons


def crosscheck_engines(config: Any, profile_name: str, num_ops: int,
                       seed: int = 1, warmup_ops: int = 0,
                       temperature_c: Optional[float] = None
                       ) -> EngineCrosscheck:
    """Run one cell through both engines and compare byte-for-byte.

    The oracle runs via the streaming generator path and the kernel via
    its columnar ingest, exactly as ``run_workload(engine=...)`` would
    dispatch them — so this checks the end-to-end user-visible contract,
    not a lab setup.  Returns the comparison; use
    :func:`verify_engines` to turn divergence into an exception.
    """
    from repro.sim.runner import _dispatch_cell, run_workload

    oracle = run_workload(config, profile_name, num_ops, seed=seed,
                          temperature_c=temperature_c,
                          warmup_ops=warmup_ops, engine="oracle")
    result, telemetry = _dispatch_cell(
        config, profile_name, num_ops, seed=seed, temperature_c=temperature_c,
        warmup_ops=warmup_ops, engine="fast")

    oracle_json = dataclasses.asdict(oracle)
    fast_json = dataclasses.asdict(result)
    diverging = tuple(
        field for field in sorted(set(oracle_json) | set(fast_json))
        if json.dumps(oracle_json.get(field), sort_keys=True)
        != json.dumps(fast_json.get(field), sort_keys=True))
    return EngineCrosscheck(
        workload=profile_name, policy=config.gating.policy,
        num_ops=num_ops, seed=seed, warmup_ops=warmup_ops,
        identical=not diverging,
        oracle_digest=result_digest(oracle),
        fast_digest=result_digest(result),
        diverging_fields=diverging,
        fallback_reasons=tuple(telemetry["fallback_reasons"]))


def verify_engines(config: Any, profile_name: str, num_ops: int,
                   seed: int = 1, warmup_ops: int = 0,
                   temperature_c: Optional[float] = None
                   ) -> EngineCrosscheck:
    """:func:`crosscheck_engines`, raising on any divergence."""
    check = crosscheck_engines(config, profile_name, num_ops, seed=seed,
                               warmup_ops=warmup_ops,
                               temperature_c=temperature_c)
    if not check.identical:
        raise SimulationError(
            f"fast kernel diverged from oracle on "
            f"{check.workload}/{check.policy} (ops={check.num_ops}, "
            f"seed={check.seed}, warmup={check.warmup_ops}): "
            f"fields {', '.join(check.diverging_fields)}")
    return check
