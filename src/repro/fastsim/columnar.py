"""The per-process memo of generated columnar traces.

:class:`ColumnarTraceStore` is the trace memo of both engines: one
generator pass yields the warmup columns and *continues* into the
measured columns, so the stored pair is op-for-op identical to
``run_workload``'s streamed two-call shape.  ``run_policy_comparison``
replays one trace per policy, so the store makes trace generation scale
with the workload count instead of the policy count.  The columnar
layout itself is :class:`~repro.trace.columnar.ColumnarTrace`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from repro.errors import ConfigError
from repro.trace.columnar import ColumnarTrace
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticTraceGenerator

__all__ = ["ColumnarTrace", "ColumnarTraceStore", "shared_columnar_store"]


_TraceKey = Tuple[str, int, int, int]
_ColumnarPair = Tuple[ColumnarTrace, ColumnarTrace]

_EMPTY_TRACE = ColumnarTrace(())


class ColumnarTraceStore:
    """LRU-bounded memo of ``(warmup, measured)`` columnar trace pairs.

    One generator builds the warmup columns and then continues into the
    measured columns, so the phase schedule and RNG advance across the
    boundary exactly as the streamed path does.  Bounded because a long
    sweep may touch many workloads; evicting means regenerating later.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ConfigError(
                f"ColumnarTraceStore needs max_entries >= 1, "
                f"got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[_TraceKey, _ColumnarPair]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def traces(self, profile: str, num_ops: int, seed: int = 1,
               warmup_ops: int = 0) -> _ColumnarPair:
        """The (warmup, measured) columnar traces for one simulation cell."""
        trace_key: _TraceKey = (profile, seed, warmup_ops, num_ops)
        cached = self._entries.get(trace_key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(trace_key)
            return cached
        self.misses += 1
        generator = SyntheticTraceGenerator(get_profile(profile), seed=seed)
        pair: _ColumnarPair = (
            generator.columns(warmup_ops) if warmup_ops else _EMPTY_TRACE,
            generator.columns(num_ops),
        )
        self._entries[trace_key] = pair
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return pair


# Per-process memo of generated columnar traces (one per pool worker): a
# pure function of the (profile, seed, warmup_ops, num_ops) key, so it can
# never change a result.
_SHARED_STORE = ColumnarTraceStore()  # mapglint: declared-cache


def shared_columnar_store() -> ColumnarTraceStore:
    """The per-process shared columnar trace store."""
    return _SHARED_STORE
