"""repro.fastsim — the columnar batched simulation fast path.

Public surface:

* :class:`ColumnarTrace` / :class:`ColumnarTraceStore` — parallel-array
  trace representation and its per-process memo.
* :class:`FastSimulator` — the batched kernel, bit-identical to the
  oracle :class:`~repro.sim.simulator.Simulator` (falls back to it for
  unsupported configurations).
* :data:`ENGINES` / :data:`DEFAULT_ENGINE` / :func:`validate_engine` —
  the engine-selection vocabulary of :mod:`repro.engines`, re-exported.
"""

from __future__ import annotations

from repro.engines import DEFAULT_ENGINE, ENGINES, validate_engine
from repro.fastsim.columnar import (ColumnarTrace, ColumnarTraceStore,
                                    shared_columnar_store)
from repro.fastsim.kernel import FastSimulator

__all__ = [
    "ColumnarTrace",
    "ColumnarTraceStore",
    "DEFAULT_ENGINE",
    "ENGINES",
    "FastSimulator",
    "shared_columnar_store",
    "validate_engine",
]
