"""Columnar trace representation: one trace region as parallel arrays.

The oracle replays traces as tuples of per-op objects
(:class:`~repro.trace.format.ComputeBlock` /
:class:`~repro.trace.format.MemoryAccess`); attribute access and
``isinstance`` dispatch on those objects dominate the per-op cost.  This
module stores the same trace as parallel arrays keyed by *memory access*
— the only op kind at which memory-system state can change:

* ``addresses`` / ``pcs`` — ``array('q')`` per memory access,
* ``write_flags`` / ``dependent_flags`` — ``bytearray`` per memory access,
* ``block_instructions`` — one flat ``array('q')`` of every compute
  block's instruction count, in trace order,
* ``block_bounds`` — CSR-style bounds: the compute blocks *preceding*
  memory access ``i`` are ``block_instructions[bounds[i]:bounds[i+1]]``,
  and the trailing blocks after the last access are the final interval.

The synthetic generator appends straight into this layout
(:meth:`ColumnarTrace.from_columns`); ``ColumnarTrace(ops)`` ingests any
op stream, such as a trace file, in one linear pass.

The batched kernel additionally needs each interval's *busy cycles*,
which depend on the core's issue width: the oracle charges
``ceil(instructions / issue_width)`` **per block** (a sum of ceilings,
not a ceiling of sums), so :meth:`ColumnarTrace.busy_cycles_for`
pre-folds each interval with exactly that per-block ``math.ceil`` and
memoizes per width.  :meth:`ColumnarTrace.ops` rebuilds the original op
tuple (once, memoized) for the oracle engine, and
:meth:`ColumnarTrace.iter_ops` streams it.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigError, TraceError
from repro.trace.format import ComputeBlock, MemoryAccess, TraceOp


class ColumnarTrace:
    """One trace region as parallel arrays, keyed by memory access."""

    __slots__ = ("addresses", "pcs", "write_flags", "dependent_flags",
                 "block_instructions", "block_bounds",
                 "num_memory_ops", "num_blocks", "num_ops",
                 "total_block_instructions", "_busy_by_width",
                 "_keys_by_geometry", "_ops")

    def __init__(self, ops: Iterable[TraceOp]) -> None:
        addresses = array("q")
        pcs = array("q")
        write_flags = bytearray()
        dependent_flags = bytearray()
        block_instructions = array("q")
        block_bounds = array("q", [0])
        for op in ops:
            if type(op) is ComputeBlock:
                block_instructions.append(op.instructions)
            elif type(op) is MemoryAccess:
                addresses.append(op.address)
                pcs.append(op.pc)
                write_flags.append(1 if op.is_write else 0)
                dependent_flags.append(1 if op.dependent else 0)
                block_bounds.append(len(block_instructions))
            else:
                raise TraceError(
                    f"unknown trace op type {type(op).__name__}")
        # Close the trailing interval (compute blocks after the last
        # memory access).
        block_bounds.append(len(block_instructions))
        self._adopt(addresses, pcs, write_flags, dependent_flags,
                    block_instructions, block_bounds)

    @classmethod
    def from_columns(cls, addresses: array, pcs: array,
                     write_flags: bytearray, dependent_flags: bytearray,
                     block_instructions: array,
                     block_bounds: array) -> "ColumnarTrace":
        """Adopt already-built columns (the layout above) without copying.

        ``block_bounds`` must be closed: one entry per memory access plus
        the leading 0 and the trailing total.
        """
        trace = cls.__new__(cls)
        trace._adopt(addresses, pcs, write_flags, dependent_flags,
                     block_instructions, block_bounds)
        return trace

    def _adopt(self, addresses: array, pcs: array, write_flags: bytearray,
               dependent_flags: bytearray, block_instructions: array,
               block_bounds: array) -> None:
        self.addresses = addresses
        self.pcs = pcs
        self.write_flags = write_flags
        self.dependent_flags = dependent_flags
        self.block_instructions = block_instructions
        self.block_bounds = block_bounds
        self.num_memory_ops = len(addresses)
        self.num_blocks = len(block_instructions)
        self.num_ops = self.num_memory_ops + self.num_blocks
        self.total_block_instructions = sum(block_instructions)
        self._busy_by_width: Dict[int, array] = {}
        self._keys_by_geometry: Dict[Tuple[int, int],
                                     Tuple[List[int], List[int],
                                           List[int]]] = {}
        self._ops: Optional[Tuple[TraceOp, ...]] = None

    def busy_cycles_for(self, issue_width: int) -> array:
        """Busy cycles per interval at ``issue_width``, memoized.

        Entry ``i`` (for ``i < num_memory_ops``) is the busy time of the
        compute blocks issued *before* memory access ``i``; the final
        entry is the trailing run after the last access.  Each block
        contributes ``math.ceil(instructions / issue_width)`` — the exact
        float-division ceiling the oracle core computes per block.
        """
        if issue_width < 1:
            raise ConfigError(
                f"issue_width must be >= 1, got {issue_width}")
        cached = self._busy_by_width.get(issue_width)
        if cached is not None:
            return cached
        ceil = math.ceil
        blocks = self.block_instructions
        bounds = self.block_bounds
        busy = array("q", bytes(8 * (len(bounds) - 1)))
        for interval in range(len(bounds) - 1):
            total = 0
            for index in range(bounds[interval], bounds[interval + 1]):
                total += ceil(blocks[index] / issue_width)
            busy[interval] = total
        self._busy_by_width[issue_width] = busy
        return busy

    def block_keys_for(self, offset_bits: int,
                       index_mask: int) -> Tuple[List[int], List[int],
                                                 List[int]]:
        """Per-access (block, set index, tag) lists for one cache geometry.

        Precomputed once per (offset_bits, index_mask) pair and memoized —
        the batched kernel's hottest per-access work is exactly these three
        integer ops, so folding them out of the loop (vectorized when numpy
        is available; the scalar fallback computes identical values) buys a
        measurable share of the speedup.
        """
        geometry = (offset_bits, index_mask)
        cached = self._keys_by_geometry.get(geometry)
        if cached is not None:
            return cached
        index_bits = index_mask.bit_length()
        # Imported here, not at module level: every ``import repro`` loads
        # this module, and only the kernel's key precompute needs numpy.
        try:  # vectorized; the pure-python fallback is equivalent
            import numpy as np
        except ImportError:  # pragma: no cover - numpy is in the reference image
            np = None  # type: ignore[assignment]
        if np is not None and self.num_memory_ops:
            raw = np.frombuffer(self.addresses, dtype=np.int64)
            block_v = raw >> offset_bits
            keys = (block_v.tolist(), (block_v & index_mask).tolist(),
                    (block_v >> index_bits).tolist())
        else:
            blocks = [address >> offset_bits for address in self.addresses]
            keys = (blocks, [block & index_mask for block in blocks],
                    [block >> index_bits for block in blocks])
        self._keys_by_geometry[geometry] = keys
        return keys

    def ops(self) -> Tuple[TraceOp, ...]:
        """The original op stream as a tuple (oracle-compatible), memoized.

        Built on first use only: an oracle sweep replays the same tuple
        once per policy.
        """
        if self._ops is None:
            self._ops = tuple(self.iter_ops())
        return self._ops

    def iter_ops(self) -> Iterator[TraceOp]:
        """Rebuild the original op stream lazily.

        Compute blocks are immutable, so one instance per distinct
        instruction count serves every block of that size.
        """
        interned = {count: ComputeBlock(instructions=count)
                    for count in dict.fromkeys(self.block_instructions)}
        blocks = [interned[count] for count in self.block_instructions]
        bounds = self.block_bounds
        write_flags = self.write_flags
        dependent_flags = self.dependent_flags
        pcs = self.pcs
        for i, address in enumerate(self.addresses):
            yield from blocks[bounds[i]:bounds[i + 1]]
            yield MemoryAccess(address=address, pc=pcs[i],
                               is_write=bool(write_flags[i]),
                               dependent=bool(dependent_flags[i]))
        yield from blocks[bounds[self.num_memory_ops]:]
