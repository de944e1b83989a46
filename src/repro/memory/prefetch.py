"""Stride/stream prefetcher in front of DRAM.

A classic per-PC stride prefetcher attached to the L2: on every demand
access it trains a small table with the last address and stride seen per
static instruction; after two confirmations of the same stride it issues
``degree`` prefetches ahead of the stream into L2.

Why this lives in the MAPG repository: prefetching *removes* off-chip
stalls (hits that would have been misses) and *shortens* others (late
prefetches cut the residual latency), which shrinks exactly the idle
windows MAPG gates.  The F11 experiment quantifies that interaction — a
design team deploying MAPG needs to know how much saving survives a decent
prefetcher.

Modeled costs are honest: prefetch fills occupy DRAM banks (raising later
queue waits) and evict L2 lines (pollution); useless prefetches are
counted.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import PrefetcherConfig

__all__ = ["PrefetcherConfig", "StridePrefetcher"]


class _StrideEntry:
    __slots__ = ("last_address", "stride", "confidence", "valid")

    def __init__(self) -> None:
        self.last_address = 0
        self.stride = 0
        self.confidence = 0
        self.valid = False


class StridePrefetcher:
    """Per-PC stride detector; returns addresses worth prefetching."""

    def __init__(self, config: PrefetcherConfig) -> None:
        self.config = config
        self._table: Dict[int, _StrideEntry] = {}

    def _entry(self, pc: int) -> _StrideEntry:
        # Knuth multiplicative hash, taking the *high* bits (the low bits
        # preserve input congruences), so nearby PCs land in distinct slots.
        product = (pc >> 2) * 2654435761 & 0xFFFF_FFFF
        index = (product >> 16) % self.config.table_entries
        # Direct-mapped: PCs that alias share (and retrain) one slot.
        entry = self._table.get(index)
        if entry is None:
            entry = _StrideEntry()
            self._table[index] = entry
        return entry

    def train(self, pc: int, address: int) -> List[int]:
        """Observe one demand access; return addresses to prefetch.

        Addresses are returned most-imminent first; the caller decides what
        to do with them (the hierarchy fills them into L2).
        """
        entry = self._entry(pc)
        if not entry.valid:
            entry.last_address = address
            entry.valid = True
            return []
        stride = address - entry.last_address
        entry.last_address = address
        if stride == 0 or abs(stride) > self.config.max_stride_bytes:
            entry.confidence = 0
            entry.stride = 0
            return []
        if stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, self.config.confirmations)
        else:
            # New stride: start counting confirmations from zero matches.
            entry.stride = stride
            entry.confidence = 0
            return []
        if entry.confidence < self.config.confirmations:
            return []
        prefetches = [address + stride * (i + 1)
                      for i in range(self.config.degree)]
        return [p for p in prefetches if p >= 0]
