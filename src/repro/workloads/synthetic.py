"""Synthetic trace generator.

Turns a :class:`~repro.workloads.profiles.WorkloadProfile` into a stream of
trace operations.  The generator maintains three address streams —
sequential, strided, random — inside the profile's working set, draws each
access's stream per the profile mix (modulated by the active phase), and
separates compute stretches with geometrically-distributed gaps whose mean
matches the profile's memory intensity.

Two locality mechanisms make the traces cache-realistic:

* **temporal reuse** — with probability ``reuse_fraction`` an access
  re-touches one of the last ``reuse_window_lines`` lines (these land in
  L1, like register-spill and hot-variable traffic);
* **spatial reuse** — the sequential stream advances
  ``sequential_step_bytes`` per access, so one 64 B line absorbs several
  consecutive accesses before the stream moves on.

Program counters: each stream owns a disjoint slice of the profile's PC
pool, and accesses pick PCs Zipf-style (a few hot PCs dominate), which is
what gives per-PC latency predictors something to learn.

All drawing happens in one loop that appends straight into the columnar
layout of :class:`~repro.trace.columnar.ColumnarTrace`:
:meth:`SyntheticTraceGenerator.columns` returns those columns (what the
fast engine replays), and :meth:`SyntheticTraceGenerator.operations`
streams op objects rebuilt from them a chunk at a time (what the oracle
replays).  Both continue one stream, so a warmup call followed by a
measured call is the same trace either way.

Everything is seeded; two generators with the same (profile, seed) produce
identical traces.
"""

from __future__ import annotations

import random
import zlib
from array import array
from typing import Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.trace.columnar import ColumnarTrace
from repro.trace.format import TraceOp
from repro.workloads.phases import PhaseSpec
from repro.workloads.profiles import WorkloadProfile, get_profile

_LINE_BYTES = 64
# Disjoint virtual regions so streams never alias each other's lines.
_REGION_SPACING = 1 << 36
# Synthetic text segment: word-aligned PCs starting here.
_PC_BASE = 0x40_0000
# Ops a streaming ``operations`` call generates ahead of its consumer.
_CHUNK_OPS = 4096


class SyntheticTraceGenerator:
    """Deterministic, profile-driven trace source."""

    def __init__(self, profile: WorkloadProfile, seed: int = 1) -> None:
        self.profile = profile
        # CRC32, not hash(): Python randomizes string hashes per process,
        # which would make "deterministic" traces differ across runs.
        name_hash = zlib.crc32(profile.name.encode("utf-8"))
        self._rng = random.Random(name_hash ^ seed)
        # Dependence marking draws from its own stream so that enabling or
        # tuning pointer chasing never perturbs the address sequence.
        self._dependence_rng = random.Random(name_hash ^ seed ^ 0x5A5A5A)
        schedule = profile.phase_schedule()
        self._period = schedule.period
        self._phases = [_phase_draws(profile, phase)
                        for phase in schedule.phases]
        self._op_index = 0
        # Stream state: byte cursors within each stream's region.
        self._seq_cursor = 0
        self._stride_cursor = 0
        # Recency ring buffer of (address, stream): O(1) append and O(1)
        # indexed access, which the skewed stack-distance draw needs.
        self._recent: List[Tuple[int, int]] = []
        self._recent_head = 0

    def columns(self, num_ops: int) -> ColumnarTrace:
        """The next ``num_ops`` trace records, built straight into columns.

        Continues the stream exactly where the previous call (of either
        method) stopped: ``columns(n)`` holds the ops ``operations(n)``
        would have yielded.
        """
        if num_ops < 0:
            raise ConfigError(f"num_ops must be >= 0, got {num_ops}")
        return self._generate(num_ops, last=True)

    def operations(self, num_ops: int) -> Iterator[TraceOp]:
        """Yield ``num_ops`` trace records (compute blocks + accesses).

        Generation runs a chunk of ops ahead of the consumer, so memory
        stays bounded however long the call; a caller that abandons the
        iterator early leaves the generator past the ops it took.
        """
        if num_ops < 0:
            raise ConfigError(f"num_ops must be >= 0, got {num_ops}")
        remaining = num_ops
        while remaining > 0:
            chunk = min(remaining, _CHUNK_OPS)
            trace = self._generate(chunk, last=chunk == remaining)
            remaining -= trace.num_ops
            yield from trace.iter_ops()

    def _generate(self, num_ops: int, last: bool) -> ColumnarTrace:
        """The one draw loop: the next ``num_ops`` records as columns.

        Each iteration draws a geometric compute gap (a compute block when
        non-zero), then one access: its address (a recent-line reuse or a
        fresh draw from the phase-modulated stream mix), store flag,
        pointer-chase flag and Zipf-ish PC.  When the quota fills right
        after a compute block, a ``last`` call drops the access in flight
        (the next call starts a fresh iteration), while a chunk of a
        longer call finishes it and so returns ``num_ops + 1`` records.
        """
        profile = self.profile
        rng_random = self._rng.random
        randrange = self._rng.randrange
        dependence_random = self._dependence_rng.random
        reuse_fraction = profile.reuse_fraction
        reuse_skew = profile.reuse_skew
        window = profile.reuse_window_lines
        working_set = profile.working_set_bytes
        sequential_step = profile.sequential_step_bytes
        stride = profile.stride_bytes
        write_fraction = profile.write_fraction
        chase = profile.pointer_chase_fraction
        # Each stream owns a third of the PC pool; rank 0 (the hottest) is
        # twice as likely as rank 1, and so on.
        pool = profile.pc_pool_size
        third = max(1, pool // 3)
        last_rank = third - 1
        random_base = 2 * _REGION_SPACING

        phases = self._phases
        op_index = self._op_index
        position = op_index % self._period
        phase = 0
        while position >= phases[phase][0]:
            position -= phases[phase][0]
            phase += 1
        phase_ops, gap_success, sequential_below, pattern_below = phases[phase]
        phase_left = phase_ops - position

        seq_cursor = self._seq_cursor
        stride_cursor = self._stride_cursor
        recent = self._recent
        recent_head = self._recent_head

        addresses = array("q")
        pcs = array("q")
        write_flags = bytearray()
        dependent_flags = bytearray()
        blocks = array("q")
        bounds = array("q", [0])
        produced = 0
        while produced < num_ops:
            if not phase_left:
                phase = (phase + 1) % len(phases)
                phase_ops, gap_success, sequential_below, pattern_below = \
                    phases[phase]
                phase_left = phase_ops
            phase_left -= 1
            op_index += 1

            if gap_success:
                gap = 0
                while rng_random() > gap_success:
                    gap += 1
                    if gap >= 10_000:  # hard ceiling; mean gaps are single digits
                        break
                if gap:
                    blocks.append(gap)
                    produced += 1
                    if last and produced >= num_ops:
                        break

            # Temporal reuse: revisit a recent line, with a power-law
            # recency skew — distance = window * u^skew, so most draws are
            # near (L1 hits) while the tail exercises mid-distance (L2
            # capacity) reuse.  A reused value is cached: never a chase.
            dependent = False
            if recent and rng_random() < reuse_fraction:
                count = len(recent)
                distance = min(int(count * rng_random() ** reuse_skew),
                               count - 1)
                address, stream = recent[(recent_head - 1 - distance) % count]
            else:
                draw = rng_random()
                if draw < sequential_below:
                    stream = 0
                    seq_cursor = (seq_cursor + sequential_step) % working_set
                    address = seq_cursor
                elif draw < pattern_below:
                    stream = 1
                    stride_cursor = (stride_cursor + stride) % working_set
                    address = _REGION_SPACING + stride_cursor
                else:
                    stream = 2
                    address = random_base + randrange(0, working_set,
                                                      _LINE_BYTES)
                    # Only fresh random loads can chase a pointer; the
                    # dependence stream is separate, so its draws may
                    # interleave with the address draws freely.
                    dependent = 0.0 < chase and dependence_random() < chase
                if len(recent) < window:
                    recent.append((address, stream))
                    recent_head = len(recent) % window
                else:
                    recent[recent_head] = (address, stream)
                    recent_head = (recent_head + 1) % window
            write_flags.append(rng_random() < write_fraction)
            rank = 0
            while rank < last_rank and rng_random() < 0.5:
                rank += 1
            addresses.append(address)
            pcs.append(_PC_BASE + 4 * ((stream * third + rank) % pool))
            dependent_flags.append(dependent)
            bounds.append(len(blocks))
            produced += 1

        bounds.append(len(blocks))
        self._op_index = op_index
        self._seq_cursor = seq_cursor
        self._stride_cursor = stride_cursor
        self._recent_head = recent_head
        return ColumnarTrace.from_columns(addresses, pcs, write_flags,
                                          dependent_flags, blocks, bounds)


def _phase_draws(profile: WorkloadProfile,
                 phase: PhaseSpec) -> Tuple[int, float, float, float]:
    """One phase's draw thresholds: ``(ops, gap success probability,
    sequential bound, pattern bound)``.

    The compute gap is geometric with mean ``instructions_per_memory_op /
    memory_scale - 1`` (success probability ``1 / (mean + 1)``; 0.0 when
    the mean is zero and no gap is drawn).  A fresh address comes from the
    sequential stream below the first bound, the strided one below the
    second, and the random one above it; ``random_scale`` shifts the mix
    toward random.
    """
    mean_gap = max(0.0, profile.instructions_per_memory_op
                   / phase.memory_scale - 1.0)
    gap_success = 0.0 if mean_gap < 1e-9 else 1.0 / (mean_gap + 1.0)
    rnd = min(1.0, profile.random_fraction * phase.random_scale)
    remaining = max(0.0, 1.0 - rnd)
    base_other = profile.sequential_fraction + profile.strided_fraction
    if base_other > 0.0:
        seq = remaining * profile.sequential_fraction / base_other
    else:
        seq = remaining
    return phase.ops, gap_success, seq, remaining


def generate_trace(profile_name: str, num_ops: int, seed: int = 1,
                   profile: Optional[WorkloadProfile] = None) -> List[TraceOp]:
    """Convenience wrapper: a fully materialized trace for a named profile.

    Passing ``profile`` overrides the name lookup (used to generate traces
    for ad-hoc profiles in tests and sweeps).
    """
    chosen = profile if profile is not None else get_profile(profile_name)
    generator = SyntheticTraceGenerator(chosen, seed=seed)
    return list(generator.operations(num_ops))
