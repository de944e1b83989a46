"""Measurement helpers of the repository benchmark: standard library only.

Nothing here imports ``repro``, so the orchestrator (``run.py``) and the
helper tests use these functions without the program under test.  The
workloads themselves live in ``scenarios.py``.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import json.decoder
import json.encoder
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

# A tail percentile is reported only with at least this many samples
# beyond it; fewer would make the "tail" one or two unlucky requests.
TAIL_SAMPLES_BEYOND = 10

ACCURACY_NOTE = ("unvalidated: the repository holds no measurements of real "
                 "hardware, so the model's error is unknown and the benchmark "
                 "gives no accuracy figure")


# ---- request statistics ------------------------------------------------------

def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, int, int]]:
    """``(value, percentile, n)`` of the highest whole percentile that has
    at least :data:`TAIL_SAMPLES_BEYOND` samples beyond it.

    Nearest-rank: the value is the ``ceil(p * n / 100)``-th smallest
    sample, so ``n - rank >= 10`` samples lie beyond it.  ``None`` when
    there are too few samples for any percentile to qualify.
    """
    n = len(samples)
    if n <= TAIL_SAMPLES_BEYOND:
        return None
    percentile = (100 * (n - TAIL_SAMPLES_BEYOND)) // n
    rank = -(-percentile * n // 100)
    return sorted(samples)[rank - 1], percentile, n


# ---- machine speed -----------------------------------------------------------

# The reference work takes about this long on a calm 2-CPU box; timings are
# reported as if it took exactly this long (see SpeedReference).
NOMINAL_REFERENCE_S = 0.025
REFERENCE_INTERVAL_S = 0.5


def reference_work(source: str) -> int:
    """Fixed interpreter work with no repro code in it: integer arithmetic
    and parsing and walking a fixed source, the two kinds of work the
    workloads do most."""
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(2):
        total += sum(1 for _ in ast.walk(ast.parse(source)))
    return total


def timed_reference_work() -> Callable[[], float]:
    """A sampler that times :func:`reference_work` in this process."""
    source = "\n".join(inspect.getsource(module)
                       for module in (json.decoder, json.encoder))

    def sample() -> float:
        begin = time.perf_counter()
        reference_work(source)
        return time.perf_counter() - begin

    return sample


class ReferenceProcess:
    """Times the reference work in a helper interpreter, on request.

    The helper (``reference.py``) is a fresh interpreter that never
    imports repro, so nothing the program leaves behind in the measuring
    process (threads, a large heap, warm or polluted caches) slows the
    reference: only the box's own drift does.  The measuring process
    waits while the helper works.
    """

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("reference.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        assert self._process.stdin is not None
        assert self._process.stdout is not None
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("the reference helper stopped")
        return float(line)

    def close(self) -> None:
        """Let the helper end, and wait until it has."""
        if self._process.stdin is not None:
            self._process.stdin.close()
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        if self._process.stdout is not None:
            self._process.stdout.close()

    def __enter__(self) -> "ReferenceProcess":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SpeedReference:
    """Tracks how fast the box runs right now, by timing reference work.

    A shared box drifts: the same request can take twice as long for tens
    of seconds when neighbours are busy, on both CPUs at once.  Timing the
    same stdlib-only work between requests, and scaling each request by
    ``NOMINAL_REFERENCE_S / reference time``, cancels most of that drift.
    ``sampler`` returns the seconds one piece of reference work took; the
    benchmark times it in a :class:`ReferenceProcess`, so a change to the
    program does not reach the reference.  A request's reference is the
    median of the samples taken within one interval of it, before or
    after, so that it does not lag a drift.
    """

    def __init__(self, sampler: Callable[[], float], clock=time.perf_counter,
                 interval: float = REFERENCE_INTERVAL_S) -> None:
        self.samples: List[float] = []
        self.times: List[float] = []
        self._sampler = sampler
        self._clock = clock
        self._interval = interval

    def sample(self) -> float:
        seconds = self._sampler()
        self.samples.append(seconds)
        self.times.append(self._clock())
        return seconds

    def tick(self) -> None:
        """Sample unless the last sample is fresh: call before a request,
        and once after the last."""
        if not self.times or self._clock() - self.times[-1] >= self._interval:
            self.sample()

    def around(self, begin: float, end: float) -> float:
        """The reference for a request that ran from ``begin`` to ``end``."""
        near = [seconds for at, seconds in zip(self.times, self.samples)
                if begin - self._interval <= at <= end + self._interval]
        if not near:
            raise ValueError("no reference sample near the request: "
                             "tick() was not called before it")
        return statistics.median(near)


def normalized_seconds(seconds: float, reference_s: float) -> float:
    """Request seconds as if the reference work took its nominal time."""
    return seconds * NOMINAL_REFERENCE_S / reference_s


@dataclass
class RequestRecord:
    """One timed request: its latency, the work it did, and what failed."""

    index: int
    seconds: float
    work: int
    failures: List[str] = field(default_factory=list)
    begin: float = 0.0
    reference_s: float = NOMINAL_REFERENCE_S


def failed_count(records: Iterable[RequestRecord]) -> int:
    """Requests with at least one failed output check."""
    return sum(1 for record in records if record.failures)


def failed_frac(records: Sequence[RequestRecord]) -> float:
    """Failed requests divided by attempted requests."""
    if not records:
        raise ValueError("no requests were attempted")
    return failed_count(records) / len(records)


def canonical_json(data: Any) -> str:
    """Sorted-key compact JSON: the byte form results are compared in."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest_id(items: Iterable[Any]) -> int:
    """A 48-bit integer digest of canonical JSON items (exact in a double)."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(canonical_json(item).encode("utf-8"))
        hasher.update(b"\n")
    return int(hasher.hexdigest()[:12], 16)


class SeedStream:
    """Trace seeds derived from the benchmark seed, never repeated.

    Each call to :meth:`next` returns a seed no earlier call in the
    process returned, so a request that is meant to be cold never finds
    its trace in a per-process memo.  Stream 1 is disjoint from stream 0:
    the call-count passes draw from it, so their inputs do not depend on
    how many requests the timed loops made.
    """

    # Seeds per stream; no run issues anywhere near this many.
    STREAM_SPAN = 500_000

    def __init__(self, bench_seed: int, stream: int = 0) -> None:
        if bench_seed < 0:
            raise ValueError(f"seed must be >= 0, got {bench_seed}")
        if stream not in (0, 1):
            raise ValueError(f"stream must be 0 or 1, got {stream}")
        self._base = (2 * bench_seed + stream) * self.STREAM_SPAN
        self._issued = 0

    def next(self) -> int:
        self._issued += 1
        if self._issued >= self.STREAM_SPAN:
            raise RuntimeError("seed stream exhausted")
        return self._base + self._issued


# ---- spans -------------------------------------------------------------------

@dataclass
class Span:
    """One timed interval at a layer boundary."""

    span_id: int
    name: str
    request: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; they are written out at the end."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Span]:
        """Time the body as a child of the innermost open span.

        ``request`` names a new request; children inherit their parent's.
        """
        parent = self._stack[-1] if self._stack else None
        if request is None:
            request = parent.request if parent is not None else "-"
        span = Span(span_id=len(self.spans), name=name, request=request,
                    parent=parent.span_id if parent is not None else None,
                    start=self._clock())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()


class NullTracer:
    """The tracer interface, recording nothing (profiling passes use it)."""

    def span(self, name: str, request: Optional[str] = None):
        return nullcontext(Span(0, name, request or "-", None, 0.0))


def covered_seconds(start: float, end: float,
                    intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(start, lo), min(end, hi))
                     for lo, hi in intervals if hi > start and lo < end)
    total = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.span_id: span.seconds - covered_seconds(
                span.start, span.end, children.get(span.span_id, ()))
            for span in spans}


@dataclass
class RequestBreakdown:
    """Where one traced request's wall time went, by span name."""

    request: str
    wall: float
    self_by_name: Dict[str, float]
    unattributed: float

    @property
    def residual(self) -> float:
        """Wall time minus every self time; zero when children nest."""
        return self.wall - sum(self.self_by_name.values()) - self.unattributed


def request_breakdowns(spans: Sequence[Span],
                       root_name: str = "request") -> List[RequestBreakdown]:
    """Per request: layer self times plus the root's unattributed rest."""
    own = self_times(spans)
    roots = [span for span in spans
             if span.parent is None and span.name == root_name]
    breakdowns = []
    for root in roots:
        by_name: Counter = Counter()
        for span in spans:
            if span.request == root.request and span is not root:
                by_name[span.name] += own[span.span_id]
        breakdowns.append(RequestBreakdown(
            request=root.request, wall=root.seconds,
            self_by_name=dict(by_name), unattributed=own[root.span_id]))
    return breakdowns


def spans_to_json(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    return [{"id": s.span_id, "name": s.name, "request": s.request,
             "parent": s.parent, "start": s.start, "end": s.end,
             "attrs": s.attrs} for s in spans]


# ---- per-layer metrics from spans -------------------------------------------

def layer_metrics(spans: Sequence[Span], untraced_p50: float) -> Dict[str, float]:
    """Per-layer figures over the traced requests (probe spans excluded).

    ``*_s`` is self seconds per request, ``*_ms`` self milliseconds per
    call, and rates divide the counts spans carry by their self time.
    """
    own = self_times(spans)
    breakdowns = request_breakdowns(spans)
    if not breakdowns:
        raise ValueError("no traced requests")
    requests = {b.request for b in breakdowns}
    inside = [s for s in spans if s.request in requests and s.name != "request"]

    def total(name: str) -> float:
        return sum(own[s.span_id] for s in inside if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in inside if s.name == name)

    def attr(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0.0) for s in inside if s.name == name)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_request(name: str) -> float:
        return total(name) / len(breakdowns)

    def per_call_ms(name: str) -> float:
        return 1000.0 * ratio(total(name), calls(name))

    wall = sum(b.wall for b in breakdowns)
    probes = calls("exec.cache.hit_load") + calls("exec.cache.miss_probe")
    hits = attr("exec.cache.hit_load", "hit") + attr("exec.cache.miss_probe", "hit")
    traced_p50 = statistics.median(b.wall for b in breakdowns)
    return {
        "workloads.gen_s": per_request("workloads.gen"),
        "workloads.gen_ops_per_s": ratio(attr("workloads.gen", "ops"),
                                         total("workloads.gen")),
        "workloads.gen_share": ratio(total("workloads.gen"), wall),
        "fastsim.ingest_s": per_request("fastsim.ingest"),
        "fastsim.keys_s": per_request("fastsim.keys"),
        "fastsim.setup_s": per_request("fastsim.setup"),
        "fastsim.replay_s": per_request("fastsim.replay"),
        "fastsim.replay_ops_per_s": ratio(attr("fastsim.replay", "ops"),
                                          total("fastsim.replay")),
        "fastsim.fallback_frac": ratio(attr("fastsim.setup", "fallbacks"),
                                       attr("fastsim.setup", "cells")),
        "sim.setup_s": per_request("sim.setup"),
        "sim.replay_s": per_request("sim.replay"),
        "sim.replay_ops_per_s": ratio(attr("sim.replay", "ops"),
                                      total("sim.replay")),
        "sim.events_per_s": ratio(attr("sim.replay", "events"),
                                  total("sim.replay")),
        "exec.key_ms": per_call_ms("exec.key"),
        "exec.cache.hit_load_ms": per_call_ms("exec.cache.hit_load"),
        "exec.cache.miss_probe_ms": per_call_ms("exec.cache.miss_probe"),
        "exec.cache.store_ms": per_call_ms("exec.cache.store"),
        "exec.cache.hit_ratio": ratio(hits, probes),
        "exec.serialize_ms": per_call_ms("exec.serialize"),
        "lint.collect_s": per_request("lint.collect"),
        "lint.file_rules_s": per_request("lint.file_rules"),
        "lint.summary_s": per_request("lint.summary"),
        "lint.project_s": per_request("lint.project"),
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0,
    }


# ---- deterministic call counts ----------------------------------------------

# Layer -> the repro subpackages whose functions it counts.  The oracle's
# replay runs through cpu/memory/core/power/predict, so they count as sim.
LAYER_PACKAGES = {
    "workloads": ("workloads",),
    "fastsim": ("fastsim",),
    "sim": ("sim", "cpu", "memory", "core", "power", "predict", "stats",
            "trace"),
    "exec": ("exec",),
    "lint": ("lint",),
}


def repro_package(filename: str) -> Optional[str]:
    """The repro subpackage a source file belongs to (``None`` outside)."""
    parts = Path(filename).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro" and index + 1 < len(parts):
            following = parts[index + 1]
            return "repro" if following.endswith(".py") else following
    return None


def calls_by_package(profile_stats: Dict[Tuple[str, int, str], tuple]) -> Dict[str, int]:
    """Python function calls per repro subpackage from ``Profile.stats``."""
    counts: Counter = Counter()
    for (filename, _line, _name), entry in profile_stats.items():
        package = repro_package(filename)
        if package is not None:
            counts[package] += entry[1]
    return dict(counts)


def calls_by_layer(by_package: Dict[str, int]) -> Dict[str, int]:
    return {layer: sum(by_package.get(p, 0) for p in packages)
            for layer, packages in LAYER_PACKAGES.items()}


def repeated_counts(first: Dict[str, int], second: Dict[str, int]) -> Dict[str, int]:
    """Only the counts that two passes over one request agree on."""
    return {key: value for key, value in first.items()
            if second.get(key) == value}


# ---- environment -------------------------------------------------------------

def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git_dir = root / ".git"
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git_dir / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, bench_seed: int, pool_size: int) -> Dict[str, Any]:
    """What a result depends on besides the code: record it with every result."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "pool_size": pool_size,
        "pool_rule": "min(nproc, cells) on sweep_cold; no pool elsewhere",
        "seed": bench_seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "accuracy": ACCURACY_NOTE,
    }
