"""Tests of the benchmark's own measurement helpers."""

import dataclasses

import pytest

from harness import (NOMINAL_REFERENCE_S, NullTracer, ReferenceProcess,
                     RequestRecord, SeedStream, Span, SpeedReference, Tracer,
                     calls_by_layer, covered_seconds, failed_count,
                     failed_frac, layer_metrics, normalized_seconds,
                     repeated_counts, repro_package, request_breakdowns,
                     self_times, tail_percentile, timed_reference_work)


class FakeClock:
    """A clock that returns the times it is given, in order."""

    def __init__(self, *times):
        self._times = list(times)

    def __call__(self):
        return self._times.pop(0)


@pytest.mark.parametrize("n, percentile", [
    (11, 9), (12, 16), (20, 50), (40, 75), (100, 90), (250, 96), (1000, 99),
])
def test_tail_percentile_has_ten_samples_beyond(n, percentile):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    value, got, count = tail_percentile(samples)
    assert (got, count) == (percentile, n)
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= 10
    # One percentile higher would leave fewer than ten beyond it.
    assert -(-(got + 1) * n // 100) > n - 10


def test_tail_percentile_is_undefined_below_eleven_samples():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile([]) is None


def test_tail_percentile_rule_holds_for_every_count():
    for n in range(11, 400):
        value, percentile, _ = tail_percentile(list(range(n)))
        assert n - (value + 1) >= 10
        assert 0 < percentile < 100


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = Span(0, "request", "r0", None, 0.0, 10.0)
    children = [Span(1, "a", "r0", 0, 1.0, 4.0),
                Span(2, "b", "r0", 0, 3.0, 6.0),   # overlaps a
                Span(3, "c", "r0", 0, 8.0, 12.0)]  # runs past the parent
    own = self_times([parent] + children)
    # Children cover [1, 6] and [8, 10]: 7 of the parent's 10 seconds.
    assert own[0] == pytest.approx(3.0)
    assert own[1] == pytest.approx(3.0)
    assert covered_seconds(0.0, 10.0, [(1, 4), (3, 6), (8, 12)]) == pytest.approx(7.0)
    assert covered_seconds(0.0, 10.0, []) == 0.0
    assert covered_seconds(5.0, 6.0, [(0, 1), (7, 9)]) == 0.0


def test_nested_spans_add_up_to_the_request_wall_time():
    clock = FakeClock(0.0, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 7.0)
    tracer = Tracer(clock=clock)
    with tracer.span("request", request="r0"):
        with tracer.span("sim.setup"):
            pass
        with tracer.span("sim.replay"):
            with tracer.span("inner"):
                pass
    (breakdown,) = request_breakdowns(tracer.spans)
    assert breakdown.wall == 7.0
    assert breakdown.self_by_name == {"sim.setup": 1.0, "sim.replay": 1.0,
                                      "inner": 0.5}
    assert breakdown.unattributed == pytest.approx(4.5)
    assert breakdown.residual == pytest.approx(0.0)
    assert [s.request for s in tracer.spans] == ["r0"] * 4
    assert tracer.spans[3].parent == 2


def test_overlapping_siblings_leave_a_residual():
    spans = [Span(0, "request", "r0", None, 0.0, 10.0),
             Span(1, "a", "r0", 0, 0.0, 6.0),
             Span(2, "b", "r0", 0, 4.0, 10.0)]
    (breakdown,) = request_breakdowns(spans)
    assert breakdown.unattributed == 0.0
    assert breakdown.residual == pytest.approx(-2.0)


def test_null_tracer_records_nothing():
    with NullTracer().span("x") as span:
        span.attrs["ops"] = 3


def test_speed_reference_takes_the_samples_around_a_request():
    clock = FakeClock(0.0,        # first tick: sample 0.05 at 0.0
                      0.2,        # fresh: no sample
                      0.6, 0.6,   # stale: sample 0.04 at 0.6
                      3.0, 3.0,   # stale: sample 0.10 at 3.0
                      4.0, 4.0)   # stale: sample 0.08 at 4.0
    sampled = iter([0.05, 0.04, 0.10, 0.08])
    speed = SpeedReference(sampler=lambda: next(sampled), clock=clock,
                           interval=0.5)
    for _ in range(5):
        speed.tick()
    assert speed.samples == [0.05, 0.04, 0.10, 0.08]
    assert speed.times == [0.0, 0.6, 3.0, 4.0]
    # A short request between samples: both neighbours within 0.5 s.
    assert speed.around(0.3, 0.4) == pytest.approx(0.045)
    # A long request: the sample before it and the one after, not the
    # older ones.
    assert speed.around(0.7, 2.8) == pytest.approx(0.07)
    assert speed.around(3.1, 3.9) == pytest.approx(0.09)
    with pytest.raises(ValueError):
        speed.around(10.0, 11.0)
    assert normalized_seconds(1.0, 2 * NOMINAL_REFERENCE_S) == 0.5


def test_reference_work_runs_in_process():
    assert timed_reference_work()() > 0.0


def test_reference_process_times_the_work_in_a_helper():
    with ReferenceProcess() as reference:
        samples = [reference() for _ in range(3)]
    assert all(sample > 0.0 for sample in samples)
    assert reference._process.returncode == 0


def test_failed_frac_counts_requests_with_a_failed_check():
    records = [RequestRecord(0, 0.1, 10), RequestRecord(1, 0.1, 10),
               RequestRecord(2, 0.1, 10, ["output differs from its reference"]),
               RequestRecord(3, 0.1, 10, ["one", "two"])]
    assert failed_count(records) == 2
    assert failed_frac(records) == 0.5
    with pytest.raises(ValueError):
        failed_frac([])


def test_seed_stream_never_repeats_and_depends_on_the_seed():
    first, second = SeedStream(7), SeedStream(7)
    issued = [first.next() for _ in range(1000)]
    assert len(set(issued)) == 1000
    assert issued == [second.next() for _ in range(1000)]
    assert not set(issued) & {SeedStream(8).next() for _ in range(1000)}
    with pytest.raises(ValueError):
        SeedStream(-1)


def test_call_counts_group_by_repro_subpackage():
    assert repro_package("/x/src/repro/fastsim/kernel.py") == "fastsim"
    assert repro_package("/x/src/repro/config.py") == "repro"
    assert repro_package("/usr/lib/python3/json/__init__.py") is None
    assert repro_package("~") is None
    stats = {("/a/repro/cpu/core.py", 1, "f"): (5, 7, 0, 0, {}),
             ("/a/repro/sim/simulator.py", 2, "g"): (1, 1, 0, 0, {}),
             ("/a/repro/lint/runner.py", 3, "h"): (2, 2, 0, 0, {})}
    from harness import calls_by_package
    by_package = calls_by_package(stats)
    assert by_package == {"cpu": 7, "sim": 1, "lint": 2}
    layers = calls_by_layer(by_package)
    assert layers["sim"] == 8 and layers["lint"] == 2 and layers["exec"] == 0
    assert repeated_counts({"a": 1, "b": 2}, {"a": 1, "b": 3}) == {"a": 1}


def test_layer_metrics_from_spans():
    spans = [Span(0, "request", "r0", None, 0.0, 4.0),
             Span(1, "workloads.gen", "r0", 0, 0.0, 1.0, {"ops": 100}),
             Span(2, "exec.cache.hit_load", "r0", 0, 1.0, 1.5, {"hit": 1}),
             Span(3, "exec.cache.miss_probe", "r0", 0, 1.5, 2.0, {"hit": 0}),
             Span(4, "request", "r1", None, 5.0, 7.0),
             Span(5, "workloads.gen", "r1", 4, 5.0, 6.0, {"ops": 100}),
             # probe spans are not requests and do not count
             Span(6, "workloads.gen", "probe:x", None, 8.0, 20.0)]
    figures = layer_metrics(spans, untraced_p50=2.5)
    assert figures["workloads.gen_s"] == pytest.approx(1.0)
    assert figures["workloads.gen_ops_per_s"] == pytest.approx(100.0)
    assert figures["workloads.gen_share"] == pytest.approx(2.0 / 6.0)
    assert figures["exec.cache.hit_ratio"] == pytest.approx(0.5)
    assert figures["exec.cache.hit_load_ms"] == pytest.approx(500.0)
    assert figures["sim.replay_ops_per_s"] == 0.0
    assert figures["trace.overhead_frac"] == pytest.approx(3.0 / 2.5 - 1.0)


def test_failed_frac_counts_a_deliberately_mismatched_result(tmp_path):
    """A sweep_warm request whose result was tampered with fails its check."""
    import child
    import scenarios

    class Tampered(scenarios.SweepWarm):
        calls = 0

        def run(self, specs):
            results, stats = super().run(specs)
            self.calls += 1
            if self.calls == 2:
                results[0] = dataclasses.replace(
                    results[0], energy_j=results[0].energy_j * 2)
            return results, stats

    workload = Tampered(5, tmp_path / "work")
    workload.setup()
    records = child.run_loop(workload, seconds=0.0, min_requests=3)
    assert len(records) == 3
    assert failed_count(records) == 1
    assert failed_frac(records) == pytest.approx(1 / 3)
    assert records[1].failures == [
        "warm results differ from the cold results cached"]
    workload.cleanup()


def test_fixed_cells_match_their_stored_outputs_and_catch_a_change(
        tmp_path, monkeypatch):
    import json

    import golden

    assert golden.golden_failures() == []
    stored = json.loads(golden.GOLDEN_FILE.read_text(encoding="utf-8"))
    stored["cells"]["gcc_like/mapg"] = "0" * 64
    altered = tmp_path / "golden_cells.json"
    altered.write_text(json.dumps(stored), encoding="utf-8")
    monkeypatch.setattr(golden, "GOLDEN_FILE", altered)
    assert golden.golden_failures() == [
        f"fixed cell gcc_like/mapg on the {engine} engine differs from "
        f"its stored output" for engine in golden.ENGINES]
