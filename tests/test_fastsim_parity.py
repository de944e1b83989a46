"""Kernel-vs-oracle parity: the fast engine's bit-identity contract.

``repro.fastsim`` promises results **byte-identical** to the event-driven
oracle — same energy ledger floats, same histogram moments, same
controller counters — not "close".  These tests sweep the whole workload
profile x policy matrix (cold and warmed up, with and without the L2
stride prefetcher), push fast-engine cells through the SweepRunner at
``jobs`` 1, 2 and 4, and fuzz randomized segment traces, comparing the
canonical JSON of every ``SimulationResult`` field.  Any diff is a kernel
bug by definition.
"""

import dataclasses
import json
import random

import pytest

from repro.config import PrefetcherConfig, SystemConfig
from repro.core.crosscheck import crosscheck_engines, verify_engines
from repro.errors import ConfigError, SimulationError
from repro.exec import JobSpec, SweepRunner
from repro.fastsim import ColumnarTrace, FastSimulator, validate_engine
from repro.sim.runner import run_workload, with_policy
from repro.sim.simulator import Simulator
from repro.trace.format import ComputeBlock, MemoryAccess
from repro.workloads import generate_trace, profile_names

POLICIES = ("never", "naive", "bet_guard", "mapg", "mapg_adaptive", "oracle")


def canonical(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def assert_identical(config, profile, num_ops, seed=1, warmup_ops=0):
    oracle = run_workload(config, profile, num_ops, seed=seed,
                          warmup_ops=warmup_ops, engine="oracle")
    fast = run_workload(config, profile, num_ops, seed=seed,
                        warmup_ops=warmup_ops, engine="fast")
    assert canonical(fast) == canonical(oracle), \
        f"fast kernel diverged on {profile}/{config.gating.policy}"


class TestColdMatrix:
    @pytest.mark.parametrize("profile", profile_names())
    def test_every_profile_every_policy(self, profile):
        for policy in POLICIES:
            assert_identical(with_policy(SystemConfig(), policy),
                             profile, 1500, seed=11)


class TestWarmedUp:
    @pytest.mark.parametrize("profile", profile_names())
    def test_every_profile_with_warmup(self, profile):
        assert_identical(with_policy(SystemConfig(), "mapg"),
                         profile, 1200, seed=5, warmup_ops=400)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_with_warmup(self, policy):
        assert_identical(with_policy(SystemConfig(), policy),
                         "mcf_like", 1200, seed=3, warmup_ops=400)

    @pytest.mark.parametrize("seed", (1, 2, 5, 11))
    def test_seeds(self, seed):
        assert_identical(with_policy(SystemConfig(), "mapg_adaptive"),
                         "gems_like", 1500, seed=seed, warmup_ops=200)

    def test_temperature_override(self):
        oracle = run_workload(with_policy(SystemConfig(), "mapg"),
                              "lbm_like", 1500, seed=9,
                              temperature_c=110.0, engine="oracle")
        fast = run_workload(with_policy(SystemConfig(), "mapg"),
                            "lbm_like", 1500, seed=9,
                            temperature_c=110.0, engine="fast")
        assert canonical(fast) == canonical(oracle)


class TestThroughSweepRunner:
    def _specs(self, engine):
        config = SystemConfig()
        return [JobSpec(config=with_policy(config, policy),
                        profile=profile, num_ops=1200, seed=7,
                        warmup_ops=warmup, engine=engine)
                for profile in ("mcf_like", "povray_like")
                for policy in ("never", "mapg")
                for warmup in (0, 300)]

    def test_serial_fast_equals_serial_oracle(self):
        oracle = SweepRunner(jobs=1).run(self._specs("oracle"))
        fast = SweepRunner(jobs=1).run(self._specs("fast"))
        assert [canonical(r) for r in fast] == \
            [canonical(r) for r in oracle]

    def test_parallel_fast_equals_serial_oracle(self):
        oracle = SweepRunner(jobs=1).run(self._specs("oracle"))
        fast = SweepRunner(jobs=4).run(self._specs("fast"))
        assert [canonical(r) for r in fast] == \
            [canonical(r) for r in oracle]


def prefetching(degree=2, prefetcher=None, **overrides):
    """The default system with the L2 stride prefetcher switched on.

    ``prefetcher`` holds extra ``PrefetcherConfig`` fields; every other
    keyword names a ``SystemConfig`` section and the fields to change.
    """
    base = SystemConfig()
    return base.replace(
        prefetcher=PrefetcherConfig(enabled=True, degree=degree,
                                    **(prefetcher or {})),
        **{name: dataclasses.replace(getattr(base, name), **fields)
           for name, fields in overrides.items()})


def stride_stream(stride, count, pc=0x400100, gap=3, write_every=0):
    """One PC walking memory at a fixed stride, ``gap`` instructions apart."""
    ops = []
    for i in range(count):
        ops.append(MemoryAccess(
            address=0x100000 + stride * i, pc=pc,
            is_write=bool(write_every) and i % write_every == 0,
            dependent=False))
        ops.append(ComputeBlock(instructions=gap))
    return ops


def prefetch_victim_writes(config, ops):
    """Oracle run counting the DRAM writes issued by prefetch fills.

    A prefetch that evicts a dirty L2 line writes it straight to DRAM
    without a hierarchy ``writebacks`` count, so no result field isolates
    that branch; this spy on the oracle's fill path does.
    """
    sim = Simulator(config, workload="spy", seed=1)
    hierarchy = sim.hierarchy
    real = hierarchy._run_prefetcher
    writes = []

    def spy(pc, address, cycle):
        before = hierarchy.dram.counters.get("writes")
        real(pc, address, cycle)
        writes.append(hierarchy.dram.counters.get("writes") - before)

    hierarchy._run_prefetcher = spy
    sim.run(iter(ops))
    return sum(writes)


def prefetches_found_in_flight_only(config, profile, num_ops, seed):
    """Oracle run counting prefetch targets that only the L2 MSHRs hold.

    Such a line is still in flight but already evicted from its L2 set,
    so the redundant check needs its MSHR half to catch it.  The spy
    pairs each missing ``probe`` of the fill path with the MSHR lookup
    that follows it.
    """
    sim = Simulator(config, workload=profile, seed=1)
    probe = sim.hierarchy.l2.probe
    lookup = sim.hierarchy.l2_mshr.lookup
    state = {"missed": None, "in_flight_only": 0}

    def spy_probe(line):
        found = probe(line)
        state["missed"] = None if found else line
        return found

    def spy_lookup(line, cycle):
        entry = lookup(line, cycle)
        if entry is not None and state["missed"] == line:
            state["in_flight_only"] += 1
        state["missed"] = None
        return entry

    sim.hierarchy.l2.probe = spy_probe
    sim.hierarchy.l2_mshr.lookup = spy_lookup
    sim.run(generate_trace(profile, num_ops, seed=seed))
    return state["in_flight_only"]


class TestPrefetcher:
    """The stride prefetcher runs inside the kernel, oracle-identical."""

    @pytest.mark.parametrize("degree", (1, 4))
    @pytest.mark.parametrize("profile", profile_names())
    def test_every_profile_cold_and_warmed(self, profile, degree):
        config = prefetching(degree)
        assert FastSimulator(config).used_fast_path
        for policy in ("never", "mapg", "mapg_adaptive", "oracle"):
            for warmup in (0, 300):
                assert_identical(with_policy(config, policy), profile, 1200,
                                 seed=3, warmup_ops=warmup)

    # Each case forces one branch of the fill path and names the counter
    # that proves the branch ran; the tests below force the rest.
    FORCING = {
        "aliasing_table": (dict(prefetcher=dict(table_entries=1)),
                           "prefetch_redundant"),
        "one_l2_mshr": (dict(l2=dict(mshr_entries=1)), "prefetch_dropped"),
    }

    @pytest.mark.parametrize("case", sorted(FORCING))
    def test_forced_branch(self, case):
        overrides, counter = self.FORCING[case]
        config = prefetching(4, **overrides)
        seen = 0
        for profile in ("libquantum_like", "lbm_like", "gcc_like"):
            for policy in ("never", "mapg"):
                cfg = with_policy(config, policy)
                oracle = run_workload(cfg, profile, 1500, seed=5,
                                      warmup_ops=300, engine="oracle")
                fast = run_workload(cfg, profile, 1500, seed=5,
                                    warmup_ops=300, engine="fast")
                assert canonical(fast) == canonical(oracle), \
                    f"diverged on {case}/{profile}/{policy}"
                seen += oracle.memory_counters.get(counter, 0)
        assert seen > 0, f"{case} never reached {counter}"

    def test_dirty_prefetch_victims(self):
        # Every fourth access of a 64 B-stride stream writes, so L1
        # victims leave dirty lines in a tiny L2 that prefetch fills then
        # evict straight to DRAM.
        config = with_policy(prefetching(
            4, l2=dict(size_bytes=16 * 1024, associativity=2)), "mapg")
        ops = stride_stream(64, 3000, gap=20, write_every=4) + \
            stride_stream(64, 3000, gap=20, write_every=4)
        assert prefetch_victim_writes(config, ops) > 0
        oracle = Simulator(config, workload="spy", seed=1).run(iter(ops))
        fast = FastSimulator(config, workload="spy", seed=1).run(
            ColumnarTrace(ops))
        assert oracle.memory_counters.get("prefetch_fills", 0) > 0
        assert canonical(fast) == canonical(oracle)

    def test_in_flight_line_evicted_from_l2(self):
        # A 2-way 16 KiB L2 under lbm_like's streams evicts lines whose
        # fills are still in flight; prefetches to them are redundant.
        config = with_policy(prefetching(
            4, l2=dict(size_bytes=16 * 1024, associativity=2)), "never")
        assert prefetches_found_in_flight_only(
            config, "lbm_like", 1500, seed=5) > 0
        assert_identical(config, "lbm_like", 1500, seed=5)

    def test_late_prefetch_merge(self):
        # A 16 B stride reaches the prefetched next line a few cycles
        # after its fill issued: the demand merges into the prefetch.
        config = with_policy(prefetching(1), "mapg")
        ops = stride_stream(16, 600)
        oracle = Simulator(config, workload="stream", seed=1).run(iter(ops))
        fast = FastSimulator(config, workload="stream", seed=1).run(
            ColumnarTrace(ops))
        for counter in ("useful_prefetches", "late_prefetches"):
            assert oracle.memory_counters.get(counter, 0) > 0, counter
        assert canonical(fast) == canonical(oracle)

    def test_pooled_sweep_equals_serial_oracle(self):
        specs = [JobSpec(config=with_policy(prefetching(degree), policy),
                         profile=profile, num_ops=1200, seed=7,
                         warmup_ops=warmup)
                 for profile in ("libquantum_like", "mcf_like")
                 for policy in ("never", "mapg")
                 for degree, warmup in ((1, 0), (4, 300))]
        oracle = SweepRunner(jobs=1).run(
            [dataclasses.replace(spec, engine="oracle") for spec in specs])
        fast = SweepRunner(jobs=2).run(specs)
        assert [canonical(r) for r in fast] == \
            [canonical(r) for r in oracle]


class TestRandomizedSegments:
    """Property-style: arbitrary compute/memory segment interleavings."""

    @staticmethod
    def _random_ops(rng, num_ops):
        ops = []
        pc = 0x1000
        for _ in range(num_ops):
            if rng.random() < 0.35:
                ops.append(ComputeBlock(instructions=rng.randint(1, 400)))
            else:
                pc += rng.choice((4, 4, 8, 64))
                ops.append(MemoryAccess(
                    address=rng.randrange(0, 1 << rng.randint(12, 27), 8),
                    pc=pc,
                    is_write=rng.random() < 0.3,
                    dependent=rng.random() < 0.6))
        return ops

    @pytest.mark.parametrize("case_seed", (101, 202, 303, 404, 505))
    def test_random_trace_parity(self, case_seed):
        rng = random.Random(case_seed)
        ops = self._random_ops(rng, 1500)
        policy = rng.choice(POLICIES)
        config = with_policy(SystemConfig(), policy)
        oracle = Simulator(config, workload="fuzz", seed=1).run(iter(ops))
        fast = FastSimulator(config, workload="fuzz", seed=1).run(
            ColumnarTrace(ops))
        assert canonical(fast) == canonical(oracle), \
            f"diverged on fuzz case {case_seed} ({policy})"


class TestEngineContract:
    def test_validate_engine_rejects_unknown(self):
        with pytest.raises(ConfigError):
            validate_engine("warp")
        validate_engine("oracle")
        validate_engine("fast")

    def test_run_workload_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            run_workload(SystemConfig(), "mcf_like", 100, engine="warp")

    def test_jobspec_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            JobSpec(config=SystemConfig(), profile="mcf_like",
                    num_ops=100, engine="warp")

    def test_engine_excluded_from_job_key(self):
        # Bit-identity means the two engines' results are interchangeable,
        # so they deliberately share cache addresses.
        base = dict(config=SystemConfig(), profile="mcf_like", num_ops=100)
        assert JobSpec(engine="oracle", **base).key == \
            JobSpec(engine="fast", **base).key

    def test_engine_survives_payload_roundtrip(self):
        spec = JobSpec(config=SystemConfig(), profile="mcf_like",
                       num_ops=100, engine="fast")
        assert JobSpec.from_payload(spec.to_payload()).engine == "fast"

    def test_crosscheck_reports_fast_path(self):
        check = verify_engines(with_policy(SystemConfig(), "mapg"),
                               "mcf_like", 1200, seed=2, warmup_ops=200)
        assert check.identical
        assert check.used_fast_path
        assert check.oracle_digest == check.fast_digest

    def test_crosscheck_catches_a_diverging_kernel(self, monkeypatch):
        # The oracle side must really run the oracle: a kernel that
        # miscounts one penalty cycle is caught, not compared to itself.
        real_run = FastSimulator.run

        def off_by_one(self, trace):
            result = real_run(self, trace)
            return dataclasses.replace(
                result, penalty_cycles=result.penalty_cycles + 1)

        monkeypatch.setattr(FastSimulator, "run", off_by_one)
        config = with_policy(SystemConfig(), "mapg")
        check = crosscheck_engines(config, "mcf_like", 600, seed=2)
        assert check.identical is False
        assert "penalty_cycles" in check.diverging_fields
        with pytest.raises(SimulationError, match="penalty_cycles"):
            verify_engines(config, "mcf_like", 600, seed=2)

    def test_crosscheck_flags_fallback(self):
        # An MLP core (miss_window > 1) is outside the kernel's
        # eligibility envelope, so the comparison degrades to
        # oracle-vs-oracle and says so.
        base = with_policy(SystemConfig(), "mapg")
        config = base.replace(
            core=dataclasses.replace(base.core, miss_window=2))
        check = crosscheck_engines(config, "mcf_like", 600, seed=2)
        assert check.identical
        assert not check.used_fast_path
        assert check.fallback_reasons
