"""Unit tests for JobSpec (cell identity) and the columnar trace store."""

import dataclasses

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.exec import JobSpec
from repro.exec.version import digest_tree
from repro.fastsim import ColumnarTrace, ColumnarTraceStore
from repro.sim.runner import run_workload, with_policy
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticTraceGenerator


def spec(**overrides):
    base = dict(config=SystemConfig(), profile="gcc_like", num_ops=500, seed=3)
    base.update(overrides)
    return JobSpec(**base)


class TestJobSpecKey:
    def test_key_is_stable_across_instances(self):
        assert spec().key == spec().key

    def test_every_field_changes_the_key(self):
        base = spec().key
        assert spec(profile="mcf_like").key != base
        assert spec(num_ops=501).key != base
        assert spec(seed=4).key != base
        assert spec(warmup_ops=100).key != base
        assert spec(temperature_c=85.0).key != base

    def test_any_config_field_changes_the_key(self):
        base = spec().key
        config = SystemConfig()
        # One representative knob from each subtree of the config.
        variants = [
            with_policy(config, "naive"),
            config.replace(dram=config.dram.scaled(2.0)),
            config.replace(core=dataclasses.replace(config.core, issue_width=2)),
            config.replace(gating=dataclasses.replace(config.gating, bet_scale=2.0)),
        ]
        keys = {spec(config=variant).key for variant in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_payload_round_trip_preserves_key(self):
        original = spec(warmup_ops=200, temperature_c=95.0)
        rebuilt = JobSpec.from_payload(original.to_payload())
        assert rebuilt == original
        assert rebuilt.key == original.key

    def test_validation(self):
        with pytest.raises(ConfigError):
            spec(profile="")
        with pytest.raises(ConfigError):
            spec(num_ops=-1)
        with pytest.raises(ConfigError):
            spec(warmup_ops=-1)


class TestJobSpecExecute:
    def test_matches_run_workload(self):
        cell = spec(config=with_policy(SystemConfig(), "mapg"))
        direct = run_workload(cell.config, cell.profile, cell.num_ops,
                              seed=cell.seed)
        assert cell.execute() == direct

    def test_matches_run_workload_with_warmup_and_store(self):
        # The first execute fills the trace store, the second replays the
        # memoized trace; both engines must equal the streamed run.
        cell = spec(config=with_policy(SystemConfig(), "mapg"),
                    warmup_ops=300)
        direct = run_workload(cell.config, cell.profile, cell.num_ops,
                              seed=cell.seed, warmup_ops=cell.warmup_ops)
        assert cell.execute() == direct
        assert cell.execute() == direct
        assert dataclasses.replace(cell, engine="fast").execute() == direct


class TestTraceStore:
    def test_memoizes_per_cell(self):
        store = ColumnarTraceStore()
        first = store.traces("gcc_like", 200, seed=3, warmup_ops=50)
        second = store.traces("gcc_like", 200, seed=3, warmup_ops=50)
        assert first is second
        assert store.hits == 1 and store.misses == 1

    def test_reproduces_the_two_call_generator_shape(self):
        # The generator's phase schedule advances across the warmup
        # boundary; the store must be op-for-op identical to run_workload's
        # single-generator, two-call pattern.
        generator = SyntheticTraceGenerator(get_profile("mcf_like"), seed=7)
        warm = tuple(generator.operations(60))
        measured = tuple(generator.operations(150))
        pair = ColumnarTraceStore().traces("mcf_like", 150, seed=7,
                                           warmup_ops=60)
        assert (pair[0].ops(), pair[1].ops()) == (warm, measured)

    def test_no_warmup_gives_empty_warm_trace(self):
        warm, measured = ColumnarTraceStore().traces("gcc_like", 100, seed=3)
        assert warm.ops() == ()
        assert measured.num_ops == len(measured.ops()) == 100

    def test_lru_eviction_is_bounded(self):
        store = ColumnarTraceStore(max_entries=2)
        for seed in (1, 2, 3):
            store.traces("gcc_like", 50, seed=seed)
        store.traces("gcc_like", 50, seed=1)  # evicted: regenerates
        assert store.misses == 4

    def test_rejects_bad_bound(self):
        with pytest.raises(ConfigError):
            ColumnarTraceStore(max_entries=0)

    def test_op_tuple_is_built_once_and_matches_the_generator(self):
        stream = tuple(SyntheticTraceGenerator(get_profile("gcc_like"),
                                               seed=5).operations(400))
        trace = ColumnarTrace(stream)
        ops = trace.ops()
        assert ops is trace.ops()
        assert ops == stream


class TestDigestTree:
    def test_sensitive_to_content_and_names(self, tmp_path):
        (tmp_path / "model.py").write_text("X = 1\n")
        base = digest_tree(str(tmp_path))
        assert digest_tree(str(tmp_path)) == base  # deterministic

        (tmp_path / "model.py").write_text("X = 2\n")
        edited = digest_tree(str(tmp_path))
        assert edited != base

        (tmp_path / "extra.py").write_text("Y = 1\n")
        assert digest_tree(str(tmp_path)) != edited

    def test_excluded_dirs_and_non_python_ignored(self, tmp_path):
        (tmp_path / "model.py").write_text("X = 1\n")
        base = digest_tree(str(tmp_path))
        (tmp_path / "lint").mkdir()
        (tmp_path / "lint" / "rule.py").write_text("R = 1\n")
        (tmp_path / "notes.txt").write_text("not code\n")
        assert digest_tree(str(tmp_path)) == base
