"""Twin-engine drift analysis: footprints, closures, and TWIN01–TWIN04.

Synthetic modules live under ``repro/...`` paths (a tmp-dir ``repro``
tree is *not* a test path), mirroring test_lint_errflow.py.  Each seeded
defect in :class:`TestSeededDefects` is a deliberately drifted engine
pair driven through the full ``lint_paths`` pipeline — phase-1 footprint
extraction, both closure fixpoints, finding — and asserts the finding
names **both** engine sides (the oracle root-to-sink chain and the
fastsim remedy).  :func:`test_real_tree_is_twin_clean` is the point of
the exercise: the shipped oracle and fast kernel have no undocumented
drift under all four rules.
"""

import ast
import textwrap
from pathlib import Path

from repro.lint.base import parse_suppressions
from repro.lint.fixes import fix_twin_constants
from repro.lint.project import ProjectModel, extract_summary
from repro.lint.project.source import read_pragmas
from repro.lint.project.twin import const_key, extract_module_twin
from repro.lint.runner import lint_paths, run_project_rules

REPO_ROOT = Path(__file__).parent.parent


def twin_facts(path, source):
    source = textwrap.dedent(source)
    return extract_module_twin(path, source, ast.parse(source))


def summarize(path, source):
    source = textwrap.dedent(source)
    return extract_summary(path, source, ast.parse(source),
                           parse_suppressions(source))


def model_of(modules):
    return ProjectModel(
        [summarize(path, src) for path, src in modules.items()])


def findings_for(modules, rule_id):
    summaries = [summarize(path, src) for path, src in modules.items()]
    return run_project_rules(summaries, rule_ids=[rule_id])


class TestTwinExtraction:
    def test_attr_reads_with_receiver_deduped(self):
        facts = twin_facts("repro/sim/x.py", """
            def cost(config):
                if config.dram.row_policy == "open":
                    return 3
                return config.dram.row_policy
        """)
        (fn,) = facts.functions
        reads = [(r.attr, r.receiver) for r in fn.reads]
        assert reads.count(("row_policy", "config.dram")) == 1
        assert ("dram", "config") in reads

    def test_string_literals_yield_identifier_words(self):
        facts = twin_facts("repro/fastsim/x.py", """
            def _eligibility(core):
                return ["miss_window > 1 (WindowedCore)"]
        """)
        (fn,) = facts.functions
        assert {"miss_window", "WindowedCore"} <= fn.names

    def test_counter_keys_direct_alias_and_flush(self):
        facts = twin_facts("repro/sim/x.py", """
            def a(self):
                self.counters.add("token_delays", 1)

            def b(self):
                counters_add = self.counters.add
                counters_add("hits", 2)

            def c(self, counters):
                self._flush_counters(counters, (
                    ("accesses", 3), ("misses", 4)))
        """)
        keys = {key for fn in facts.functions
                for key, _ in fn.counter_keys}
        assert keys == {"token_delays", "hits", "accesses", "misses"}

    def test_simulation_result_keywords(self):
        facts = twin_facts("repro/sim/x.py", """
            def finish(self):
                return SimulationResult(total_pj=self.pj, ops=self.ops)
        """)
        (fn,) = facts.functions
        assert {name for name, _ in fn.result_fields} == {"total_pj", "ops"}

    def test_constants_nontrivial_operands_only(self):
        facts = twin_facts("repro/fastsim/x.py", """
            def step(bias, v):
                bias = bias * 0.85 + 1
                if v > 96:
                    bias -= 0x9E37
                return bias * 0.85
        """)
        (fn,) = facts.functions
        by_key = {c.key: c for c in fn.constants}
        # 1 is structural (trivial), 0.85 deduped to one site, hex kept
        # as spelled with an integral canonical key.
        assert set(by_key) == {"0.85", "96", "40503"}
        assert by_key["40503"].text == "0x9E37"

    def test_const_key_unifies_spellings(self):
        assert const_key(96) == const_key(96.0) == const_key(0x60) == "96"
        assert const_key(0.25) == "0.25"

    def test_module_constant_defs_and_string_tuples(self):
        facts = twin_facts("repro/exec/version.py", """
            _EXCLUDED_DIRS = ("lint", "__pycache__")
            FAST_BREAK_EVEN = 40
        """)
        (tup,) = facts.string_tuples
        assert tup.name == "_EXCLUDED_DIRS"
        assert tup.values == ("lint", "__pycache__")
        (const_def,) = facts.constant_defs
        assert (const_def.name, const_def.key) == ("FAST_BREAK_EVEN", "40")

    def test_twin_exempt_pragma_parses_lists(self):
        source = textwrap.dedent("""
            # The kernel refuses MLP cores wholesale:
            # mapglint: twin-exempt=dependence_stalls, overlapped_misses
            reasons.append("miss_window > 1")  # mapglint: twin-exempt=hidden_misses
        """)
        assert {name for name, _ in read_pragmas(source).twin_exempt} == \
            {"dependence_stalls", "overlapped_misses", "hidden_misses"}


class TestClosures:
    def test_delegation_edges_do_not_fold_oracle_into_fast(self):
        model = model_of({
            "repro/fastsim/kernel.py": """
                class FastSimulator:
                    def dispatch(self, trace):
                        if self.fallback_reasons:
                            return self.sim.simulate(trace)
                        return self._replay(trace)

                    def _replay(self, trace):
                        return len(trace)
            """,
            "repro/sim/simulator.py": """
                class Simulator:
                    def simulate(self, trace):
                        return self._descend(trace)

                    def _descend(self, trace):
                        return 0
            """,
        })
        twin = model.twin()
        shorts = {q.rsplit("::", 1)[-1] for q in twin.fast_functions}
        assert "FastSimulator._replay" in shorts
        assert "Simulator.simulate" not in shorts
        assert "Simulator._descend" not in shorts

    def test_oracle_chain_names_root_to_sink(self):
        model = model_of({
            "repro/sim/simulator.py": """
                class Simulator:
                    def handle_segment(self, seg, config):
                        return self._dram_cost(config)

                    def _dram_cost(self, config):
                        return config.dram.banks
            """,
        })
        twin = model.twin()
        (sink,) = [q for q in twin.oracle_functions
                   if q.endswith("_dram_cost")]
        assert twin.describe_chain(sink, twin.oracle_parents) == \
            "Simulator.handle_segment -> Simulator._dram_cost"


class TestSeededDefects:
    def _tree(self, tmp_path, rel, body):
        target = tmp_path
        for part in rel.split("/"):
            target = target / part
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body), encoding="utf-8")
        return target

    # -- TWIN01 ------------------------------------------------------------

    def _config_drift_tree(self, tmp_path, kernel_body):
        self._tree(tmp_path, "repro/config.py", """
            from dataclasses import dataclass

            @dataclass
            class DramConfig:
                row_policy: str = "open"
        """)
        self._tree(tmp_path, "repro/sim/simulator.py", """
            class Simulator:
                def handle_segment(self, seg, config):
                    return self._dram_cost(config)

                def _dram_cost(self, config):
                    if config.dram.row_policy != "open":
                        return 9
                    return 3
        """)
        self._tree(tmp_path, "repro/fastsim/kernel.py", kernel_body)

    def test_seeded_unread_config_field_caught(self, tmp_path):
        self._config_drift_tree(tmp_path, """
            class FastSimulator:
                def _eligibility(self, config):
                    return []

                def _replay(self, ops):
                    return len(ops)
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["TWIN01"])
        (finding,) = report.findings
        assert finding.rule_id == "TWIN01"
        assert "DramConfig.row_policy" in finding.message
        # Both engine sides are named: the oracle chain and the fast fix.
        assert "handle_segment -> Simulator._dram_cost" in finding.message
        assert "FastSimulator._eligibility" in finding.message
        assert finding.path.endswith("repro/sim/simulator.py")

    def test_fast_read_covers_the_field(self, tmp_path):
        self._config_drift_tree(tmp_path, """
            class FastSimulator:
                def _replay(self, ops, config):
                    row_open = config.dram.row_policy == "open"
                    return len(ops) if row_open else 0
        """)
        assert lint_paths([str(tmp_path)], rule_ids=["TWIN01"]).findings == []

    def test_eligibility_refusal_string_covers_the_field(self, tmp_path):
        self._config_drift_tree(tmp_path, """
            class FastSimulator:
                def _eligibility(self, config):
                    return ["row_policy not supported"]
        """)
        assert lint_paths([str(tmp_path)], rule_ids=["TWIN01"]).findings == []

    def test_twin_exempt_pragma_covers_the_field(self, tmp_path):
        self._config_drift_tree(tmp_path, """
            class FastSimulator:
                # Closed-row DRAM stays oracle-only this PR:
                # mapglint: twin-exempt=row_policy
                def _replay(self, ops):
                    return len(ops)
        """)
        assert lint_paths([str(tmp_path)], rule_ids=["TWIN01"]).findings == []

    # -- TWIN02 ------------------------------------------------------------

    def _counter_drift_tree(self, tmp_path, flush_pairs):
        self._tree(tmp_path, "repro/sim/simulator.py", """
            class Simulator:
                def handle_segment(self, seg):
                    self.counters.add("token_delays", 1)
                    return seg.cycles
        """)
        self._tree(tmp_path, "repro/fastsim/kernel.py", f"""
            class FastSimulator:
                def _replay(self, ops):
                    return len(ops)

                def _flush(self, counters, delays):
                    self._flush_counters(counters, ({flush_pairs}))
        """)

    def test_seeded_missing_counter_writer_caught(self, tmp_path):
        self._counter_drift_tree(tmp_path, '("accesses", delays),')
        report = lint_paths([str(tmp_path)], rule_ids=["TWIN02"])
        (finding,) = report.findings
        assert finding.rule_id == "TWIN02"
        assert "'token_delays'" in finding.message
        assert "Simulator.handle_segment" in finding.message
        assert "flush" in finding.message

    def test_fast_flush_writer_covers_the_counter(self, tmp_path):
        self._counter_drift_tree(
            tmp_path, '("accesses", delays), ("token_delays", delays),')
        assert lint_paths([str(tmp_path)], rule_ids=["TWIN02"]).findings == []

    def test_seeded_ledger_tag_and_result_field_caught(self, tmp_path):
        self._tree(tmp_path, "repro/sim/simulator.py", """
            class Simulator:
                def handle_segment(self, seg):
                    self.ledger.charge(PowerState.NAP, seg.cycles)
                    return self._finish(seg)

                def _finish(self, seg):
                    return SimulationResult(total_pj=seg.pj)
        """)
        self._tree(tmp_path, "repro/fastsim/kernel.py", """
            class FastSimulator:
                def _replay(self, ops):
                    return len(ops)
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["TWIN02"])
        messages = sorted(f.message for f in report.findings)
        assert len(messages) == 2
        assert "PowerState.NAP" in messages[1]
        assert "'total_pj'" in messages[0]
        assert "handle_segment -> Simulator._finish" in messages[0]

    # -- TWIN03 ------------------------------------------------------------

    def test_seeded_digest_hole_caught(self, tmp_path):
        self._tree(tmp_path, "repro/exec/version.py", """
            _EXCLUDED_DIRS = ("lint", "__pycache__")
        """)
        self._tree(tmp_path, "repro/sim/simulator.py", """
            class Simulator:
                def handle_segment(self, seg):
                    return shared_cost(seg)
        """)
        self._tree(tmp_path, "repro/lint/shared.py", """
            def shared_cost(seg):
                return seg.cycles * 3
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["TWIN03"])
        (finding,) = report.findings
        assert finding.rule_id == "TWIN03"
        assert finding.path.endswith("repro/lint/shared.py")
        assert "handle_segment -> shared_cost" in finding.message
        assert "_EXCLUDED_DIRS" in finding.message
        assert "version.py" in finding.message
        assert "stale cached results" in finding.message

    def test_digest_rule_quiet_without_version_module(self, tmp_path):
        self._tree(tmp_path, "repro/sim/simulator.py", """
            class Simulator:
                def handle_segment(self, seg):
                    return seg.cycles
        """)
        assert lint_paths([str(tmp_path)], rule_ids=["TWIN03"]).findings == []

    # -- TWIN04 ------------------------------------------------------------

    def _const_drift_tree(self, tmp_path):
        self._tree(tmp_path, "repro/core/policies.py", """
            AIMD_DECAY = 0.85

            def decay(bias):
                return bias * 0.85
        """)
        self._tree(tmp_path, "repro/sim/simulator.py", """
            class Simulator:
                def handle_segment(self, seg, bias):
                    return decay(bias)
        """)
        kernel = self._tree(tmp_path, "repro/fastsim/kernel.py", """
            class FastSimulator:
                def _replay(self, bias):
                    return bias * 0.85
        """)
        return kernel

    def test_seeded_duplicated_constant_caught(self, tmp_path):
        self._const_drift_tree(tmp_path)
        report = lint_paths([str(tmp_path)], rule_ids=["TWIN04"])
        (finding,) = report.findings
        assert finding.rule_id == "TWIN04"
        assert finding.path.endswith("repro/fastsim/kernel.py")
        # Names both duplicate sites and the mechanical remedy.
        assert "FastSimulator._replay" in finding.message
        assert "decay" in finding.message
        assert "policies.py" in finding.message
        assert "AIMD_DECAY" in finding.message
        assert "--fix" in finding.message

    def test_fix_hoists_fastsim_literal_onto_shared_def(self, tmp_path):
        kernel = self._const_drift_tree(tmp_path)
        files = sorted(str(p) for p in tmp_path.rglob("*.py"))
        changed = fix_twin_constants(files)
        assert changed == {str(kernel): 1}
        rewritten = kernel.read_text(encoding="utf-8")
        assert "from repro.core.policies import AIMD_DECAY" in rewritten
        assert "bias * AIMD_DECAY" in rewritten
        assert "0.85" not in rewritten
        assert lint_paths([str(tmp_path)], rule_ids=["TWIN04"]).findings == []

    def test_trivial_constants_are_never_duplicates(self, tmp_path):
        self._tree(tmp_path, "repro/core/policies.py", """
            def double(bias):
                return bias * 2
        """)
        self._tree(tmp_path, "repro/sim/simulator.py", """
            class Simulator:
                def handle_segment(self, seg, bias):
                    return double(bias)
        """)
        self._tree(tmp_path, "repro/fastsim/kernel.py", """
            class FastSimulator:
                def _replay(self, bias):
                    return bias * 2
        """)
        assert lint_paths([str(tmp_path)], rule_ids=["TWIN04"]).findings == []


def test_real_tree_is_twin_clean():
    """The acceptance gate: all four drift rules live, zero findings.

    Every deliberate envelope exclusion in the shipped kernel is
    documented with a twin-exempt pragma; anything this test reports is
    *undocumented* drift between the oracle and the fast engine.
    """
    report = lint_paths(
        [str(REPO_ROOT / "src")],
        rule_ids=["TWIN01", "TWIN02", "TWIN03", "TWIN04"])
    assert report.files_checked > 100
    assert report.ok, "\n".join(
        f"{f.location()} [{f.rule_id}] {f.message}"
        for f in report.all_findings)
