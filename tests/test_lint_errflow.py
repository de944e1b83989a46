"""Error-flow extraction, the escaping fixpoint, and ERR01–ERR04/RES01.

Synthetic modules live under ``repro/...`` paths (a tmp-dir ``repro``
tree is *not* a test path), mirroring test_lint_conc.py; the seeded
defects in :class:`TestSeededDefects` drive each rule through the full
``lint_paths`` pipeline and assert the raise-to-boundary chain survives
to the finding text.
"""

import ast
import textwrap

from repro.lint.base import parse_suppressions
from repro.lint.project import ProjectModel, extract_summary
from repro.lint.project.effects import extract_module_effects
from repro.lint.project.source import read_pragmas
from repro.lint.runner import lint_paths, run_project_rules


def summarize(path, source):
    source = textwrap.dedent(source)
    return extract_summary(path, source, ast.parse(source),
                           parse_suppressions(source))


def effects_of(path, source):
    source = textwrap.dedent(source)
    return extract_module_effects(path, source, ast.parse(source))


def findings_for(modules, rule_id):
    summaries = [summarize(path, src) for path, src in modules.items()]
    return run_project_rules(summaries, rule_ids=[rule_id])


def model_of(modules):
    return ProjectModel(
        [summarize(path, src) for path, src in modules.items()])


class TestErrorFlowExtraction:
    def test_raise_sites_typed_and_located(self):
        effects = effects_of("repro/stats/x.py", """
            def check(v):
                if v < 0:
                    raise ValueError("negative")
                raise errors.StatsError("odd")
        """)
        sites = {(s.exc_type, s.in_function.split("::")[-1], s.is_reraise)
                 for s in effects.raise_sites}
        assert ("ValueError", "check", False) in sites
        assert ("StatsError", "check", False) in sites  # dotted last segment

    def test_unknowable_raise_contributes_nothing(self):
        effects = effects_of("repro/stats/x.py", """
            def rethrow(err):
                raise err
        """)
        assert effects.raise_sites == ()

    def test_bare_reraise_recorded_as_reraise(self):
        effects = effects_of("repro/stats/x.py", """
            def f():
                try:
                    g()
                except ValueError:
                    raise
        """)
        (site,) = effects.raise_sites
        assert site.is_reraise and site.in_handler

    def test_handler_span_and_classification(self):
        effects = effects_of("repro/obs/x.py", """
            def f(handle):
                try:
                    data = handle.read()
                except (OSError, ValueError) as exc:
                    print("unreadable:", exc)
                    return None
                except Exception:
                    raise RuntimeError("wrapped")
                return data
        """)
        first, second = effects.handlers
        assert first.caught == ("OSError", "ValueError")
        assert first.logs and first.returns
        assert not first.reraises and not first.raises_new
        assert second.caught == ("Exception",) and second.raises_new
        assert first.try_start == second.try_start
        (span,) = effects.protected_spans
        assert span.has_handlers and not span.has_finally

    def test_bare_and_unnameable_handlers(self):
        effects = effects_of("repro/obs/x.py", """
            def f(kinds):
                try:
                    g()
                except:
                    pass

            def h(kinds):
                try:
                    g()
                except kinds[0]:
                    pass
        """)
        bare, unnameable = effects.handlers
        assert bare.is_bare
        assert unnameable.caught == ("*",)  # treated as a catch-all

    def test_exception_classes_with_base_spellings(self):
        effects = effects_of("repro/errors.py", """
            class ReproError(Exception):
                pass

            class StatsError(ReproError, ValueError):
                pass
        """)
        classes = {c.name: c.bases for c in effects.exception_classes}
        assert classes["ReproError"] == ("Exception",)
        assert classes["StatsError"] == ("ReproError", "ValueError")

    def test_error_boundary_pragma_binds_to_definition(self):
        source = textwrap.dedent("""
            class Cache:
                def load(self, key):  # mapglint: error-boundary
                    return None

                def store(self, key):
                    return None
        """)
        assert read_pragmas(source).error_boundary == {3}
        effects = effects_of("repro/exec/c.py", source)
        assert effects.error_boundaries == frozenset({
            "repro/exec/c.py::Cache.load"})

    def test_resource_sites_with_and_named(self):
        effects = effects_of("repro/obs/x.py", """
            def fine(path):
                with open(path) as handle:
                    return handle.read()

            def leak(path):
                handle = open(path)
                data = handle.read()
                return data

            def managed(path):
                handle = open(path)
                try:
                    return handle.read()
                finally:
                    handle.close()
        """)
        by_func = {site.in_function.split("::")[-1]: site
                   for site in effects.resource_sites}
        assert by_func["fine"].in_with
        assert not by_func["leak"].closed and not by_func["leak"].escapes
        assert by_func["managed"].closed
        assert by_func["managed"].close_in_finally

    def test_escaping_handles_are_not_local(self):
        effects = effects_of("repro/obs/x.py", """
            class Log:
                def open_stream(self, path):
                    self._stream = open(path, "a")

            def handoff(path):
                handle = open(path)
                register(handle)
        """)
        assert all(site.escapes for site in effects.resource_sites)


class TestEscapingFixpoint:
    def test_escape_propagates_through_the_chain(self):
        model = model_of({"repro/sim/x.py": """
            def outer():
                return _mid()

            def _mid():
                return _inner()

            def _inner():
                raise ValueError("boom")
        """})
        flow = model.errflow()
        escapes = {(e.exc_type, e.origin.split("::")[-1])
                   for e in flow.escaping("repro/sim/x.py::outer")}
        assert escapes == {("ValueError", "_inner")}
        chain = flow.chain(
            "repro/sim/x.py::outer",
            next(iter(flow.escaping("repro/sim/x.py::outer"))))
        assert [q.split("::")[-1] for q in chain] == \
            ["outer", "_mid", "_inner"]

    def test_matching_handler_absorbs_at_the_call_site(self):
        model = model_of({"repro/sim/x.py": """
            def outer():
                try:
                    return _inner()
                except ValueError:
                    return None

            def _inner():
                raise ValueError("boom")
        """})
        flow = model.errflow()
        assert flow.escaping("repro/sim/x.py::outer") == frozenset()

    def test_subtype_is_caught_by_base_class_handler(self):
        model = model_of({"repro/errors.py": """
            class ReproError(Exception):
                pass

            class ConfigError(ReproError):
                pass
        """, "repro/sim/x.py": """
            def outer():
                try:
                    return _inner()
                except ReproError:
                    return None

            def _inner():
                raise ConfigError("bad knob")
        """})
        flow = model.errflow()
        assert flow.escaping("repro/sim/x.py::outer") == frozenset()

    def test_bare_reraise_keeps_the_exception_escaping(self):
        model = model_of({"repro/sim/x.py": """
            def outer():
                try:
                    return _inner()
                except ValueError:
                    raise

            def _inner():
                raise ValueError("boom")
        """})
        flow = model.errflow()
        escapes = {e.exc_type
                   for e in flow.escaping("repro/sim/x.py::outer")}
        assert escapes == {"ValueError"}

    def test_recursion_reaches_a_fixpoint(self):
        model = model_of({"repro/sim/x.py": """
            def _even(n):
                if n < 0:
                    raise ValueError("negative")
                return _odd(n - 1)

            def _odd(n):
                return _even(n - 1)
        """})
        flow = model.errflow()
        for name in ("_even", "_odd"):
            escapes = {e.exc_type
                       for e in flow.escaping(f"repro/sim/x.py::{name}")}
            assert escapes == {"ValueError"}


class TestBoundaryEscape:
    POOL = """
        def fan_out(pool, items):
            return pool.map(_cell, items)

        def _cell(item):
            return _simulate(item)

        def _simulate(item):
            if item < 0:
                raise ValueError("negative cell")
            return item
    """

    def test_pool_worker_escape_fires_with_chain(self):
        findings = findings_for(
            {"repro/exec/launcher.py": self.POOL}, "ERR01")
        (finding,) = findings
        assert "ValueError" in finding.message
        assert "_cell -> _simulate" in finding.message
        assert "error-boundary" in finding.message

    def test_declared_boundary_is_silent(self):
        findings = findings_for({"repro/exec/launcher.py": """
            def fan_out(pool, items):
                return pool.map(_cell, items)

            def _cell(item):  # mapglint: error-boundary
                try:
                    return _simulate(item)
                except Exception as exc:
                    return {"error": str(exc)}

            def _simulate(item):
                if item < 0:
                    raise ValueError("negative cell")
                return item
        """}, "ERR01")
        assert findings == []

    def test_cli_main_escape_fires(self):
        findings = findings_for({"repro/cli.py": """
            def main(argv=None):
                return _dispatch(argv)

            def _dispatch(argv):
                if not argv:
                    raise ValueError("no command")
        """}, "ERR01")
        (finding,) = findings
        assert "CLI entry point" in finding.message

    def test_cache_load_escape_fires(self):
        findings = findings_for({"repro/exec/rcache.py": """
            class ResultCache:
                def load(self, key):
                    return _decode(key)

            def _decode(key):
                raise ValueError("corrupt entry")
        """}, "ERR01")
        (finding,) = findings
        assert "cache path" in finding.message
        assert "miss" in finding.message


class TestHandlerHygiene:
    def test_bare_except_fires(self):
        findings = findings_for({"repro/obs/x.py": """
            def f():
                try:
                    g()
                except:
                    pass
        """}, "ERR02")
        (finding,) = findings
        assert "KeyboardInterrupt" in finding.message

    def test_broad_silent_swallow_fires(self):
        findings = findings_for({"repro/obs/x.py": """
            def f():
                try:
                    return g()
                except Exception:
                    return None
        """}, "ERR02")
        (finding,) = findings
        assert "silence" in finding.message

    def test_logged_swallow_is_silent(self):
        findings = findings_for({"repro/obs/x.py": """
            def f():
                try:
                    return g()
                except Exception as exc:
                    print("g failed:", exc)
                    return None
        """}, "ERR02")
        assert findings == []

    def test_boundary_function_may_swallow(self):
        findings = findings_for({"repro/obs/x.py": """
            def f():  # mapglint: error-boundary
                try:
                    return g()
                except Exception:
                    return None
        """}, "ERR02")
        assert findings == []

    def test_imprecise_repro_error_catch_fires(self):
        findings = findings_for({"repro/errors.py": """
            class ReproError(Exception):
                pass

            class ConfigError(ReproError):
                pass
        """, "repro/sim/x.py": """
            def run():
                try:
                    return _load()
                except ReproError:
                    raise SystemExit(1)

            def _load():
                raise ConfigError("bad knob")
        """}, "ERR02")
        (finding,) = findings
        assert "ConfigError" in finding.message

    def test_precise_catch_is_silent(self):
        findings = findings_for({"repro/errors.py": """
            class ReproError(Exception):
                pass

            class ConfigError(ReproError):
                pass
        """, "repro/sim/x.py": """
            def run():
                try:
                    return _load()
                except ConfigError:
                    raise SystemExit(1)

            def _load():
                raise ConfigError("bad knob")
        """}, "ERR02")
        assert findings == []


class TestExceptionUnsafeMutation:
    def test_mutate_then_raising_call_fires(self):
        findings = findings_for({"repro/obs/x.py": """
            _REGISTRY = {}

            def register(name, value):
                _REGISTRY[name] = value
                _validate(value)

            def _validate(value):
                if not value:
                    raise ValueError("empty")
        """}, "ERR03")
        (finding,) = findings
        assert "_REGISTRY" in finding.message or \
            "_REGISTRY" in finding.line_text
        assert "_validate" in finding.message
        assert "ValueError" in finding.message

    def test_validate_before_mutate_is_silent(self):
        findings = findings_for({"repro/obs/x.py": """
            _REGISTRY = {}

            def register(name, value):
                _validate(value)
                _REGISTRY[name] = value

            def _validate(value):
                if not value:
                    raise ValueError("empty")
        """}, "ERR03")
        assert findings == []

    def test_protected_mutation_is_trusted(self):
        findings = findings_for({"repro/obs/x.py": """
            _REGISTRY = {}

            def register(name, value):
                try:
                    _REGISTRY[name] = value
                    _validate(value)
                finally:
                    _REGISTRY.pop(name, None)

            def _validate(value):
                if not value:
                    raise ValueError("empty")
        """}, "ERR03")
        assert findings == []

    def test_absorbed_escape_is_silent(self):
        findings = findings_for({"repro/obs/x.py": """
            _REGISTRY = {}

            def register(name, value):
                _REGISTRY[name] = value
                try:
                    _validate(value)
                except ValueError:
                    print("rejected", name)

            def _validate(value):
                if not value:
                    raise ValueError("empty")
        """}, "ERR03")
        assert findings == []


class TestHierarchyDiscipline:
    def test_public_bare_builtin_raise_fires(self):
        findings = findings_for({"repro/stats/x.py": """
            def percentile(values, p):
                if not 0 <= p <= 100:
                    raise ValueError("p out of range")
        """}, "ERR04")
        (finding,) = findings
        assert "ReproError" in finding.message

    def test_reachable_from_public_names_the_root(self):
        findings = findings_for({"repro/stats/x.py": """
            def summary(values):
                return _check(values)

            def _check(values):
                if not values:
                    raise ValueError("empty")
        """}, "ERR04")
        (finding,) = findings
        assert "reachable from public 'summary'" in finding.message

    def test_unreachable_private_is_silent(self):
        findings = findings_for({"repro/stats/x.py": """
            def _orphan(values):
                raise ValueError("never called")
        """}, "ERR04")
        assert findings == []

    def test_repro_error_subclass_is_silent(self):
        findings = findings_for({"repro/errors.py": """
            class ReproError(Exception):
                pass

            class StatsError(ReproError, ValueError):
                pass
        """, "repro/stats/x.py": """
            def percentile(values, p):
                if not 0 <= p <= 100:
                    raise StatsError("p out of range")
        """}, "ERR04")
        assert findings == []

    def test_per_line_disable_suppresses(self):
        findings = findings_for({"repro/stats/x.py": """
            def percentile(values, p):
                if not 0 <= p <= 100:
                    raise ValueError("p")  # mapglint: disable=ERR04
        """}, "ERR04")
        assert findings == []

    def test_lint_package_is_out_of_scope(self):
        findings = findings_for({"repro/lint/rules/x.py": """
            def check(node):
                raise ValueError("mapglint internal")
        """}, "ERR04")
        assert findings == []


class TestResourceLifecycle:
    def test_never_closed_handle_fires(self):
        findings = findings_for({"repro/obs/x.py": """
            def leak(path):
                handle = open(path)
                data = handle.read()
                return data
        """}, "RES01")
        (finding,) = findings
        assert "never released" in finding.message
        assert "file descriptor" in finding.message

    def test_with_block_is_silent(self):
        findings = findings_for({"repro/obs/x.py": """
            def fine(path):
                with open(path) as handle:
                    return handle.read()
        """}, "RES01")
        assert findings == []

    def test_happy_path_close_with_raising_call_fires(self):
        findings = findings_for({"repro/obs/x.py": """
            def export(path, payload):
                handle = open(path, "w")
                _encode(payload)
                handle.close()

            def _encode(payload):
                if not payload:
                    raise ValueError("empty payload")
        """}, "RES01")
        (finding,) = findings
        assert "happy path" in finding.message
        assert "ValueError" in finding.message
        assert "finally" in finding.message

    def test_close_in_finally_is_silent(self):
        findings = findings_for({"repro/obs/x.py": """
            def export(path, payload):
                handle = open(path, "w")
                try:
                    _encode(payload)
                finally:
                    handle.close()

            def _encode(payload):
                if not payload:
                    raise ValueError("empty payload")
        """}, "RES01")
        assert findings == []

    def test_escaping_handle_is_not_this_rules_problem(self):
        findings = findings_for({"repro/obs/x.py": """
            class Log:
                def open_stream(self, path):
                    self._stream = open(path, "a")
        """}, "RES01")
        assert findings == []

    def test_unterminated_pool_fires(self):
        findings = findings_for({"repro/exec/x.py": """
            def sweep(context, items):
                pool = context.Pool(4)
                out = pool.map(_cell, items)
                return out

            def _cell(item):
                return item
        """}, "RES01")
        assert any("worker processes" in f.message for f in findings)


class TestSeededDefects:
    """Full-pipeline seeded defects, one per ERR/RES rule."""

    def _tree(self, tmp_path, rel, body):
        target = tmp_path
        for part in rel.split("/"):
            target = target / part
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body), encoding="utf-8")
        return target

    def test_seeded_worker_escape_caught(self, tmp_path):
        self._tree(tmp_path, "repro/exec/launcher.py", """
            def fan_out(pool, items):
                return pool.map(_cell, items)

            def _cell(item):
                return _simulate(item)
        """)
        self._tree(tmp_path, "repro/sim/model.py", """
            def _simulate(item):
                if item < 0:
                    raise ValueError("negative cell")
                return item
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["ERR01"])
        (finding,) = report.findings
        assert finding.rule_id == "ERR01"
        # The raise-to-boundary chain crosses the module boundary.
        assert "_cell -> _simulate" in finding.message
        assert "model.py" in finding.message

    def test_seeded_silent_swallow_caught(self, tmp_path):
        self._tree(tmp_path, "repro/obs/reader.py", """
            def read_report(path):
                try:
                    with open(path) as handle:
                        return handle.read()
                except Exception:
                    return ""
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["ERR02"])
        (finding,) = report.findings
        assert finding.rule_id == "ERR02"
        assert "silence" in finding.message

    def test_seeded_unsafe_mutation_caught(self, tmp_path):
        self._tree(tmp_path, "repro/obs/registry.py", """
            _REGISTRY = {}

            def register(name, value):
                _REGISTRY[name] = value
                _validate(value)

            def _validate(value):
                if not value:
                    raise ValueError("empty")
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["ERR03"])
        (finding,) = report.findings
        assert finding.rule_id == "ERR03"
        assert "_validate" in finding.message

    def test_seeded_bare_builtin_raise_caught(self, tmp_path):
        self._tree(tmp_path, "repro/stats/quantile.py", """
            def percentile(values, p):
                if not 0 <= p <= 100:
                    raise ValueError("p out of range")
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["ERR04"])
        (finding,) = report.findings
        assert finding.rule_id == "ERR04"
        assert "ReproError subclass" in finding.message

    def test_seeded_leaked_handle_caught(self, tmp_path):
        self._tree(tmp_path, "repro/obs/exporter.py", """
            def export(path, payload):
                handle = open(path, "w")
                handle.write(payload)
        """)
        report = lint_paths([str(tmp_path)], rule_ids=["RES01"])
        (finding,) = report.findings
        assert finding.rule_id == "RES01"
        assert "never released" in finding.message
