"""ERR04 — exception-hierarchy discipline for library code.

``repro/errors.py`` documents the package contract: *every error raised
by this package derives from ReproError*, so callers can catch one base
class.  Nothing enforced it until now — a ``raise ValueError`` deep in
a stats helper silently punches a hole in the contract, and the caller
who wrote ``except ReproError`` finds out in production.

The rule flags explicit raises of bare builtin exception types in
non-test ``repro`` library code when the raising function is itself
public (no leading underscore) or reachable from a public function over
the resolved call graph — the paths a downstream caller can actually
hit.  ``__post_init__`` counts as public: it runs inside the public
constructor of every dataclass.

The fix keeps documented behavior: a conversion class can multiply
inherit (``class StatsError(ReproError, ValueError)``), so existing
``except ValueError`` callers and doctests keep passing while the
contract starts holding.  A genuinely-internal invariant check
(``raise AssertionError("unreachable")``) that conversion would only
obscure takes a per-line ``# mapglint: disable=ERR04``.

The lint package itself is exempt: mapglint is a dev tool with its own
CLI boundary, not part of the library contract (the same scoping CACHE01
applies to its digest set).
"""

from __future__ import annotations

from typing import Dict

from repro.lint.base import ProjectRule, register_project_rule
from repro.lint.findings import Severity
from repro.lint.project.concurrency import iter_module_effects
from repro.lint.project.graph import ProjectModel, in_repro, is_test_path
from repro.lint.project.solver import bfs

#: Builtin types whose bare raise breaks the errors.py contract.
_BARE_BUILTINS = frozenset({
    "ValueError", "TypeError", "KeyError", "IndexError", "RuntimeError",
    "LookupError", "ArithmeticError", "AssertionError", "Exception",
})


def _is_public(qualname: str) -> bool:
    """Whether a function qualname denotes public API surface."""
    qual = qualname.split("::", 1)[-1]
    name = qual.rsplit(".", 1)[-1]
    if name == "__post_init__":
        return True  # runs inside every public dataclass constructor
    return not name.startswith("_")


def _in_lint(path: str) -> bool:
    return "/lint/" in f"/{path}"


@register_project_rule
class HierarchyDisciplineRule(ProjectRule):
    rule_id = "ERR04"
    summary = ("library code under repro/ must not raise bare builtin "
               "exceptions (ValueError, KeyError, RuntimeError, ...) on "
               "public-API-reachable paths: every repro error derives "
               "from ReproError (errors.py) — use a subclass, with "
               "multiple inheritance where ValueError compatibility is "
               "documented")
    default_severity = Severity.ERROR

    def run(self, model: "object") -> None:
        assert isinstance(model, ProjectModel)
        flow = model.errflow()
        reachable = self._public_reachable(model)
        for summary, effects in iter_module_effects(model):
            if _in_lint(summary.path):
                continue
            for site in effects.raise_sites:
                if site.exc_type not in _BARE_BUILTINS:
                    continue
                if flow.hierarchy.is_subtype(site.exc_type, "ReproError"):
                    continue
                root = reachable.get(site.in_function)
                if root is None:
                    continue
                qual = site.in_function.split("::", 1)[-1]
                via = "" if root == qual else \
                    f", reachable from public '{root}'"
                self.report(
                    summary.path, site.line, site.col,
                    f"raises bare {site.exc_type} in library function "
                    f"'{qual}'{via}; the errors.py contract says every "
                    f"repro error derives from ReproError — raise a "
                    f"ReproError subclass (multiple inheritance, e.g. "
                    f"'class XError(ReproError, {site.exc_type})', keeps "
                    f"existing callers working), or add "
                    f"'# mapglint: disable=ERR04' for a genuinely "
                    f"internal invariant",
                    line_text=site.line_text)

    @staticmethod
    def _public_reachable(model: ProjectModel) -> Dict[str, str]:
        """qualname -> public root name, for all public-reachable functions.

        Multi-source BFS from every public function in non-test,
        non-lint repro source over the resolved call graph (callees in
        sorted order); the recorded root is the first public function
        that reaches each node (its bare display name, for the finding
        message).
        """
        roots = [info.qualname
                 for summary in model.summaries
                 if not is_test_path(summary.path) and
                 in_repro(summary.path) and not _in_lint(summary.path)
                 for info in summary.functions
                 if info.name != "<module>" and _is_public(info.qualname)]
        parents = bfs(roots, lambda caller: sorted(
            {edge.callee for edge in model.edges.get(caller, ())}))
        reachable: Dict[str, str] = {}
        for qualname, parent in parents.items():  # parents come first
            reachable[qualname] = qualname.split("::", 1)[-1] \
                if parent is None else reachable[parent]
        return reachable
