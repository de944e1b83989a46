"""ERR02 — handler hygiene: no silent swallows, no lazy breadth.

An ``except`` clause is where an error either gets *handled* or gets
*lost*.  Three shapes lose it:

1. **Bare ``except:``** catches ``SystemExit`` and
   ``KeyboardInterrupt`` along with everything else — a daemon that
   cannot be Ctrl-C'd is the canonical casualty.  Always wrong; catch
   ``Exception`` at the very broadest.

2. **Broad swallows.**  A handler that catches ``Exception`` (or a
   shotgun tuple of three-plus types) and neither re-raises, raises a
   replacement, nor logs turns every future bug in the protected span
   into silence.  Intentional swallow points — a cache ``load`` where a
   corrupt entry must mean a miss, a pool worker returning failure
   records — declare ``# mapglint: error-boundary`` on the enclosing
   definition line, which is the author's auditable claim that
   swallowing *is* the contract there.

3. **Imprecise catches of the project hierarchy.**  ``except
   ReproError`` where phase 2 can prove every raise reaching the try
   body is one precise subclass is a missed chance at precision: the
   broad catch will also absorb unrelated future errors.  Reported only
   when the escaping-set analysis finds a single reaching subclass, so
   the suggestion is always concretely actionable.

Logging, for this rule, is any ``print``/logger-style call in the
handler suite — the bar is "a human can find out it happened", not a
particular logging framework.
"""

from __future__ import annotations

from typing import Set

from repro.lint.base import ProjectRule, register_project_rule
from repro.lint.findings import Severity
from repro.lint.project.concurrency import iter_module_effects
from repro.lint.project.effects import HandlerInfo
from repro.lint.project.errflow import ErrorFlow
from repro.lint.project.graph import ProjectModel

#: Caught-type count at which a tuple stops being precise handling and
#: starts being a shotgun.
_BROAD_TUPLE = 3

_CATCH_ALL_NAMES = frozenset({"Exception", "BaseException"})


@register_project_rule
class HandlerHygieneRule(ProjectRule):
    rule_id = "ERR02"
    summary = ("exception handlers must not swallow silently: no bare "
               "'except:', no broad catch that neither re-raises nor "
               "logs (declare '# mapglint: error-boundary' at "
               "intentional swallow points), and no 'except ReproError' "
               "where every reaching raise is one precise subclass")
    default_severity = Severity.ERROR

    def run(self, model: "object") -> None:
        assert isinstance(model, ProjectModel)
        flow = model.errflow()
        for summary, effects in iter_module_effects(model):
            for handler in effects.handlers:
                if flow.is_boundary(handler.in_function):
                    continue
                if handler.is_bare:
                    self.report(
                        summary.path, handler.line, handler.col,
                        f"bare 'except:' in "
                        f"'{handler.in_function.split('::', 1)[-1]}' also "
                        f"catches SystemExit and KeyboardInterrupt — the "
                        f"process becomes uninterruptible; catch "
                        f"'Exception' at the very broadest",
                        line_text=handler.line_text)
                    continue
                self._check_swallow(summary.path, handler)
                self._check_precision(model, flow, summary.path, handler)

    def _check_swallow(self, path: str, handler: HandlerInfo) -> None:
        caught = handler.caught
        broad = bool(set(caught) & _CATCH_ALL_NAMES) or \
            len(caught) >= _BROAD_TUPLE
        handled = (handler.reraises or handler.raises_new
                   or handler.logs)
        if not broad or handled:
            return
        spelled = ", ".join(caught)
        outcome = "returns a fallback" if handler.returns \
            else "falls through"
        self.report(
            path, handler.line, handler.col,
            f"handler catches ({spelled}) and {outcome} without "
            f"re-raising or logging — every future bug in the protected "
            f"span becomes silence; narrow the catch, log the failure, "
            f"or declare '# mapglint: error-boundary' on the enclosing "
            f"definition if swallowing is the contract here",
            line_text=handler.line_text)

    def _check_precision(self, model: ProjectModel, flow: ErrorFlow,
                         path: str, handler: HandlerInfo) -> None:
        if "ReproError" not in handler.caught:
            return
        qualname = handler.in_function
        start = handler.try_start
        end = handler.try_end
        hierarchy = flow.hierarchy
        reaching: Set[str] = set()
        effects = model.summary_for(path).module_effects \
            if model.summary_for(path) else None
        if effects is not None:
            for site in effects.raise_sites:
                if site.in_function == qualname and site.exc_type and \
                        start <= site.line <= end and \
                        hierarchy.is_subtype(site.exc_type, "ReproError"):
                    reaching.add(site.exc_type)
        for edge in model.edges.get(qualname, ()):
            if edge.unique and start <= edge.line <= end:
                for escape in flow.escaping(edge.callee):
                    if hierarchy.is_subtype(escape.exc_type, "ReproError"):
                        reaching.add(escape.exc_type)
        if len(reaching) != 1:
            return
        precise = next(iter(reaching))
        if precise == "ReproError":
            return
        self.report(
            path, handler.line, handler.col,
            f"handler catches ReproError but every raise that can reach "
            f"this try body is {precise} — catch {precise} so unrelated "
            f"future errors keep propagating",
            line_text=handler.line_text)
