"""ERR03 — exception-unsafe state mutation.

A write to shared state (a module global, a guarded-by bound field, a
class-level mutable attribute) followed — in the same function, outside
any try — by a call that can raise leaves the state half-updated when
the exception unwinds: the ledger says the entry exists, the registry
disagrees, and every later read of either is wrong in a way no test of
the happy path will see.

The "can raise" half of the condition is phase 2's escaping-set
fixpoint, filtered through the handlers that actually enclose the call
site — so the rule only fires when a *real* raise statement on a *real*
call chain can unwind through the mutation point.  A mutation inside a
try body that has a handler or a ``finally`` is trusted: the author has
thought about the exceptional path there (whether the handler rolls
back is beyond static reach, and guessing would make the rule noise).

The fix is mechanical: compute first, mutate last; or wrap the
mutation+call in ``try``/``finally`` with a rollback.
"""

from __future__ import annotations

from repro.lint.base import ProjectRule, register_project_rule
from repro.lint.findings import Severity
from repro.lint.project.concurrency import iter_module_effects
from repro.lint.project.effects import (
    GLOBAL_WRITE, GUARDED_WRITE, SHARED_WRITE, Effect, format_chain)
from repro.lint.project.errflow import ErrorFlow
from repro.lint.project.graph import ProjectModel

_MUTATION_KINDS = frozenset({GLOBAL_WRITE, GUARDED_WRITE, SHARED_WRITE})


@register_project_rule
class ExceptionUnsafeMutationRule(ProjectRule):
    rule_id = "ERR03"
    summary = ("no shared-state write followed by a possibly-raising "
               "call (or raise) in the same function without "
               "try/finally: an unwinding exception leaves the global, "
               "guarded field, or class attribute half-updated")
    default_severity = Severity.ERROR

    def run(self, model: "object") -> None:
        assert isinstance(model, ProjectModel)
        flow = model.errflow()
        for summary, effects in iter_module_effects(model):
            protected = [span for span in effects.protected_spans]
            for info in effects.functions:
                for effect in info.effects:
                    if effect.kind not in _MUTATION_KINDS:
                        continue
                    if any(span.in_function == info.qualname and
                           span.start <= effect.line <= span.end
                           for span in protected):
                        continue
                    self._check_site(flow, summary.path, info.qualname,
                                     effect)

    def _check_site(self, flow: ErrorFlow, path: str, qualname: str,
                    effect: Effect) -> None:
        # A later local raise unwinds through the mutation directly.
        raised = flow.first_escaping_raise(qualname, after=effect.line)
        if raised is not None:
            self.report(
                path, effect.line, effect.col,
                f"{effect.detail} and then raises {raised.exc_type} at "
                f"line {raised.site.line} with no try/finally between — "
                f"the unwind leaves '{effect.symbol}' half-updated; "
                f"validate before mutating, or roll back in a finally",
                line_text=effect.line_text)
            return
        # A later call whose escaping set survives the enclosing handlers.
        found = flow.first_escaping_call(qualname, after=effect.line)
        if found is None:
            return
        call, escape = found
        chain = format_chain(flow.chain(call.callee, escape))
        self.report(
            path, effect.line, effect.col,
            f"{effect.detail} and then calls {call.name}() at "
            f"line {call.line}, which can raise "
            f"{escape.exc_type} (via {chain}) with no try/finally "
            f"between — the unwind leaves '{effect.symbol}' "
            f"half-updated; mutate last, or roll back in a "
            f"finally",
            line_text=effect.line_text)
