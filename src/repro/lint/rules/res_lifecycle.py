"""RES01 — resource lifecycle: every acquisition reaches its release.

Phase 1 records every call to a resource-acquiring API — ``open``,
``tempfile`` factories, ``multiprocessing`` pools, ``concurrent.futures``
executors — together with how the handle is managed: bound inside a
``with``, handed outward (returned, stored on an attribute, passed to
another call), closed explicitly, or simply dropped.

Two shapes are findings:

1. **Never released.**  The handle stays local and no
   ``close``/``terminate``/``shutdown``/``cleanup`` call touches it.  An
   open file leaks a descriptor; an unterminated pool leaks worker
   *processes* that outlive the sweep and, on some platforms, block
   interpreter exit.

2. **Released only on the happy path.**  The close exists but sits
   outside any ``finally``, and between acquisition and close there is a
   raise or a call whose phase-2 escaping set is non-empty — so a real,
   named exception path skips the release.  The finding cites that path.

A handle that *escapes* is not a finding: ownership moved, and the new
owner's lifecycle (``RunLog.close``, a pool stored for reuse) is a
design choice this rule cannot see locally.  The fix is always the same
shape: ``with`` when the lifetime is lexical, ``try``/``finally`` when
it is not.
"""

from __future__ import annotations

from repro.lint.base import ProjectRule, register_project_rule
from repro.lint.findings import Severity
from repro.lint.project.concurrency import iter_module_effects
from repro.lint.project.effects import ResourceSite, format_chain
from repro.lint.project.errflow import ErrorFlow
from repro.lint.project.graph import ProjectModel

#: What leaks when each resource kind is dropped, for the message.
_LEAK = {
    "open": "a file descriptor (and buffered writes may never flush)",
    "tempfile": "a file descriptor and an on-disk temp file",
    "pool": "worker processes that outlive the sweep",
    "executor": "worker threads/processes that outlive the run",
}


@register_project_rule
class ResourceLifecycleRule(ProjectRule):
    rule_id = "RES01"
    summary = ("every acquired resource (open file, tempfile, pool, "
               "executor) must reach its release on all paths: use "
               "'with' for lexical lifetimes, try/finally otherwise — a "
               "close only on the happy path leaks when the call tree "
               "raises")
    default_severity = Severity.ERROR

    def run(self, model: "object") -> None:
        assert isinstance(model, ProjectModel)
        flow = model.errflow()
        for summary, effects in iter_module_effects(model):
            for site in effects.resource_sites:
                if site.in_with or site.escapes:
                    continue
                if not site.closed:
                    leak = _LEAK.get(site.kind, "the underlying resource")
                    self.report(
                        summary.path, site.line, site.col,
                        f"{site.api}() handle"
                        f"{self._named(site)} is never released in "
                        f"'{self._func(site)}' — leaking {leak}; bind it "
                        f"in a 'with' (or close it in a finally)",
                        line_text=site.line_text)
                    continue
                if site.close_in_finally:
                    continue
                self._check_happy_path_close(flow, summary.path, site)

    @staticmethod
    def _func(site: ResourceSite) -> str:
        return site.in_function.split("::", 1)[-1]

    @staticmethod
    def _named(site: ResourceSite) -> str:
        return f" '{site.var}'" if site.var else ""

    def _check_happy_path_close(self, flow: ErrorFlow, path: str,
                                site: ResourceSite) -> None:
        """The close exists outside a finally — does a raise skip it?"""
        qualname = site.in_function
        start, end = site.line, site.close_line
        # A local raise between acquisition and close, not absorbed there.
        raised = flow.first_escaping_raise(qualname, after=start, before=end)
        if raised is not None:
            self.report(
                path, site.line, site.col,
                f"{site.api}() handle{self._named(site)} in "
                f"'{self._func(site)}' is closed only on the happy path: "
                f"the raise of {raised.exc_type} at line "
                f"{raised.site.line} skips the close at line "
                f"{site.close_line}; move the close into a finally (or "
                f"use 'with')",
                line_text=site.line_text)
            return
        # A call between acquisition and close whose escapes survive.
        found = flow.first_escaping_call(qualname, after=start, before=end)
        if found is None:
            return
        call, escape = found
        chain = format_chain(flow.chain(call.callee, escape))
        self.report(
            path, site.line, site.col,
            f"{site.api}() handle{self._named(site)} in "
            f"'{self._func(site)}' is closed only on the happy "
            f"path: {call.name}() at line {call.line} can raise "
            f"{escape.exc_type} (via {chain}), skipping the close "
            f"at line {site.close_line}; move the close into a "
            f"finally (or use 'with')",
            line_text=site.line_text)
