"""CONC03 — fork/spawn hygiene.

PAR01 proves a pool payload has the right *shape* (picklable, no open
handles in arguments).  This rule tightens it with what the payload
*does* once it runs, and what the submitter holds while handing it over:

1. **Thread spawns inside worker payloads.**  ``SweepRunner`` sizes the
   pool to the machine; a worker that spawns its own threads (or async
   tasks) oversubscribes every core, and worse, makes per-cell results
   depend on intra-worker scheduling that no seed controls.  The check
   is interprocedural: a ``thread-spawn`` effect anywhere in the
   worker's transitive closure is reported at the submission site with
   the real chain.

2. **Module-global lock state reachable by workers.**  Under the spawn
   start method every worker re-imports the module and gets a *fresh*
   lock object: a worker that acquires a lock-typed module global
   synchronizes against nobody — the lock guards nothing across
   processes, which is worse than no lock because it looks safe.

3. **Submitting while holding a lock.**  Work handed to a pool under a
   held lock couples the lock's critical section to worker completion
   (``map`` blocks; ``submit`` futures get awaited later while the lock
   is still held by convention) — the classic shape of a
   submission-deadlock.  Submit first, lock around the merge.
"""

from __future__ import annotations

from repro.lint.base import ProjectRule, register_project_rule
from repro.lint.findings import Severity
from repro.lint.project.concurrency import (
    concurrent_roots, iter_module_effects, lock_globals_of)
from repro.lint.project.effects import LOCK, THREAD, format_chain
from repro.lint.project.graph import ProjectModel


@register_project_rule
class SpawnHygieneRule(ProjectRule):
    rule_id = "CONC03"
    summary = ("pool payloads must not spawn threads or touch "
               "module-global locks (spawn re-imports give every worker "
               "a fresh, useless lock), and work must not be submitted "
               "while a lock is held")
    default_severity = Severity.ERROR

    def run(self, model: "object") -> None:
        assert isinstance(model, ProjectModel)
        self._check_payload_effects(model)
        self._check_submission_sites(model)

    # -- what the worker does, transitively ----------------------------------

    def _check_payload_effects(self, model: ProjectModel) -> None:
        propagator = model.effects()
        for root in concurrent_roots(model):
            if root.kind != "pool":
                continue
            seen = set()
            for item in propagator.reached(root.worker_qualname):
                effect = item.effect
                origin_path = item.origin.split("::", 1)[0]
                if effect.kind == THREAD:
                    message = (
                        f"pool worker '{root.worker_name}' spawns a "
                        f"thread: {effect.detail}")
                elif effect.kind == LOCK and effect.symbol and \
                        effect.symbol.split(".", 1)[0] in \
                        lock_globals_of(model, origin_path):
                    message = (
                        f"pool worker '{root.worker_name}' acquires "
                        f"module-global lock '{effect.symbol}', which "
                        f"spawn re-creates fresh in every worker — it "
                        f"synchronizes against nobody")
                else:
                    continue
                dedup = (item.origin, effect.kind, effect.symbol)
                if dedup in seen:
                    continue
                seen.add(dedup)
                chain = format_chain(
                    propagator.call_path(root.worker_qualname, item.origin))
                self.report(
                    root.path, root.line, root.col,
                    f"{message} (via {chain}, at "
                    f"{origin_path}:{effect.line}); workers must stay "
                    f"single-threaded and share state only through their "
                    f"payload and return value",
                    line_text=root.line_text)

    # -- what the submitter holds --------------------------------------------

    def _check_submission_sites(self, model: ProjectModel) -> None:
        for summary, effects in iter_module_effects(model):
            for submission in effects.pool_submissions:
                if not submission.locks_held:
                    continue
                held = ", ".join(f"'{name}'"
                                 for name in submission.locks_held)
                self.report(
                    summary.path, submission.line, submission.col,
                    f"{submission.method}() submission while holding "
                    f"{held}; coupling a critical section to worker "
                    f"completion is a submission-deadlock waiting to "
                    f"happen — submit outside the lock and lock around "
                    f"the merge instead",
                    line_text=submission.line_text)
