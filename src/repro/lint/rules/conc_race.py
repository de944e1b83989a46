"""CONC01 — shared-state race.

The worker-pool and daemon roadmap items make the repo genuinely
concurrent: watcher threads, a warm pool, async tasks.  Once a second
flow of control exists, three kinds of writes become races:

1. **Guarded fields written without their lock.**  A
   ``# mapglint: guarded-by=<lock>`` pragma on a definition line is the
   author's contract that every post-init write holds that lock.  The
   check is unconditional — the contract is explicit, so a bare write is
   a bug whether or not the analyzer can see the thread that will hit it
   (the one it cannot see is exactly the one that bites in production).

2. **Mutable module globals written on a thread/task-reachable path.**
   Phase 2's fixpoint closure answers which functions a spawned worker
   can transitively reach; a global write on such a path with no lock
   statically held is reported *at the spawn site* with the real
   spawn-to-access chain.  Pool roots are exempt here: PURE01 already
   rejects every global write in a pool worker, and one finding per
   defect is the house rule.

3. **Class-level mutable attributes mutated on any concurrent-reachable
   path** (pool roots included — PURE01 does not track attribute
   mutation).  A ``cache = {}`` in a class body is one object shared by
   every instance and every thread.

Writes with *any* lock statically held are trusted: the analyzer cannot
prove the lock is the right one without a binding, which is what the
guarded-by pragma is for.  Suggest the pragma; never guess.
"""

from __future__ import annotations

from repro.lint.base import ProjectRule, register_project_rule
from repro.lint.findings import Severity
from repro.lint.project.concurrency import (
    binding_locks, concurrent_roots, iter_module_effects)
from repro.lint.project.effects import (
    GLOBAL_WRITE, GUARDED_WRITE, SHARED_WRITE, format_chain)
from repro.lint.project.graph import ProjectModel


@register_project_rule
class SharedStateRaceRule(ProjectRule):
    rule_id = "CONC01"
    summary = ("no unsynchronized writes to shared state: guarded-by "
               "bound fields must hold their lock, and module globals / "
               "class-level mutable attrs must not be written on a path "
               "reachable from a thread, task, or pool entry point "
               "without a lock held")
    default_severity = Severity.ERROR

    def run(self, model: "object") -> None:
        assert isinstance(model, ProjectModel)
        self._check_guarded_contracts(model)
        self._check_reachable_writes(model)

    # -- part A: the guarded-by contract, enforced at every write site ------

    def _check_guarded_contracts(self, model: ProjectModel) -> None:
        for summary, effects in iter_module_effects(model):
            for info in effects.functions:
                for effect in info.effects:
                    if effect.kind != GUARDED_WRITE:
                        continue
                    locks = binding_locks(model, summary.path, effect.symbol)
                    if locks & set(effect.locks_held):
                        continue
                    expected = " or ".join(f"'{lock}'"
                                           for lock in sorted(locks))
                    held = (", holding only " + ", ".join(
                        f"'{name}'" for name in effect.locks_held)
                        if effect.locks_held else " with no lock held")
                    self.report(
                        summary.path, effect.line, effect.col,
                        f"{effect.detail} in '{info.name}'{held}; the "
                        f"definition binds this field to {expected} "
                        f"(# mapglint: guarded-by), so every post-init "
                        f"write must hold that lock — wrap the write in "
                        f"'with {sorted(locks)[0]}:'",
                        line_text=effect.line_text)

    # -- part B: unguarded writes on concurrent-reachable paths -------------

    def _check_reachable_writes(self, model: ProjectModel) -> None:
        propagator = model.effects()
        for root in concurrent_roots(model):
            hazard_kinds = {SHARED_WRITE}
            if root.kind != "pool":
                # Pool workers' global writes are PURE01 findings already.
                hazard_kinds.add(GLOBAL_WRITE)
            seen = set()
            for item in propagator.reached(root.worker_qualname):
                effect = item.effect
                if effect.kind not in hazard_kinds or effect.locks_held:
                    continue
                dedup = (item.origin, effect.kind, effect.symbol)
                if dedup in seen:
                    continue
                seen.add(dedup)
                chain = format_chain(
                    propagator.call_path(root.worker_qualname, item.origin))
                origin_path = item.origin.split("::", 1)[0]
                what = ("thread" if root.kind == "thread" else
                        "task" if root.kind == "task" else "pool worker")
                self.report(
                    root.path, root.line, root.col,
                    f"{root.api}() spawns a {what} that reaches an "
                    f"unsynchronized shared write: {effect.detail} "
                    f"(via {chain}, at {origin_path}:{effect.line}) with "
                    f"no lock held; guard the write with a lock and bind "
                    f"it with '# mapglint: guarded-by=<lock>' on the "
                    f"definition line",
                    line_text=root.line_text)
