"""Shared substrate for the CONC rules: roots, lock identity, bindings.

The four concurrency rules (CONC01–CONC04) all reason from the same
three questions, answered here so they answer them identically:

* **What are the concurrent roots?** Every spawn site (thread, timer,
  async task) and every pool submission whose worker resolves — by the
  project's agreement rule, to exactly one definition — is an entry
  point from which a second flow of control can reach shared state.

* **Which lock guards a symbol?** ``# mapglint: guarded-by=<lock>``
  bindings are per-module facts; :func:`binding_locks` looks them up in
  the module that *defines* the symbol (where phase 1 emitted the
  guarded-write effect), so a rule never has to rediscover the pragma.

* **When are two lock spellings the same lock?** Spellings are only
  comparable within a scope: ``self._lock`` in two different classes is
  two locks, a bare ``_lock`` parameter in two functions likewise, but a
  lock-typed module global is one lock everywhere in its module.
  :func:`qualify_lock` canonicalizes a spelling to a project-wide
  identity so CONC02's order graph never aliases unrelated locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List

from repro.lint.project.graph import ProjectModel, in_repro, is_test_path


@dataclass(frozen=True)
class ConcurrentRoot:
    """One resolved concurrent entry point (spawn site or pool submission)."""

    kind: str                  # "thread" | "task" | "pool"
    api: str                   # "threading.Thread", "map", "submit", ...
    worker_name: str           # the bare worker name that resolved
    worker_qualname: str       # qualname of the resolved definition
    path: str                  # module containing the spawn/submission
    line: int
    col: int
    line_text: str = ""


def concurrent_roots(model: ProjectModel) -> List[ConcurrentRoot]:
    """Every spawn site and pool submission with a uniquely resolved worker.

    Only non-test ``repro`` source contributes roots; ambiguous or
    unresolvable workers contribute nothing (under-approximate, never
    guess — every reported spawn-to-access chain must be real).
    """
    roots: List[ConcurrentRoot] = []
    for summary in model.summaries:
        if is_test_path(summary.path) or not in_repro(summary.path):
            continue
        effects = summary.module_effects
        if effects is None:
            continue
        for spawn in effects.spawn_sites:
            if spawn.worker_kind != "name":
                continue
            worker = model.resolve_unique(spawn.worker_name)
            if worker is None:
                continue
            roots.append(ConcurrentRoot(
                kind=spawn.kind, api=spawn.api,
                worker_name=spawn.worker_name,
                worker_qualname=worker.qualname,
                path=summary.path, line=spawn.line, col=spawn.col,
                line_text=spawn.line_text))
        for submission in effects.pool_submissions:
            if submission.worker_kind != "name":
                continue
            worker = model.resolve_unique(submission.worker_name)
            if worker is None:
                continue
            roots.append(ConcurrentRoot(
                kind="pool", api=submission.method,
                worker_name=submission.worker_name,
                worker_qualname=worker.qualname,
                path=summary.path, line=submission.line,
                col=submission.col, line_text=submission.line_text))
    return roots


def binding_locks(model: ProjectModel, path: str,
                  symbol: str) -> FrozenSet[str]:
    """The lock spellings bound to ``symbol`` in the module at ``path``."""
    summary = model.summary_for(path)
    effects = getattr(summary, "module_effects", None)
    if effects is None:
        return frozenset()
    return frozenset(binding.lock for binding in effects.guarded_bindings
                     if binding.symbol == symbol)


def lock_globals_of(model: ProjectModel, path: str) -> FrozenSet[str]:
    """Lock-typed module globals defined by the module at ``path``."""
    summary = model.summary_for(path)
    effects = getattr(summary, "module_effects", None)
    if effects is None:
        return frozenset()
    return effects.lock_globals


def qualify_lock(path: str, function_qualname: str, lock: str,
                 module_locks: FrozenSet[str] = frozenset()) -> str:
    """Canonical project-wide identity for a lock spelling at a site.

    ``self.X``/``cls.X`` locks are per-class (qualified by the defining
    class); lock-typed module globals (``module_locks``) are per-module;
    everything else (parameters, locals) is per-function.
    """
    head = lock.split(".", 1)[0]
    if head in ("self", "cls"):
        qual = function_qualname.split("::", 1)[-1]
        class_name = qual.rsplit(".", 1)[0] if "." in qual else qual
        return f"{path}::{class_name}::{lock}"
    if head in module_locks:
        return f"{path}::{lock}"
    return f"{function_qualname}::{lock}"


def iter_module_effects(model: ProjectModel,
                        include_tests: bool = False) -> Iterator[tuple]:
    """``(summary, module_effects)`` for every in-scope source module."""
    for summary in model.summaries:
        if not in_repro(summary.path):
            continue
        if not include_tests and is_test_path(summary.path):
            continue
        effects = summary.module_effects
        if effects is not None:
            yield summary, effects
