"""Phase 2 of error-flow analysis: escaping-exception sets by fixpoint.

Phase 1 (:mod:`repro.lint.project.effects`) records, per function, every
explicit raise site and every handler span.  This module closes those
local facts over the resolved call graph: the **escaping set** of a
function ``F`` is

    escaping(F) = local(F)  ∪  ⋃ over calls c in F
                  { e ∈ escaping(callee(c)) | type(e) not caught at c }

where ``local(F)`` holds F's own raise sites not caught by an enclosing
handler in F, and "caught at c" consults the handler spans whose try
body contains the call line.  The domain is the powerset of
``(exception type, origin function, raise site)`` triples ordered by
inclusion; the transfer function is monotone (each handler's caught-type
filter is a per-site constant, and union only grows), so
:func:`~repro.lint.project.solver.least_fixpoint` reaches the least
fixpoint, recursion cycles included.

The model deliberately under-approximates:

* only **explicit** raises are tracked — an ``OSError`` born inside
  ``open()`` has no raise site here, so its absence from an escaping set
  is not a proof of safety, but every *member* of an escaping set is a
  real raise statement on a real call chain;
* calls propagate only through **unambiguously resolved** names (the
  project agreement rule), and a raise of an unknowable expression
  (``raise err``) contributes nothing;
* a handler whose caught spelling cannot be named statically is treated
  as a catch-all, and a handler containing a bare ``raise`` is treated
  as re-raising everything it catches (the caught exception *can*
  continue outward, so dropping it would under-report a real escape —
  the one place the model rounds toward reporting).

Subtyping is resolved against the project's recorded class definitions
(so ``ConfigError`` is caught by ``except ReproError``) plus a static
table of builtin exception parents (so ``FileNotFoundError`` is caught
by ``except OSError``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.project.effects import HandlerInfo, RaiseSite
from repro.lint.project.solver import CallEdge, bfs, least_fixpoint, path_to

#: Builtin exception -> parent, enough of the CPython hierarchy to answer
#: every catch a repro module actually writes.  Names not in the table
#: (project classes included) fall back to the recorded class bases, then
#: to ``Exception``.
_BUILTIN_PARENT: Dict[str, str] = {
    "Exception": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "GeneratorExit": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "LookupError": "Exception",
    "KeyError": "LookupError",
    "IndexError": "LookupError",
    "OSError": "Exception",
    "IOError": "OSError",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "InterruptedError": "OSError",
    "TimeoutError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "JSONDecodeError": "ValueError",
    "TypeError": "Exception",
    "AttributeError": "Exception",
    "NameError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "RuntimeError": "Exception",
    "RecursionError": "RuntimeError",
    "NotImplementedError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "AssertionError": "Exception",
    "MemoryError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ReferenceError": "Exception",
    "SystemError": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
}

#: Catch spellings that catch every exception type.
_CATCH_ALL = frozenset({"*", "Exception", "BaseException"})


class ExceptionHierarchy:
    """Subtype queries over project classes plus the builtin table."""

    def __init__(self, project_bases: Dict[str, Tuple[str, ...]]) -> None:
        self._project = dict(project_bases)

    def _parents(self, name: str) -> List[str]:
        parents = list(self._project.get(name, ()))
        builtin = _BUILTIN_PARENT.get(name)
        if builtin is not None:
            parents.append(builtin)
        return parents

    def ancestors(self, name: str) -> FrozenSet[str]:
        """``name`` plus every ancestor reachable through recorded bases."""
        return frozenset(bfs([name], self._parents))

    def is_subtype(self, name: str, ancestor: str) -> bool:
        return ancestor in self.ancestors(name)

    def catches(self, handler: HandlerInfo, exc_type: str) -> bool:
        """Whether one except clause catches an exception type."""
        if handler.is_bare:
            return True
        for caught in handler.caught:
            if caught in _CATCH_ALL or self.is_subtype(exc_type, caught):
                return True
        return False


@dataclass(frozen=True)
class EscapingRaise:
    """One raise site that can propagate out of a function uncaught."""

    exc_type: str              # exception class name
    origin: str                # qualname of the function with the raise
    site: RaiseSite


class ErrorFlow:
    """Escaping-exception sets for every function, plus real chains.

    Built once per :class:`~repro.lint.project.graph.ProjectModel` (via
    ``model.errflow()``) from the phase-1 summaries only — no ASTs.
    """

    def __init__(self, model: "object") -> None:
        # ``model`` is a ProjectModel; typed loosely to avoid a cycle.
        project_bases: Dict[str, Tuple[str, ...]] = {}
        raises: Dict[str, List[RaiseSite]] = {}
        handlers: Dict[str, List[HandlerInfo]] = {}
        self._boundaries: Set[str] = set()
        for summary in model.summaries:  # type: ignore[attr-defined]
            effects = getattr(summary, "module_effects", None)
            if effects is None:
                continue
            for cls in effects.exception_classes:
                project_bases.setdefault(cls.name, cls.bases)
            for site in effects.raise_sites:
                raises.setdefault(site.in_function, []).append(site)
            for handler in effects.handlers:
                handlers.setdefault(handler.in_function, []).append(handler)
            self._boundaries |= effects.error_boundaries
        self.hierarchy = ExceptionHierarchy(project_bases)
        self._handlers = handlers
        self._edges: Dict[str, Tuple[CallEdge, ...]] = \
            model.edges  # type: ignore[attr-defined]

        # Per function, in raise-site order.
        local: Dict[str, Tuple[EscapingRaise, ...]] = {}
        for qualname, sites in raises.items():
            local[qualname] = tuple(
                EscapingRaise(exc_type=site.exc_type, origin=qualname,
                              site=site)
                for site in sites
                if not site.is_reraise and site.exc_type and
                not self.absorbed_at(qualname, site.exc_type, site.line))
        self._local = local
        self._escaping = least_fixpoint(local, self._edges, self._crosses)

    # -- handler semantics ---------------------------------------------------

    def absorbed_at(self, qualname: str, exc_type: str, line: int) -> bool:
        """Whether an exception of ``exc_type`` surfacing at ``line``
        inside ``qualname`` is terminally caught there.

        Only handlers whose try body spans ``line`` count.  Handlers of
        one try are tried in source order; a matching handler that
        contains a bare ``raise`` lets the exception continue (an outer
        try may still absorb it).  Grouping is by identical try span,
        which is exact for distinct tries in one function.
        """
        by_span: Dict[Tuple[int, int], List[HandlerInfo]] = {}
        for handler in self._handlers.get(qualname, ()):
            if handler.try_start <= line <= handler.try_end:
                by_span.setdefault(
                    (handler.try_start, handler.try_end), []).append(handler)
        # Inner spans first: contained spans sort after by start line.
        for span in sorted(by_span, key=lambda s: (-s[0], s[1])):
            for handler in sorted(by_span[span], key=lambda h: h.line):
                if self.hierarchy.catches(handler, exc_type):
                    if handler.reraises:
                        break  # re-raised: keep looking outward
                    return True
        return False

    def _crosses(self, caller: str, edge: CallEdge,
                 escape: EscapingRaise) -> bool:
        """Whether ``escape`` leaves its callee into ``caller`` at ``edge``:
        uniquely resolved calls only, minus what the call site absorbs."""
        return edge.unique and \
            not self.absorbed_at(caller, escape.exc_type, edge.line)

    # -- queries -------------------------------------------------------------

    def escaping(self, qualname: str) -> FrozenSet[EscapingRaise]:
        """Every raise site that can propagate out of ``qualname``."""
        return self._escaping.get(qualname, frozenset())

    def is_boundary(self, qualname: str) -> bool:
        """Whether a function declares ``# mapglint: error-boundary``."""
        return qualname in self._boundaries

    def chain(self, root: str, escape: EscapingRaise) -> List[str]:
        """A real root→origin call chain along which the escape travels.

        BFS over the resolved edges, stepping only into callees whose
        escaping set still contains the escape *and* whose call site does
        not absorb it — every returned chain is a genuine propagation
        path, not merely a shortest call path.
        """
        if root == escape.origin and escape in self._local.get(root, ()):
            return [root]
        parents = bfs([root], lambda caller: (
            edge.callee for edge in self._edges.get(caller, ())
            if escape in self.escaping(edge.callee) and
            self._crosses(caller, edge, escape)), goal=escape.origin)
        if parents.get(escape.origin) is None:
            return [root, escape.origin]
        return path_to(parents, escape.origin)

    def first_escaping_raise(self, qualname: str, after: int,
                             before: Optional[int] = None
                             ) -> Optional[EscapingRaise]:
        """The first raise of ``qualname`` strictly between lines
        ``after`` and ``before`` that leaves the function uncaught."""
        return next((escape for escape in self._local.get(qualname, ())
                     if _between(escape.site.line, after, before)), None)

    def first_escaping_call(self, qualname: str, after: int,
                            before: Optional[int] = None
                            ) -> Optional[Tuple[CallEdge, EscapingRaise]]:
        """The first call of ``qualname`` strictly between lines ``after``
        and ``before`` (in line order) through which an escape of its
        callee leaves the caller, with that escape (by type, then line)."""
        for edge in sorted(self._edges.get(qualname, ()),
                           key=lambda e: e.line):
            if not edge.unique or not _between(edge.line, after, before):
                continue
            for escape in sorted(self.escaping(edge.callee),
                                 key=lambda e: (e.exc_type, e.site.line)):
                if not self.absorbed_at(qualname, escape.exc_type,
                                        edge.line):
                    return edge, escape
        return None


def _between(line: int, after: int, before: Optional[int]) -> bool:
    return after < line and (before is None or line < before)
