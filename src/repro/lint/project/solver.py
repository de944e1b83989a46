"""The call graph's edges and the two walks every closure runs over them.

:class:`~repro.lint.project.graph.ProjectModel` turns each call site into
:class:`CallEdge` records once; the effect, error-flow, twin and ERR04
analyses differ only in their local facts and in which edges a fact may
cross.  They share two algorithms:

* :func:`least_fixpoint` — per node, the least solution of
  ``facts(n) = local(n) ∪ {f ∈ facts(m) | edge n→m passes f}``.  The
  domain is a powerset ordered by inclusion and every edge filter is a
  per-(caller, edge, fact) constant, so the transfer is monotone and a
  worklist reaches the same least fixpoint as round-robin sweeps,
  recursion cycles included, revisiting only the callers of nodes that
  grew.
* :func:`bfs` — a FIFO breadth-first walk that records each node's
  parent, so :func:`path_to` can name the real chain behind a finding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional,
    Sequence, Set, TypeVar)

N = TypeVar("N", bound=Hashable)
F = TypeVar("F", bound=Hashable)


@dataclass(frozen=True)
class CallEdge:
    """One call site resolved to one candidate definition."""

    line: int                  # line of the call in the caller
    name: str                  # bare callee name as spelled at the call
    receiver: str              # dotted receiver ("self.sim"), may be ""
    callee: str                # qualname of the candidate definition
    unique: bool               # the bare name has exactly one definition


def least_fixpoint(local: Mapping[str, Iterable[F]],
                   edges: Mapping[str, Sequence[CallEdge]],
                   passes: Callable[[str, CallEdge, F], bool]
                   ) -> Dict[str, FrozenSet[F]]:
    """Least ``facts`` with ``facts(n) ⊇ local(n)`` and, for every edge
    ``e`` of ``n`` and every ``f`` in ``facts(e.callee)`` with
    ``passes(n, e, f)``, ``f ∈ facts(n)``.

    Keys are the nodes of ``local`` and ``edges``; a callee with neither
    contributes nothing.
    """
    state: Dict[str, Set[F]] = {node: set(local.get(node, ()))
                                for node in sorted(set(local) | set(edges))}
    callers: Dict[str, List[str]] = {}
    for node in state:
        for edge in edges.get(node, ()):
            callers.setdefault(edge.callee, []).append(node)
    queue = deque(state)
    queued = set(state)
    while queue:
        node = queue.popleft()
        queued.discard(node)
        facts = state[node]
        before = len(facts)
        for edge in edges.get(node, ()):
            for fact in state.get(edge.callee, ()):
                if fact not in facts and passes(node, edge, fact):
                    facts.add(fact)
        if len(facts) != before:
            for caller in callers.get(node, ()):
                if caller not in queued:
                    queued.add(caller)
                    queue.append(caller)
    return {node: frozenset(facts) for node, facts in state.items()}


def bfs(roots: Iterable[N], successors: Callable[[N], Iterable[N]],
        goal: Optional[N] = None) -> Dict[N, Optional[N]]:
    """Breadth-first parents from ``roots`` (FIFO, successor order kept).

    Roots map to ``None``.  With a ``goal``, the walk stops as soon as
    the goal is *reached through an edge*; a root equal to the goal does
    not count, so such a goal maps to ``None``.
    """
    parents: Dict[N, Optional[N]] = {}
    queue: "deque[N]" = deque()
    for root in roots:
        if root not in parents:
            parents[root] = None
            queue.append(root)
    while queue:
        node = queue.popleft()
        for succ in successors(node):
            if succ not in parents:
                parents[succ] = node
                if succ == goal:
                    return parents
                queue.append(succ)
    return parents


def path_to(parents: Mapping[N, Optional[N]], node: N) -> List[N]:
    """Root-to-``node`` chain through :func:`bfs` parents (``[node]`` if
    ``node`` was never reached)."""
    path = [node]
    parent = parents.get(node)
    while parent is not None:
        path.append(parent)
        parent = parents.get(parent)
    return path[::-1]
