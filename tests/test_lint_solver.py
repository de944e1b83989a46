"""The shared call-graph solver against a naive reference on random graphs.

Graphs are small and drawn by hypothesis with cycles, self-loops,
ambiguous (non-unique) edges and a per-(caller, line, fact) blocklist, so
every edge filter the analyses use — unique-only, absorbed at the call
line, cut by receiver — has a random counterpart here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.project.solver import CallEdge, bfs, least_fixpoint, path_to

FACTS = range(4)


@st.composite
def graphs(draw):
    nodes = [f"m.py::f{index}" for index in range(draw(st.integers(1, 7)))]
    node = st.sampled_from(nodes)
    edges = {name: [] for name in nodes}
    for caller, callee, line, unique in draw(st.lists(
            st.tuples(node, node, st.integers(1, 4), st.booleans()),
            max_size=18)):
        edges[caller].append(CallEdge(line=line, name=callee[-2:],
                                      receiver="", callee=callee,
                                      unique=unique))
    local = {name: draw(st.frozensets(st.sampled_from(FACTS), max_size=2))
             for name in draw(st.lists(node, unique=True))}
    blocked = draw(st.frozensets(
        st.tuples(node, st.integers(1, 4), st.sampled_from(FACTS)),
        max_size=10))
    unique_only = draw(st.booleans())

    def passes(caller, edge, fact):
        return (edge.unique or not unique_only) and \
            (caller, edge.line, fact) not in blocked

    return edges, local, passes


def round_robin(edges, local, passes):
    state = {name: set(local.get(name, ()))
             for name in set(edges) | set(local)}
    changed = True
    while changed:
        changed = False
        for name in sorted(state):
            grown = set(local.get(name, ()))
            for edge in edges.get(name, ()):
                grown |= {fact for fact in state.get(edge.callee, ())
                          if passes(name, edge, fact)}
            if grown != state[name]:
                state[name] = grown
                changed = True
    return {name: frozenset(facts) for name, facts in state.items()}


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_worklist_matches_round_robin(graph):
    edges, local, passes = graph
    assert least_fixpoint(local, edges, passes) == \
        round_robin(edges, local, passes)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_every_fact_has_a_real_chain_to_its_origin(graph):
    edges, local, passes = graph
    solved = least_fixpoint(local, edges, passes)
    for root, facts in solved.items():
        for fact in facts:
            def successors(caller, fact=fact):
                return (edge.callee for edge in edges.get(caller, ())
                        if fact in solved.get(edge.callee, ()) and
                        passes(caller, edge, fact))

            parents = bfs([root], successors)
            origins = [name for name in parents
                       if fact in local.get(name, ())]
            assert origins, (root, fact)
            chain = path_to(parents, origins[0])
            assert chain[0] == root and chain[-1] == origins[0]
            for caller, callee in zip(chain, chain[1:]):
                assert any(edge.callee == callee and
                           passes(caller, edge, fact)
                           for edge in edges[caller]), (chain, fact)


def test_bfs_stops_at_goal_and_keeps_successor_order():
    graph = {"a": ["c", "b"], "b": ["d"], "c": ["d"], "d": ["a"]}
    parents = bfs(["a"], lambda node: graph[node], goal="d")
    assert path_to(parents, "d") == ["a", "c", "d"]
    # A goal that is a root is never "reached": it keeps a None parent.
    assert bfs(["a"], lambda node: graph[node], goal="a")["a"] is None
    assert path_to(parents, "zzz") == ["zzz"]
