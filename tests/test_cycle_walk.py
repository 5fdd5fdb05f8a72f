"""The simple-cycle walk behind ``SeG(s)`` (Theorem 3.2), against brute force."""

import itertools

from hypothesis import given, settings as hyp_settings, strategies as st

from repro.mvsched.serialization import simple_cycles


@st.composite
def digraphs(draw, max_nodes=6):
    """Successor lists over nodes ``0..n-1``: self-loops and isolated nodes allowed."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    pairs = list(itertools.product(range(n), repeat=2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return {node: sorted(t for s, t in edges if s == node) for node in range(n)}


def brute_force_cycles(successors):
    """Every node sequence that closes a cycle, written from its least node."""
    found = []
    for length in range(1, len(successors) + 1):
        for nodes in itertools.permutations(successors, length):
            if nodes[0] != min(nodes):
                continue
            closing = zip(nodes, nodes[1:] + nodes[:1])
            if all(target in successors[source] for source, target in closing):
                found.append(nodes)
    return found


def kahn_acyclic(successors):
    indegree = {node: 0 for node in successors}
    for targets in successors.values():
        for target in targets:
            indegree[target] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    removed = 0
    while ready:
        node = ready.pop()
        removed += 1
        for target in successors[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    return removed == len(successors)


@given(digraphs())
@hyp_settings(max_examples=300, deadline=None)
def test_simple_cycles_match_brute_force(successors):
    cycles = list(simple_cycles(successors))
    assert len(cycles) == len(set(cycles))
    assert sorted(cycles) == sorted(brute_force_cycles(successors))


@given(digraphs())
@hyp_settings(max_examples=300, deadline=None)
def test_acyclicity_agrees_with_kahn(successors):
    assert (next(simple_cycles(successors), None) is None) == kahn_acyclic(successors)


def test_self_loop_and_two_cycle():
    assert sorted(simple_cycles({0: [0, 1], 1: [0], 2: []})) == [(0,), (0, 1)]
