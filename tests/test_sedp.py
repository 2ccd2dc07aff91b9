import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from edpkit import sedp
from edpkit.graph import Multigraph, find_fvs_one
from edpkit.instance import EdpInstance, TerminalPair, normalize_instance, verify_solution
from edpkit.oracle import brute_force_edp
from edpkit.sedp import (
    LabelSet,
    compute_labels,
    labels_for_tree,
    prepare_sedp,
    solve_sedp,
)

from conftest import random_fvs1_instance, star_of_paths
from def2_oracle import definition_labels, subtree_vertices
from prepare_oracle import prepare_on_built_graph


def tree_root(prep, v):
    """The root of the tree of prep's forest that holds v."""
    return next(r for r in prep.roots if v in prep.post_order[prep.tree_slice[r]])


def all_labels(prep):
    labels = {}
    for root in prep.roots:
        labels.update(labels_for_tree(prep, root))
    return labels


def test_prepare_rejects_non_fvs():
    two_tri = Multigraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    inst = EdpInstance(two_tri, ())
    with pytest.raises(ValueError, match="graph minus vertex 1 is not a forest"):
        prepare_sedp(inst, 1)
    assert solve_sedp(inst).status == "fvs-exceeded"


def test_prepare_reroutes_internal_x_edges():
    # x=5 adjacent to the middle of a path: the x-edge moves to a fresh leaf.
    g = Multigraph(5, [(1, 2), (2, 3), (3, 4), (2, 5)])
    inst = EdpInstance(g, ())
    prep = prepare_sedp(inst, 5)
    assert all(not prep.children[v] or v not in prep.x_edge_of for v in prep.children)
    leaf = next(v for v, e in prep.x_edge_of.items() if prep.inst.g.n >= v > 5)
    assert prep.inst.g.degree(leaf) == 2  # edge to its anchor plus the x-edge
    # the rerouted edge keeps its index, which is how walks map back
    assert prep.x_edge_of[leaf] == 3


def test_prepare_gadget_leaves_follow_forest_endpoint():
    # x = 1 reaches the inner path vertices 5 (edge 0) and 3 (edge 1): the
    # gadget leaves go by forest endpoint first, so edge 1 gets leaf 7.
    g = Multigraph(6, [(5, 1), (3, 1), (2, 3), (3, 4), (4, 5), (5, 6)])
    prep = prepare_sedp(EdpInstance(g, ()), 1)
    assert prep.x_edge_of == {7: 1, 8: 0}


def test_prepared_edges_keep_their_index(rng):
    # certify maps sedp's walks back to the normal form by dropping each
    # index from work.g.m on.  That holds because every edge e < work.g.m
    # stays at index e, either as it was or, for a rerouted x-edge, with its
    # forest end replaced by its gadget leaf; every added edge is appended.
    seen = Counter()
    for _ in range(300):
        work = random_fvs1_instance(rng)
        n, m = work.g.n, work.g.m
        for x in range(1, n + 1):  # every feedback vertex, terminals included
            try:
                prep = prepare_sedp(work, x)
            except ValueError:
                continue
            edges = prep.inst.g.edges
            leaf_of = {e: leaf for leaf, e in prep.x_edge_of.items()}
            for e, (a, b) in enumerate(work.g.edges):
                if edges[e] == (a, b):
                    continue
                v, leaf = b if a == x else a, leaf_of.get(e, 0)
                assert leaf > n and edges[e] == tuple(leaf if w == v else w for w in (a, b)), (work, x, e)
                assert edges.count((v, leaf)) == 1 and edges.index((v, leaf)) >= m
                seen["rerouted"] += 1
            # Each appended edge hangs off a fresh vertex.
            assert all(max(edge) > n for edge in edges[m:]), (work, x)
            seen["terminal x"] += x in work.terminals
            seen["fresh root"] += any(r > n and r not in prep.pair_of for r in prep.roots)
    assert min(seen[k] for k in ("rerouted", "terminal x", "fresh root")) > 0, seen


def test_prepare_replaces_terminal_x():
    g = Multigraph(3, [(1, 2), (2, 3)])
    inst = EdpInstance(g, (TerminalPair(1, 3),))
    prep = prepare_sedp(inst, 3)  # x itself is a terminal
    assert prep.x == 3
    assert all(prep.x != v for p in prep.inst.pairs for v in p.members())


def test_prepare_unchanged_when_assumptions_hold():
    # two trees hanging off x through leaves; everything already fine
    g = Multigraph(7, [(1, 2), (2, 3), (4, 5), (5, 6), (3, 7), (6, 7)])
    inst = EdpInstance(g, (TerminalPair(1, 4),))
    prep = prepare_sedp(inst, 7)
    assert prep.inst.g.edges == g.edges


def test_leaf_labels():
    # non-terminal leaf with x-edge -> gamma-empty and gamma-x
    g = Multigraph(4, [(1, 2), (2, 4), (3, 4)])
    inst = EdpInstance(g, (TerminalPair(1, 3),))
    prep = prepare_sedp(inst, 4)
    labels = all_labels(prep)
    # vertex 3 forms its own tree: terminal leaf with x-edge
    assert labels[3] == LabelSet(True, False, frozenset({0}))
    # terminal leaf of the big tree without x-edge: only its pair label
    assert labels[1] == LabelSet(False, False, frozenset({0}))
    # 2 got rerouted through a gadget leaf; its x-capacity is spent on the
    # terminal's escape, so no spare root-to-x path remains
    assert labels[2] == LabelSet(True, False, frozenset({0}))


def test_inner_label_example():
    # children: terminal leaf of p (no x-edge), non-terminal leaf with x-edge
    g = Multigraph(6, [(1, 2), (2, 3), (2, 4), (4, 6), (5, 6)])
    inst = EdpInstance(g, (TerminalPair(3, 5),))
    prep = prepare_sedp(inst, 6)
    labels = all_labels(prep)
    assert labels[2] == LabelSet(True, False, frozenset({0}))


def test_pair_label_supplier_exclusion():
    # The delivering child is also the only x-supplier: its edge cannot do
    # both jobs, so the pair label must not survive at the parent.
    g = Multigraph(10, [(1, 2), (2, 3), (2, 4), (3, 5), (3, 6), (3, 7), (5, 9), (6, 9), (8, 9), (10, 9)])
    inst = EdpInstance(g, (TerminalPair(7, 8), TerminalPair(4, 10)))
    prep = prepare_sedp(inst, 9)
    labels = all_labels(prep)
    assert labels[3] == LabelSet(True, True, frozenset({0}))
    assert labels[2] == LabelSet(True, False, frozenset({1}))


def test_labels_match_definition_oracle(rng):
    checked = 0
    for _ in range(60):
        inst = random_fvs1_instance(rng, max_base=7)
        x = find_fvs_one(inst.g).vertex or 1
        prep = prepare_sedp(inst, x)
        labels = all_labels(prep)
        for t in prep.post_order:
            if len(subtree_vertices(prep, t)) + 1 > 9:
                continue
            assert labels[t] == definition_labels(prep, t), (inst, t)
            checked += 1
    assert checked > 200


def test_gamma_monotonicity(rng):
    for _ in range(40):
        inst = random_fvs1_instance(rng)
        x = find_fvs_one(inst.g).vertex or 1
        prep = prepare_sedp(inst, x)
        for lab in all_labels(prep).values():
            assert not lab.gamma_x or lab.gamma_empty


def test_tree_gamma_empty_examples():
    # root r, child m, m's children a, b with pair (a, b): connect internally
    g = Multigraph(5, [(1, 2), (2, 3), (2, 4)])
    inst = EdpInstance(g, (TerminalPair(3, 4),))
    prep = prepare_sedp(inst, 5)
    root = tree_root(prep, 3)
    assert labels_for_tree(prep, root)[root].gamma_empty
    # terminal cannot escape: no x-edge anywhere and partner outside
    g = Multigraph(5, [(1, 2), (2, 3), (4, 5)])
    inst = EdpInstance(g, (TerminalPair(1, 4),))
    prep = prepare_sedp(inst, 5)
    root = tree_root(prep, 1)
    assert not labels_for_tree(prep, root)[root].gamma_empty
    # no terminals: trivially connected
    g = Multigraph(3, [(1, 2)])
    inst = EdpInstance(g, ())
    prep = prepare_sedp(inst, 3)
    root = tree_root(prep, 1)
    assert labels_for_tree(prep, root)[root].gamma_empty


def test_solve_examples():
    g = Multigraph(7, [(1, 2), (2, 3), (4, 5), (5, 6), (3, 7), (6, 7)])
    r = solve_sedp(EdpInstance(g, (TerminalPair(1, 4),)), x=7)
    assert r.is_yes
    g2 = Multigraph(7, [(1, 2), (2, 3), (4, 5), (5, 6), (3, 7)])
    assert solve_sedp(EdpInstance(g2, (TerminalPair(1, 4),)), x=7).status == "no"
    assert solve_sedp(EdpInstance(g, ()), x=7).is_yes


def test_oracle_agreement(rng):
    for _ in range(150):
        inst = random_fvs1_instance(rng)
        want = brute_force_edp(inst)
        got = solve_sedp(inst)
        assert want.status == got.status, (inst.g.edges, inst.pairs)
        if got.is_yes:
            assert verify_solution(inst, got.paths).ok


def test_runtime_smoke_large():
    inst = star_of_paths(10**4, 100)
    assert inst.normalized
    t0 = time.monotonic()
    result = solve_sedp(inst)
    elapsed = time.monotonic() - t0
    assert result.is_yes
    assert verify_solution(inst, result.paths).ok
    assert elapsed < 10.0, f"star-of-paths took {elapsed:.1f}s"


def test_labels_computed_once_per_forest_vertex(monkeypatch):
    inst = star_of_paths(3000, 300)  # 300 cycles through the hub 1
    prep = prepare_sedp(inst, 1)
    assert len(prep.roots) >= 300
    visited = []
    real = sedp.compute_labels

    def counting(prep, t, child_labels):
        visited.append(t)
        return real(prep, t, child_labels)

    monkeypatch.setattr(sedp, "compute_labels", counting)
    assert solve_sedp(inst, x=1).is_yes
    assert sorted(visited) == sorted(prep.post_order)


@st.composite
def fvs1_instances(draw):
    """A forest on 1..n (n <= 7), the vertex x = n + 1 joined to each forest
    vertex by 0-3 parallel edges (or, one time in five, a leaf terminal on
    one forest vertex), and 0-3 pairs; returns the instance, not normalized,
    and x."""
    n = draw(st.integers(1, 7))
    edges = [(draw(st.integers(max(1, v - 3), v - 1)), v) for v in range(2, n + 1) if draw(st.booleans())]
    x = n + 1
    k = draw(st.integers(0, min(3, x // 2)))
    ends = draw(st.permutations(range(1, x + 1)))
    free = [v for v in ends[2 * k :] if v != x]
    if draw(st.integers(0, 4)) or not k or not free:
        for v in range(1, n + 1):
            edges += [(v, x)] * draw(st.sampled_from((0, 0, 1, 1, 2, 3)))
    else:  # x a leaf terminal off a non-terminal: it stays a terminal through normalization
        edges.append((draw(st.sampled_from(free)), x))
        ends.remove(x)
        ends.insert(0, x)
    pairs = tuple(TerminalPair(ends[2 * i], ends[2 * i + 1]) for i in range(k))
    return EdpInstance(Multigraph(x, edges), pairs), x


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fvs1_instances())
def test_oracle_agreement_property(case):
    inst, x = case
    want = brute_force_edp(inst).status
    work = normalize_instance(inst)
    prep = prepare_sedp(work, x)
    event(want)
    if x in work.terminals:
        event("x is a terminal")
    if any(inst.g.edges.count((v, x)) > 1 for v in range(1, x)):
        event("several x-edges at one vertex")
    if any(r > work.g.n and prep.tree_slice[r].stop - prep.tree_slice[r].start > 1 for r in prep.roots):
        event("fresh root")
    for got in (solve_sedp(inst), solve_sedp(inst, x=x)):
        assert got.status == want, (inst.g.edges, inst.pairs, x)
        if got.is_yes:
            assert verify_solution(inst, got.paths).ok


def test_node_plan_built_once_per_inner_node(monkeypatch):
    inst = star_of_paths(3000, 300)
    prep = prepare_sedp(inst, 1)
    inner = [v for v in prep.post_order if prep.children[v]]
    planned = []
    real = sedp._node_plan

    def counting(children, labels):
        planned.append(tuple(children))
        return real(children, labels)

    monkeypatch.setattr(sedp, "_node_plan", counting)
    assert solve_sedp(inst, x=1).is_yes
    assert planned and len(planned) == len(set(planned)) <= len(inner)


def test_prepare_matches_the_built_graph_oracle(rng):
    # prepare_sedp roots the forest over the caller's incidence lists and
    # builds its instance only when read; every field, and that instance,
    # must equal what the preparation over the built graph gives.
    prepared = refused = 0
    for _ in range(250):
        work = random_fvs1_instance(rng)
        for x in range(1, work.g.n + 1):  # every feedback vertex, terminals included
            try:
                want, want_inst = prepare_on_built_graph(work, x)
            except ValueError as exc:
                with pytest.raises(ValueError) as refusal:
                    prepare_sedp(work, x)
                assert str(refusal.value) == str(exc)
                refused += 1
                continue
            prep = prepare_sedp(work, x)
            assert prep == want, (work, x)
            assert list(prep.x_edge_of) == list(want.x_edge_of), (work, x)
            assert prep.inst == want_inst and prep.inst.g.edges == want_inst.g.edges, (work, x)
            prepared += 1
    assert prepared > 500 and refused > 0, (prepared, refused)
