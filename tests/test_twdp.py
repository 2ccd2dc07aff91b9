import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from edpkit import cli, treedec, twdp
from edpkit.graph import Multigraph
from edpkit.instance import EdpInstance, TerminalPair, normalize_instance, verify_solution, write_instance
from edpkit.oracle import brute_force_edp
from edpkit.treedec import (
    TreeDecomposition,
    build_tree_decomposition,
    make_nice,
    _decomposition_from_order,
    _min_fill_elimination,
    _min_fill_order,
    _path_layout,
    _tree_from_bags,
)
from edpkit.twdp import (
    EMPTY_RECORD,
    _Context,
    _record,
    compute_tables,
    solve_twdp,
)

from conftest import grid_graph, multigraphs, random_bounded_degree_instance, random_multigraph
from forget_oracle import forget_per_record
from minfill_oracle import min_fill_order
from treedec_oracle import is_tree_decomposition


def test_decomposition_examples():
    tree = Multigraph(5, [(1, 2), (2, 3), (3, 4), (2, 5)])
    td = build_tree_decomposition(tree)
    td.validate(tree)
    assert td.width == 1
    c5 = Multigraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    td = build_tree_decomposition(c5)
    td.validate(c5)
    assert td.width == 2
    k5 = Multigraph(5, [(a, b) for a in range(1, 6) for b in range(a + 1, 6)])
    capped = build_tree_decomposition(k5, k=2)
    capped.validate(k5)
    assert capped.width > 2
    assert solve_twdp(EdpInstance(k5, (TerminalPair(1, 2),)), k=2).status == "width-exceeded"


def test_make_nice_single_bag():
    td = TreeDecomposition([frozenset({1, 2})], [-1])
    nice = make_nice(td)
    nice.validate(Multigraph(2, [(1, 2)]))
    assert [nd.kind for nd in nice.nodes] == ["leaf", "introduce", "forget", "forget"]


def test_make_nice_preserves_width_and_validity(rng):
    for _ in range(60):
        g = random_multigraph(rng, max_n=9, max_m=14, parallel=0.0)
        td = build_tree_decomposition(g)
        td.validate(g)
        nice = make_nice(td)
        nice.validate(g)
        assert nice.width == td.width


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(multigraphs(max_n=30, max_edges=70))
def test_min_fill_order_matches_full_rescan(g):
    order = min_fill_order(g)
    assert _min_fill_order(g) == order
    # The bags kept during elimination are the ones rebuilt from the order.
    assert _tree_from_bags(*_min_fill_elimination(g)) == _decomposition_from_order(g, order)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 15), st.integers(1, 15))
def test_min_fill_order_matches_full_rescan_on_grids(w, h):
    g = grid_graph(w, h)
    order = min_fill_order(g)
    assert _min_fill_order(g) == order
    assert _tree_from_bags(*_min_fill_elimination(g)) == _decomposition_from_order(g, order)


@st.composite
def large_graphs(draw):
    """Loopless multigraphs of up to 30 vertices and 80 edges."""
    n = draw(st.integers(1, 30))
    edge = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    return Multigraph(n, draw(st.lists(edge, max_size=80)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(large_graphs(), st.integers(0, 12))
def test_capped_min_fill_decides_the_width(g, k):
    full = build_tree_decomposition(g)
    capped = build_tree_decomposition(g, k)
    capped.validate(g)
    assert (capped.width > k) == (full.width > k)
    event("over the cap" if full.width > k else "within the cap")
    if full.width <= k:
        assert capped == full


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(large_graphs(), st.integers(0, 12))
def test_path_layout_is_valid_and_keeps_the_min_fill_width(g, limit):
    path = _path_layout(g, limit)
    event("no layout" if path is None else "layout")
    if path is not None:
        path.validate(g)
        assert path.width <= limit
    min_fill = _tree_from_bags(*_min_fill_elimination(g))
    assert build_tree_decomposition(g).width == min_fill.width


def test_auto_stops_min_fill_at_the_cap(tmp_path, monkeypatch, capsys):
    lengths = []

    def counting(g, *cap):
        order, bags = _min_fill_elimination(g, *cap)
        lengths.append((len(order), g.n))
        return order, bags

    monkeypatch.setattr(treedec, "_min_fill_elimination", counting)
    inst = EdpInstance(grid_graph(30, 30), (TerminalPair(1, 871), TerminalPair(30, 900)))
    path = tmp_path / "grid30.edp"
    path.write_text(write_instance(inst), encoding="ascii")
    assert cli.main(["solve", str(path)]) == cli.EXIT_YES
    assert "[brute]" in capsys.readouterr().out
    ((eliminated, n),) = lengths
    assert eliminated < n


def test_make_nice_deep_path_keeps_recursion_limit():
    bags = [frozenset({i, i + 1}) for i in range(1, 5001)]
    parent = list(range(1, 5000)) + [-1]
    limit = sys.getrecursionlimit()
    nice = make_nice(TreeDecomposition(bags, parent))
    assert sys.getrecursionlimit() == limit
    # leaf + introduce, forget + introduce per further bag, two root forgets
    assert len(nice.nodes) == 2 + 2 * 4999 + 2
    assert nice.width == 1 and not nice.nodes[nice.root].bag
    assert all(c < i for i, nd in enumerate(nice.nodes) for c in nd.children)


def test_leaf_node_records():
    inst = normalize_instance(
        EdpInstance(Multigraph(2, [(1, 2)]), ())
    )
    td = build_tree_decomposition(inst.g)
    nice = make_nice(td)
    tables = compute_tables(inst, nice, free_children=False)
    leaf_idx = next(i for i, nd in enumerate(nice.nodes) if nd.kind == "leaf")
    assert list(tables[leaf_idx].records) == [EMPTY_RECORD]
    # terminal leaf: single entry anchored at itself
    inst2 = normalize_instance(
        EdpInstance(Multigraph(4, [(1, 2), (2, 3), (3, 4)]), (TerminalPair(1, 4),))
    )
    td2 = build_tree_decomposition(inst2.g)
    nice2 = make_nice(td2)
    tables2 = compute_tables(inst2, nice2, free_children=False)
    for i, nd in enumerate(nice2.nodes):
        if nd.kind == "leaf":
            (v,) = nd.bag
            recs = list(tables2[i].records)
            if v in (1, 4):
                assert recs == [((), (), ((v, v),))]
            else:
                assert recs == [EMPTY_RECORD]


def test_solve_examples():
    p4 = EdpInstance(Multigraph(4, [(1, 2), (2, 3), (3, 4)]), (TerminalPair(1, 4),))
    r = solve_twdp(p4)
    assert r.is_yes and verify_solution(p4, r.paths).ok
    bridge = EdpInstance(
        Multigraph(6, [(1, 5), (2, 5), (5, 6), (6, 3), (6, 4)]),
        (TerminalPair(1, 3), TerminalPair(2, 4)),
    )
    assert solve_twdp(bridge).status == "no"
    assert solve_twdp(EdpInstance(Multigraph(3, [(1, 2)]), ())).is_yes


def test_oracle_agreement(rng):
    for _ in range(120):
        inst = random_bounded_degree_instance(rng)
        want = brute_force_edp(inst)
        got = solve_twdp(inst)
        assert want.status == got.status, (inst.g.edges, inst.pairs)
        if got.is_yes:
            assert verify_solution(inst, got.paths).ok


def record_space_bound(bag_size: int, delta: int, open_terminals: int) -> int:
    """Instantiated size bound for one table, from the record shape."""
    pairs = bag_size * (bag_size - 1) // 2
    used_choices = (delta + 1) ** pairs
    give_choices = (delta + 1) ** pairs
    single_choices = max(bag_size, 1) ** min(open_terminals, delta * max(bag_size, 1))
    return used_choices * give_choices * single_choices


def test_record_soundness_and_size_bounds(rng):
    for _ in range(25):
        inst = random_bounded_degree_instance(rng, max_n=9)
        nice = make_nice(build_tree_decomposition(inst.g))
        tables = compute_tables(inst, nice, free_children=False)
        delta = max(inst.g.max_degree(), 1)
        partner = {}
        for p in inst.pairs:
            partner[p.s] = p.t
            partner[p.t] = p.s
        processed = []  # the union of the bags below each node
        for i, nd in enumerate(nice.nodes):
            in_y = nd.bag.union(*(processed[c] for c in nd.children))
            processed.append(in_y)
            ctx = _Context(
                bag=nd.bag, partner=partner, delta=delta,
                terminals=frozenset(t for t in in_y if t in partner),
            )
            for rec, (ends, walks) in tables[i].records.items():
                # witness walks run between their ends in the processed
                # subgraph, with no bag-internal edges, and are edge-disjoint
                seen_edges = set()
                for (a, b), walk in zip(ends, walks, strict=True):
                    assert a in in_y and b in in_y  # also for empty walks
                    cur = a
                    for e in walk:
                        u, v = inst.g.edges[e]
                        assert cur in (u, v)
                        cur = v if cur == u else u
                        assert u in in_y and v in in_y
                        assert not (u in nd.bag and v in nd.bag)
                        assert e not in seen_edges
                        seen_edges.add(e)
                    assert cur == b
                assert _record(ctx, ends) == rec
            opens = sum(
                1 for t in in_y if t in partner and partner[t] not in in_y
            )
            assert len(tables[i].records) <= record_space_bound(
                len(nd.bag), delta, opens
            )


def test_default_keeps_only_the_root_table():
    # Children's tables are emptied once read, which keeps a long
    # decomposition's memory to a few tables.
    inst = normalize_instance(
        EdpInstance(grid_graph(3, 6), (TerminalPair(1, 18), TerminalPair(3, 16)))
    )
    nice = make_nice(build_tree_decomposition(inst.g))
    tables = compute_tables(inst, nice)
    assert list(tables[nice.root].records) == [EMPTY_RECORD]
    assert all(not table.records for i, table in enumerate(tables) if i != nice.root)


def test_long_decomposition_grid():
    # A 3 x 100 grid: a decomposition of a few hundred nodes.
    n = 300
    inst = EdpInstance(grid_graph(3, n // 3), (TerminalPair(1, n), TerminalPair(3, n - 2)))
    r = solve_twdp(inst)
    assert r.is_yes and verify_solution(inst, r.paths).ok



def test_decomposition_must_cover_normalized_graph():
    # Terminal 2 has degree 2, so normalization hangs leaf 5 on it; a
    # decomposition of the raw path misses that leaf.
    inst = EdpInstance(Multigraph(4, [(1, 2), (2, 3), (3, 4)]), (TerminalPair(2, 4),))
    raw = build_tree_decomposition(inst.g)
    with pytest.raises(ValueError, match="vertex 5"):
        solve_twdp(inst, decomposition=raw)
    # Every vertex of the normalized path 1-2-3 lies in a bag, edge (1, 2)
    # in none.
    path = EdpInstance(Multigraph(3, [(1, 2), (2, 3)]), (TerminalPair(1, 3),))
    assert path.normalized
    loose = TreeDecomposition([frozenset({2, 3}), frozenset({1})], [-1, 0])
    with pytest.raises(ValueError, match=r"edge \(1, 2\)"):
        solve_twdp(path, decomposition=loose)
    tight = TreeDecomposition([frozenset({2, 3}), frozenset({1, 2})], [-1, 0])
    assert solve_twdp(path, decomposition=tight).is_yes


@pytest.mark.parametrize(
    "edges, pairs, bags, parent, message",
    [
        # Vertex 2 lies in bags 0 and 2 but not in bag 1 between them; on
        # this decomposition the DP answered "no" to a yes-instance.
        ([(1, 2), (2, 3), (3, 4)], [(1, 4)], [{1, 2}, {3}, {2, 3}, {3, 4}], [-1, 0, 1, 1], "not connected"),
        # Nodes 1 and 2 are each other's parent and never reach the root.
        ([(1, 2), (2, 3), (4, 5), (5, 6)], [(1, 3), (4, 6)], [{1, 2, 3}, {4, 5}, {5, 6}], [-1, 2, 1], "root"),
    ],
    ids=["vertex-bags-disconnected", "parent-cycle"],
)
def test_decomposition_must_be_a_tree_decomposition(edges, pairs, bags, parent, message):
    n = max(max(e) for e in edges)
    inst = EdpInstance(Multigraph(n, edges), tuple(TerminalPair(s, t) for s, t in pairs))
    assert inst.normalized
    td = TreeDecomposition([frozenset(b) for b in bags], parent)
    with pytest.raises(ValueError, match=message):
        solve_twdp(inst, decomposition=td)


@pytest.mark.parametrize(
    "edges, pairs, bags, parent",
    [
        ([(1, 2), (2, 3), (3, 4), (4, 5)], [(1, 5)], [{1, 2}, {2, 3}, {3, 4}, {4, 5}, set()], [1, 2, 3, -1, 3]),
        ([(1, 2), (2, 3), (3, 4), (4, 5)], [(1, 5)], [set(), {1, 2}, {2, 3}, {3, 4}, {4, 5}], [1, 2, 3, 4, -1]),
        (
            [(1, 2), (2, 3), (4, 5), (5, 6)],
            [(1, 3), (4, 6)],
            [{1, 2}, {2, 3}, set(), {4, 5}, {5, 6}, set()],
            [1, 2, -1, 4, 2, 2],
        ),
    ],
    ids=["empty-leaf", "empty-first-leaf", "empty-root-and-leaf"],
)
def test_decomposition_with_empty_bags(edges, pairs, bags, parent):
    # An empty leaf bag holds no vertex, so the nice decomposition emits
    # nothing for it; a vertex started and forgotten there would have a
    # second, disconnected occurrence.
    n = max(max(e) for e in edges)
    inst = EdpInstance(Multigraph(n, edges), tuple(TerminalPair(s, t) for s, t in pairs))
    assert inst.normalized
    td = TreeDecomposition([frozenset(b) for b in bags], parent)
    td.validate(inst.g)
    make_nice(td).validate(inst.g)
    r = solve_twdp(inst, decomposition=td)
    assert r.is_yes and verify_solution(inst, r.paths).ok
    with pytest.raises(ValueError, match="covers no vertices"):
        make_nice(TreeDecomposition([frozenset(), frozenset()], [-1, 0]))


CORRUPTIONS =("none", "drop", "cycle", "index", "range", "edge")


def corrupt(rng, g, td, kind):
    """(g, bags, parent) after one corruption of the named kind; the result
    may still be a tree decomposition, which the oracle decides."""
    bags, parent = list(td.bags), list(td.parent)
    children = td.children()
    if kind == "drop":
        # A middle occurrence (the vertex is also in the parent's bag and in
        # a child's) when there is one, else any occurrence.
        middle = [
            (i, v) for i, bag in enumerate(bags) for v in sorted(bag)
            if parent[i] >= 0 and v in bags[parent[i]] and any(v in bags[c] for c in children[i])
        ]
        i, v = rng.choice(middle or [(i, v) for i, bag in enumerate(bags) for v in sorted(bag)])
        bags[i] = bags[i] - {v}
    elif kind == "cycle":
        # Hang a node off itself or one of its descendants.
        i = rng.choice([j for j, p in enumerate(parent) if p >= 0] or [0])
        below = [i]
        for j in below:
            below.extend(children[j])
        parent[i] = rng.choice(below)
    elif kind == "index":
        parent[rng.randrange(len(parent))] = len(parent)
    elif kind == "range":
        i = rng.randrange(len(bags))
        bags[i] = bags[i] | {rng.choice([0, g.n + 1])}
    elif kind == "edge" and g.n >= 2:
        g = Multigraph(g.n, g.edges + (tuple(rng.sample(range(1, g.n + 1), 2)),))
    return g, bags, parent


def test_validate_matches_the_definition(rng):
    seen = Counter()
    for _ in range(400):
        g = random_multigraph(rng, max_n=9, max_m=14)
        order = list(range(1, g.n + 1))
        rng.shuffle(order)
        td = rng.choice([
            build_tree_decomposition(g),
            _decomposition_from_order(g, order),
            _path_layout(g, g.n) or build_tree_decomposition(g),
        ])
        kind = rng.choice(CORRUPTIONS)
        g, bags, parent = corrupt(rng, g, td, kind)
        want = is_tree_decomposition(bags, parent, g)
        try:
            TreeDecomposition(bags, parent).validate(g)
            got = True
        except ValueError:
            got = False
        assert got == want, (kind, g.n, g.edges, bags, parent)
        seen[kind, want] += 1
    assert not seen["none", False]
    assert all(seen[kind, False] for kind in CORRUPTIONS[1:]), seen


def test_path_layout_keeps_grid_tables_small():
    # Min-fill's tree for this 5x6 grid has width 5, like the path layout,
    # but its joins build a table of 9,941 records.
    inst = EdpInstance(grid_graph(5, 6), (TerminalPair(1, 30), TerminalPair(5, 26), TerminalPair(3, 28)))
    work = normalize_instance(inst)
    nice = make_nice(build_tree_decomposition(work.g))
    tables = compute_tables(work, nice, free_children=False)
    assert max(len(table.records) for table in tables) < 1000
    r = solve_twdp(inst)
    assert r.is_yes and verify_solution(inst, r.paths).ok


def test_spare_walk_at_forgotten_vertex_is_dropped():
    # Found by a search over small random instances: with dominated records
    # pruned but a spare walk still ending at a forgotten vertex rejected
    # (the older forget rule), this yes-instance is answered "no".  Where 2
    # is forgotten, the record with the spare walk 5-2-6 dominates the one
    # without it, and no state of that walk survives the forget of 5.
    inst = EdpInstance(
        Multigraph(6, [(1, 6), (6, 3), (6, 5), (6, 2), (2, 5)]), (TerminalPair(3, 1),)
    )
    assert inst.normalized and brute_force_edp(inst).is_yes
    r = solve_twdp(inst)
    assert r.is_yes and verify_solution(inst, r.paths).ok


def test_terminal_trivial_walk_in_both_join_children():
    # Both children of the join on bag {1, 4} carry terminal 4's trivial
    # walk; the join must keep one copy, or the record is rejected.
    inst = EdpInstance(Multigraph(4, [(2, 1), (3, 1), (4, 1)]), (TerminalPair(4, 2),))
    assert inst.normalized
    nice = make_nice(build_tree_decomposition(inst.g))
    joins = [nd for nd in nice.nodes if nd.kind == "join"]
    assert [nd.bag for nd in joins] == [frozenset({1, 4})]
    assert all(4 in nice.nodes[c].bag for c in joins[0].children)
    r = solve_twdp(inst)
    assert r.is_yes and verify_solution(inst, r.paths).ok

@st.composite
def bounded_degree_instances(draw):
    """4-10 vertices before normalization, 1-4 pairs, maximum degree at
    most 4 after it: an edge is dropped when it would give a terminal
    degree 4 (normalization may add a leaf to it) or another vertex
    degree 5."""
    n = draw(st.integers(4, 10))
    k = draw(st.integers(1, min(4, n // 2)))
    ends = draw(st.permutations(range(1, n + 1)))[: 2 * k]
    pairs = tuple(TerminalPair(ends[2 * i], ends[2 * i + 1]) for i in range(k))
    cap = {v: 3 if v in ends else 4 for v in range(1, n + 1)}
    offsets = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n - 1)), min_size=n, max_size=3 * n))
    edges = []
    for a, d in offsets:
        b = (a + d - 1) % n + 1
        if cap[a] and cap[b]:
            cap[a] -= 1
            cap[b] -= 1
            edges.append((a, b))
    inst = normalize_instance(EdpInstance(Multigraph(n, edges), pairs))
    assert inst.g.max_degree() <= 4
    return inst


def three_decompositions(inst, order_rng):
    """build_tree_decomposition's decomposition, one from a shuffled
    elimination order, and the path layout when there is one."""
    order = list(range(1, inst.g.n + 1))
    order_rng.shuffle(order)
    tds = [build_tree_decomposition(inst.g), _decomposition_from_order(inst.g, order)]
    path = _path_layout(inst.g, inst.g.n)
    if path is not None:
        tds.append(path)
    return tds


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bounded_degree_instances(), st.randoms(use_true_random=False))
def test_oracle_agreement_property(inst, order_rng):
    want = brute_force_edp(inst).status
    event(want)
    for td in three_decompositions(inst, order_rng):
        got = solve_twdp(inst, decomposition=td)
        assert got.status == want, (inst.g.edges, inst.pairs)
        if got.is_yes:
            assert verify_solution(inst, got.paths).ok


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bounded_degree_instances(), st.randoms(use_true_random=False))
def test_shared_forget_layers_match_per_record_forget(inst, order_rng):
    # The same records in the same order, with the same witnesses, at every
    # node: this is what keeps certificates byte-identical.
    for td in three_decompositions(inst, order_rng):
        nice = make_nice(td)
        got = compute_tables(inst, nice, free_children=False)
        with mock.patch.object(twdp, "_forget", forget_per_record):
            want = compute_tables(inst, nice, free_children=False)
        assert [list(t.records.items()) for t in got] == [list(t.records.items()) for t in want]


FIVE_BY_FIVE_PAIRS = ((1, 25), (5, 21), (3, 23))


@pytest.mark.parametrize(
    "w, pairs, layout",
    [(5, FIVE_BY_FIVE_PAIRS, "min-fill"), (5, FIVE_BY_FIVE_PAIRS, "path"), (6, ((1, 36), (6, 31)), "path")],
    ids=["5x5-min-fill", "5x5-path", "6x6-path"],
)
def test_forget_offers_each_state_an_edge_once(monkeypatch, w, pairs, layout):
    # Every edge is offered at exactly one forget node, and a forget node's
    # layers are shared by its child records, so no endpoint state meets
    # the same edge twice in one run.  (Min-fill's tree for the 6x6 grid
    # takes over a minute, so only its path layout is run.)
    inst = EdpInstance(grid_graph(w, w), tuple(TerminalPair(s, t) for s, t in pairs))
    work = normalize_instance(inst)
    if layout == "min-fill":
        td = _tree_from_bags(*_min_fill_elimination(work.g))
    else:
        td = _path_layout(work.g, work.g.n)
    real = twdp._edge_moves
    offers = Counter()

    def counting(ends, e, *rest):
        offers[ends, e] += 1
        return real(ends, e, *rest)

    monkeypatch.setattr(twdp, "_edge_moves", counting)
    nice = make_nice(td)
    tables = compute_tables(work, nice)
    assert EMPTY_RECORD in tables[nice.root].records
    repeated = [key for key, count in offers.items() if count > 1]
    assert offers
    assert not repeated, f"{len(repeated)} of {len(offers)} (state, edge) offers repeat"


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bounded_degree_instances())
def test_tables_are_antichains_in_give(inst):
    # No stored record's give is a strict sub-multiset of the give of
    # another record with the same used and single.
    nice = make_nice(build_tree_decomposition(inst.g))
    tables = compute_tables(inst, nice, free_children=False)
    for table in tables:
        groups = {}
        for used, give, single in table.records:
            groups.setdefault((used, single), []).append(dict(give))
        for gives in groups.values():
            for low in gives:
                for high in gives:
                    assert low == high or any(c > high.get(p, 0) for p, c in low.items())
