from itertools import combinations

from edpkit import graph
from edpkit.graph import (
    Multigraph,
    components_excluding,
    find_fvs_one,
    is_forest,
    matching_max_cover,
    max_weight_matching,
)

import pytest
from hypothesis import given, settings, strategies as st

from conftest import multigraphs, random_multigraph, rng_for


def brute_force_matchings(g):
    """All matchings as tuples of edge indices."""
    out = []
    for r in range(g.m + 1):
        for combo in combinations(range(g.m), r):
            covered = set()
            ok = True
            for e in combo:
                u, v = g.edges[e]
                if u in covered or v in covered:
                    ok = False
                    break
                covered.add(u)
                covered.add(v)
            if ok:
                out.append(combo)
    return out


def test_multigraph_rejects_bad_input():
    with pytest.raises(ValueError):
        Multigraph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        Multigraph(2, [(1, 3)])


def test_connected_components_examples():
    assert components_excluding(Multigraph(4, [(1, 2), (3, 4)]), ()) == [{1, 2}, {3, 4}]
    assert components_excluding(Multigraph(3, []), ()) == [{1}, {2}, {3}]
    tri_plus = Multigraph(4, [(1, 2), (2, 3), (1, 3)])
    assert components_excluding(tri_plus, ()) == [{1, 2, 3}, {4}]


def test_components_partition_property(rng):
    for _ in range(100):
        g = random_multigraph(rng)
        comps = components_excluding(g, ())
        seen = sorted(v for c in comps for v in c)
        assert seen == list(range(1, g.n + 1))
        where = {v: i for i, c in enumerate(comps) for v in c}
        for u, v in g.edges:
            assert where[u] == where[v]


def test_is_forest_examples():
    assert is_forest(Multigraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
    assert not is_forest(Multigraph(3, [(1, 2), (2, 3), (1, 3)]))
    assert not is_forest(Multigraph(2, [(1, 2), (1, 2)]))


def test_find_fvs_one_examples():
    tri = Multigraph(3, [(1, 2), (2, 3), (1, 3)])
    assert find_fvs_one(tri).vertex == 1
    two_tri = Multigraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    r = find_fvs_one(two_tri)
    assert r.vertex is None and not r.already_forest
    k4 = Multigraph(4, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])
    r = find_fvs_one(k4)
    assert r.vertex is None and not r.already_forest
    forest = Multigraph(4, [(1, 2), (3, 4)])
    r = find_fvs_one(forest)
    assert r.vertex is None and r.already_forest


def test_find_fvs_one_consistency(rng):
    for _ in range(150):
        g = random_multigraph(rng, max_n=7, max_m=10)
        r = find_fvs_one(g)
        if r.vertex is not None:
            assert is_forest(g.without_vertices([r.vertex]))
        elif r.already_forest:
            assert is_forest(g)
        else:
            for v in range(1, g.n + 1):
                assert not is_forest(g.without_vertices([v]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(multigraphs())
def test_find_fvs_one_matches_definition(g):
    r = find_fvs_one(g)
    assert r.already_forest == is_forest(g)
    if r.already_forest:
        assert r.vertex is None
    else:
        feasible = [v for v in range(1, g.n + 1) if is_forest(g.without_vertices([v]))]
        assert r.vertex == min(feasible, default=None)


def test_matching_examples():
    p3 = Multigraph(3, [(1, 2), (2, 3)])
    assert max_weight_matching(p3, [2, 2]).weight([2, 2]) == 2
    p4 = Multigraph(4, [(1, 2), (2, 3), (3, 4)])
    assert max_weight_matching(p4, [1, 2, 1]).weight([1, 2, 1]) == 2
    assert max_weight_matching(Multigraph(3, []), []).pairs == frozenset()
    m = matching_max_cover(p4, {2, 3})
    assert len(m.vertices(p4) & {2, 3}) == 2
    tri = Multigraph(3, [(1, 2), (2, 3), (1, 3)])
    assert len(matching_max_cover(tri, {1, 2, 3}).vertices(tri) & {1, 2, 3}) == 2
    assert len(matching_max_cover(p4, set()).vertices(p4) & set()) == 0


def test_matching_against_enumeration(rng):
    for _ in range(120):
        g = random_multigraph(rng, max_n=7, max_m=10)
        weights = [rng.randint(0, 6) for _ in range(g.m)]
        best = max(
            (sum(weights[e] for e in m) for m in brute_force_matchings(g)),
            default=0,
        )
        got = max_weight_matching(g, weights)
        assert got.weight(weights) == best
        s = set(rng.sample(range(1, g.n + 1), rng.randint(0, g.n)))
        best_cover = max(
            (len({v for e in m for v in g.edges[e]} & s) for m in brute_force_matchings(g)),
            default=0,
        )
        cover = matching_max_cover(g, s)
        assert len(cover.vertices(g) & s) == best_cover


def test_matching_determinism(rng):
    for _ in range(20):
        g = random_multigraph(rng, max_n=6, max_m=8)
        weights = [rng.randint(0, 4) for _ in range(g.m)]
        first = max_weight_matching(g, weights)
        assert all(max_weight_matching(g, weights) == first for _ in range(3))


def test_components_excluding():
    g = Multigraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert components_excluding(g, [3]) == [{1, 2}, {4, 5}]
    assert components_excluding(g, [1, 2, 3, 4, 5]) == []


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(multigraphs(), st.sets(st.integers(1, 9)))
def test_components_excluding_matches_subgraph(g, removed):
    # Same components in the same order as the components of the subgraph
    # g - removed, whose removed vertices are isolated placeholders.
    sub = components_excluding(g.without_vertices(removed), ())
    assert components_excluding(g, removed) == [c for c in sub if not c <= removed]


def test_multigraph_rejects_non_integer_ids():
    # A float or a string is no vertex id, even where int() would read one.
    with pytest.raises(ValueError, match=r"vertex id is not an integer: 1\.7"):
        Multigraph(3, [(1.7, 2)])
    with pytest.raises(ValueError, match="vertex id is not an integer: '3'"):
        Multigraph(3, [(1, 2), ("3", 2)])
    # bool is an int, and is kept as one.
    assert Multigraph(3, [(True, 2)]).edges == ((1, 2),)
    assert type(Multigraph(3, [(True, 2)]).edges[0][0]) is int


@st.composite
def disjoint_edges_touching(draw):
    """A graph on at most 12 vertices whose edges share no endpoint, and a
    vertex set that every edge touches, plus some isolated vertices."""
    n = draw(st.integers(0, 12))
    order = draw(st.permutations(range(1, n + 1)))
    edges = [(order[2 * i], order[2 * i + 1]) for i in range(draw(st.integers(0, n // 2)))]
    s = {v for v in order[2 * len(edges) :] if draw(st.booleans())}
    for u, v in edges:
        s |= draw(st.sampled_from([{u}, {v}, {u, v}]))
    return Multigraph(n, edges), s


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(disjoint_edges_touching())
def test_direct_matching_equals_the_blossom(case):
    g, s = case

    def weight(e):
        u, v = g.edges[e]
        return (u in s) + (v in s)

    assert matching_max_cover(g, s) == max_weight_matching(g, weight)


def test_direct_matching_skips_the_blossom(monkeypatch):
    calls = []
    real = graph.max_weight_matching

    def counting(g, weights):
        calls.append(g.m)
        return real(g, weights)

    monkeypatch.setattr(graph, "max_weight_matching", counting)
    two = Multigraph(4, [(1, 2), (3, 4)])
    assert matching_max_cover(two, {1, 4}).pairs == {0, 1}
    assert matching_max_cover(Multigraph(2, []), {1}).pairs == frozenset()
    assert calls == []
    # Two edges at one vertex, parallel edges, or an edge that misses s
    # go to the blossom.
    assert len(matching_max_cover(Multigraph(3, [(1, 2), (2, 3)]), {1, 3}).pairs) == 1
    assert len(matching_max_cover(Multigraph(2, [(1, 2), (1, 2)]), {1}).pairs) == 1
    assert matching_max_cover(two, {1}).pairs == {0}
    assert calls == [2, 2, 2]
