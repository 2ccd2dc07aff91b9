import random
import sys

from edpkit.graph import Multigraph
from edpkit.instance import EdpInstance, MultiDemandInstance, TerminalPair, verify_solution
from edpkit.oracle import (
    brute_force_edp,
    brute_force_multi,
    exhaustive_fracture_number,
    fracture_modulator_valid,
)

from conftest import random_normalized_instance


def naive_multi(inst, budget=2 * 10**6):
    """Pruning-free reference search, for cross-checking the real oracle."""
    g = inst.g
    demands = []
    for s, t, n in inst.triples:
        demands += [(s, t)] * n
    used = [False] * g.m
    nodes = 0

    def route(i):
        nonlocal nodes
        if i == len(demands):
            return True
        s, t = demands[i]
        if s == t:
            return route(i + 1)

        def ext(at, visited):
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise TimeoutError
            if at == t and len(visited) > 1:
                return route(i + 1)
            for e in sorted(g.incident(at)):
                if used[e]:
                    continue
                if g.directed and g.edges[e][0] != at:
                    continue
                w = g.other_end(e, at)
                if w in visited:
                    continue
                used[e] = True
                if ext(w, visited | {w}):
                    return True
                used[e] = False
            return False

        return ext(s, {s})

    return "yes" if route(0) else "no"


def test_brute_force_edp_examples():
    p4 = EdpInstance(Multigraph(4, [(1, 2), (2, 3), (3, 4)]), (TerminalPair(1, 4),))
    assert brute_force_edp(p4).is_yes
    star = EdpInstance(
        Multigraph(5, [(1, 5), (2, 5), (3, 5), (4, 5)]),
        (TerminalPair(1, 2), TerminalPair(3, 4)),
    )
    assert brute_force_edp(star).is_yes
    bridge = EdpInstance(
        Multigraph(6, [(1, 5), (2, 5), (5, 6), (6, 3), (6, 4)]),
        (TerminalPair(1, 3), TerminalPair(2, 4)),
    )
    assert brute_force_edp(bridge).status == "no"


def test_brute_force_multi_examples():
    two_arcs = MultiDemandInstance(Multigraph(2, [(1, 2), (1, 2)], directed=True), ((1, 2, 2),))
    assert brute_force_multi(two_arcs).is_yes
    one_arc = MultiDemandInstance(Multigraph(2, [(1, 2)], directed=True), ((1, 2, 2),))
    assert brute_force_multi(one_arc).status == "no"
    dtri = MultiDemandInstance(
        Multigraph(3, [(1, 3), (3, 2), (1, 2)], directed=True), ((1, 2, 2),)
    )
    assert brute_force_multi(dtri).is_yes


def test_budget_is_reported():
    # A dense instance with a tiny budget must report budget, not no.
    g = Multigraph(8, [(a, b) for a in range(1, 9) for b in range(a + 1, 9)])
    inst = MultiDemandInstance(g, ((1, 8, 3), (2, 7, 3), (3, 6, 3)))
    result = brute_force_multi(inst, budget=5)
    assert result.status == "budget"


def test_node_budget_boundaries():
    # The exact node counts of the search: the budget at which each answer
    # first appears.  A change to the search order or to a pruning moves
    # them.
    edges = [(v, v + 1) for v in range(1, 37) if v % 6] + [(v, v + 6) for v in range(1, 31)]
    grid = EdpInstance(Multigraph(36, edges), (TerminalPair(1, 36), TerminalPair(6, 31)))
    assert brute_force_edp(grid, 43).status == "budget"
    result = brute_force_edp(grid, 44)
    assert result.is_yes
    assert result.paths.paths == (
        (0, 1, 2, 3, 34, 8, 7, 6, 5, 36, 10, 11, 12, 13, 14, 47, 19, 18, 17, 16, 15, 48, 20, 21, 22, 23, 24, 59),
        (35, 9, 40, 46, 52, 58, 28, 27, 26, 25),
    )
    # A 3x8 grid (vertex r*3 + c + 1; each vertex's right, then down edge)
    # with four pairs of leaves hung on the top and bottom rows: four paths
    # through a three-edge cut, so "no".
    edges = []
    for v in range(1, 25):
        if v % 3:
            edges.append((v, v + 1))
        if v <= 21:
            edges.append((v, v + 3))
    pairs = []
    for k, (a, b) in enumerate(zip((1, 2, 3, 1), (22, 23, 24, 24))):
        s, t = 25 + 2 * k, 26 + 2 * k
        edges += [(a, s), (b, t)]
        pairs.append(TerminalPair(s, t))
    cut = EdpInstance(Multigraph(32, edges), tuple(pairs))
    assert brute_force_edp(cut, 24835).status == "budget"
    assert brute_force_edp(cut, 24836).status == "no"


def test_long_path_needs_no_recursion(monkeypatch):
    # The pendant terminals are 1,500 ring edges apart; the search walks
    # that path without recursing, so it never touches the limit.
    n = 3000
    edges = [(v, v % n + 1) for v in range(1, n + 1)] + [(1, n + 1), (n // 2 + 1, n + 2)]
    inst = EdpInstance(Multigraph(n + 2, edges), (TerminalPair(n + 1, n + 2),))

    def refuse(limit):
        raise AssertionError("the search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    result = brute_force_edp(inst)
    assert result.is_yes and verify_solution(inst, result.paths).ok


def test_yes_certificates_verify(rng):
    for _ in range(80):
        inst = random_normalized_instance(rng, max_n=8)
        result = brute_force_edp(inst)
        if result.is_yes:
            assert verify_solution(inst, result.paths).ok


def test_relabeling_invariance(rng):
    for _ in range(40):
        inst = random_normalized_instance(rng, max_n=7, max_m=9, max_pairs=2)
        n = inst.g.n
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        mapping = {v: perm[v - 1] for v in range(1, n + 1)}
        g2 = Multigraph(n, [(mapping[u], mapping[v]) for u, v in inst.g.edges])
        pairs2 = tuple(TerminalPair(mapping[p.s], mapping[p.t]) for p in inst.pairs)
        inst2 = EdpInstance(g2, pairs2)
        assert brute_force_edp(inst).status == brute_force_edp(inst2).status


def test_oracle_matches_naive_reference(rng):
    bad = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        edges = []
        for _ in range(rng.randint(0, 9)):
            a, b = rng.sample(range(1, n + 1), 2)
            edges.append((a, b))
            if rng.random() < 0.3:
                edges.append((a, b))
        nn = n
        for _ in range(rng.randint(0, 3)):
            nn += 1
            edges.append((nn, rng.randint(1, n)))
        directed = rng.random() < 0.4
        g = Multigraph(nn, edges, directed=directed)
        triples = []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(range(1, nn + 1), 2)
            triples.append((a, b, rng.randint(0, 3)))
        inst = MultiDemandInstance(g, tuple(triples))
        try:
            want = naive_multi(inst)
        except TimeoutError:
            continue
        got = brute_force_multi(inst)
        assert got.status in ("yes", "no")
        if want != got.status:
            bad += 1
    assert bad == 0


def test_exhaustive_fracture_examples():
    star = Multigraph(6, [(1, i) for i in range(2, 7)])
    assert exhaustive_fracture_number(star, 3) == 1
    p9 = Multigraph(9, [(i, i + 1) for i in range(1, 9)])
    assert exhaustive_fracture_number(p9, 2) is None
    assert exhaustive_fracture_number(p9, 4) == 3
    assert exhaustive_fracture_number(Multigraph(0, []), 3) == 0
    assert exhaustive_fracture_number(Multigraph(1, []), 3) == 1


def test_fracture_modulator_valid():
    p9 = Multigraph(9, [(i, i + 1) for i in range(1, 9)])
    assert fracture_modulator_valid(p9, {3, 6, 9})
    assert not fracture_modulator_valid(p9, {5})


def test_recursion_limit_is_restored():
    # The path between the pendant terminals runs 300 edges deep, past the
    # limit pinned here, so the search must raise it and then put it back.
    n = 600
    edges = [(v, v % n + 1) for v in range(1, n + 1)] + [(1, n + 1), (n // 2 + 1, n + 2)]
    inst = EdpInstance(Multigraph(n + 2, edges), (TerminalPair(n + 1, n + 2),))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        result = brute_force_edp(inst)
        limit = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(old)
    assert result.is_yes and verify_solution(inst, result.paths).ok
    assert limit == 300
