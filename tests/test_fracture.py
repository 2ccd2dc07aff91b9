from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, event, given, settings, strategies as st
from networkx.generators.atlas import graph_atlas_g

from edpkit import fracture
from edpkit.fracture import (
    FractureModulator,
    build_selector_program,
    component_signature,
    config_demand,
    config_supply,
    _dfs_collect,
    find_fracture_modulator,
    pack_connected_sets,
    prepare_fracture,
    solve_fracture,
    terminal_free_modulator,
)
from edpkit.graph import Multigraph, components_excluding
from edpkit.instance import (
    EdpInstance,
    TerminalPair,
    augmented_graph,
    normalize_instance,
    verify_solution,
)
from edpkit.ilp import solve_feasibility
from edpkit.oracle import (
    brute_force_edp,
    exhaustive_fracture_number,
    fracture_modulator_valid,
)

from conftest import multigraphs, random_fractured_instance, random_normalized_instance
from signature_oracle import signature_by_labeling


def test_modulator_examples():
    star = Multigraph(6, [(1, i) for i in range(2, 7)])
    m = find_fracture_modulator(star, 1)
    assert m is not None and fracture_modulator_valid(star, m.vertices)
    p9 = Multigraph(9, [(i, i + 1) for i in range(1, 9)])
    assert find_fracture_modulator(p9, 2) is None
    m3 = find_fracture_modulator(p9, 3)
    assert m3 is not None and m3.k <= 3 and fracture_modulator_valid(p9, m3.vertices)
    assert find_fracture_modulator(Multigraph(0, []), 2).vertices == frozenset()


def avoiding_modulator_exists(g, cap, removed, budget, forbidden):
    """Some S outside removed and forbidden, |S| <= budget, leaves every
    component of g - removed - S with at most cap vertices."""
    allowed = [v for v in range(1, g.n + 1) if v not in removed and v not in forbidden]
    return any(
        all(len(c) <= cap for c in components_excluding(g, removed | set(s)))
        for j in range(budget + 1)
        for s in combinations(allowed, j)
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(multigraphs(), st.integers(0, 3), st.data())
def test_packing_never_refutes_a_modulator(g, k, data):
    vertices = list(range(1, g.n + 1))
    if exhaustive_fracture_number(g, k) is not None:
        assert len(pack_connected_sets(g, k + 1, set(), k + 1)) <= k
    # A branch node of the search with terminals forbidden: `removed` holds
    # allowed vertices only, and `budget` deletions remain.
    forbidden = data.draw(st.sets(st.sampled_from(vertices))) if vertices else set()
    allowed = [v for v in vertices if v not in forbidden]
    removed = data.draw(st.sets(st.sampled_from(allowed), max_size=k)) if allowed else set()
    budget = k - len(removed)
    packed = pack_connected_sets(g, k + 1, removed, budget + 1)
    if avoiding_modulator_exists(g, k, removed, budget, forbidden):
        assert len(packed) <= budget
    # The first set is the region the branching rule collects, and none is
    # packed exactly when no component of g - removed is oversized.
    oversized = sorted((c for c in components_excluding(g, removed) if len(c) > k), key=min)
    assert bool(packed) == bool(oversized)
    if packed:
        assert packed[0] == _dfs_collect(g, min(oversized[0]), k + 1, removed)
    used = [v for s in packed for v in s]
    assert len(used) == len(set(used)) and not set(used) & removed


def test_modulator_approx_contract(rng):
    for _ in range(60):
        n = rng.randint(1, 8)
        g = Multigraph(
            n,
            [
                tuple(rng.sample(range(1, n + 1), 2))
                for _ in range(rng.randint(0, 10))
                if n >= 2
            ],
        )
        for k in (1, 2, 3):
            truth = exhaustive_fracture_number(g, k)
            approx = find_fracture_modulator(g, k, "approx")
            if truth is not None:
                assert approx is not None
            if approx is not None:
                assert approx.k <= max((k + 1) * k, 1)
                assert fracture_modulator_valid(g, approx.vertices)


def test_modulator_agrees_with_exhaustive_on_small_graphs(rng):
    for _ in range(80):
        n = rng.randint(1, 7)
        edges = [
            tuple(rng.sample(range(1, n + 1), 2))
            for _ in range(rng.randint(0, 10))
            if n >= 2
        ]
        g = Multigraph(n, edges)
        for k in (1, 2, 3):
            exact = find_fracture_modulator(g, k, "exact")
            truth = exhaustive_fracture_number(g, k)
            assert (exact is None) == (truth is None)
            if exact is not None:
                assert exact.k <= k
                assert fracture_modulator_valid(g, exact.vertices)


def test_terminal_free_modulator():
    # modulator containing terminal 1; its pair neighborhood replaces it
    g = Multigraph(6, [(1, 3), (2, 4), (3, 4), (3, 5), (4, 6)])
    inst = EdpInstance(g, (TerminalPair(1, 2),))
    assert inst.normalized
    aug = augmented_graph(inst)
    x0 = FractureModulator(frozenset({1, 3, 4}))
    assert fracture_modulator_valid(aug, x0.vertices)
    out = terminal_free_modulator(inst, x0)
    assert not (out.vertices & inst.terminals)
    assert out.k <= 2 * x0.k
    assert fracture_modulator_valid(aug, out.vertices)
    # no terminals: unchanged
    x1 = FractureModulator(frozenset({3, 4}))
    assert terminal_free_modulator(inst, x1) == x1


def test_terminal_free_modulator_random(rng):
    from itertools import combinations

    from edpkit.fracture import NoModulator

    checked = 0
    for _ in range(120):
        inst = random_normalized_instance(rng, max_n=9, max_pairs=2)
        aug = augmented_graph(inst)
        k = exhaustive_fracture_number(aug, 4)
        if k is None:
            continue
        x0 = find_fracture_modulator(aug, k, "exact")
        try:
            out = terminal_free_modulator(inst, x0)
        except NoModulator:
            # Legitimate only when no terminal-free modulator exists at all.
            nonterms = sorted(set(range(1, aug.n + 1)) - inst.terminals)
            for r in range(len(nonterms) + 1):
                for sub in combinations(nonterms, r):
                    assert not fracture_modulator_valid(aug, set(sub))
            continue
        assert not (out.vertices & inst.terminals)
        assert fracture_modulator_valid(aug, out.vertices)
        checked += 1
    assert checked >= 50


def test_prepare_fracture():
    g = Multigraph(4, [(1, 2), (2, 3), (3, 4)])
    inst = EdpInstance(g, ())
    x = FractureModulator(frozenset({2, 3}))
    prep, x2, edge_map = prepare_fracture(inst, x)
    assert x2 == x
    assert prep.g.n == 5  # one subdivision vertex for edge (2, 3)
    assert edge_map == (0, 1, 1, 2)
    # no modulator-internal edges: unchanged
    x_far = FractureModulator(frozenset({1, 4}))
    prep2, _, edge_map2 = prepare_fracture(inst, x_far)
    assert prep2.g.edges == g.edges and edge_map2 == (0, 1, 2)


def test_signature_examples():
    g = Multigraph(4, [(1, 3), (2, 4)])
    inst = EdpInstance(g, (TerminalPair(1, 2),))
    sig = component_signature(inst, {1, 2}, FractureModulator(frozenset({3, 4})))
    assert sorted(sig.keys()) == [(((3, 4),), ())]
    g2 = Multigraph(3, [(1, 2), (1, 3)])
    sig2 = component_signature(EdpInstance(g2, ()), {1}, FractureModulator(frozenset({2, 3})))
    assert set(sig2) == {((), ()), ((), (((2, 3), 1),))}
    g3 = Multigraph(2, [(1, 2)])
    sig3 = component_signature(EdpInstance(g3, ()), {1, 2}, FractureModulator(frozenset()))
    assert set(sig3) == {((), ())}


def test_signature_matches_labeling_oracle(rng):
    checked = 0
    for _ in range(60):
        inst = random_normalized_instance(rng, max_n=7, max_m=8, max_pairs=2)
        aug = augmented_graph(inst)
        k = exhaustive_fracture_number(aug, 3)
        if k is None:
            continue
        x0 = find_fracture_modulator(aug, k, "exact")
        if x0.vertices & inst.terminals:
            x0 = terminal_free_modulator(inst, x0)
        prep, x0, _ = prepare_fracture(inst, x0)
        paug = augmented_graph(prep)
        for comp in components_excluding(paug, x0.vertices):
            edge_count = sum(
                1
                for u, v in prep.g.edges
                if (u in comp or v in comp) and {u, v} <= comp | x0.vertices
            )
            if edge_count > 8:
                continue
            got = set(component_signature(prep, comp, x0))
            want = signature_by_labeling(prep, comp, x0)
            assert got == want, (prep.g.edges, comp, x0)
            checked += 1
    assert checked >= 40


def test_selector_program_examples():
    # two identical pair components plus one supplier component
    g = Multigraph(7, [(1, 6), (2, 7), (3, 6), (4, 7), (5, 6), (5, 7)])
    inst = EdpInstance(g, (TerminalPair(1, 2), TerminalPair(3, 4)))
    x = FractureModulator(frozenset({6, 7}))
    paug = augmented_graph(inst)
    comps = sorted(components_excluding(paug, x.vertices), key=min)
    sigs = [component_signature(inst, c, x) for c in comps]
    sel = build_selector_program(sigs, x)
    assert len(sel.variables) == 3
    assert len(sel.program.eq_rows) == 2
    # two crossings demanded, one supplied: correctly infeasible
    assert solve_feasibility(sel.program) is None
    # with a single pair component the selector becomes feasible
    g1 = Multigraph(5, [(1, 6 - 2), (2, 7 - 2), (3, 6 - 2), (3, 7 - 2)])
    inst1 = EdpInstance(g1, (TerminalPair(1, 2),))
    x1 = FractureModulator(frozenset({4, 5}))
    comps1 = sorted(components_excluding(augmented_graph(inst1), x1.vertices), key=min)
    sel1 = build_selector_program([component_signature(inst1, c, x1) for c in comps1], x1)
    assert solve_feasibility(sel1.program) is not None
    # demand/supply arithmetic
    cfg_pair = (((6, 7),), ())
    cfg_supply = ((), (((6, 7), 1),))
    assert config_demand(cfg_pair, 6, 7) == 1 and config_supply(cfg_pair, 6, 7) == 0
    assert config_demand(cfg_supply, 6, 7) == 0 and config_supply(cfg_supply, 6, 7) == 1


def test_selector_rows_are_demand_minus_supply(rng):
    checked = 0
    for _ in range(40):
        inst = random_normalized_instance(rng, max_n=8, max_m=12, max_pairs=3)
        aug = augmented_graph(inst)
        k = exhaustive_fracture_number(aug, 3)
        if k is None:
            continue
        x0 = find_fracture_modulator(aug, k, "exact")
        if x0.vertices & inst.terminals:
            x0 = terminal_free_modulator(inst, x0)
        prep, x0, _ = prepare_fracture(inst, x0)
        comps = sorted(components_excluding(augmented_graph(prep), x0.vertices), key=min)
        sel = build_selector_program([component_signature(prep, c, x0) for c in comps], x0)
        want = []
        mod = sorted(x0.vertices)
        for i, a in enumerate(mod):
            for b in mod[i + 1 :]:
                coeffs = tuple(config_demand(cfg, a, b) - config_supply(cfg, a, b) for _, cfg in sel.variables)
                if any(coeffs):
                    want.append((coeffs, 0))
        assert sel.program.le_rows == tuple(want)
        checked += bool(want)
    assert checked >= 10


def test_selector_program_empty():
    sel = build_selector_program([], FractureModulator(frozenset({1, 2})))
    assert solve_feasibility(sel.program) == ()


def test_solve_examples():
    g = Multigraph(5, [(1, 4), (2, 5), (3, 4), (3, 5)])
    inst = EdpInstance(g, (TerminalPair(1, 2),))
    r = solve_fracture(inst, 3)
    assert r.is_yes and verify_solution(inst, r.paths).ok
    g2 = Multigraph(5, [(1, 4), (2, 5)])
    assert solve_fracture(EdpInstance(g2, (TerminalPair(1, 2),)), 3).status == "no"
    assert solve_fracture(EdpInstance(g, ()), 3).is_yes


def test_modulator_exceeded():
    # 4x4 grid-ish graph has fracture number > 1
    edges = []
    for r in range(4):
        for c in range(4):
            v = 4 * r + c + 1
            if c < 3:
                edges.append((v, v + 1))
            if r < 3:
                edges.append((v, v + 4))
    g = Multigraph(16, edges)
    inst = EdpInstance(g, ())
    assert solve_fracture(inst, 1).status == "modulator-exceeded"


def test_oracle_agreement(rng):
    for _ in range(100):
        inst = random_fractured_instance(rng)
        want = brute_force_edp(inst)
        got = solve_fracture(inst, 3)
        assert got.status in ("yes", "no")
        assert want.status == got.status, (inst.g.edges, inst.pairs)
        if got.is_yes:
            assert verify_solution(inst, got.paths).ok


@st.composite
def fractured_instances(draw, kmax=3):
    """Normalized instances of 2-9 vertices and 1-3 pairs whose augmented
    graph has a fracture modulator of at most kmax vertices."""
    g = draw(multigraphs(max_n=9, max_edges=14))
    assume(g.n >= 2)
    k = draw(st.integers(1, min(3, g.n // 2)))
    ends = draw(st.permutations(range(1, g.n + 1)))[: 2 * k]
    pairs = tuple(TerminalPair(ends[2 * i], ends[2 * i + 1]) for i in range(k))
    inst = normalize_instance(EdpInstance(g, pairs))
    assume(exhaustive_fracture_number(augmented_graph(inst), kmax) is not None)
    return inst


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fractured_instances())
def test_oracle_agreement_property(inst):
    want = brute_force_edp(inst).status
    event(want)
    got = solve_fracture(inst, 3)
    assert got.status == want, (inst.g.edges, inst.pairs)
    if got.is_yes:
        assert verify_solution(inst, got.paths).ok


def test_terminal_buffering_rescue(monkeypatch, rng):
    """When no terminal-free modulator can be valid, solve_fracture buffers
    the terminals, searches again and maps paths back through the
    subdivision map composed with the buffering map.  About one random
    instance in 90 below takes that branch; the path 1-2-3 with pair (3, 1)
    always does."""
    real = fracture.buffer_terminals
    buffered = []

    def spy(inst):
        buffered.append(inst)
        return real(inst)

    monkeypatch.setattr(fracture, "buffer_terminals", spy)
    cases = [EdpInstance(Multigraph(3, [(1, 2), (2, 3)]), (TerminalPair(3, 1),))]
    for _ in range(4000):
        n = rng.randint(2, 6)
        g = Multigraph(n, [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(1, 4))])
        ends = rng.sample(range(1, n + 1), 2 * rng.randint(1, n // 2))
        cases.append(EdpInstance(g, tuple(TerminalPair(*ends[i : i + 2]) for i in range(0, len(ends), 2))))
    rescued = 0
    for i, inst in enumerate(cases):
        before = len(buffered)
        got = solve_fracture(inst, 2)
        if len(buffered) == before:
            assert i > 0, "the path 1-2-3 must take the rescue branch"
            continue
        rescued += 1
        assert got.status == brute_force_edp(inst).status, (inst.g.edges, inst.pairs)
        if got.is_yes:
            assert verify_solution(inst, got.paths).ok
    assert rescued >= 20


def test_atlas_sample_agreement():
    """Spot-check of acceptance criterion 5 on a slice of the atlas."""
    graphs = [
        G
        for G in graph_atlas_g()
        if G.number_of_nodes() == 6 and nx.is_connected(G)
    ]
    assert len(graphs) == 112
    for G in graphs[::4]:
        mapping = {v: i + 1 for i, v in enumerate(sorted(G.nodes()))}
        g = Multigraph(6, [(mapping[u], mapping[v]) for u, v in G.edges()])
        for k in (1, 2):
            exact = find_fracture_modulator(g, k, "exact")
            truth = exhaustive_fracture_number(g, k)
            assert (exact is None) == (truth is None)
