import random
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, event, given, settings, strategies as st
from networkx.generators.atlas import graph_atlas_g

from edpkit import fracture
from edpkit.fracture import (
    FractureModulator,
    SignatureMemo,
    build_selector_program,
    component_signature,
    _dfs_collect,
    _net_demand,
    find_fracture_modulator,
    pack_connected_sets,
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
from edpkit.ilp import IntegerProgram, solve_feasibility
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


def test_modulator_approx_output_pinned():
    # Vertex 1 lies in a component of two vertices, small for k >= 2;
    # two oversized components come after it.  Each is cut by the
    # first k + 1 vertices of a DFS from its lowest vertex, in edge-index
    # order (3 reaches 7 before 4, 8 reaches 9 and then 11).
    g = Multigraph(11, [(1, 2), (3, 7), (3, 4), (4, 5), (5, 6), (8, 9), (9, 10), (8, 11)])
    assert find_fracture_modulator(g, 2, "approx").vertices == frozenset({3, 4, 7, 8, 9, 11})
    assert find_fracture_modulator(g, 3, "approx").vertices == frozenset({3, 4, 5, 7, 8, 9, 10, 11})
    # Under k = 1 the pair {1, 2} is oversized too: three sets for one deletion.
    assert find_fracture_modulator(g, 1, "approx") is None


def test_forbidden_vertices_need_exact_mode():
    with pytest.raises(ValueError):
        find_fracture_modulator(Multigraph(3, [(1, 2), (2, 3)]), 1, "approx", forbidden=frozenset({2}))


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

    checked = 0
    for _ in range(120):
        inst = random_normalized_instance(rng, max_n=9, max_pairs=2)
        aug = augmented_graph(inst)
        k = exhaustive_fracture_number(aug, 4)
        if k is None:
            continue
        x0 = find_fracture_modulator(aug, k, "exact")
        out = terminal_free_modulator(inst, x0)
        if out is None:
            # Legitimate only when no terminal-free modulator exists at all,
            # which in the normal form means one non-terminal.
            nonterms = sorted(set(range(1, aug.n + 1)) - inst.terminals)
            assert len(nonterms) == 1, (inst.g.edges, inst.pairs)
            for r in range(len(nonterms) + 1):
                for sub in combinations(nonterms, r):
                    assert not fracture_modulator_valid(aug, set(sub))
            continue
        assert not (out.vertices & inst.terminals)
        assert fracture_modulator_valid(aug, out.vertices)
        checked += 1
    assert checked >= 50


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
        for comp in components_excluding(aug, x0.vertices):
            edge_count = sum(
                1
                for u, v in inst.g.edges
                if (u in comp or v in comp) and {u, v} <= comp | x0.vertices
            )
            if edge_count > 8:
                continue
            got = set(component_signature(inst, comp, x0))
            want = signature_by_labeling(inst, comp, x0)
            assert got == want, (inst.g.edges, comp, x0)
            checked += 1
    assert checked >= 40


def repeated_template_instance(rng):
    """A normalized instance of 4-8 copies of one or two small component
    templates hung on the modulator vertices 1..m (m = 2 or 3), each
    component of at most m vertices, and that modulator.  A copy takes its
    anchors in one of two orders and names its pair (s, t) or (t, s), so
    copies share a shape or differ from one only in their pair ends."""
    m = rng.choice((2, 3))

    def template():
        size = rng.randint(1, m)
        paired = size >= 2 and rng.random() < 0.7
        core = size - 2 if paired else size
        edges = [(("c", i), ("c", j)) for i in range(core) for j in range(i + 1, core) for _ in range(rng.randint(0, 2))]
        for i in range(core):
            edges += [(("c", i), ("a", rng.randrange(m))) for _ in range(rng.randint(1, 2))]
        if paired:
            hang = [("c", i) for i in range(core)] + [("a", i) for i in range(m)]
            edges += [(("s",), rng.choice(hang)), (("t",), rng.choice(hang))]
        return core, paired, edges

    templates = [template() for _ in range(rng.randint(1, 2))]
    orders = [list(range(1, m + 1)), rng.sample(range(1, m + 1), m)]
    n, edges, pairs = m, [], []
    for _ in range(rng.randint(4, 8)):
        core, paired, shape = rng.choice(templates)
        names = {("a", i): v for i, v in enumerate(rng.choice(orders))}
        names.update({("c", i): n + 1 + i for i in range(core)})
        n += core
        if paired:
            names[("s",)], names[("t",)] = n + 1, n + 2
            n += 2
            pairs.append(TerminalPair(n - 1, n) if rng.random() < 0.5 else TerminalPair(n, n - 1))
        edges += [(names[u], names[v]) for u, v in shape]
    inst = EdpInstance(Multigraph(n, edges), tuple(pairs))
    assert inst.normalized
    return inst, FractureModulator(frozenset(range(1, m + 1)))


def test_shared_memo_matches_memo_free_signatures(rng):
    """Components decided through one shared memo get the configurations,
    in the same order, and the witnesses that each gets alone."""
    reused = 0
    for _ in range(40):
        inst, x = repeated_template_instance(rng)
        comps = sorted(components_excluding(augmented_graph(inst), x.vertices), key=min)
        memo = SignatureMemo(inst, x)
        for comp in comps:
            shared = component_signature(inst, comp, x, memo)
            alone = component_signature(inst, comp, x)
            assert list(shared) == list(alone), (inst.g.edges, inst.pairs, comp)
            assert all(shared[c] == alone[c] for c in alone), (inst.g.edges, inst.pairs, comp)
        reused += len(comps) - len(memo.protos)
        got = solve_fracture(inst, 3)
        assert got.status == brute_force_edp(inst).status, (inst.g.edges, inst.pairs)
        if got.is_yes:
            assert verify_solution(inst, got.paths).ok
    assert reused >= 100


def hub_instance(copies):
    """Hubs 1..4 and `copies` components of each of eight kinds: supply
    chains of 1-3 vertices between two hubs, and pair components a, b, s, t
    with the leaves s on a and t on b, a and b on one or two hubs, one
    kind with the edge a-b.  A "yes" instance."""
    n, edges, pairs = 4, [], []
    for _ in range(copies):
        for u, v, length in ((1, 2, 1), (3, 4, 2), (1, 3, 3), (2, 4, 1)):
            walk = [u, *range(n + 1, n + 1 + length), v]
            n += length
            edges += zip(walk, walk[1:])
        for ha, hb, linked in ((1, 2, True), (3, 4, False), (2, 2, False), (4, 1, False)):
            a, b, s, t = n + 1, n + 2, n + 3, n + 4
            n += 4
            edges += [(a, ha), (b, hb), (s, a), (t, b)] + [(a, b)] * linked
            pairs.append(TerminalPair(s, t))
    return EdpInstance(Multigraph(n, edges), tuple(pairs))


def test_path_searches_do_not_grow_with_repeated_components(monkeypatch):
    """Components of one shape are searched once per solve, and nothing
    of a solve is kept for the next one."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return route_all(*args, **kwargs)

    route_all = fracture._route_all
    monkeypatch.setattr(fracture, "_route_all", counted)
    counts = []
    for inst in (hub_instance(3), hub_instance(12), hub_instance(12)):
        calls.clear()
        got = solve_fracture(inst, 4)
        assert got.is_yes and verify_solution(inst, got.paths).ok
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[1] == counts[0], counts
    assert counts[2] == counts[1], counts


def test_selector_program_examples():
    # two identical pair components plus one supplier component
    g = Multigraph(7, [(1, 6), (2, 7), (3, 6), (4, 7), (5, 6), (5, 7)])
    inst = EdpInstance(g, (TerminalPair(1, 2), TerminalPair(3, 4)))
    x = FractureModulator(frozenset({6, 7}))
    paug = augmented_graph(inst)
    comps = sorted(components_excluding(paug, x.vertices), key=min)
    sigs = [component_signature(inst, c, x) for c in comps]
    sel = build_selector_program(sigs, x, {})
    assert len(sel.variables) == 3
    assert len(sel.program.eq_rows) == 2
    # two crossings demanded, one supplied: correctly infeasible
    assert solve_feasibility(sel.program) is None
    # an edge 6-7 supplies the second crossing
    assert solve_feasibility(build_selector_program(sigs, x, {(6, 7): 1}).program) is not None
    # with a single pair component the selector becomes feasible
    g1 = Multigraph(5, [(1, 6 - 2), (2, 7 - 2), (3, 6 - 2), (3, 7 - 2)])
    inst1 = EdpInstance(g1, (TerminalPair(1, 2),))
    x1 = FractureModulator(frozenset({4, 5}))
    comps1 = sorted(components_excluding(augmented_graph(inst1), x1.vertices), key=min)
    sel1 = build_selector_program([component_signature(inst1, c, x1) for c in comps1], x1, {})
    assert solve_feasibility(sel1.program) is not None
    # demand/supply arithmetic
    cfg_pair = (((6, 7),), ())
    cfg_supply = ((), (((6, 7), 1),))
    assert _net_demand(cfg_pair)[(6, 7)] == 1
    assert _net_demand(cfg_supply)[(6, 7)] == -1


def test_selector_rows_are_demand_minus_supply(rng):
    checked = bounded = cut = 0
    points = Counter({True: 0, False: 0})  # programs with cut rows, by infeasibility
    for _ in range(40):
        inst = random_normalized_instance(rng, max_n=8, max_m=12, max_pairs=3)
        aug = augmented_graph(inst)
        k = exhaustive_fracture_number(aug, 3)
        if k is None:
            continue
        x0 = find_fracture_modulator(aug, k, "exact")
        if x0.vertices & inst.terminals:
            x0 = terminal_free_modulator(inst, x0)
        comps = sorted(components_excluding(aug, x0.vertices), key=min)
        direct = Counter(tuple(sorted(e)) for e in inst.g.edges if set(e) <= x0.vertices)
        sel = build_selector_program([component_signature(inst, c, x0) for c in comps], x0, direct)
        want = []
        mod = sorted(x0.vertices)
        for i, a in enumerate(mod):
            for b in mod[i + 1 :]:
                coeffs = tuple(_net_demand(cfg)[(a, b)] for _, cfg in sel.variables)
                if any(coeffs):
                    # Each graph edge a-b is one supplied path.
                    want.append((coeffs, sum(1 for e in inst.g.edges if set(e) == {a, b})))
        assert sel.program.le_rows[: len(want)] == tuple(want)
        checked += bool(want)
        bounded += sum(1 for _, bound in want if bound)
        # The further rows are the cut rows: for each cut (S, X - S) with
        # the least modulator vertex in S, the sum of the rows of the pairs
        # across it, less each class's least coefficient, and the bound
        # less that coefficient times the class's count.  Sums that are all
        # zero or repeat a pair row are left out.
        classes = {}
        for v, (key, _) in enumerate(sel.variables):
            classes.setdefault(key, []).append(v)
        cut_rows = []
        for r in range(len(mod) - 1):
            for rest in combinations(mod[1:], r):
                side = {mod[0], *rest}
                across = [(a, b) for a, b in combinations(mod, 2) if (a in side) != (b in side)]
                coeffs = [
                    sum(_net_demand(cfg)[(a, b)] for a, b in across)
                    for _, cfg in sel.variables
                ]
                bound = sum(direct[pair] for pair in across)
                if not any(coeffs) or (tuple(coeffs), bound) in want:
                    continue
                for key, members in classes.items():
                    least = min(coeffs[v] for v in members)
                    for v in members:
                        coeffs[v] -= least
                    bound -= least * len(sel.class_members[key])
                cut_rows.append((tuple(coeffs), bound))
        assert sorted(sel.program.le_rows[len(want) :]) == sorted(cut_rows)
        cut += len(cut_rows)
        # The cut rows are implied, so the search returns the point it
        # returns on the pair rows alone.
        prog = sel.program
        point = solve_feasibility(prog)
        assert point == solve_feasibility(IntegerProgram(prog.lower, prog.upper, prog.eq_rows, tuple(want)))
        points[point is None] += bool(cut_rows)
    assert checked >= 10
    assert bounded >= 10, bounded
    assert cut >= 10, cut
    assert min(points.values()) >= 3, points


def two_hub_instance(p, q, chain):
    """Hubs 1 and 2 joined by p parallel edges (edges 0..p-1), then, with
    `chain`, the path 1-3-2, then q pairs (s, t), each s a leaf on hub 1
    and each t a leaf on hub 2.  Every modulator edge 1-2 is a supplied
    path, so the answer is yes iff q <= p + chain."""
    edges = [(1, 2)] * p + [(1, 3), (3, 2)] * chain
    n = 2 + chain
    pairs = []
    for _ in range(q):
        edges += [(n + 1, 1), (n + 2, 2)]
        pairs.append(TerminalPair(n + 1, n + 2))
        n += 2
    return EdpInstance(Multigraph(n, edges), tuple(pairs))


def test_edges_between_hubs_are_supply():
    for p in range(4):
        for q in range(5):
            for chain in (False, True):
                inst = two_hub_instance(p, q, chain)
                got = solve_fracture(inst, 4)
                assert got.status == ("yes" if q <= p + chain else "no"), (p, q, chain)
                if got.is_yes:
                    assert verify_solution(inst, got.paths).ok
    # Pinned certificates: a component's supply is used before the edges
    # between hubs, and those in edge-index order.
    assert solve_fracture(two_hub_instance(1, 2, True), 4).paths.paths == ((3, 1, 2, 4), (5, 0, 6))
    assert solve_fracture(two_hub_instance(2, 2, False), 4).paths.paths == ((2, 0, 3), (4, 1, 5))


def test_selector_program_empty():
    sel = build_selector_program([], FractureModulator(frozenset({1, 2})), {(1, 2): 1})
    assert solve_feasibility(sel.program) == ()


def test_selector_with_an_empty_class_stays_infeasible():
    """A component that admits no configuration is a class without
    variables: the cut rows pass over it, and its equality alone refutes
    the program."""
    # Modulator 1, 2, 3.  Pair 4-7 hangs off hubs 1 and 2, the chain 8
    # joins hubs 1 and 3, and pair 9-12 has no route: 12's neighbour 11
    # touches nothing else.
    edges = [(4, 5), (5, 1), (7, 6), (6, 2), (1, 8), (8, 3), (9, 10), (10, 1), (12, 11)]
    inst = EdpInstance(Multigraph(12, edges), (TerminalPair(4, 7), TerminalPair(9, 12)))
    x = FractureModulator(frozenset({1, 2, 3}))
    comps = sorted(components_excluding(augmented_graph(inst), x.vertices), key=min)
    sigs = [component_signature(inst, c, x) for c in comps]
    assert sorted(len(sig) for sig in sigs) == [0, 2, 2]
    # Pair 4-7 crosses 1-2 directly or along 1-3-2, with the chain for
    # 1-3 and the edge 2-3 for 3-2.
    nonempty = build_selector_program([sig for sig in sigs if sig], x, {(2, 3): 1})
    assert solve_feasibility(nonempty.program) is not None
    sel = build_selector_program(sigs, x, {(2, 3): 1})
    assert len(sel.program.le_rows) > 3  # a cut row after the three pair rows
    assert (tuple(0 for _ in sel.variables), 1) in sel.program.eq_rows
    assert solve_feasibility(sel.program) is None


def hub_cut_instance(c):
    """Hubs 1..4 with c one-vertex chains between every two of them, then
    3c + 1 pairs from hub 1 to hubs 2, 3 and 4 in turn and 15 pairs
    between every two of hubs 2..4, each pair on its own component
    s-a-hub, hub-b-t.  The cut between hub 1 and the other hubs is crossed
    by 3c chains and must be crossed by 3c + 1 pairs, so the answer is
    "no"; every pair row alone can be met."""
    n, edges = 4, []
    for u, v in combinations(range(1, 5), 2):
        for _ in range(c):
            n += 1
            edges += [(u, n), (n, v)]
    ends = [(1, 2 + i % 3) for i in range(3 * c + 1)] + [(2, 3), (2, 4), (3, 4)] * 15
    pairs = []
    for hu, hv in ends:
        s, a, b, t = n + 1, n + 2, n + 3, n + 4
        n += 4
        edges += [(s, a), (a, hu), (hv, b), (b, t)]
        pairs.append(TerminalPair(s, t))
    return EdpInstance(Multigraph(n, edges), tuple(pairs))


def test_hub_cut_is_refuted_at_the_root(monkeypatch):
    """Every configuration of a pair at hub 1 crosses the cut of hub 1
    once, so after the shift by each class's least crossing that cut's row
    has no negative coefficient and a negative bound: the search refutes
    the program before it assigns a variable."""
    programs = []

    def recorded(prog):
        programs.append(prog)
        return solve_feasibility(prog)

    monkeypatch.setattr(fracture, "solve_feasibility", recorded)
    assert solve_fracture(hub_cut_instance(16), 4).status == "no"
    (prog,) = programs
    assert any(bound < 0 and min(coeffs) >= 0 for coeffs, bound in prog.le_rows)


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


def test_one_hub_instances_answer_yes(rng):
    """A normal form whose only non-terminal is one hub c has no
    terminal-free modulator; solve_fracture answers it "yes" with the paths
    s-c-t.  About one random instance in 90 below is such a case; the path
    1-2-3 with pair (3, 1) is one.  Every case that is not refused agrees
    with brute force."""
    cases = [EdpInstance(Multigraph(3, [(1, 2), (2, 3)]), (TerminalPair(3, 1),))]
    for _ in range(4000):
        n = rng.randint(2, 6)
        g = Multigraph(n, [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(1, 4))])
        ends = rng.sample(range(1, n + 1), 2 * rng.randint(1, n // 2))
        cases.append(EdpInstance(g, tuple(TerminalPair(*ends[i : i + 2]) for i in range(0, len(ends), 2))))
    hubs = 0
    for i, inst in enumerate(cases):
        got = solve_fracture(inst, 2)
        if got.status == "modulator-exceeded":
            continue
        assert got.status == brute_force_edp(inst).status, (inst.g.edges, inst.pairs)
        if got.is_yes:
            assert verify_solution(inst, got.paths).ok
        work = normalize_instance(inst)
        if work.g.n - len(work.terminals) != 1:
            assert i > 0, "the path 1-2-3 has one hub"
            continue
        hubs += 1
        assert got.is_yes, (inst.g.edges, inst.pairs)
    assert hubs >= 20


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


def test_dense_components_agree_with_brute_force():
    """Dense 9-vertex instances: components with up to 19 incident edges,
    beyond the labelling oracle's reach and the property's modulators of
    at most 3.  Every answer that is not a refusal agrees with brute force."""
    rng = random.Random(7)
    answered = 0
    for _ in range(25):
        edges = rng.sample(list(combinations(range(1, 10), 2)), 24)
        inst = EdpInstance(Multigraph(9, edges), (TerminalPair(*rng.sample(range(1, 10), 2)),))
        got = solve_fracture(inst, 4)
        if got.status == "modulator-exceeded":
            continue
        answered += 1
        assert got.status == brute_force_edp(inst).status, (edges, inst.pairs)
        if got.is_yes:
            assert verify_solution(inst, got.paths).ok
    assert answered >= 10
