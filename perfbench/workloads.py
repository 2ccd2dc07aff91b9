"""Seeded corpora for the benchmark workloads.

Every case carries its expected verdict, fixed by construction (a planted
routing for "yes", a violated cut for "no") or, for the `medp_to_edp`
cases, by a table recorded once with the multi-demand oracle.  Nothing
here calls a solver.  The same (workload, seed) always yields the same
cases; cases tagged with a `baseline` label are seed-independent and
reproduce a row of the ROADMAP baseline table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from edpkit import reductions
from edpkit.graph import Multigraph
from edpkit.instance import EdpInstance, MultiDemandInstance, TerminalPair


@dataclass(frozen=True)
class Case:
    name: str
    inst: EdpInstance | None  # None once the benchmark has written it out
    expected: str  # "yes" | "no"
    vertex_terminals: bool = False  # a terminal sits on a vertex of degree > 1
    baseline: str | None = None  # ROADMAP baseline row reproduced by this case


def _instance(n: int, edges: list[tuple[int, int]], pairs: list[tuple[int, int]]) -> EdpInstance:
    return EdpInstance(Multigraph(n, edges), tuple(TerminalPair(s, t) for s, t in pairs))


# --- fvs1-forest: one feedback vertex -------------------------------------


def star_of_paths(total_vertices: int, num_pairs: int) -> EdpInstance:
    """Hub 1 with `num_pairs` cycles through it; two terminal leaves hang
    off the middle of each cycle and pair with the next cycle's leaves.
    Yes: each leaf reaches the hub along its own half of its cycle."""
    seg = max(4, (total_vertices - 1 - 2 * num_pairs) // num_pairs)
    edges: list[tuple[int, int]] = []
    mids = []
    next_id = 1
    for _ in range(num_pairs):
        path = list(range(next_id + 1, next_id + 1 + seg))
        next_id = path[-1]
        edges.append((1, path[0]))
        edges.extend((a, a + 1) for a in path[:-1])
        edges.append((path[-1], 1))
        mids.append((path[seg // 2 - 1], path[seg // 2]))
    leaves_a, leaves_b = [], []
    for ma, mb in mids:
        edges.append((ma, next_id + 1))
        edges.append((mb, next_id + 2))
        leaves_a.append(next_id + 1)
        leaves_b.append(next_id + 2)
        next_id += 2
    pairs = [(leaves_a[i], leaves_b[(i + 1) % num_pairs]) for i in range(num_pairs)]
    return _instance(next_id, edges, pairs)


def _hub_cycles(total: int, cycles: int, rng: random.Random):
    """Hub 1 with `cycles` cycles of equal length through it and two
    terminal leaves per cycle at random positions.  Each leaf owns the half
    of its cycle between it and the hub, so any pairing of the leaves is
    routable.  Returns (n, edges, leaves)."""
    length = max(2, round((total - 1 - 2 * cycles) / cycles))
    edges: list[tuple[int, int]] = []
    anchors = []
    next_id = 1
    for _ in range(cycles):
        path = list(range(next_id + 1, next_id + 1 + length))
        next_id = path[-1]
        edges.append((1, path[0]))
        edges.extend((a, a + 1) for a in path[:-1])
        edges.append((path[-1], 1))
        i, j = sorted(rng.sample(range(length), 2))
        anchors += [path[i], path[j]]
    leaves = []
    for v in anchors:
        next_id += 1
        edges.append((v, next_id))
        leaves.append(next_id)
    return next_id, edges, leaves


def hub_cycles_yes(total: int, cycles: int, rng: random.Random) -> EdpInstance:
    n, edges, leaves = _hub_cycles(total, cycles, rng)
    rng.shuffle(leaves)
    pairs = [(leaves[2 * i], leaves[2 * i + 1]) for i in range(cycles)]
    return _instance(n, edges, pairs)


def hub_cycles_no(total: int, cycles: int, rng: random.Random) -> EdpInstance:
    """As hub_cycles_yes, plus a tree hanging from the hub by one edge that
    holds two terminals whose partners are leaves of other trees: two
    demands cross a one-edge cut."""
    n, edges, leaves = _hub_cycles(total, cycles, rng)
    rng.shuffle(leaves)
    pairs = [(leaves[2 * i], leaves[2 * i + 1]) for i in range(cycles - 1)]
    anchor_a, anchor_b = leaves[-2], leaves[-1]  # leaves of other trees
    r, l1, l2, p1, p2 = range(n + 1, n + 6)
    edges += [(1, r), (r, l1), (r, l2), (anchor_a, p1), (anchor_b, p2)]
    pairs += [(l1, p1), (l2, p2)]
    return _instance(n + 5, edges, pairs)


def cycle_with_triangles(n: int, triangles: int, cycle_pairs: int, rng: random.Random) -> EdpInstance:
    """Cycle 1..L whose last vertex L also carries `triangles` triangles;
    L is the only feedback vertex and the last one a cycle scan reaches.
    Terminal leaves on the triangles pair up through L (one triangle edge
    to L each); leaves on the long cycle pair along disjoint arcs.  Yes."""
    length = n - 2 * triangles - 2 * triangles - 2 * cycle_pairs
    edges = [(v, v + 1) for v in range(1, length)] + [(length, 1)]
    next_id = length
    tips_a, tips_b = [], []
    for _ in range(triangles):
        a, b = next_id + 1, next_id + 2
        next_id += 2
        edges += [(length, a), (a, b), (b, length)]
        tips_a.append(a)
        tips_b.append(b)
    rng.shuffle(tips_b)
    pairs = []
    for a, b in zip(tips_a, tips_b):
        edges += [(a, next_id + 1), (b, next_id + 2)]
        pairs.append((next_id + 1, next_id + 2))
        next_id += 2
    stops = sorted(rng.sample(range(1, length), 2 * cycle_pairs))
    for i in range(cycle_pairs):
        u, v = stops[2 * i], stops[2 * i + 1]
        edges += [(u, next_id + 1), (v, next_id + 2)]
        pairs.append((next_id + 1, next_id + 2))
        next_id += 2
    return _instance(next_id, edges, pairs)


# --- grids ----------------------------------------------------------------


def _grid(w: int, h: int) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    for r in range(h):
        for c in range(w):
            v = r * w + c + 1
            if c + 1 < w:
                edges.append((v, v + 1))
            if r + 1 < h:
                edges.append((v, v + w))
    return w * h, edges


def _planted_paths(n: int, edges: list[tuple[int, int]], k: int, min_len: int, rng: random.Random):
    """Endpoints of k edge-disjoint, vertex-simple random walks of at least
    `min_len` edges; the walks themselves are the yes-certificate."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, n + 1)}
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    used: set[int] = set()
    ends = []
    while len(ends) < k:
        start = rng.randint(1, n)
        walk, seen, taken = [start], {start}, []
        target = rng.randint(min_len, 2 * min_len)
        while len(taken) < target:
            options = [(w, e) for w, e in adj[walk[-1]] if e not in used and w not in seen]
            if not options:
                break
            w, e = rng.choice(options)
            walk.append(w)
            seen.add(w)
            taken.append(e)
        if len(taken) >= min_len:
            used.update(taken)
            ends.append((walk[0], walk[-1]))
    return ends


def grid_yes(w: int, h: int, k: int, rng: random.Random, on_vertex: int = 0) -> Case:
    """Planted routing; terminals are pendant leaves except `on_vertex`
    endpoints, which are the grid vertices themselves."""
    n, edges = _grid(w, h)
    ends = _planted_paths(n, edges, k, min_len=max(2, (w + h) // 3), rng=rng)
    flat = [v for pair in ends for v in pair]
    keep = set(rng.sample(range(len(flat)), on_vertex))
    terms = []
    for i, v in enumerate(flat):
        if i in keep:
            terms.append(v)
        else:
            n += 1
            edges.append((v, n))
            terms.append(n)
    pairs = [(terms[2 * i], terms[2 * i + 1]) for i in range(k)]
    tag = f"grid{w}x{h}-k{k}-yes" + (f"-v{on_vertex}" if on_vertex else "")
    return Case(tag, _instance(n, edges, pairs), "yes", vertex_terminals=on_vertex > 0)


def grid_no(w: int, h: int, k: int, rng: random.Random, on_vertex: bool = False) -> Case:
    """A porch vertex hangs off the grid by one edge and holds the source
    of two pairs whose sinks are elsewhere: two demands cross a one-edge
    cut.  Remaining pairs are planted.  Terminals are pendant leaves, or
    with `on_vertex` the porch and grid vertices themselves."""
    n, edges = _grid(w, h)
    planted = _planted_paths(n, edges, k - 2, min_len=max(2, (w + h) // 3), rng=rng)
    door, t1, t2 = rng.sample(range(1, n + 1), 3)
    porch = n + 1
    edges.append((door, porch))
    n = porch
    if on_vertex:
        return Case(
            f"grid{w}x{h}-k{k}-no-v",
            _instance(n, edges, [(porch, t1), (porch, t2), *planted]),
            "no",
            vertex_terminals=True,
        )
    pairs = []
    for a, b in [(porch, t1), (porch, t2), *planted]:
        edges += [(a, n + 1), (b, n + 2)]
        pairs.append((n + 1, n + 2))
        n += 2
    return Case(f"grid{w}x{h}-k{k}-no", _instance(n, edges, pairs), "no")


def column_pairs_yes(w: int, h: int, rng: random.Random) -> Case:
    """Two pairs of pendant leaves, each on one grid column with the source
    below the sink, in different columns: the straight vertical segments
    are the routing."""
    n, edges = _grid(w, h)
    pairs = []
    for col in rng.sample(range(w), 2):
        top = rng.randrange(h - 2)
        bottom = rng.randint(top + 2, min(h - 1, top + h // 2))
        for row in (bottom, top):
            n += 1
            edges.append((row * w + col + 1, n))
        pairs.append((n - 1, n))
    return Case(f"grid{w}x{h}-cols-yes", _instance(n, edges, pairs), "yes")


# Three-demand bases on K4 for `medp_to_edp`: (demand pairs, counts) ->
# verdict of the multi-demand instance, recorded once with
# `edpkit.oracle.brute_force_multi` (rechecked by the self-tests).  The
# reduction preserves the verdict.
K4_EDGES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
MEDP_BASES: dict[tuple[tuple[tuple[int, int], ...], tuple[int, int, int]], str] = {
    (((1, 2), (3, 4), (1, 3)), (1, 1, 1)): "yes",
    (((1, 2), (3, 4), (1, 3)), (2, 1, 1)): "yes",
    (((1, 2), (3, 4), (1, 3)), (1, 2, 1)): "yes",
    (((1, 2), (3, 4), (1, 3)), (2, 2, 1)): "no",
    (((1, 2), (3, 4), (1, 3)), (3, 1, 1)): "no",
    (((1, 2), (3, 4), (1, 3)), (2, 2, 2)): "no",
    (((1, 2), (1, 3), (1, 4)), (1, 1, 1)): "yes",
    (((1, 2), (1, 3), (1, 4)), (2, 1, 1)): "no",
    (((1, 2), (1, 3), (1, 4)), (2, 2, 2)): "no",
    (((1, 2), (2, 3), (3, 4)), (1, 1, 1)): "yes",
    (((1, 2), (2, 3), (3, 4)), (2, 1, 1)): "yes",
    (((1, 2), (2, 3), (3, 4)), (1, 2, 1)): "yes",
    (((1, 2), (2, 3), (3, 4)), (2, 2, 1)): "no",
    (((1, 2), (2, 3), (3, 4)), (3, 1, 1)): "no",
}


def medp_case(demands: tuple[tuple[int, int], ...], counts: tuple[int, int, int]) -> Case:
    base = MultiDemandInstance(
        Multigraph(4, K4_EDGES), tuple((s, t, c) for (s, t), c in zip(demands, counts))
    )
    # Called through its module, so that the traced run's wrapper sees it.
    inst, _ = reductions.medp_to_edp(base)
    tag = "medp-k4-" + "-".join(f"{s}{t}x{c}" for (s, t), c in zip(demands, counts))
    return Case(tag, inst, MEDP_BASES[demands, counts])


# --- fracture-hubs: planted modulator --------------------------------------

HUBS = (1, 2, 3, 4)
_HUB_PAIRS = tuple((a, b) for i, a in enumerate(HUBS) for b in HUBS[i + 1 :])


def _routes(a: int, b: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Simple a-b paths in the complete graph on the hubs, as hub pairs."""
    out = []
    others = [h for h in HUBS if h not in (a, b)]
    for r in range(len(others) + 1):
        for mid in permutations(others, r):
            walk = (a, *mid, b)
            out.append(tuple(tuple(sorted(p)) for p in zip(walk, walk[1:])))
    return tuple(out)


def hub_routing_feasible(supply: dict[tuple[int, int], int], demand: dict[tuple[int, int], int]) -> bool:
    """Exact: can every hub-to-hub demand be routed over edge-disjoint
    supply chains?  Chains between hubs act as parallel edges of a
    multigraph on the hubs; simple paths there have at most 3 edges."""
    classes = sorted((p, d) for p, d in demand.items() if d)

    @lru_cache(maxsize=None)
    def place(i: int, units: int, route_from: int, caps: tuple[int, ...]) -> bool:
        if i == len(classes):
            return True
        (a, b), d = classes[i]
        if units == d:
            return place(i + 1, 0, 0, caps)
        routes = _routes(a, b)
        for r in range(route_from, len(routes)):
            idx = [_HUB_PAIRS.index(p) for p in routes[r]]
            if all(caps[j] > 0 for j in idx):
                nxt = list(caps)
                for j in idx:
                    nxt[j] -= 1
                if place(i, units + 1, r, tuple(nxt)):
                    return True
        return False

    return place(0, 0, 0, tuple(supply.get(p, 0) for p in _HUB_PAIRS))


def fracture_hubs(terminal_comps: int, supply_comps: int, want: str, rng: random.Random) -> Case:
    """Hubs 1..4 form a fracture modulator of the augmented graph.  Terminal
    components: leaves s, t on vertices a, b, each attached to one hub; a
    quarter of them link a-b by an edge, a quarter attach a and b to the
    same hub, the rest to two random hubs.  Supply components: chains of
    1-3 vertices between two hubs.  The verdict is decided exactly on the
    hub multigraph (see hub_routing_feasible); rejection sampling matches
    `want`."""
    linked = terminal_comps // 4
    local = terminal_comps // 4
    while True:
        edges: list[tuple[int, int]] = []
        pairs: list[tuple[int, int]] = []
        n = len(HUBS)
        supply: dict[tuple[int, int], int] = {}
        demand: dict[tuple[int, int], int] = {}
        chains = [(1, 2), (1, 2), (3, 4), (3, 4)]  # two disjoint cycles: no fvs-1
        chains += [tuple(rng.sample(HUBS, 2)) for _ in range(supply_comps - len(chains))]
        for u, v in chains:
            length = rng.randint(1, 3)
            walk = [u, *range(n + 1, n + 1 + length), v]
            n += length
            edges.extend(zip(walk, walk[1:]))
            key = tuple(sorted((u, v)))
            supply[key] = supply.get(key, 0) + 1
        for i in range(terminal_comps):
            a, b, s, t = n + 1, n + 2, n + 3, n + 4
            n += 4
            if linked <= i < linked + local:
                ha = hb = rng.choice(HUBS)
            else:
                ha, hb = rng.sample(HUBS, 2)
            edges += [(a, ha), (b, hb), (s, a), (t, b)]
            if i < linked:
                edges.append((a, b))
            elif ha != hb:
                key = tuple(sorted((ha, hb)))
                demand[key] = demand.get(key, 0) + 1
            pairs.append((s, t))
        verdict = "yes" if hub_routing_feasible(supply, demand) else "no"
        if verdict == want:
            tag = f"hubs-t{terminal_comps}-s{supply_comps}-{want}"
            return Case(tag, _instance(n, edges, pairs), want)


# --- corpora --------------------------------------------------------------

def _fvs1_forest(rng: random.Random, fixed: random.Random) -> list[Case]:
    cases = [
        Case("star_of_paths-1e4-1000", star_of_paths(10**4, 1000), "yes",
             baseline="sedp, star_of_paths(1e4, 1000)"),
        Case("star_of_paths-2e4-2000", star_of_paths(2 * 10**4, 2000), "yes",
             baseline="sedp, star_of_paths(2e4, 2000)"),
        Case("cycle-triangles-1k", cycle_with_triangles(1000, 50, 10, fixed), "yes",
             baseline="find_fvs_one, cycle plus triangles, n = 1k"),
        Case("cycle-triangles-2k", cycle_with_triangles(2000, 100, 10, fixed), "yes",
             baseline="find_fvs_one, cycle plus triangles, n = 2k"),
    ]
    # Two larger fixed hubs keep the five cases above the tail fixed.
    cases.append(Case("hub-8000-1500-yes-fixed", hub_cycles_yes(8000, 1500, fixed), "yes"))
    cases.append(Case("hub-8000-1500-no-fixed", hub_cycles_no(8000, 1500, fixed), "no"))
    for _ in range(5):
        cases.append(Case("hub-5000-1000-yes", hub_cycles_yes(5000, 1000, rng), "yes"))
        cases.append(Case("hub-5000-1000-no", hub_cycles_no(5000, 1000, rng), "no"))
    return cases


def _twdp_grid(rng: random.Random, fixed: random.Random) -> list[Case]:
    named = grid_yes(5, 5, 3, fixed)
    cases = [Case("grid5x5-k3-yes-fixed", named.inst, "yes", baseline="twdp, 5x5 grid, 3 pairs")]
    # The fixed cases carry the cost and hold the median and the tail:
    # seven cases of about 0.04 s lie below the three of about 0.08 s
    # around the median; DP cost varies widely with where terminals sit.
    for w, h, k in [(4, 4, 2), (4, 4, 3), (4, 5, 2), (4, 5, 3), (4, 6, 2), (4, 6, 3)]:
        case = grid_yes(w, h, k, fixed)
        cases.append(Case(case.name + "-fixed", case.inst, "yes"))
    for w, h, k in [(4, 5, 2), (4, 6, 3), (5, 5, 2)]:
        case = grid_no(w, h, k, fixed)
        cases.append(Case(case.name + "-fixed", case.inst, "no"))
    cases += [grid_yes(4, 4, 2, rng), grid_no(4, 4, 3, rng), grid_no(4, 5, 2, rng)]
    # Terminals written on grid vertices, as users write them.
    for w, h, k in [(4, 5, 2), (5, 5, 2)]:
        cases.append(grid_yes(w, h, k, rng, on_vertex=2 * k))
    for w, h, k in [(4, 5, 2), (4, 6, 3)]:
        cases.append(grid_no(w, h, k, rng, on_vertex=True))
    return cases


def _fracture_hubs(rng: random.Random, fixed: random.Random) -> list[Case]:
    cases = [fracture_hubs(12, 12, "yes" if i % 2 == 0 else "no", rng) for i in range(30)]
    # Larger instances, the same in every seed: the selector program's
    # cost is heavy-tailed across them.
    for j in range(6):
        stream = random.Random(f"fracture-hubs:fixed:{j}")
        for want in ("yes", "no"):
            heavy = fracture_hubs(26, 26, want, stream)
            cases.append(Case(f"{heavy.name}-fixed{j}", heavy.inst, want))
    return cases


def _fallback_grid(rng: random.Random, fixed: random.Random) -> list[Case]:
    named = column_pairs_yes(30, 30, fixed)
    cases = [Case("grid30x30-cols-yes-fixed", named.inst, "yes", baseline="auto, 30x30 grid, 2 pairs")]
    for case in [column_pairs_yes(20, 20, fixed), grid_no(15, 15, 2, fixed)]:
        cases.append(Case(case.name + "-fixed", case.inst, case.expected))
    cases += [column_pairs_yes(15, 15, rng), column_pairs_yes(15, 15, rng), grid_no(15, 15, 2, rng)]
    cases += [medp_case(demands, counts) for demands, counts in MEDP_BASES]
    return cases


_CORPORA = {
    "fvs1-forest": _fvs1_forest,
    "twdp-grid": _twdp_grid,
    "fracture-hubs": _fracture_hubs,
    "fallback-grid": _fallback_grid,
}
WORKLOADS = tuple(_CORPORA)


def build(workload: str, seed: int) -> list[Case]:
    """The corpus of one workload, in the order one pass runs it.  Cases
    marked "fixed" and baseline cases come from a seed-independent stream."""
    rng = random.Random(f"{workload}:{seed}")
    cases = _CORPORA[workload](rng, random.Random(f"{workload}:fixed"))
    rng.shuffle(cases)
    return cases
