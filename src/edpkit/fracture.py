"""FPT EDP solver parameterized by the fracture number of the augmented graph.

Pipeline: find a least fracture modulator X of the augmented graph (every
component of G^P - X has at most |X| vertices), make it terminal-free (an
equally small search that avoids the terminals, else exchanging each
terminal for its pair's neighbours, which at most doubles |X|; only a
normal form with a single non-terminal has no terminal-free modulator, and
there every pair is joined through that one vertex), find for every
component the set of configurations it admits (its signature), and decide
with an integer feasibility program whether one configuration per component
can be selected so that, between every two modulator vertices, the demanded
crossings are covered by the supplied connecting paths.  The program
also holds one row per cut of the modulator, the sum of the rows of the
pairs across it, so the search sees that a pair with ends on both sides
of a cut must cross it; each class's least crossing is moved into the
row's bound, so a cut that more pairs must cross than paths join is
refuted before any variable is set.  These rows are implied by the
others and change no answer.  The paper may assume the modulator
independent, as subdividing every edge between two modulator vertices
would make it; here no edge is subdivided, and each such edge is
counted as one more supplied path between its ends.  Every
step runs on the normal form of the instance.  A component has at most |X|
vertices, so the configurations it admits are decided inside it: each
candidate routing of its pairs and supply of modulator-to-modulator paths
is one call of the path search `oracle._route_all` on the multigraph of the
component and the modulator vertices next to it.  That set depends only on
the component's shape (that multigraph and its pairs' ends) and k, so one
solve decides each shape once and reuses it for every component of that
shape.  Only the configuration selected for a component gets a witness,
whose paths become explicit edge-disjoint paths of the instance.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations, permutations, product

from edpkit.graph import Multigraph, components_excluding
from edpkit.ilp import IntegerProgram, solve_feasibility
from edpkit.instance import (
    EdpInstance,
    SolveResult,
    augmented_graph,
    certify,
    normalize_instance,
)
from edpkit.oracle import _route_all, fracture_modulator_valid


@dataclass(frozen=True)
class FractureModulator:
    vertices: frozenset[int]

    @property
    def k(self) -> int:
        return len(self.vertices)


def _dfs_collect(g: Multigraph, start: int, limit: int, removed: set[int]) -> list[int]:
    """First `limit` vertices of a deterministic DFS inside one component.

    Fewer than `limit` vertices come back only when the component of g -
    removed holding `start` is that small, and then it is all of them.
    """
    out = [start]
    seen = {start}
    stack = [start]
    edges, incident = g.edges, g._incident
    while stack and len(out) < limit:
        v = stack.pop()
        # Incidence lists are in increasing edge-index order already.
        for e in incident[v]:
            a, b = edges[e]
            w = b if a == v else a
            if w in seen or w in removed:
                continue
            seen.add(w)
            out.append(w)
            stack.append(w)
            if len(out) >= limit:
                break
    return out


def pack_connected_sets(g: Multigraph, size: int, removed: set[int], limit: int) -> list[list[int]]:
    """Greedy packing of vertex-disjoint connected `size`-vertex sets of
    g - removed, stopping once `limit` sets are found.

    Each set is the _dfs_collect region from the lowest vertex not yet
    used; a region that falls short is a whole component of what is left
    and is set aside.  The first set is therefore the region that the
    branching search collects in the oversized component of lowest id, and
    no set at all means that every component has fewer than `size`
    vertices.  Any vertex set whose removal leaves components below `size`
    hits every packed set, so more than j sets refute a modulator of size j.
    """
    blocked = set(removed)
    sets: list[list[int]] = []
    for v in range(1, g.n + 1):
        if v in blocked:
            continue
        region = _dfs_collect(g, v, size, blocked)
        blocked.update(region)
        if len(region) == size:
            sets.append(region)
            if len(sets) >= limit:
                break
    return sets


def _pad_to_valid(g: Multigraph, x: set[int], forbidden: frozenset[int]) -> set[int] | None:
    """Grow x with smallest allowed vertices until the component-size test
    of the definition holds (components of g - x at most |x| vertices);
    None when the allowed vertices run out first."""
    x = set(x)
    while not fracture_modulator_valid(g, x):
        candidates = [v for v in range(1, g.n + 1) if v not in x and v not in forbidden]
        if not candidates:
            return None
        x.add(candidates[0])
    return x


def _branch(
    g: Multigraph, size: int, forbidden: frozenset[int], removed: set[int], budget: int
) -> set[int] | None:
    """At most `budget` more allowed vertices whose removal, with `removed`,
    leaves every component below `size` vertices; None when there are none.
    Branches on the vertices of the first packed set, lowest first."""
    # Every modulator hits each packed set, so more than `budget` of them
    # refute this branch before it is expanded.
    packed = pack_connected_sets(g, size, removed, budget + 1)
    if not packed:
        return set()
    if len(packed) > budget:
        return None
    for v in sorted(packed[0]):
        if v in forbidden:
            continue
        sub = _branch(g, size, forbidden, removed | {v}, budget - 1)
        if sub is not None:
            return {v} | sub
    return None


def find_fracture_modulator(
    g: Multigraph,
    k: int,
    mode: str = "exact",
    forbidden: frozenset[int] = frozenset(),
) -> FractureModulator | None:
    """A fracture modulator of g, or None when none of size <= k exists.

    exact: branching on a connected set of k+1 vertices of any oversized
    component (every modulator must hit it); the verdict None is exact.
    Each branch node first packs disjoint connected sets of k+1 vertices
    and gives up when more of them fit than deletions remain, so a graph
    far from any small modulator is refuted in one linear pass.
    approx: one greedy packing of disjoint connected sets of k+1 vertices
    (`pack_connected_sets`) instead of branching.  More than k sets refute
    every modulator of size <= k, so None is then exact; otherwise the
    union of the sets, at most (k+1)k vertices, leaves every component
    below k+1 vertices.  `forbidden` vertices (exact mode only) are never
    picked, and None then means that no modulator of size <= k avoids them.
    """
    if mode not in ("exact", "approx"):
        raise ValueError(f"unknown mode: {mode}")
    if forbidden and mode != "exact":
        raise ValueError("forbidden vertices need the exact mode")
    if mode == "exact":
        found = _branch(g, k + 1, forbidden, set(), k)
    else:
        packed = pack_connected_sets(g, k + 1, set(), k + 1)
        found = None if len(packed) > k else {v for region in packed for v in region}
    if found is None:
        return None
    padded = _pad_to_valid(g, found, forbidden)
    return None if padded is None else FractureModulator(frozenset(padded))


def terminal_free_modulator(inst: EdpInstance, x0: FractureModulator) -> FractureModulator | None:
    """Replace every terminal in the modulator by the graph-neighbors of its
    pair; the pair then sits in its own two-vertex component.  The result
    avoids all terminals and has at most twice the input size (plus padding
    to the definition's component-size test where the exchange alone falls
    short); None when padding runs out of non-terminals."""
    if not inst.normalized:
        raise ValueError("terminal_free_modulator expects a normalized instance")
    terminals = inst.terminals
    affected = [p for p in inst.pairs if x0.vertices & set(p.members())]
    x = set(x0.vertices) - terminals
    for p in affected:
        for a in p.members():
            (edge,) = inst.g.incident(a)  # normalized: terminals have degree 1
            x.add(inst.g.other_end(edge, a))
    padded = _pad_to_valid(augmented_graph(inst), x, frozenset(terminals))
    if padded is None:
        return None
    assert not (padded & terminals)
    return FractureModulator(frozenset(padded))


# A trace is a tuple of distinct modulator vertices, length >= 2, stored in
# canonical orientation (lexicographically smaller of the two directions).
Trace = tuple[int, ...]
Config = tuple[tuple[Trace, ...], tuple[tuple[tuple[int, int], int], ...]]


def canonical_trace(seq: tuple[int, ...]) -> Trace:
    rev = tuple(reversed(seq))
    return seq if seq <= rev else rev


@dataclass
class ComponentWitness:
    """One realization of a configuration inside a component."""

    internal: dict[int, tuple[int, ...]]  # pair index -> oriented edges s->t
    halves: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]  # pair -> edges s->anchor, t->anchor
    supply: dict[tuple[int, int], list[tuple[int, ...]]]  # (a<b) -> edges a->b
    trace_of: dict[int, tuple[int, ...]]  # pair -> trace from s-anchor to t-anchor


# A component shape: (n, number of anchors, local edges, local pair ends).
# The component's vertices in sorted order, then its anchors in sorted
# order, are numbered 1..n; edges are in edge-index order, pairs in
# pair-index order.
Shape = tuple[int, int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]
# A routing and supply vector a shape admits, anchors as positions 0..a-1
# and pairs as positions in the shape: (routed pairs, supply, the routing,
# its paths in demand order as local edge indices).
Proto = tuple[tuple, tuple, tuple, list[tuple[int, ...]]]


class SignatureMemo:
    """What one solve learns about its components, decided once per shape.

    The configurations a component admits depend only on its shape and k,
    so the shape's protos are searched once, its configurations are made
    once per set of anchors, and the trace options once per anchor pair.
    A memo belongs to one instance and one modulator: build a fresh one
    for every solve."""

    def __init__(self, inst: EdpInstance, x: FractureModulator):
        self.mod = x.vertices
        self.pairs_at: dict[int, list[int]] = {}
        for j, p in enumerate(inst.pairs):
            for v in p.members():
                self.pairs_at.setdefault(v, []).append(j)
        self.protos: dict[Shape, list[Proto]] = {}
        self.configs: dict[tuple[Shape, tuple[int, ...]], dict[Config, tuple[int, tuple[Trace, ...]]]] = {}
        self.traces: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def trace_options(self, xa: int, xb: int) -> list[tuple[int, ...]]:
        """Every sequence of distinct modulator vertices from xa to xb."""
        opts = self.traces.get((xa, xb))
        if opts is None:
            rest = sorted(self.mod - {xa, xb})
            opts = [(xa, *mid, xb) for r in range(len(rest) + 1) for mid in permutations(rest, r)]
            self.traces[(xa, xb)] = opts
        return opts


class Signature(Mapping[Config, ComponentWitness]):
    """The configurations one component admits, in search order.  Each
    keeps its proto and chosen traces only; looking a configuration up
    builds its witness in the component's own edges and pairs."""

    def __init__(
        self,
        configs: dict[Config, tuple[int, tuple[Trace, ...]]],
        protos: list[Proto],
        edge_ids: list[int],
        pair_indices: list[int],
        anchors: tuple[int, ...],
    ):
        self._configs = configs
        self._protos = protos
        self._edge_ids = edge_ids
        self._pair_indices = pair_indices
        self._anchors = anchors

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self):
        return iter(self._configs)

    def __contains__(self, config: object) -> bool:
        return config in self._configs

    def __getitem__(self, config: Config) -> ComponentWitness:
        proto, chosen = self._configs[config]
        routed, beta, routing, paths = self._protos[proto]
        edge_ids, pair_indices, anchors = self._edge_ids, self._pair_indices, self._anchors
        walks = iter([tuple(edge_ids[e] for e in path) for path in paths])
        internal: dict[int, tuple[int, ...]] = {}
        halves: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for j, hop in zip(pair_indices, routing):
            if hop is None:
                internal[j] = next(walks)
            else:
                halves[j] = (next(walks), next(walks))
        return ComponentWitness(
            internal=internal,
            halves=halves,
            supply={(anchors[a], anchors[b]): [next(walks) for _ in range(c)] for (a, b), c in beta},
            trace_of={pair_indices[i]: trace for (i, _, _), trace in zip(routed, chosen)},
        )


def _paths(g: Multigraph, demands: list[tuple[int, int]]) -> list[tuple[int, ...]] | None:
    """Edge-disjoint paths of g for the demands, in order, or None; an
    empty demand list needs no search.  The budget is unbounded, as the
    configuration set must be exact."""
    return _route_all(g, demands, math.inf, directed=False) if demands else []


def _shape_protos(shape: Shape, k: int) -> list[Proto]:
    """Every routing and supply vector the shape admits, with its paths,
    sorted by (routed pairs, supply).

    A routing joins each pair either inside the shape or through two
    distinct anchors, one per terminal, with at most k pairs routed through
    anchors.  For each routing the supply vector (how many paths join each
    two anchors, at most k^2) is counted up from zero: a vector is tried
    once, from the vector whose last raised count is one lower, and only
    when that vector was realizable, since lowering a count keeps a vector
    realizable.  One `_route_all` call decides each try."""
    n, a, edges, ends = shape
    sub = Multigraph._from_checked(n, edges)
    first = n - a + 1  # the local number of anchor 0
    room = [sub.degree(first + i) for i in range(a)]
    keys = list(combinations(range(a), 2))
    found: dict[tuple, tuple] = {}
    hops = [None, *permutations(range(a), 2)]
    for routing in product(hops, repeat=len(ends)):
        routed = tuple((i, *hop) for i, hop in enumerate(routing) if hop)
        if len(routed) > k:
            continue
        load = [0] * a
        demands: list[tuple[int, int]] = []
        for (s, t), hop in zip(ends, routing):
            if hop is None:
                demands.append((s, t))
            else:
                demands += [(s, first + hop[0]), (t, first + hop[1])]
                load[hop[0]] += 1
                load[hop[1]] += 1
        if any(load[i] > room[i] for i in range(a)):
            continue
        paths = _paths(sub, demands)
        if paths is None:
            continue
        todo = [((0,) * len(keys), 0, load, paths)]
        while todo:
            counts, last, load, paths = todo.pop()
            beta = tuple((key, c) for key, c in zip(keys, counts) if c)
            found[(routed, beta)] = (routing, paths)
            for i in range(last, len(keys)):
                u, v = keys[i]
                if counts[i] == k * k or load[u] == room[u] or load[v] == room[v]:
                    continue
                raised = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
                supply = [(first + u, first + v) for (u, v), c in zip(keys, raised) for _ in range(c)]
                more = _paths(sub, demands + supply)
                if more is not None:
                    grown = list(load)
                    grown[u] += 1
                    grown[v] += 1
                    todo.append((raised, i, grown, more))
    return [(routed, beta, routing, paths) for (routed, beta), (routing, paths) in sorted(found.items())]


def _configurations(
    protos: list[Proto], anchors: tuple[int, ...], memo: SignatureMemo
) -> dict[Config, tuple[int, tuple[Trace, ...]]]:
    """Every configuration of the protos on these anchors, in proto order,
    each with the first proto and traces that give it: every trace choice
    of the routed pairs is expanded."""
    configs: dict[Config, tuple[int, tuple[Trace, ...]]] = {}
    for proto, (routed, beta, _, _) in enumerate(protos):
        supply = tuple(((anchors[a], anchors[b]), c) for (a, b), c in beta)
        options = [memo.trace_options(anchors[xa], anchors[xb]) for _, xa, xb in routed]
        for chosen in product(*options):
            alpha = tuple(sorted(canonical_trace(t) for t in chosen))
            configs.setdefault((alpha, supply), (proto, chosen))
    return configs


def component_signature(
    inst: EdpInstance,
    comp: set[int],
    x: FractureModulator,
    memo: SignatureMemo | None = None,
) -> Signature:
    """The exact set of configurations the component admits, each with one
    witness.

    The search runs on the component's shape: the component and the
    modulator vertices next to it (its anchors), relabelled 1..n, with the
    ends of its pairs (see `_shape_protos`).  A shared `memo`, built for
    this instance and modulator, decides each shape once: components of
    one shape reuse its protos, and of one shape and anchors its
    configurations.  Without a memo the component is decided alone."""
    if memo is None:
        memo = SignatureMemo(inst, x)
    g = inst.g
    edge_ids = sorted({e for v in comp for e in g.incident(v)})
    anchors = tuple(sorted({w for e in edge_ids for w in g.edges[e] if w in memo.mod}))
    local = {v: i for i, v in enumerate([*sorted(comp), *anchors], start=1)}
    pair_indices = sorted({j for v in comp for j in memo.pairs_at.get(v, ())})
    ends = []
    for j in pair_indices:
        p = inst.pairs[j]
        assert p.s in comp and p.t in comp, "pair split across components"
        ends.append((local[p.s], local[p.t]))
    shape = (
        len(local),
        len(anchors),
        tuple((local[u], local[v]) for u, v in (g.edges[e] for e in edge_ids)),
        tuple(ends),
    )
    protos = memo.protos.get(shape)
    if protos is None:
        protos = memo.protos[shape] = _shape_protos(shape, len(memo.mod))
    configs = memo.configs.get((shape, anchors))
    if configs is None:
        configs = memo.configs[(shape, anchors)] = _configurations(protos, anchors, memo)
    return Signature(configs, protos, edge_ids, pair_indices, anchors)


@dataclass
class SelectorProgram:
    """Integer feasibility program choosing one configuration per component."""

    program: IntegerProgram
    variables: list[tuple[str, Config]]  # (signature class key, config)
    class_members: dict[str, list[int]]  # signature class key -> component ids


def _net_demand(config: Config) -> Counter[tuple[int, int]]:
    """Demanded minus supplied crossings of a configuration, keyed by the
    modulator pair (lo, hi)."""
    alpha, beta = config
    net: Counter[tuple[int, int]] = Counter()
    for trace in alpha:
        for u, v in zip(trace, trace[1:]):
            net[(u, v) if u < v else (v, u)] += 1
    for key, count in beta:
        net[key] -= count
    return net


def build_selector_program(
    signatures: list[Signature], x: FractureModulator, direct: Mapping[tuple[int, int], int]
) -> SelectorProgram:
    """Variables per (signature class, configuration); one equality per
    class fixing the number of components served; one inequality per
    modulator 2-subset bounding demanded crossings by supplied paths, then
    one per cut of the modulator.  direct[(a, b)], a < b, counts the graph
    edges a-b: each is a supplied path of its own, so it is the bound of
    that pair's inequality.

    A cut (S, X - S), with the least modulator vertex in S, adds up the
    rows of the pairs across it, bounds included: a pair with ends on both
    sides must cross it, and no single pair row sees that.  Each class's
    variables sum to its count m under its equality, so the cut row then
    subtracts the class's least coefficient mu from each of the class's
    coefficients and mu * m from its bound; the search's interval test
    thus sees each class's least crossing before the class is assigned.
    A sum that is all zero or repeats a pair row is left out.  Cut rows
    are implied by the pair rows and the equalities, so the feasible
    points, and the lexicographically first of them, stay those of the
    pair rows alone."""
    class_members: dict[str, list[int]] = {}
    class_configs: dict[str, list[Config]] = {}
    # Components of one shape and anchors share their configuration dict,
    # so each dict is sorted and keyed once.
    keyed: dict[int, tuple[str, list[Config]]] = {}
    for cid, sig in enumerate(signatures):
        known = keyed.get(id(sig._configs))
        if known is None:
            configs = sorted(sig)
            known = keyed[id(sig._configs)] = (repr(configs), configs)
        key, configs = known
        class_members.setdefault(key, []).append(cid)
        class_configs.setdefault(key, configs)
    variables: list[tuple[str, Config]] = []
    spans: list[tuple[int, int, int]] = []  # (first variable, end, count) per class
    for key in sorted(class_members):
        spans.append((len(variables), len(variables) + len(class_configs[key]), len(class_members[key])))
        variables.extend((key, config) for config in class_configs[key])
    p = len(variables)
    lower = (0,) * p
    upper = tuple(count for start, end, count in spans for _ in range(start, end))
    eq_rows = [((0,) * start + (1,) * (end - start) + (0,) * (p - end), count) for start, end, count in spans]
    mod = sorted(x.vertices)
    pairs = list(combinations(mod, 2))
    # The side S of each cut: mod[0] and fewer than all other vertices.
    cuts = [{mod[0], *rest} for r in range(len(mod) - 1) for rest in combinations(mod[1:], r)]
    # Row r < len(pairs) belongs to pair r, row len(pairs) + c to cut c.
    rows_of = {
        (a, b): [r, *(len(pairs) + c for c, side in enumerate(cuts) if (a in side) != (b in side))]
        for r, (a, b) in enumerate(pairs)
    }
    coeffs = [[0] * p for _ in range(len(pairs) + len(cuts))]
    bounds = [0] * len(coeffs)
    for pair, rows in rows_of.items():
        for r in rows:
            bounds[r] += direct.get(pair, 0)
    # A pair's coefficient is the variable configuration's net demand on
    # it (`_net_demand`), and a cut's the sum of its pairs'; each
    # configuration is read once for all rows.
    for v, (_, cfg) in enumerate(variables):
        for pair, d in _net_demand(cfg).items():
            for r in rows_of[pair]:
                coeffs[r][v] += d
    le_rows = [(tuple(row), bound) for row, bound in zip(coeffs[: len(pairs)], bounds) if any(row)]
    pair_rows = set(le_rows)
    for row, bound in zip(coeffs[len(pairs) :], bounds[len(pairs) :]):
        if not any(row) or (tuple(row), bound) in pair_rows:
            continue
        for start, end, count in spans:
            # A class that admits no configuration has no variables and is
            # not shifted; its equality alone makes the program infeasible.
            least = min(row[start:end], default=0)
            if least:
                row[start:end] = [c - least for c in row[start:end]]
                bound -= least * count
        le_rows.append((tuple(row), bound))
    program = IntegerProgram(lower, upper, tuple(eq_rows), tuple(le_rows))
    return SelectorProgram(program, variables, class_members)


def _least_modulator(aug: Multigraph, bound: int) -> tuple[int, FractureModulator] | None:
    """The least k <= bound for which the exact search finds a modulator
    of aug, with that modulator; None when there is no such k.  A modulator
    of size <= k pads to one of size exactly k, so k is aug's fracture
    number."""
    for k in range(bound + 1):
        x = find_fracture_modulator(aug, k, "exact")
        if x is not None:
            return k, x
    return None


def solve_fracture(inst: EdpInstance, kmax: int) -> SolveResult:
    """Decide the instance via the fracture pipeline; on yes return a
    verified PathSet.  The modulator is the smallest one the exact search
    finds; status "modulator-exceeded" is returned when the augmented graph
    has no fracture modulator of size at most kmax."""
    work = normalize_instance(inst)
    aug = augmented_graph(work)

    least = _least_modulator(aug, kmax)
    if least is None:
        return SolveResult("modulator-exceeded")

    x: FractureModulator | None = least[1]
    terminals = frozenset(work.terminals)
    if x.vertices & terminals:
        # An equally small search that avoids the terminals, else the
        # exchange, which at most doubles the size.
        x = find_fracture_modulator(aug, x.k, "exact", forbidden=terminals) or terminal_free_modulator(work, x)
    if x is None:
        # No terminal-free modulator exists.  In the normal form every
        # terminal is a leaf and no two terminals are adjacent, so deleting
        # all non-terminals N leaves only the pair edges, components of two
        # vertices: a terminal-free modulator exists iff |N| >= 2, and the
        # exchange's padding, which adds non-terminals, fails only then.
        # There is a pair here (x met a terminal) and each terminal has a
        # non-terminal neighbour, so |N| = 1: every terminal hangs off the
        # one non-terminal c, and each pair's path is s-c-t.
        g = work.g
        legs = [(g.incident(p.s)[0], g.incident(p.t)[0]) for p in work.pairs]
        return SolveResult("yes", certify("fracture", inst, legs))

    comps = sorted(components_excluding(aug, x.vertices), key=min)
    memo = SignatureMemo(work, x)
    signatures = [component_signature(work, comp, x, memo) for comp in comps]
    # The edges between two modulator vertices, per pair (a < b).
    direct: dict[tuple[int, int], list[int]] = {}
    for e, (u, v) in enumerate(work.g.edges):
        if u in x.vertices and v in x.vertices:
            direct.setdefault((u, v) if u < v else (v, u), []).append(e)
    selector = build_selector_program(signatures, x, {key: len(edges) for key, edges in direct.items()})
    assignment = solve_feasibility(selector.program)
    if assignment is None:
        return SolveResult("no")

    # Hand the chosen configurations out to components, lowest id first.
    # The variables are grouped by class, so one pass serves every class.
    members = {key: iter(ids) for key, ids in selector.class_members.items()}
    chosen: dict[int, Config] = {}
    for (key, cfg), count in zip(selector.variables, assignment):
        for _ in range(count):
            chosen[next(members[key])] = cfg

    # Build each component's witness of its chosen configuration only, and
    # pool the supply paths of them all.
    witnesses = [sig[chosen[cid]] for cid, sig in enumerate(signatures)]
    pools: dict[tuple[int, int], deque[tuple[int, ...]]] = {}
    for wit in witnesses:
        for key, paths in sorted(wit.supply.items()):
            pools.setdefault(key, deque()).extend(paths)
    # Each edge a-b between two modulator vertices is one more supplied
    # path, pooled after every component's supply, in edge-index order.
    # Subdividing it would give the same: its midpoint, a component of a
    # higher id than any other, admits only "unused" and "one path a-b".
    # "Unused" sorts first, so the selector's lexicographically first point
    # sets it to 0 whenever it can, and extra supply never violates a row,
    # so that point always takes the path.
    for key, edges in direct.items():
        pools.setdefault(key, deque()).extend((e,) for e in edges)

    def take_supply(u: int, v: int) -> tuple[int, ...]:
        key = (u, v) if u < v else (v, u)
        assert pools.get(key), f"supply exhausted for {key}"
        path = pools[key].popleft()
        return path if key[0] == u else tuple(reversed(path))

    walks: dict[int, tuple[int, ...]] = {}
    for wit in witnesses:
        for j, edges in sorted(wit.internal.items()):
            walks[j] = edges
        for j in sorted(wit.trace_of):
            s_edges, t_edges = wit.halves[j]
            trace = wit.trace_of[j]
            parts: list[int] = list(s_edges)
            for u, v in zip(trace, trace[1:]):
                parts.extend(take_supply(u, v))
            parts.extend(reversed(t_edges))
            walks[j] = tuple(parts)

    return SolveResult("yes", certify("fracture", inst, [walks[j] for j in range(len(work.pairs))]))
