"""Exhaustive reference solvers, used to validate the real solvers.

These are deliberately simple backtracking searches with deterministic
exploration order (lowest edge index first).  They are meant for small
instances; a node budget turns runaway searches into an explicit
"budget exceeded" outcome instead of a wrong answer.  `_route_all`, the
search behind them, is edpkit's one search for edge-disjoint paths: it
also decides the configurations of `fracture`'s components, which are
small multigraphs, without a budget.  It routes the demands in order,
each by a generator of its paths that walks an explicit stack, so the
search does not recurse and a path of any length fits in it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

from edpkit.graph import Multigraph, components_excluding
from edpkit.instance import EdpInstance, MultiDemandInstance, PathSet, SolveResult, certify

DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    pass


def _route_all(
    g: Multigraph,
    demands: list[tuple[int, int]],
    budget: float,
    directed: bool,
) -> list[tuple[int, ...]] | None:
    """Backtracking search for edge-disjoint vertex-simple paths, one per
    demand, routed in order.  Raises BudgetExceeded when the node budget
    runs out; a budget of math.inf never runs out.

    Each demand has a generator that yields its paths one at a time, lowest
    edge index first, from an explicit stack of (vertex, incidence
    iterator, tied) frames; a yielded path keeps its edges used until the
    generator is resumed.  A stack of these generators backtracks across
    demands: when a demand's paths run out, the search resumes the demand
    before it.  Every vertex a path enters is one search node.

    Exact prunings, none of which can change the verdict:
      - degree-one endpoints are stripped up front (their single edge is
        forced), so demands whose remaining interior endpoints coincide
        become interchangeable;
      - consecutive identical interior demands are required to come in
        non-decreasing order of their parallel-class sequences;
      - among parallel copies of an edge only the lowest unused one may be
        taken;
      - every unrouted demand keeps per-vertex edge charges (an endpoint
        needs an edge; a still-attached degree-one endpoint forces two at
        its neighbor), and consuming an edge below a vertex's outstanding
        charge cuts the branch.
    """
    used = [False] * g.m
    nodes = 0
    residual = [len(inc) for inc in g._incident]

    def strip(end: int, goal: int, as_tail: bool, seen: set[int]) -> tuple[int | None, list[int]]:
        """Consume the forced chain off `end`: while it has a single
        available edge, every vertex-simple path for the demand must use
        it.  Returns the new end and the chain, or None for the end when
        the chain runs into the path's own vertices, which proves the
        demand (hence the instance) infeasible."""
        chain: list[int] = []
        while end != goal:
            avail = [
                e
                for e in g.incident(end)
                if not used[e]
                and (not directed or g.edges[e][0 if as_tail else 1] == end)
            ]
            if len(avail) != 1:
                break
            e = avail[0]
            w = g.other_end(e, end)
            if w in seen and w != goal:
                return None, chain
            used[e] = True
            residual[end] -= 1
            residual[w] -= 1
            chain.append(e)
            end = w
            seen.add(w)
        return end, chain

    prefix: list[tuple[int, ...]] = []
    suffix: list[tuple[int, ...]] = []
    interior: list[tuple[int, int]] = []
    for s, t in demands:
        seen = {s, t}
        s, pre = strip(s, t, True, seen)
        if s is None:
            return None
        t, post = strip(t, s, False, seen)
        if t is None:
            return None
        prefix.append(tuple(pre))
        suffix.append(tuple(reversed(post)))
        interior.append((s, t))

    # Remaining per-vertex edge charges: lower bounds on the edges every
    # unrouted demand must still consume at a vertex.
    endpoint_need = [0] * (g.n + 1)
    charges: list[tuple[tuple[int, int], ...]] = []

    def demand_charges(s: int, t: int) -> tuple[tuple[int, int], ...]:
        if s == t:
            return ()
        out = [(s, 1), (t, 1)]
        nbr_s = g.other_end(g.incident(s)[0], s) if g.degree(s) == 1 else None
        nbr_t = g.other_end(g.incident(t)[0], t) if g.degree(t) == 1 else None
        if nbr_s is not None and nbr_t is not None and nbr_s == nbr_t:
            out.append((nbr_s, 2))  # forced two-edge hop through the neighbor
        else:
            if nbr_s is not None and nbr_s != t:
                out.append((nbr_s, 2))
            if nbr_t is not None and nbr_t != s:
                out.append((nbr_t, 2))
        return tuple(out)

    for s, t in interior:
        charge = demand_charges(s, t)
        charges.append(charge)
        for v, amount in charge:
            endpoint_need[v] += amount

    # Each edge's parallel class, shared by all its members and filled in
    # one pass over the edges.
    groups: dict[tuple[int, int], list[int]] = {}
    parallel_group: list[list[int]] = []
    for idx, (u, v) in enumerate(g.edges):
        twins = groups.setdefault((u, v) if directed or u < v else (v, u), [])
        twins.append(idx)
        parallel_group.append(twins)
    # Interchangeable-path ordering compares parallel classes, not raw edge
    # ids, so it composes with the lowest-twin-first rule.
    gmin = [parallel_group[e][0] for e in range(g.m)]

    def usable(e: int, at: int) -> bool:
        if used[e]:
            return False
        if directed and g.edges[e][0] != at:
            return False
        for twin in parallel_group[e]:
            if twin == e:
                break
            if not used[twin]:
                return False  # interchangeable parallel copies, lowest first
        return True

    def consume(e: int) -> bool:
        """Mark e used; False when a vertex can no longer serve the path
        endpoints still charged to it."""
        used[e] = True
        u, v = g.edges[e]
        residual[u] -= 1
        residual[v] -= 1
        return residual[u] >= endpoint_need[u] and residual[v] >= endpoint_need[v]

    def release(e: int) -> None:
        used[e] = False
        u, v = g.edges[e]
        residual[u] += 1
        residual[v] += 1

    for v in range(1, g.n + 1):
        if residual[v] < endpoint_need[v]:
            return None

    needy = sorted({v for v, _ in (c for ch in charges for c in ch)})

    def blocks_viable() -> bool:
        """Every vertex still charged with endpoint uses must have that many
        live unused edges; an edge is live when its far end can pass a path
        on (two residual edges) or absorb an endpoint."""
        for v in needy:
            need = endpoint_need[v]
            if need <= 0:
                continue
            live = 0
            for e in g.incident(v):
                if used[e]:
                    continue
                w = g.other_end(e, v)
                if residual[w] >= 2 or endpoint_need[w] > 0:
                    live += 1
                    if live >= need:
                        break
            if live < need:
                return False
        return True

    def enter() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded

    def paths(i: int, floor: tuple[int, ...] | None) -> Iterator[tuple[int, ...]]:
        """Demand i's paths, each yielded with its edges used.  With a
        floor (the previous, identical demand's class sequence), a path
        whose class sequence is below it is skipped; `tied` marks a walk
        that matches the floor so far, so its next edge may not drop below
        the floor's next class."""
        s, t = interior[i]
        if floor is None and not blocks_viable():
            return
        if s == t:
            yield ()
            return
        # The current path provides its own charges; only later demands
        # stay charged during its routing.
        for v, amount in charges[i]:
            endpoint_need[v] -= amount
        enter()
        on_path = [False] * (g.n + 1)
        on_path[s] = True
        walk: list[int] = []
        stack = [(s, iter(g.incident(s)), floor is not None)]
        while stack:
            at, edges, tied = stack[-1]
            for e in edges:  # increasing edge index already
                if not usable(e, at):
                    continue
                next_tied = tied
                if tied:
                    bound = floor[len(walk)] if len(walk) < len(floor) else -1
                    if gmin[e] < bound:
                        continue
                    next_tied = gmin[e] == bound
                w = g.other_end(e, at)
                if on_path[w]:
                    continue
                if not consume(e):
                    release(e)
                    continue
                walk.append(e)
                enter()
                if w != t:
                    on_path[w] = True
                    stack.append((w, iter(g.incident(w)), next_tied))
                    break
                # A vertex-simple path ends the first time it reaches t.
                if not (next_tied and len(walk) < len(floor)):
                    yield tuple(walk)
                walk.pop()
                release(e)
            else:  # every edge at `at` tried: back up one edge
                stack.pop()
                on_path[at] = False
                if walk:
                    release(walk.pop())
        for v, amount in charges[i]:
            endpoint_need[v] += amount

    chosen: list[tuple[int, ...]] = []
    searches: list[Iterator[tuple[int, ...]]] = []
    while len(chosen) < len(demands):
        if len(searches) == len(chosen):
            i = len(chosen)
            twin = i > 0 and interior[i] == interior[i - 1]
            searches.append(paths(i, tuple(gmin[e] for e in chosen[-1]) if twin else None))
        path = next(searches[-1], None)
        if path is not None:
            chosen.append(path)
        elif chosen:
            searches.pop()
            chosen.pop()
        else:
            return None
    return [prefix[i] + chosen[i] + suffix[i] for i in range(len(demands))]


def brute_force_edp(inst: EdpInstance, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exact EDP decision by backtracking; yes answers carry a verified PathSet."""
    demands = [(p.s, p.t) for p in inst.pairs]
    try:
        paths = _route_all(inst.g, demands, budget, directed=False)
    except BudgetExceeded:
        return SolveResult("budget")
    if paths is None:
        return SolveResult("no")
    return SolveResult("yes", certify("brute", inst, paths))


def brute_force_multi(inst: MultiDemandInstance, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exact multi-demand decision; multiplicities expand into single demands.

    Arc direction is respected when the graph is directed.  On "yes" the
    result's PathSet holds one path (a tuple of edge indices) per expanded
    demand, in triple order; the paths are not certified, since the demands
    are not the pairs of an EdpInstance.
    """
    demands: list[tuple[int, int]] = []
    out_need: dict[int, int] = {}
    in_need: dict[int, int] = {}
    for s, t, n in inst.triples:
        if s != t:
            out_need[s] = out_need.get(s, 0) + n
            in_need[t] = in_need.get(t, 0) + n
        demands.extend((s, t) for _ in range(n))
    # Counting precheck for directed instances only: n_i arc-disjoint paths
    # leave s_i over distinct out-arcs and enter t_i over distinct in-arcs.
    # The search's edge charges count a vertex's arcs in both directions,
    # so they miss this; on undirected instances they refute an endpoint
    # of too low degree before the first search node.
    g = inst.g
    if g.directed:
        if any(g.out_degree(v) < need for v, need in out_need.items()):
            return SolveResult("no")
        if any(g.in_degree(v) < need for v, need in in_need.items()):
            return SolveResult("no")
    try:
        paths = _route_all(inst.g, demands, budget, directed=inst.g.directed)
    except BudgetExceeded:
        return SolveResult("budget")
    if paths is None:
        return SolveResult("no")
    return SolveResult("yes", PathSet(tuple(paths)))


def fracture_modulator_valid(g: Multigraph, x: set[int] | frozenset[int]) -> bool:
    """Definition test: every component of g - x has at most |x| vertices."""
    return all(len(c) <= len(x) for c in components_excluding(g, x))


def exhaustive_fracture_number(g: Multigraph, kmax: int) -> int | None:
    """Smallest k <= kmax admitting a fracture modulator of size k, else None.

    Checks every vertex subset of each size in increasing order, so it is
    only usable for small graphs; this is the ground truth the branching
    search is validated against.
    """
    vertices = list(range(1, g.n + 1))
    for k in range(0, kmax + 1):
        if k > g.n:
            break
        for x in combinations(vertices, k):
            if fracture_modulator_valid(g, set(x)):
                return k
    return None
