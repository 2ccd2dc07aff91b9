"""Exhaustive reference solvers, used to validate the real solvers.

These are deliberately simple backtracking searches with deterministic
exploration order (lowest edge index first).  They are meant for small
instances; a node budget turns runaway searches into an explicit
"budget exceeded" outcome instead of a wrong answer.  `_route_all`, the
search behind them, is edpkit's one search for edge-disjoint paths: it
also decides the configurations of `fracture`'s components, which are
small multigraphs, without a budget.
"""

from __future__ import annotations

import sys
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
    chosen: list[tuple[int, ...]] = []
    nodes = 0
    residual = [len(inc) for inc in g._incident]

    # Strip forced chains off the demand endpoints: while an endpoint has a
    # single available edge, every vertex-simple path for the demand must
    # start with it, so it can be consumed up front.  A chain that runs out
    # of edges or into itself proves the demand (hence the instance)
    # infeasible.
    prefix: list[tuple[int, ...]] = []
    suffix: list[tuple[int, ...]] = []
    interior: list[tuple[int, int]] = []

    def forced_step(v: int, as_tail: bool) -> int | None:
        avail = [
            e
            for e in g.incident(v)
            if not used[e]
            and (not directed or g.edges[e][0 if as_tail else 1] == v)
        ]
        return avail[0] if len(avail) == 1 else None

    for s, t in demands:
        pre: list[int] = []
        post: list[int] = []
        seen = {s, t}
        dead = False
        while s != t:
            e = forced_step(s, as_tail=True)
            if e is None:
                break
            w = g.other_end(e, s)
            if w in seen and w != t:
                dead = True
                break
            used[e] = True
            residual[s] -= 1
            residual[w] -= 1
            pre.append(e)
            s = w
            seen.add(w)
        while not dead and s != t:
            e = forced_step(t, as_tail=False)
            if e is None:
                break
            w = g.other_end(e, t)
            if w in seen and w != s:
                dead = True
                break
            used[e] = True
            residual[t] -= 1
            residual[w] -= 1
            post.append(e)
            t = w
            seen.add(w)
        if dead:
            return None
        prefix.append(tuple(pre))
        suffix.append(tuple(reversed(post)))
        interior.append((s, t))
    symmetric = [
        i > 0 and interior[i] == interior[i - 1] for i in range(len(interior))
    ]

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
                if w == v:
                    continue
                if residual[w] >= 2 or endpoint_need[w] > 0:
                    live += 1
                    if live >= need:
                        break
            if live < need:
                return False
        return True

    def route(i: int) -> bool:
        nonlocal nodes
        if i == len(demands):
            return True
        s, t = interior[i]
        if not symmetric[i] and not blocks_viable():
            return False
        floor: tuple[int, ...] | None = None
        if symmetric[i]:
            floor = tuple(gmin[e] for e in chosen[-1])
        if s == t:
            chosen.append(())
            if route(i + 1):
                return True
            chosen.pop()
            return False
        on_path = [False] * (g.n + 1)
        walk: list[int] = []

        def extend(at: int, tied: bool) -> bool:
            # `tied` means the walk matches the floor class-sequence so far,
            # in which case the next edge may not drop below the floor's
            # next class.
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded
            if at == t and walk:
                # A vertex-simple path ends the first time it reaches t.
                if tied and floor is not None and len(walk) < len(floor):
                    return False
                chosen.append(tuple(walk))
                if route(i + 1):
                    return True
                chosen.pop()
                return False
            on_path[at] = True
            for e in g.incident(at):  # increasing edge index already
                if not usable(e, at):
                    continue
                next_tied = tied
                if tied and floor is not None:
                    bound = floor[len(walk)] if len(walk) < len(floor) else -1
                    if gmin[e] < bound:
                        continue
                    next_tied = gmin[e] == bound
                w = g.other_end(e, at)
                if on_path[w]:
                    continue
                feasible = consume(e)
                if feasible:
                    walk.append(e)
                    if extend(w, next_tied):
                        return True
                    walk.pop()
                release(e)
            on_path[at] = False
            return False

        # The current path provides its own charges; only later demands
        # stay charged during its routing.
        for v, amount in charges[i]:
            endpoint_need[v] -= amount
        try:
            if extend(s, floor is not None):
                return True
        finally:
            del extend  # extend reaches itself through its own cell
        for v, amount in charges[i]:
            endpoint_need[v] += amount
        return False

    # The search recurses once per path edge; the limit is restored so that
    # one large instance does not change it for the rest of the process.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000 + 10 * (g.m + len(demands))))
    try:
        found = route(0)
    finally:
        sys.setrecursionlimit(old_limit)
        # route reaches itself through its own cell; dropping the name
        # frees the closures by reference counting, with no cycle left.
        del route
    if found:
        return [prefix[i] + chosen[i] + suffix[i] for i in range(len(demands))]
    return None


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
    # Counting precheck: n_i edge-disjoint paths leave s_i over distinct
    # incident edges (arcs when directed), so aggregated endpoint demand at
    # a vertex may not exceed its capacity.
    g = inst.g
    if g.directed:
        if any(g.out_degree(v) < need for v, need in out_need.items()):
            return SolveResult("no")
        if any(g.in_degree(v) < need for v, need in in_need.items()):
            return SolveResult("no")
    else:
        for v in set(out_need) | set(in_need):
            if g.degree(v) < out_need.get(v, 0) + in_need.get(v, 0):
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
