"""Multigraph representation and the graph subroutines shared by the solvers.

Vertices are integers 1..n.  Edges are stored in a stable, indexable list so
that parallel edges stay distinguishable; paths elsewhere in the package are
sequences of edge indices for exactly that reason.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from operator import index
from typing import Callable, Iterable, Sequence


def vertex_id(v: object) -> int:
    """v as a vertex id: an int, or a value that converts to one without
    loss (bool, numpy's integers); anything else raises ValueError."""
    try:
        return index(v)
    except TypeError:
        raise ValueError(f"vertex id is not an integer: {v!r}") from None


class Multigraph:
    """An immutable multigraph (undirected by default, optionally directed).

    Parallel edges are permitted; self-loops are rejected.  Instances are
    safe to share between threads: all state is fixed at construction.
    """

    __slots__ = ("n", "edges", "directed", "_incident")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], directed: bool = False):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edge_list = tuple((vertex_id(u), vertex_id(v)) for u, v in edges)
        for u, v in edge_list:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"vertex id out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise ValueError(f"self-loop rejected: ({u}, {v})")
        self._build(n, edge_list, directed)

    @classmethod
    def _from_checked(cls, n: int, edges: Sequence[tuple[int, int]], directed: bool = False) -> "Multigraph":
        """The graph on edges that the caller has already checked: int pairs
        in 1..n without self-loops.  Skips the constructor's checks."""
        g = cls.__new__(cls)
        g._build(n, tuple(edges), directed)
        return g

    def _build(self, n: int, edge_list: tuple[tuple[int, int], ...], directed: bool) -> None:
        self.n = n
        self.edges = edge_list
        self.directed = directed
        incident: list[list[int]] = [[] for _ in range(n + 1)]
        for idx, (u, v) in enumerate(edge_list):
            incident[u].append(idx)
            incident[v].append(idx)
        # Each list is freed as its tuple is made, so the conversion does
        # not add a second set of live objects for the garbage collector.
        incident.reverse()
        self._incident = [tuple(incident.pop()) for _ in range(n + 1)]

    @property
    def m(self) -> int:
        return len(self.edges)

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge indices touching v (both directions if directed)."""
        return self._incident[v]

    def other_end(self, edge_index: int, v: int) -> int:
        u, w = self.edges[edge_index]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"edge {edge_index} not incident to vertex {v}")

    def degree(self, v: int) -> int:
        return len(self._incident[v])

    def out_degree(self, v: int) -> int:
        return sum(1 for e in self._incident[v] if self.edges[e][0] == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for e in self._incident[v] if self.edges[e][1] == v)

    def max_degree(self) -> int:
        return max((len(self._incident[v]) for v in range(1, self.n + 1)), default=0)

    def without_vertices(self, removed: Iterable[int]) -> "Multigraph":
        """Subgraph on the remaining vertices, keeping original vertex ids.

        Removed vertices stay as isolated placeholders so edge endpoints and
        ids remain comparable with the original graph.
        """
        gone = set(removed)
        kept = [e for e in self.edges if e[0] not in gone and e[1] not in gone]
        return Multigraph(self.n, kept, self.directed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (self.n, self.edges, self.directed) == (other.n, other.edges, other.directed)

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.directed))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Multigraph(n={self.n}, m={self.m}, {kind})"


@dataclass(frozen=True)
class Matching:
    """A set of edge indices, no two sharing an endpoint."""

    pairs: frozenset[int]

    def vertices(self, g: Multigraph) -> set[int]:
        covered: set[int] = set()
        for e in self.pairs:
            u, v = g.edges[e]
            covered.add(u)
            covered.add(v)
        return covered

    def weight(self, w: Callable[[int], int] | Sequence[int]) -> int:
        if callable(w):
            return sum(w(e) for e in self.pairs)
        return sum(w[e] for e in self.pairs)


def components_excluding(g: Multigraph, removed: Iterable[int]) -> list[set[int]]:
    """Connected components of g minus a vertex set, removed vertices omitted.

    One traversal of g that steps over the removed vertices, without
    building the subgraph.  Edge direction is ignored; components are
    ordered by their smallest vertex id.
    """
    seen = [False] * (g.n + 1)
    for v in removed:
        if 1 <= v <= g.n:
            seen[v] = True
    edges, incident = g.edges, g._incident
    comps: list[set[int]] = []
    for start in range(1, g.n + 1):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for e in incident[v]:
                a, b = edges[e]
                w = b if a == v else a
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def is_forest(g: Multigraph) -> bool:
    """True iff g has no cycle; a pair of parallel edges counts as a cycle."""
    if g.directed:
        raise ValueError("is_forest is defined for undirected graphs")
    parent = list(range(g.n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


@dataclass(frozen=True)
class FvsOneResult:
    """Outcome of the single-feedback-vertex search.

    ``vertex`` is a vertex whose removal leaves a forest, or None.  When it
    is None, ``already_forest`` distinguishes an acyclic input from a graph
    that needs at least two deletions.
    """

    vertex: int | None
    already_forest: bool

    @property
    def found(self) -> bool:
        return self.vertex is not None or self.already_forest


def find_fvs_one(g: Multigraph) -> FvsOneResult:
    """Find one vertex whose deletion makes g a forest, if such exists.

    g - v is a forest exactly when m - deg(v) = (n - 1) - c(g - v), and one
    articulation-point DFS (Hopcroft & Tarjan, 1973) yields the component
    count c(g - v) for every v in O(n + m).  The lowest feasible id is
    returned.  Any feasible vertex lies on every cycle, so that is also the
    lowest feasible vertex of any one cycle.
    """
    n, edges, incident = g.n, g.edges, g._incident
    disc = [0] * (n + 1)
    low = [0] * (n + 1)
    # c(g - v) = comps + split[v]: a non-root vertex splits off one piece per
    # DFS child whose subtree has no back edge above v; a root loses its own
    # component and leaves one piece per DFS child.
    split = [0] * (n + 1)
    comps = 0
    clock = 0
    for root in range(1, n + 1):
        if disc[root]:
            continue
        comps += 1
        clock += 1
        disc[root] = low[root] = clock
        split[root] = -1
        stack = [(root, -1, iter(incident[root]))]
        while stack:
            v, parent_edge, it = stack[-1]
            for e in it:
                # Only the tree edge's own index is skipped, so a parallel
                # edge back to the parent counts as a back edge (a cycle).
                if e == parent_edge:
                    continue
                a, b = edges[e]
                w = b if a == v else a
                if disc[w]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append((w, e, iter(incident[w])))
                    break
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        split[u] += 1
    m = len(edges)
    if m == n - comps:
        return FvsOneResult(vertex=None, already_forest=True)
    for v in range(1, n + 1):
        if m - len(incident[v]) == n - 1 - comps - split[v]:
            return FvsOneResult(vertex=v, already_forest=False)
    return FvsOneResult(vertex=None, already_forest=False)


def max_weight_matching(g: Multigraph, weights: Sequence[int] | Callable[[int], int]) -> Matching:
    """Maximum-weight matching over the edge set, returned as edge indices.

    Weights are per edge index and must be non-negative.  Parallel edges are
    collapsed to their best representative (highest weight, then lowest
    index) before delegating to the blossom implementation in networkx.
    Ties between optimal matchings are broken deterministically by the
    sorted construction order below.

    networkx defines classes and recursive closures on every call, and the
    helper graph caches views that point back to it, so each call leaves
    reference cycles behind.  The graph is dropped and the young generation
    collected before returning, which frees them at once even while
    `edpkit solve` has the collector paused; without it a solve with many
    matching calls would keep all of them until the pause ends.  Each young
    collection scans only what was allocated since the previous one, so the
    total cost stays linear.  `matching_max_cover` answers the graphs whose
    edges are pairwise disjoint without coming here, so networkx is loaded
    and collected only for a graph with two edges at one vertex.
    """
    import networkx as nx  # here, so that a run that never matches does not load it

    if g.directed:
        raise ValueError("matching is defined for undirected graphs")
    wfun = weights if callable(weights) else weights.__getitem__
    best: dict[tuple[int, int], tuple[int, int]] = {}
    for idx, (u, v) in enumerate(g.edges):
        key = (u, v) if u < v else (v, u)
        w = wfun(idx)
        if w < 0:
            raise ValueError("matching weights must be non-negative")
        cur = best.get(key)
        if cur is None or w > cur[0]:
            best[key] = (w, idx)
    h = nx.Graph()
    h.add_nodes_from(range(1, g.n + 1))
    for (u, v), (w, idx) in sorted(best.items()):
        h.add_edge(u, v, weight=w, index=idx)
    mate = nx.max_weight_matching(h, maxcardinality=False, weight="weight")
    chosen = frozenset(h.edges[u, v]["index"] for u, v in mate)
    del h, mate
    gc.collect(0)
    return Matching(pairs=chosen)


def matching_max_cover(g: Multigraph, s: set[int] | frozenset[int]) -> Matching:
    """Matching maximizing the number of covered vertices from s.

    Realized as a maximum-weight matching where an edge weighs one per
    endpoint inside s.  When no two edges share an endpoint and every edge
    touches s, every edge weighs at least one and the whole edge set is a
    matching, so it is the only optimum: it is returned without the
    blossom algorithm.
    """
    edges = g.edges
    if (
        not g.directed
        and len({v for e in edges for v in e}) == 2 * len(edges)
        and all(u in s or v in s for u, v in edges)
    ):
        return Matching(pairs=frozenset(range(len(edges))))

    def weight(e: int) -> int:
        u, v = edges[e]
        return (u in s) + (v in s)

    return max_weight_matching(g, weight)
