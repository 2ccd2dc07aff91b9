"""Tree decompositions: min-fill elimination, or a path layout of the same
width, and conversion to nice decompositions.

Min-fill may overshoot the treewidth; given a target it stops at the first
bag over it and returns a valid decomposition whose last bag holds every
vertex not yet eliminated, so its width is over the target exactly when
the full min-fill width is.  Within the target, a greedy vertex-separation
layout replaces min-fill's tree when it reaches the same width W and W is
over PATH_MIN_WIDTH: a path has no joins but the ones its pendant vertices
hang on, and joins are what the twdp dynamic program spends its time on.
The width is always min-fill's.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from edpkit.graph import Multigraph

# Widths at which min-fill's tree is kept even when a path layout matches
# it: the DP ran as fast or faster on min-fill's tree for width-3 inputs.
PATH_MIN_WIDTH = 3


@dataclass
class TreeDecomposition:
    """Bags indexed 0..len-1; parent[i] == -1 marks the root."""

    bags: list[frozenset[int]]
    parent: list[int]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.bags]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p].append(i)
        return out

    def validate(self, g: Multigraph) -> None:
        """Raise ValueError unless this is a tree decomposition of g: one
        rooted tree, bag vertices in 1..n, the bags of each vertex forming
        a connected subtree, and each edge in some bag.  One pass over the
        bags, reading each bag vertex's incidence list once per bag."""
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        if len(roots) != 1:
            raise ValueError("decomposition tree must have exactly one root")
        if len(self.parent) != len(self.bags) or max(self.parent) >= len(self.bags):
            raise ValueError("decomposition parents do not index its bags")
        children = self.children()
        reached = list(roots)
        for i in reached:
            reached.extend(children[i])
        if len(reached) < len(self.bags):
            raise ValueError("decomposition has nodes that do not reach the root")
        # A vertex's bags are connected exactly when one of them is the top
        # of its subtree: the root, or a bag whose parent's bag lacks it.
        tops = [0] * (g.n + 1)
        covered = [False] * g.m
        for bag, p in zip(self.bags, self.parent):
            above = self.bags[p] if p >= 0 else frozenset()
            for u in bag:
                if not 1 <= u <= g.n:
                    raise ValueError(f"decomposition vertex {u} is not in the graph")
                if u not in above:
                    tops[u] += 1
                for e in g.incident(u):
                    if g.other_end(e, u) in bag:
                        covered[e] = True
        for v in range(1, g.n + 1):
            if tops[v] != 1:
                raise ValueError(
                    f"vertex {v} appears in no bag" if not tops[v]
                    else f"occurrences of vertex {v} are not connected"
                )
        if not all(covered):
            u, v = g.edges[covered.index(False)]
            raise ValueError(f"edge ({u}, {v}) is in no bag")


def build_tree_decomposition(g: Multigraph, k: int | None = None) -> TreeDecomposition:
    """A valid tree decomposition of g from the min-fill heuristic, whose
    width may exceed the treewidth.  With a target k it stops at the first
    vertex with more than k neighbours and puts it with every vertex left
    in one last bag, so the width is over k exactly when the full min-fill
    width is, and the decomposition is the full one when it is not.  When
    that width W is within k and over PATH_MIN_WIDTH, and _path_layout
    reaches width W too, the path layout is returned instead; the width is
    W either way.
    """
    if g.directed:
        raise ValueError("tree decompositions are for undirected graphs")
    if g.n == 0:
        return TreeDecomposition([frozenset()], [-1])
    td = _tree_from_bags(*_min_fill_elimination(g, k))
    if td.width <= PATH_MIN_WIDTH or (k is not None and td.width > k):
        return td
    path = _path_layout(g, td.width)
    return path if path is not None and path.width == td.width else td


def _min_fill_order(g: Multigraph) -> list[int]:
    return _min_fill_elimination(g)[0]


def _min_fill_elimination(
    g: Multigraph, k: int | None = None
) -> tuple[list[int], list[frozenset[int]]]:
    """Greedy min-fill elimination order, ties going to the lowest id, with
    each vertex's bag: itself and its neighbours when it is eliminated.
    With k given, the first vertex with more than k neighbours ends the
    order, and its bag holds it and every vertex not yet eliminated.

    Fill counts (missing edges among a vertex's neighbours) live in a heap
    keyed by (fill, v) with lazy deletion (Bodlaender & Koster, Treewidth
    computations I, 2010).  Eliminating v turns N(v) into a clique, which
    changes the count only at v's neighbours and at the common neighbours
    of each fill edge it adds, so only those are updated.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    fill = {}
    for v, nb in adj.items():
        d = len(nb)
        fill[v] = d * (d - 1) // 2 - sum(len(adj[a] & nb) for a in nb) // 2
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    order = []
    bags = []
    while heap:
        f, v = heapq.heappop(heap)
        if v not in adj or fill[v] != f:
            continue
        if k is not None and len(adj[v]) > k:
            order.append(v)
            bags.append(frozenset(adj))
            break
        nb = adj.pop(v)
        order.append(v)
        bags.append(frozenset(nb) | {v})
        for a in nb:
            adj[a].discard(v)
        nb_list = sorted(nb)
        missing = [(a, b) for i, a in enumerate(nb_list) for b in nb_list[i + 1 :] if b not in adj[a]]
        changed = set(nb)
        # A neighbour a loses the missing pairs (v, x) for x outside N[v]
        # and gains (f, x) for each new neighbour f not adjacent to x.
        outside = {a: adj[a] - nb for a in nb}
        for a in nb:
            fill[a] -= len(outside[a])
        for a, b in missing:
            fill[a] += len(outside[a] - adj[b])
            fill[b] += len(outside[b] - adj[a])
        # Every vertex adjacent to both ends of a fill edge loses that pair.
        for a, b in missing:
            for w in adj[a] & adj[b]:
                fill[w] -= 1
                changed.add(w)
        for a, b in missing:
            adj[a].add(b)
            adj[b].add(a)
        for w in changed:
            heapq.heappush(heap, (fill[w], w))
    return order, bags


def _decomposition_from_order(g: Multigraph, order: list[int]) -> TreeDecomposition:
    """Standard bag construction: bag(v) = {v} + later neighbors in the
    fill-in graph."""
    n = g.n
    pos = {v: i for i, v in enumerate(order)}
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    bags: list[frozenset[int]] = [frozenset()] * n
    for i, v in enumerate(order):
        later = {w for w in adj[v] if pos[w] > i}
        bags[i] = frozenset({v} | later)
        later_list = sorted(later)
        for a_i, a in enumerate(later_list):
            for b in later_list[a_i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
    return _tree_from_bags(order, bags)


def _tree_from_bags(order: list[int], bags: list[frozenset[int]]) -> TreeDecomposition:
    """Bag i belongs to order[i]; its node hangs off the node of its
    earliest later bag member.  The last node is the root: a bag member
    that owns no bag (left in the last bag by a capped min-fill run) counts
    as the root's, and bags with no later member hang off the root too, to
    keep one tree."""
    root = len(order) - 1
    pos = {v: i for i, v in enumerate(order)}
    parent = [-1] * len(order)
    for i in range(root):
        v = order[i]
        parent[i] = min((pos.get(w, root) for w in bags[i] if w != v), default=root)
    return TreeDecomposition(list(bags), parent)


def _path_layout(g: Multigraph, limit: int) -> TreeDecomposition | None:
    """A path-like decomposition from a greedy vertex-separation layout, or
    None as soon as a bag would hold more than limit + 1 vertices (the
    vertex separation number is the path-width: Kinnersley, IPL 1992).

    Pendant vertices (one neighbour, which has others) stay out of the
    layout.  Each component of the rest starts at its vertex of lowest
    degree, lowest id first.  The next vertex is a neighbour of the
    frontier (the placed vertices with unplaced neighbours) that minimises
    the change in frontier size, then its count of unplaced neighbours,
    then its id.  Its bag is the frontier plus itself; a bag that contains
    the one before it replaces it, and the path is rooted at its last bag.
    Each pendant vertex hangs as a two-vertex bag off the last path bag
    that holds its neighbour.

    Keys sit in a heap with lazy deletion.  Placing v changes the keys only
    of v's unplaced neighbours (one fewer unplaced neighbour) and of the
    last unplaced neighbour of a placed vertex that v leaves with one (its
    placement would take that vertex off the frontier).
    """
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    pendant = {v: min(nb) for v, nb in adj.items() if len(nb) == 1 and len(adj[min(nb)]) > 1}
    if pendant and limit < 1:
        return None
    for p, u in pendant.items():
        del adj[p]
        adj[u].discard(p)
    unplaced = {v: len(nb) for v, nb in adj.items()}
    leaving = dict.fromkeys(adj, 0)
    placed: set[int] = set()
    frontier: set[int] = set()
    starts = iter(sorted(adj, key=lambda v: (len(adj[v]), v)))
    heap: list[tuple[int, int, int]] = []
    bags: list[frozenset[int]] = []

    def key(v: int) -> tuple[int, int, int]:
        return ((unplaced[v] > 0) - leaving[v], unplaced[v], v)

    def last_one_left(u: int) -> int:
        w = next(w for w in adj[u] if w not in placed)
        leaving[w] += 1
        return w

    while len(placed) < len(adj):
        v = None
        while heap:
            entry = heapq.heappop(heap)
            if entry[2] not in placed and entry == key(entry[2]):
                v = entry[2]
                break
        if v is None:
            v = next(w for w in starts if w not in placed)
        if len(frontier) > limit:
            return None
        bag = frozenset(frontier) | {v}
        if bags and bags[-1] <= bag:
            bags[-1] = bag
        else:
            bags.append(bag)
        placed.add(v)
        touched = set()
        for u in adj[v]:
            unplaced[u] -= 1
            if u not in placed:
                touched.add(u)
            elif unplaced[u] == 0:
                frontier.discard(u)
            elif unplaced[u] == 1:
                touched.add(last_one_left(u))
        if unplaced[v]:
            frontier.add(v)
            if unplaced[v] == 1:
                touched.add(last_one_left(v))
        for w in touched:
            heapq.heappush(heap, key(w))
    last = {}
    for i, bag in enumerate(bags):
        for u in bag:
            last[u] = i
    parent = list(range(1, len(bags))) + [-1]
    for p, u in sorted(pendant.items()):
        bags.append(frozenset((p, u)))
        parent.append(last[u])
    return TreeDecomposition(bags, parent)


@dataclass
class NiceNode:
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: frozenset[int]
    children: tuple[int, ...]
    vertex: int | None = None  # introduced or forgotten vertex


@dataclass
class NiceTreeDecomposition:
    """Rooted at index len(nodes)-1 with an empty root bag; children precede
    parents, so iterating nodes in index order is bottom-up."""

    nodes: list[NiceNode]

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def width(self) -> int:
        return max((len(nd.bag) for nd in self.nodes), default=1) - 1

    def validate(self, g: Multigraph) -> None:
        td = TreeDecomposition(
            [nd.bag for nd in self.nodes],
            self._parents(),
        )
        td.validate(g)
        for i, nd in enumerate(self.nodes):
            if nd.kind == "leaf":
                if nd.children or len(nd.bag) != 1:
                    raise ValueError(f"bad leaf node {i}")
            elif nd.kind == "join":
                a, b = nd.children
                if self.nodes[a].bag != nd.bag or self.nodes[b].bag != nd.bag:
                    raise ValueError(f"join node {i} children bags differ")
            elif nd.kind == "introduce":
                (c,) = nd.children
                if nd.bag != self.nodes[c].bag | {nd.vertex}:
                    raise ValueError(f"bad introduce node {i}")
            elif nd.kind == "forget":
                (c,) = nd.children
                if nd.bag != self.nodes[c].bag - {nd.vertex}:
                    raise ValueError(f"bad forget node {i}")
            else:
                raise ValueError(f"unknown node kind {nd.kind}")
        if self.nodes[self.root].bag:
            raise ValueError("root bag must be empty")

    def _parents(self) -> list[int]:
        parent = [-1] * len(self.nodes)
        for i, nd in enumerate(self.nodes):
            for c in nd.children:
                parent[c] = i
        return parent


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Nice decomposition of the same width: leaf bags of size one,
    introduce/forget chains between differing bags, binary joins with equal
    bags, and a forget chain up to an empty root bag."""
    nodes: list[NiceNode] = []

    def emit(kind: str, bag: frozenset[int], children: tuple[int, ...], vertex: int | None = None) -> int:
        nodes.append(NiceNode(kind, bag, children, vertex))
        return len(nodes) - 1

    def chain_to(bag_from: frozenset[int], bag_to: frozenset[int], below: int) -> int:
        cur, idx = bag_from, below
        for v in sorted(bag_from - bag_to):
            cur = cur - {v}
            idx = emit("forget", cur, (idx,), v)
        for v in sorted(bag_to - bag_from):
            cur = cur | {v}
            idx = emit("introduce", cur, (idx,), v)
        return idx

    def start_leaf(bag: frozenset[int]) -> int:
        verts = sorted(bag)
        idx = emit("leaf", frozenset({verts[0]}), ())
        cur = {verts[0]}
        for v in verts[1:]:
            cur.add(v)
            idx = emit("introduce", frozenset(cur), (idx,), v)
        return idx

    def close(i: int, built: list[int]) -> int | None:
        """Emit node i's own nodes once its children's chains are built;
        None when its bag is empty and nothing is built below it, since
        such a subtree holds no vertex."""
        bag = td.bags[i]
        if not built:
            return start_leaf(bag) if bag else None
        while len(built) > 1:
            a = built.pop()
            b = built.pop()
            built.append(emit("join", bag, (b, a)))
        return built[0]

    # Depth-first over the decomposition with an explicit stack, emitting
    # each child's subtree and chain before its next sibling, so deep
    # decompositions need no recursion.
    children = td.children()
    root = next(i for i, p in enumerate(td.parent) if p < 0)
    stack = [(root, iter(children[root]), [])]
    while True:
        i, kids, built = stack[-1]
        c = next(kids, None)
        if c is not None:
            stack.append((c, iter(children[c]), []))
            continue
        stack.pop()
        top = close(i, built)
        if not stack:
            break
        if top is not None:
            parent = stack[-1][0]
            stack[-1][2].append(chain_to(td.bags[i], td.bags[parent], top))
    if top is None:
        raise ValueError("decomposition covers no vertices")
    chain_to(td.bags[root], frozenset(), top)
    return NiceTreeDecomposition(nodes)
