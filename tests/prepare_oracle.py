"""Reference preparation for sedp: the `prepare_sedp` that rewrites the
instance, builds the prepared graph and instance in full, and then roots
the forest by a second walk over that graph's incidence lists.

`edpkit.sedp.prepare_sedp` roots the forest over the caller's incidence
lists, completed only at the vertices that its rewrite touches, and builds
the prepared instance only when `inst` is read.  Its fields must equal
these, and its `inst` the instance built here.
"""

from __future__ import annotations

from edpkit.graph import Multigraph
from edpkit.instance import EdpInstance, TerminalPair
from edpkit.sedp import SedpInstance


def prepare_on_built_graph(inst: EdpInstance, x: int) -> tuple[SedpInstance, EdpInstance]:
    """The preparation and, as it builds it, the prepared instance."""
    g = inst.g
    if not (1 <= x <= g.n):
        raise ValueError(f"feedback vertex {x} out of range")
    if not inst.normalized:
        raise ValueError("prepare_sedp expects a normalized instance")
    n, g_edges, incident = g.n, g.edges, g._incident
    pairs: list[TerminalPair] = list(inst.pairs)
    terminals = {v for p in pairs for v in p.members()}
    next_id = n
    edges = list(g_edges)  # added edges are appended

    # (2) x must not be a terminal: a fresh leaf takes its place in P and
    # forms the last tree.
    x_leaf = 0
    for j, p in enumerate(pairs):
        if x in p.members():
            next_id += 1
            x_leaf = next_id
            edges.append((x_leaf, x))
            pairs[j] = TerminalPair(x_leaf, p.t) if p.s == x else TerminalPair(p.s, x_leaf)
            break  # normalized: x occurs in at most one pair

    x_ends: list[tuple[int, int]] = []  # (forest end, edge index) of each x-edge
    for e in incident[x]:
        a, b = g_edges[e]
        x_ends.append((b if a == x else a, e))
    x_ends.sort()
    x_count: dict[int, int] = {}
    for v, _ in x_ends:
        x_count[v] = x_count.get(v, 0) + 1

    # (3) every tree needs a non-terminal root without an x-edge.  The trees
    # of g - x come from one walk per tree over the incidence lists, started
    # at each tree's smallest vertex; reaching a visited vertex by any edge
    # but the one the walk came in on closes a cycle.
    seen = [False] * (n + 1)
    seen[x] = True
    came_by = [-1] * (n + 1)
    roots: list[int] = []
    anchors: set[int] = set()  # vertices that received a fresh root leaf
    for first in range(1, n + 1):
        if seen[first]:
            continue
        seen[first] = True
        stack = [first]
        size = 0
        root = anchor = n + 1  # lowest acceptable root and lowest non-terminal
        while stack:
            v = stack.pop()
            size += 1
            if v not in terminals:
                if v < anchor:
                    anchor = v
                if v < root and v not in x_count:
                    root = v
            up = came_by[v]
            for e in incident[v]:
                if e != up:
                    a, b = g_edges[e]
                    w = b if a == v else a
                    if w != x:
                        if seen[w]:
                            raise ValueError(f"graph minus vertex {x} is not a forest")
                        seen[w] = True
                        came_by[w] = e
                        stack.append(w)
        if size == 1:
            roots.append(first)
        elif root <= n:
            roots.append(root)
        else:
            # Normalization forbids adjacent terminals, so a multi-vertex
            # tree always has a non-terminal vertex to hang the root off.
            next_id += 1
            edges.append((anchor, next_id))
            roots.append(next_id)
            anchors.add(anchor)
    if x_leaf:
        roots.append(x_leaf)

    # (1) x-edges may only reach forest leaves, one edge each.  Offending
    # x-edges are re-routed through a fresh leaf l: the edge (v, x) becomes
    # (l, x) at its own index, and (v, l) is appended.  Multi-vertex tree
    # roots are never x-adjacent by the selection rule above, and a
    # single-vertex tree's root is a forest leaf, so only the tree degree
    # and the number of x-edges matter here.
    for v, e in x_ends:
        k = x_count[v]
        if k >= 2 or len(incident[v]) - k + (v in anchors) >= 2:
            next_id += 1
            edges[e] = (x, next_id) if g_edges[e][0] == x else (next_id, x)
            edges.append((v, next_id))

    prepared_graph = Multigraph._from_checked(next_id, edges)
    prepared = EdpInstance(prepared_graph, tuple(pairs))

    # The rooted forest, read from the prepared graph's incidence lists.
    # Each tree is walked from its root, and the reversed walk lists
    # children before parents.
    p_edges, incident = prepared_graph.edges, prepared_graph._incident
    x_edge_of: dict[int, int] = {}
    for e in incident[x]:
        a, b = p_edges[e]
        x_edge_of[b if a == x else a] = e
    assert len(x_edge_of) == len(incident[x]), "vertex with several x-edges survived preparation"
    parent_edge = [-1] * (next_id + 1)
    children: dict[int, tuple[int, ...]] = dict.fromkeys(range(1, next_id + 1), ())
    del children[x]
    walk: list[int] = []
    spans: list[tuple[int, int]] = []
    for root in roots:
        start = len(walk)
        stack = [root]
        while stack:
            v = stack.pop()
            walk.append(v)
            up = parent_edge[v]
            below = []
            for e in incident[v]:
                if e != up:
                    a, b = p_edges[e]
                    w = b if a == v else a
                    if w != x:
                        parent_edge[w] = e
                        below.append(w)
            if below:
                if v in x_edge_of:
                    raise AssertionError("inner vertex kept an x-edge after preparation")
                below.sort()
                children[v] = tuple(below)
                stack += below
        spans.append((start, len(walk)))
    walk.reverse()  # children before parents
    total = len(walk)
    tree_slice = {root: slice(total - stop, total - start) for root, (start, stop) in zip(roots, spans)}

    pair_of = {}
    for j, p in enumerate(prepared.pairs):
        pair_of[p.s] = j
        pair_of[p.t] = j

    fields = SedpInstance(
        edges=prepared_graph.edges,
        pairs=prepared.pairs,
        x=x,
        roots=tuple(roots),
        parent_edge=parent_edge,
        children=children,
        post_order=tuple(walk),
        tree_slice=tree_slice,
        x_edge_of=x_edge_of,
        pair_of=pair_of,
    )
    return fields, prepared
