"""Polynomial-time EDP solver for graphs whose feedback vertex set is one vertex.

The instance is rewritten so that (1) every neighbor of the feedback vertex x
is a leaf of the forest g - x with a single x-edge, (2) x is not a terminal,
and (3) every tree is rooted at a non-terminal vertex without an x-edge.
A bottom-up label computation then decides, per subtree, which connectivity
services it can provide (all local pairs routable; additionally a root-to-x
path; or all but one pair routable with one terminal delivered to the subtree
root), with a maximum-cover matching arbitrating between sibling subtrees.
A node with one child has a conflict graph without edges, so it shares its
child's label set.  At a node with two or more children the label pass
records its decisions: the children's partition, the matching with no child
excluded, and the lowest child that can deliver each pair label.  Yes
answers are reconstructed into an explicit edge-disjoint path set from those
records; only a node asked to deliver a pair runs one more matching, without
the delivering child.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from edpkit.graph import Multigraph, find_fvs_one, matching_max_cover
from edpkit.instance import (
    EdpInstance,
    SolveResult,
    TerminalPair,
    certify,
    normalize_instance,
)


class LabelSet(NamedTuple):
    """Connectivity services a subtree can provide to its parent."""

    gamma_empty: bool
    gamma_x: bool
    pair_labels: frozenset[int]


_NO_PAIRS: frozenset[int] = frozenset()
EMPTY_LABELS = LabelSet(False, False, _NO_PAIRS)
# The labels of a leaf that is not a terminal, without and with an x-edge.
_PLAIN_LEAF = LabelSet(True, False, _NO_PAIRS)
_X_LEAF = LabelSet(True, True, _NO_PAIRS)


class _NodePlan(NamedTuple):
    """The partition of an inner node's children and its conflict graph H(t)."""

    v_neg: tuple[int, ...]  # children that are not gamma-empty
    v_x: tuple[int, ...]  # gamma-x children
    h_vertices: tuple[int, ...]  # ascending
    shared_pair: dict[tuple[int, int], int]  # H-edge -> lowest shared pair, in H-edge order


# What the label pass decided at a node with two or more children: its
# plan, the maximum-cover matching of H(t) with no child excluded, and for
# each pair label the lowest child that can deliver it.
_Decision = tuple[_NodePlan, tuple[tuple[int, int], ...], dict[int, int]]


@dataclass
class SedpInstance:
    """A prepared instance: rewritten edges and pairs, rooted forest of
    g - x, and the bookkeeping the label pass and realization read."""

    edges: tuple[tuple[int, int], ...]  # the prepared graph's, on vertices 1..len(parent_edge) - 1
    pairs: tuple[TerminalPair, ...]
    x: int
    roots: tuple[int, ...]
    parent_edge: list[int]  # vertex -> edge index to its parent, -1 at roots and x
    children: dict[int, tuple[int, ...]]  # ascending
    post_order: tuple[int, ...]
    tree_slice: dict[int, slice]  # root -> its tree's vertices in post_order
    x_edge_of: dict[int, int]  # forest leaf -> its unique edge index to x
    pair_of: dict[int, int]  # terminal -> pair index
    # Inner vertex with two or more children -> what the label pass decided
    # there and realization reads; realization drops each entry it reads.
    decisions: dict[int, _Decision] = field(default_factory=dict)

    @cached_property
    def inst(self) -> EdpInstance:
        """The prepared instance, built on first read; a solve never reads it."""
        return EdpInstance(Multigraph._from_checked(len(self.parent_edge) - 1, self.edges), self.pairs)


def prepare_sedp(inst: EdpInstance, x: int) -> SedpInstance:
    """Rewrite (answer-preserving) so the solver's standing assumptions hold.

    Raises ValueError where g - x is not a forest.  The instance must be
    normalized.  New vertices are allocated deterministically: first a leaf
    replacing x as a terminal (if needed), then per-tree root leaves (trees
    ordered by smallest vertex), then one gadget leaf per rewritten x-edge,
    ordered by the edge's forest endpoint and then by edge index.

    Every edge e of inst stays at index e, so a walk on the prepared graph
    maps back to inst by dropping each index from inst.g.m on (the rule
    `certify` applies).  A rewritten x-edge e = {v, x} keeps index e with
    v replaced by its gadget leaf l, and its other half (v, l) is appended;
    so are the edges of the x-terminal leaf and of the fresh root leaves.
    The prepared graph is not built: the forest is walked over inst's
    incidence lists, and `SedpInstance.inst` builds it on first read.
    """
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
    #
    # The walks below read inst's incidence lists, with each re-routed
    # x-edge dropped at its forest end and each appended edge added at both
    # ends; only the vertices the rewrite touched get a new list.  A gadget
    # leaf's list holds just its edge from v, by which the walk reaches it;
    # its x-edge is read from x's list.
    adjacent = list(incident)
    for v, e in x_ends:
        k = x_count[v]
        if k >= 2 or len(incident[v]) - k + (v in anchors) >= 2:
            next_id += 1
            edges[e] = (x, next_id) if g_edges[e][0] == x else (next_id, x)
            edges.append((v, next_id))
            adjacent[v] = tuple(f for f in adjacent[v] if f != e)
    adjacent += [()] * (next_id - n)
    for e in range(g.m, len(edges)):
        a, b = edges[e]
        adjacent[a] += (e,)
        adjacent[b] += (e,)

    # The rooted forest.  Each tree is walked from its root, and the
    # reversed walk lists children before parents.
    x_edge_of: dict[int, int] = {}
    for e in adjacent[x]:
        a, b = edges[e]
        x_edge_of[b if a == x else a] = e
    assert len(x_edge_of) == len(adjacent[x]), "vertex with several x-edges survived preparation"
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
            for e in adjacent[v]:
                if e != up:
                    a, b = edges[e]
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
    for j, p in enumerate(pairs):
        pair_of[p.s] = j
        pair_of[p.t] = j

    return SedpInstance(
        edges=tuple(edges),
        pairs=tuple(pairs),
        x=x,
        roots=tuple(roots),
        parent_edge=parent_edge,
        children=children,
        post_order=tuple(walk),
        tree_slice=tree_slice,
        x_edge_of=x_edge_of,
        pair_of=pair_of,
    )


def _node_plan(children: tuple[int, ...], labels: dict[int, LabelSet]) -> _NodePlan | None:
    """The node's plan, or None when some child provides no service at all."""
    # gamma-x implies gamma-empty, so the branches below partition the
    # children; a child with neither and no pair label provides nothing.
    v_neg: list[int] = []
    v_x: list[int] = []
    v_plain: list[int] = []
    for c in children:
        lab = labels[c]
        if lab.gamma_x:
            v_x.append(c)
        elif lab.gamma_empty:
            v_plain.append(c)
        elif lab.pair_labels:
            v_neg.append(c)
        else:
            return None
    h_vertices = v_neg + v_plain
    shared: dict[tuple[int, int], int] = {}
    for i, ci in enumerate(h_vertices):
        # Two plain children never conflict, and plain ones come last.
        for cj in h_vertices[i + 1 :] if i < len(v_neg) else ():
            common = labels[ci].pair_labels & labels[cj].pair_labels
            if common:
                shared[(ci, cj)] = min(common)
    return _NodePlan(tuple(v_neg), tuple(v_x), tuple(sorted(h_vertices)), shared)


def _max_cover(plan: _NodePlan, exclude: int | None) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Covered count of v_neg \\ {exclude} by a maximum-cover matching of
    H(t) - exclude, plus the matching itself as child-vertex pairs."""
    v_neg, _, h_vertices, shared_pair = plan
    edges = [e for e in shared_pair if exclude not in e]
    if not edges:
        return 0, ()
    verts = [v for v in h_vertices if v != exclude]
    index = {v: i + 1 for i, v in enumerate(verts)}
    h = Multigraph(len(verts), [(index[a], index[b]) for a, b in edges])
    target = {index[v] for v in v_neg if v != exclude}
    matching = matching_max_cover(h, target)
    cover = len(matching.vertices(h) & target)
    pairs = []
    back = {i: v for v, i in index.items()}
    for e in sorted(matching.pairs):
        a, b = h.edges[e]
        u, w = back[a], back[b]
        pairs.append((u, w) if (u, w) in shared_pair else (w, u))
    return cover, tuple(pairs)


def compute_labels(prep: SedpInstance, t: int, child_labels: dict[int, LabelSet]) -> LabelSet:
    """Label set of the subtree rooted at t from its children's label sets.

    Leaf rule: a non-terminal leaf provides gamma-empty, and gamma-x exactly
    when it has an x-edge; a terminal leaf provides its own pair label, plus
    gamma-empty when it has an x-edge.  Inner rule: the subtree partition
    and the maximum-cover matching on the conflict graph H(t) decide which
    services survive; a pair label additionally needs a child that can
    deliver one of its terminals while the rest remains coverable.  With
    one child H(t) has no edge and the rule keeps exactly the child's
    services, so t shares the child's label set.  At a node with two or
    more children the plan, the matching and the delivering children are
    kept in prep.decisions for realization.
    """
    children = prep.children[t]
    if not children:
        pair = prep.pair_of.get(t)
        has_x = t in prep.x_edge_of
        if pair is None:
            return _X_LEAF if has_x else _PLAIN_LEAF
        return LabelSet(has_x, False, frozenset((pair,)))
    if len(children) == 1:
        return child_labels[children[0]]
    plan = _node_plan(children, child_labels)
    if plan is None:
        return EMPTY_LABELS
    cover, matching = _max_cover(plan, exclude=None) if plan.shared_pair else (0, ())
    deficiency = len(plan.v_neg) - cover
    gamma_empty = deficiency <= len(plan.v_x)
    gamma_x = deficiency < len(plan.v_x)

    deliverer: dict[int, int] = {}
    for c in children:
        ok = None
        for p in child_labels[c].pair_labels:
            if p in deliverer:
                continue
            if ok is None:
                ok = _deliverable_via(plan, c)
            if not ok:
                break
            deliverer[p] = c
    prep.decisions[t] = (plan, matching, deliverer)
    return LabelSet(gamma_empty, gamma_x, frozenset(deliverer) if deliverer else _NO_PAIRS)


def _deliverable_via(plan: _NodePlan, ti: int) -> bool:
    """Whether child ti can deliver a terminal up to the node while the
    other children's demands stay covered by matching or x-paths."""
    v_neg, v_x, _, shared_pair = plan
    # Without H-edges no matching covers anything.
    cover_i = _max_cover(plan, exclude=ti)[0] if shared_pair else 0
    neg = len(v_neg) - (ti in v_neg)
    avail = len(v_x) - (ti in v_x)
    return neg - cover_i <= avail


def labels_for_tree(prep: SedpInstance, root: int) -> dict[int, LabelSet]:
    """Bottom-up label sets for every vertex of the tree rooted at root."""
    labels: dict[int, LabelSet] = {}
    for v in prep.post_order[prep.tree_slice[root]]:
        labels[v] = compute_labels(prep, v, labels)
    return labels


class _Path(NamedTuple):
    """A path as an edge-index walk from endpoint a to endpoint b."""

    edges: tuple[int, ...]
    a: int
    b: int


def _realize_tree(prep: SedpInstance, root: int, labels: dict[int, LabelSet]) -> list[_Path]:
    """Reconstruct an explicit path family witnessing that the tree is
    gamma-empty-connected, following the label rules' constructive steps
    with all arbitrary choices fixed to lowest index.

    A top-down pass gives every vertex its mode: "ge", "gx", or the pair
    label whose terminal it delivers to its parent.  A node with one child
    passes its mode down.  A bottom-up pass then joins the children's
    open paths at each node; an open path is an edge list from its start
    to the current vertex, grown in place as it climbs.
    """
    x, children_of, up = prep.x, prep.children, prep.parent_edge
    tree = prep.post_order[prep.tree_slice[root]]  # children before parents
    modes: dict[int, str | int] = {root: "ge"}
    steps: dict[int, tuple] = {}  # node -> (pairs of children joined at it, child extended upward)
    for t in reversed(tree):
        mode = modes[t]
        children = children_of[t]
        if len(children) == 1:
            modes[children[0]] = mode
            continue
        if not children:
            continue
        plan, matching, deliverer = prep.decisions.pop(t)
        v_neg, v_x, _, shared_pair = plan
        exclude: int | None = None
        if isinstance(mode, int):
            exclude = deliverer[mode]
            _, matching = _max_cover(plan, exclude)
        matched = {v for e in matching for v in e}
        unmatched_neg = [v for v in v_neg if v not in matched and v != exclude]
        suppliers_pool = [v for v in v_x if v != exclude]
        alpha = tuple(zip(unmatched_neg, suppliers_pool))
        upward = exclude  # delivers the pair upward
        if mode == "gx":
            upward = suppliers_pool[len(alpha)]  # the lowest supplier alpha left spare
        child_mode: dict[int, str | int] = {}
        for ci, cj in matching:
            p = shared_pair[(ci, cj)]
            child_mode[ci] = p
            child_mode[cj] = p
        for u, supplier in alpha:
            child_mode[u] = min(labels[u].pair_labels)
            child_mode[supplier] = "gx"
        if upward is not None:
            child_mode[upward] = mode
        steps[t] = (matching + alpha, upward)
        for c in children:
            modes[c] = child_mode.get(c, "ge")

    paths: list[_Path] = []
    open_paths: dict[int, tuple[list[int], int]] = {}  # vertex -> (edges so far, start)
    for t in tree:
        mode = modes[t]
        children = children_of[t]
        if not children:
            pair = prep.pair_of.get(t)
            x_edge = prep.x_edge_of.get(t)
            if mode == "ge":
                if pair is not None:
                    assert x_edge is not None, "terminal leaf without x-edge cannot be gamma-empty"
                    paths.append(_Path((x_edge,), t, x))
            elif mode == "gx":
                assert pair is None and x_edge is not None
                open_paths[t] = ([x_edge], x)
            else:
                assert pair == mode, "leaf asked for a pair it does not hold"
                open_paths[t] = ([], t)
            continue
        if len(children) == 1:
            joins: tuple[tuple[int, int], ...] = ()
            upward = None if mode == "ge" else children[0]
        else:
            joins, upward = steps.pop(t)
        # Join two open paths through t: matched deliveries, and unmatched
        # deliveries routed to x through their supplier.
        for ci, cj in joins:
            edges, a = open_paths.pop(ci)
            edges_j, b = open_paths.pop(cj)
            edges.append(up[ci])
            edges.append(up[cj])
            edges.extend(reversed(edges_j))
            paths.append(_Path(tuple(edges), a, b))
        if upward is not None:
            path = open_paths.pop(upward)
            path[0].append(up[upward])
            open_paths[t] = path
    return paths


def solve_sedp(inst: EdpInstance, x: int | None = None) -> SolveResult:
    """Decide the instance and, on yes, return a verified solution.

    The instance is normalized internally if needed.  If x is not supplied,
    a single feedback vertex of the normalized graph is searched for (on a
    forest, vertex 1 serves); an instance with none is refused with status
    "fvs-exceeded".  A supplied x that is no feedback vertex raises
    ValueError.
    """
    work = normalize_instance(inst)
    if x is None:
        probe = find_fvs_one(work.g)
        if probe.vertex is not None:
            x = probe.vertex
        elif probe.already_forest:
            x = 1 if work.g.n else None
        else:
            return SolveResult("fvs-exceeded")
    if x is None:  # empty graph
        return SolveResult("yes", certify("sedp", inst, ()))

    prep = prepare_sedp(work, x)
    tree_labels: dict[int, LabelSet] = {}
    for root in prep.roots:
        labels = labels_for_tree(prep, root)
        if not labels[root].gamma_empty:
            return SolveResult("no")
        tree_labels.update(labels)

    by_terminal: dict[int, _Path] = {}
    for root in prep.roots:
        for path in _realize_tree(prep, root, tree_labels):
            for end in (path.a, path.b):
                if end in prep.pair_of:
                    assert end not in by_terminal, "terminal served by two paths"
                    by_terminal[end] = path

    walks: list[tuple[int, ...]] = []
    for p in prep.pairs:
        ps = by_terminal[p.s]
        walk = ps.edges if ps.a == p.s else ps.edges[::-1]
        if p.t not in (ps.a, ps.b):
            pt = by_terminal[p.t]
            walk += pt.edges[::-1] if pt.a == p.t else pt.edges
        walks.append(walk)
    return SolveResult("yes", certify("sedp", inst, walks))
