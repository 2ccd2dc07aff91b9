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
excluded, and the lowest child that can deliver each pair label, with the
matching without that child.  On a yes answer realization reads those
records in one parent-first pass per tree, runs no matching, and grows each
walk downward from the node that joins it: one joining a pair's terminals,
or one from a terminal to x.
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


_Matching = tuple[tuple[int, int], ...]  # H-edges, in H-edge order
# What the label pass decided at a node with two or more children: its
# plan, the maximum-cover matching of H(t) with no child excluded, and for
# each pair label the lowest child that can deliver it, with the matching
# of H(t) without that child.
_Decision = tuple[_NodePlan, _Matching, dict[int, tuple[int, _Matching]]]


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
    # but the one the walk came in on closes a cycle.  The walk roots its
    # tree at its start; the path from the chosen root (or from the anchor
    # of a fresh root leaf) back to the start is then turned over.
    seen = [False] * (n + 1)
    seen[x] = True
    parent = [0] * (n + 1)  # 0 at roots and x
    parent_edge = [-1] * (n + 1)  # -1 at roots and x
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
            up = parent_edge[v]
            for e in incident[v]:
                if e != up:
                    a, b = g_edges[e]
                    w = b if a == v else a
                    if w != x:
                        if seen[w]:
                            raise ValueError(f"graph minus vertex {x} is not a forest")
                        seen[w] = True
                        parent[w] = v
                        parent_edge[w] = e
                        stack.append(w)
        if size == 1:
            roots.append(first)
            continue
        if root <= n:
            roots.append(root)
            v, u, f = root, 0, -1
        else:
            # Normalization forbids adjacent terminals, so a multi-vertex
            # tree always has a non-terminal vertex to hang the root off.
            next_id += 1
            edges.append((anchor, next_id))
            roots.append(next_id)
            anchors.add(anchor)
            v, u, f = anchor, next_id, len(edges) - 1
        while v:  # v gets parent u by edge f
            w, up = parent[v], parent_edge[v]
            parent[v], parent_edge[v] = u, f
            u, f, v = v, up, w
    if x_leaf:
        roots.append(x_leaf)
    parent += [0] * (next_id - n)
    parent_edge += [-1] * (next_id - n)

    # (1) x-edges may only reach forest leaves, one edge each.  Offending
    # x-edges are re-routed through a fresh leaf l: the edge (v, x) becomes
    # (l, x) at its own index, and (v, l) is appended, with l a child of v.
    # Multi-vertex tree roots are never x-adjacent by the selection rule
    # above, and a single-vertex tree's root is a forest leaf, so only the
    # tree degree and the number of x-edges matter here.
    for v, e in x_ends:
        k = x_count[v]
        if k >= 2 or len(incident[v]) - k + (v in anchors) >= 2:
            next_id += 1
            edges[e] = (x, next_id) if g_edges[e][0] == x else (next_id, x)
            edges.append((v, next_id))
            parent.append(v)
            parent_edge.append(len(edges) - 1)

    # The rooted forest: children in ascending order, read off the parents
    # in vertex order, and each tree walked from its root; the reversed walk
    # lists children before parents.
    x_edge_of: dict[int, int] = {}
    for e in incident[x]:
        a, b = edges[e]
        x_edge_of[b if a == x else a] = e
    if x_leaf:
        x_edge_of[x_leaf] = g.m
    assert len(x_edge_of) == len(incident[x]) + (x_leaf > 0), (
        "vertex with several x-edges survived preparation"
    )
    below: dict[int, list[int]] = {}
    for w, v in enumerate(parent):
        if v:
            if v in below:
                below[v].append(w)
            else:
                below[v] = [w]
    children: dict[int, tuple[int, ...]] = dict.fromkeys(range(1, next_id + 1), ())
    del children[x]
    for v, group in below.items():
        if v in x_edge_of:
            raise AssertionError("inner vertex kept an x-edge after preparation")
        children[v] = tuple(group)
    walk: list[int] = []
    spans: list[tuple[int, int]] = []
    for root in roots:
        start = len(walk)
        stack = [root]
        while stack:
            v = stack.pop()
            walk.append(v)
            stack += children[v]
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


def _max_cover(plan: _NodePlan, exclude: int | None) -> tuple[int, _Matching]:
    """Covered count of v_neg \\ {exclude} by a maximum-cover matching of
    H(t) - exclude, plus the matched H-edges: edge e of h is edges[e]."""
    v_neg, _, h_vertices, shared_pair = plan
    edges = [e for e in shared_pair if exclude not in e]
    if not edges:
        return 0, ()
    index = {v: i for i, v in enumerate((v for v in h_vertices if v != exclude), start=1)}
    h = Multigraph(len(index), [(index[a], index[b]) for a, b in edges])
    target = {index[v] for v in v_neg if v != exclude}
    matching = matching_max_cover(h, target)
    return len(matching.vertices(h) & target), tuple(edges[e] for e in sorted(matching.pairs))


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
    more children prep.decisions keeps the plan, the matching, and each
    pair's delivering child with the matching without it.
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
    v_neg, v_x, _, shared_pair = plan
    cover, matching = _max_cover(plan, exclude=None) if shared_pair else (0, ())
    deficiency = len(v_neg) - cover
    gamma_empty = deficiency <= len(v_x)
    gamma_x = deficiency < len(v_x)

    # Child c can deliver a terminal up to t if the other children's
    # demands stay covered by the matching of H(t) - c or by x-paths.
    deliverer: dict[int, tuple[int, _Matching]] = {}
    for c in children:
        delivery = None  # (c, matching of H(t) - c), or () where c cannot deliver
        for p in child_labels[c].pair_labels:
            if p in deliverer:
                continue
            if delivery is None:
                cover_c, matching_c = _max_cover(plan, exclude=c) if shared_pair else (0, ())
                ok = len(v_neg) - (c in v_neg) - cover_c <= len(v_x) - (c in v_x)
                delivery = (c, matching_c) if ok else ()
            if not delivery:
                break
            deliverer[p] = delivery
    prep.decisions[t] = (plan, matching, deliverer)
    return LabelSet(gamma_empty, gamma_x, frozenset(deliverer) if deliverer else _NO_PAIRS)


def labels_for_tree(prep: SedpInstance, root: int) -> dict[int, LabelSet]:
    """Bottom-up label sets for every vertex of the tree rooted at root."""
    labels: dict[int, LabelSet] = {}
    for v in prep.post_order[prep.tree_slice[root]]:
        labels[v] = compute_labels(prep, v, labels)
    return labels


def _realize_tree(
    prep: SedpInstance, root: int, labels: dict[int, LabelSet], to_x: dict[int, list[int]], walks: dict[int, list[int]]
) -> None:
    """File the walks witnessing that the tree is gamma-empty-connected,
    following the label rules' constructive steps with all arbitrary
    choices fixed to lowest index.

    One parent-first pass hands every vertex its mode: "ge", "gx", or the
    pair label whose terminal it delivers to its parent.  Unless the mode
    is "ge", the vertex also receives the half-walk that its parent edge
    extends.  A node with one child hands both down; a node asked for a
    pair reads the matching the label pass kept with that pair's
    delivering child.  A join through a node starts one walk as two
    halves, each grown downward until a leaf ends it at its terminal or,
    by the leaf's x-edge, at x; the supplier of an x-path is the second
    half.  The half that ends last files the walk: in to_x[terminal] if
    it reaches x (as is a "ge" terminal leaf's x-edge), else in
    walks[pair], from the pair's s.
    """
    x, children_of, up = prep.x, prep.children, prep.parent_edge
    # Vertex -> (mode, walk, which half) as handed down; "ge" if absent.  A
    # walk is [first half, second half, first end, second end], an end 0
    # until its half ends; a half lists its edges from the join downward.
    handed: dict[int, tuple[str | int, list, int]] = {}
    for t in reversed(prep.post_order[prep.tree_slice[root]]):  # parents before children
        mode, walk, side = given = handed.pop(t, ("ge", None, 0))
        if mode != "ge":
            walk[side].append(up[t])
        children = children_of[t]
        if not children:
            x_edge = prep.x_edge_of.get(t)
            if mode == "ge":
                if t in prep.pair_of:
                    assert x_edge is not None, "terminal leaf without x-edge cannot be gamma-empty"
                    to_x[t] = [x_edge]
                continue
            if mode == "gx":
                assert t not in prep.pair_of and x_edge is not None
                walk[side].append(x_edge)
                walk[2 + side] = x
            else:
                assert prep.pair_of.get(t) == mode, "leaf asked for a pair it does not hold"
                walk[2 + side] = t
            _, _, a, b = walk
            if a and b:
                edges = walk[0][::-1] + walk[1]
                if b == x:
                    to_x[a] = edges
                else:
                    j = prep.pair_of[a]
                    walks[j] = edges if prep.pairs[j].s == a else edges[::-1]
            continue
        if len(children) == 1:
            handed[children[0]] = given
            continue
        plan, matching, deliverer = prep.decisions.pop(t)
        v_neg, v_x, _, shared_pair = plan
        upward: int | None = None  # the child that extends the node's own half
        if isinstance(mode, int):
            upward, matching = deliverer[mode]
        matched = {v for e in matching for v in e}
        unmatched_neg = [v for v in v_neg if v not in matched and v != upward]
        suppliers_pool = [v for v in v_x if v != upward]
        alpha = tuple(zip(unmatched_neg, suppliers_pool))
        if mode == "gx":
            upward = suppliers_pool[len(alpha)]  # the lowest supplier alpha left spare
        if upward is not None:
            handed[upward] = given
        # A walk through t for each matched delivery, and for each unmatched
        # one a walk to x through its supplier, which is the second half.
        for ci, cj in matching:
            p = shared_pair[(ci, cj)]
            fresh: list = [[], [], 0, 0]
            handed[ci], handed[cj] = (p, fresh, 0), (p, fresh, 1)
        for u, supplier in alpha:
            fresh = [[], [], 0, 0]
            handed[u], handed[supplier] = (min(labels[u].pair_labels), fresh, 0), ("gx", fresh, 1)


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

    to_x: dict[int, list[int]] = {}  # terminal -> its walk to x
    walks: dict[int, list[int]] = {}  # pair index -> its walk from s to t
    for root in prep.roots:
        _realize_tree(prep, root, tree_labels, to_x, walks)
    paths = [walks[j] if j in walks else to_x[p.s] + to_x[p.t][::-1] for j, p in enumerate(prep.pairs)]
    return SolveResult("yes", certify("sedp", inst, paths))
