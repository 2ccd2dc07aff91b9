"""Polynomial-time EDP solver for graphs whose feedback vertex set is one vertex.

The instance is rewritten so that (1) every neighbor of the feedback vertex x
is a leaf of the forest g - x with a single x-edge, (2) x is not a terminal,
and (3) every tree is rooted at a non-terminal vertex without an x-edge.
A bottom-up label computation then decides, per subtree, which connectivity
services it can provide (all local pairs routable; additionally a root-to-x
path; or all but one pair routable with one terminal delivered to the subtree
root), with a maximum-cover matching arbitrating between sibling subtrees.
Yes answers are reconstructed into an explicit edge-disjoint path set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from edpkit.graph import Multigraph, find_fvs_one, matching_max_cover
from edpkit.instance import (
    EdpInstance,
    PathSet,
    SolveResult,
    TerminalPair,
    certify,
    map_paths,
    normalize_instance,
    shortcut_walk,
    subdivide_edges,
)


@dataclass(frozen=True)
class LabelSet:
    """Connectivity services a subtree can provide to its parent."""

    gamma_empty: bool
    gamma_x: bool
    pair_labels: frozenset[int]

    @property
    def empty(self) -> bool:
        return not (self.gamma_empty or self.gamma_x or self.pair_labels)


EMPTY_LABELS = LabelSet(False, False, frozenset())


@dataclass
class SedpInstance:
    """A prepared instance: rewritten graph, rooted forest of g - x, and the
    bookkeeping needed to translate solutions back to the input instance."""

    inst: EdpInstance
    x: int
    roots: tuple[int, ...]
    parent: dict[int, int]
    children: dict[int, tuple[int, ...]]
    post_order: tuple[int, ...]
    tree_slice: dict[int, slice]  # root -> its tree's vertices in post_order
    tree_of: dict[int, int]  # vertex -> root of its tree
    x_edge_of: dict[int, int]  # forest leaf -> its unique edge index to x
    pair_of: dict[int, int]  # terminal -> pair index
    edge_origin: tuple[int | None, ...]  # prepared edge -> source edge index


class NotFvsOne(ValueError):
    pass


def prepare_sedp(inst: EdpInstance, x: int) -> SedpInstance:
    """Rewrite (answer-preserving) so the solver's standing assumptions hold.

    Rejects inputs where g - x is not a forest.  The instance must be
    normalized.  New vertices are allocated deterministically: first a leaf
    replacing x as a terminal (if needed), then per-tree root leaves (trees
    ordered by smallest vertex), then one gadget leaf per rewritten x-edge,
    ordered by the edge's forest endpoint and then by edge index.
    """
    g = inst.g
    if not (1 <= x <= g.n):
        raise ValueError(f"feedback vertex {x} out of range")
    if not inst.normalized:
        raise ValueError("prepare_sedp expects a normalized instance")
    # One union-find scan over the edges of g - x rejects a cycle and yields
    # the trees of the forest, listed by smallest vertex with their vertices
    # ascending.  The rewrites below only hang fresh, higher-numbered leaves
    # off these trees, so they stay the trees of the prepared forest in the
    # same order.
    uf = list(range(g.n + 1))

    def find(a: int) -> int:
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        return a

    for u, v in g.edges:
        if u != x and v != x:
            ru, rv = find(u), find(v)
            if ru == rv:
                raise NotFvsOne(f"graph minus vertex {x} is not a forest")
            uf[ru] = rv
    trees: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        if v != x:
            trees.setdefault(find(v), []).append(v)
    forest = list(trees.values())

    edges: list[tuple[int, int]] = list(g.edges)
    pairs: list[TerminalPair] = list(inst.pairs)
    next_id = g.n

    # (2) x must not be a terminal: a fresh leaf takes its place in P.
    for j, p in enumerate(pairs):
        if x in p.members():
            next_id += 1
            edges.append((next_id, x))
            forest.append([next_id])
            other = p.t if p.s == x else p.s
            pairs[j] = TerminalPair(next_id, other) if p.s == x else TerminalPair(other, next_id)
            break  # normalized: x occurs in at most one pair

    terminals = {v for p in pairs for v in p.members()}

    # (3) every tree needs a non-terminal root without an x-edge.
    x_adjacent = {u for u, v in edges if v == x} | {v for u, v in edges if u == x}
    roots: list[int] = []
    for comp in forest:
        if len(comp) == 1:
            roots.append(comp[0])
            continue
        root = next((v for v in comp if v not in terminals and v not in x_adjacent), None)
        if root is not None:
            roots.append(root)
        else:
            # Normalization forbids adjacent terminals, so a multi-vertex
            # tree always has a non-terminal vertex to hang the root off.
            anchor = next(v for v in comp if v not in terminals)
            next_id += 1
            edges.append((anchor, next_id))
            roots.append(next_id)

    # (1) x-edges may only reach forest leaves, one edge each.  Offending
    # x-edges are re-routed through a fresh leaf: the edge (n, x) becomes
    # (n, l) plus (l, x), both remembering the original edge.
    tree_degree = [0] * (next_id + 1)
    x_edges_at: dict[int, list[int]] = {}
    for idx, (u, v) in enumerate(edges):
        if x in (u, v) and u != v:
            other = v if u == x else u
            x_edges_at.setdefault(other, []).append(idx)
        elif x not in (u, v):
            tree_degree[u] += 1
            tree_degree[v] += 1
    # Multi-vertex tree roots are never x-adjacent by the selection rule
    # above, and a single-vertex tree's root is a forest leaf, so only the
    # degree and multiplicity conditions matter here.
    rerouted: dict[int, tuple[int, int]] = {}  # edge index -> (forest end, gadget leaf)
    for n_vertex in sorted(x_edges_at):
        incident = x_edges_at[n_vertex]
        bad = tree_degree[n_vertex] >= 2 or len(incident) >= 2
        if bad:
            for e in incident:
                next_id += 1
                rerouted[e] = (n_vertex, next_id)
    edges, source = subdivide_edges(edges, rerouted)
    # Edges past g.m are the leaves added above; they have no source edge.
    origin = tuple(i if i < g.m else None for i in source)

    prepared_graph = Multigraph(next_id, edges, directed=False)
    prepared = EdpInstance(prepared_graph, tuple(pairs))

    # Rooted forest structures over g - x.
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {v: [] for v in range(1, next_id + 1) if v != x}
    adj: dict[int, list[int]] = {v: [] for v in range(1, next_id + 1) if v != x}
    x_edge_of: dict[int, int] = {}
    for idx, (u, v) in enumerate(prepared_graph.edges):
        if x in (u, v):
            other = v if u == x else u
            assert other not in x_edge_of, "vertex with several x-edges survived preparation"
            x_edge_of[other] = idx
        else:
            adj[u].append(v)
            adj[v].append(u)
    post_order: list[int] = []
    tree_of: dict[int, int] = {}
    spans: list[tuple[int, int]] = []
    seen = set()
    for root in roots:
        start = len(post_order)
        stack = [root]
        parent[root] = 0
        seen.add(root)
        while stack:
            v = stack.pop()
            post_order.append(v)
            tree_of[v] = root
            for w in sorted(adj[v]):
                if w not in seen:
                    seen.add(w)
                    parent[w] = v
                    children[v].append(w)
                    stack.append(w)
        spans.append((start, len(post_order)))
    post_order.reverse()  # children before parents
    total = len(post_order)
    tree_slice = {root: slice(total - stop, total - start) for root, (start, stop) in zip(roots, spans)}
    for v in children:
        children[v].sort()

    pair_of = {}
    for j, p in enumerate(prepared.pairs):
        pair_of[p.s] = j
        pair_of[p.t] = j
    for v, cs in children.items():
        if cs and v in x_edge_of:
            raise AssertionError("inner vertex kept an x-edge after preparation")

    return SedpInstance(
        inst=prepared,
        x=x,
        roots=tuple(roots),
        parent=parent,
        children={v: tuple(cs) for v, cs in children.items()},
        post_order=tuple(post_order),
        tree_slice=tree_slice,
        tree_of=tree_of,
        x_edge_of=x_edge_of,
        pair_of=pair_of,
        edge_origin=origin,
    )


@dataclass
class _NodePlan:
    """Partition and matching data reused by the label rules at one node."""

    v_neg: list[int]
    v_x: list[int]
    v_plain: list[int]
    h_vertices: list[int]
    h_edges: list[tuple[int, int]]  # pairs of child vertices
    shared_pair: dict[tuple[int, int], int]  # H-edge -> lowest shared pair


def _node_plan(children: list[int], labels: dict[int, LabelSet]) -> _NodePlan:
    v_neg = [c for c in children if not labels[c].gamma_empty]
    v_x = [c for c in children if labels[c].gamma_x]
    v_plain = [c for c in children if labels[c].gamma_empty and not labels[c].gamma_x]
    h_vertices = v_neg + v_plain
    plain = set(v_plain)
    h_edges: list[tuple[int, int]] = []
    shared: dict[tuple[int, int], int] = {}
    for i, ci in enumerate(h_vertices):
        for cj in h_vertices[i + 1 :]:
            if ci in plain and cj in plain:
                continue
            common = labels[ci].pair_labels & labels[cj].pair_labels
            if common:
                h_edges.append((ci, cj))
                shared[(ci, cj)] = min(common)
    return _NodePlan(v_neg, v_x, v_plain, sorted(h_vertices), h_edges, shared)


def _max_cover(plan: _NodePlan, exclude: int | None) -> tuple[int, list[tuple[int, int]]]:
    """Covered count of v_neg \\ {exclude} by a maximum-cover matching of
    H(t) - exclude, plus the matching itself as child-vertex pairs."""
    edges = [e for e in plan.h_edges if exclude not in e]
    if not edges:
        return 0, []
    verts = [v for v in plan.h_vertices if v != exclude]
    index = {v: i + 1 for i, v in enumerate(verts)}
    h = Multigraph(len(verts), [(index[a], index[b]) for a, b in edges])
    target = {index[v] for v in plan.v_neg if v != exclude}
    matching = matching_max_cover(h, target)
    cover = len(matching.vertices(h) & target)
    pairs = []
    back = {i: v for v, i in index.items()}
    for e in sorted(matching.pairs):
        a, b = h.edges[e]
        u, w = back[a], back[b]
        pairs.append((u, w) if (u, w) in plan.shared_pair else (w, u))
    return cover, pairs


def compute_labels(prep: SedpInstance, t: int, child_labels: dict[int, LabelSet]) -> LabelSet:
    """Label set of the subtree rooted at t from its children's label sets.

    Leaf rule: a non-terminal leaf provides gamma-empty, and gamma-x exactly
    when it has an x-edge; a terminal leaf provides its own pair label, plus
    gamma-empty when it has an x-edge.  Inner rule: the subtree partition
    and the maximum-cover matching on the conflict graph H(t) decide which
    services survive; a pair label additionally needs a child that can
    deliver one of its terminals while the rest remains coverable.
    """
    children = list(prep.children[t])
    if not children:
        pair = prep.pair_of.get(t)
        has_x = t in prep.x_edge_of
        return LabelSet(
            gamma_empty=(pair is None) or has_x,
            gamma_x=(pair is None) and has_x,
            pair_labels=frozenset() if pair is None else frozenset({pair}),
        )
    labels = {c: child_labels[c] for c in children}
    if any(labels[c].empty for c in children):
        return EMPTY_LABELS
    plan = _node_plan(children, labels)
    cover, _ = _max_cover(plan, exclude=None)
    deficiency = len(plan.v_neg) - cover
    gamma_empty = deficiency <= len(plan.v_x)
    gamma_x = deficiency < len(plan.v_x)

    ok_without: dict[int, bool] = {}
    pair_labels = set()
    for c in children:
        for p in labels[c].pair_labels:
            if p in pair_labels:
                continue
            if c not in ok_without:
                ok_without[c] = _deliverable_via(plan, c)
            if ok_without[c]:
                pair_labels.add(p)
    return LabelSet(gamma_empty, gamma_x, frozenset(pair_labels))


def _deliverable_via(plan: _NodePlan, ti: int) -> bool:
    """Whether child ti can deliver a terminal up to the node while the
    other children's demands stay covered by matching or x-paths."""
    cover_i, _ = _max_cover(plan, exclude=ti)
    neg = len(plan.v_neg) - (1 if ti in plan.v_neg else 0)
    avail = len(plan.v_x) - (1 if ti in plan.v_x else 0)
    return neg - cover_i <= avail


def labels_for_tree(prep: SedpInstance, root: int) -> dict[int, LabelSet]:
    """Bottom-up label sets for every vertex of the tree rooted at root."""
    labels: dict[int, LabelSet] = {}
    for v in prep.post_order[prep.tree_slice[root]]:
        labels[v] = compute_labels(prep, v, labels)
    return labels


def tree_gamma_empty(prep: SedpInstance, root: int) -> bool:
    """Whether the whole tree can route all of its terminal pairs locally."""
    return labels_for_tree(prep, root)[root].gamma_empty


@dataclass
class _Path:
    """A path as an edge-index walk from endpoint a to endpoint b."""

    edges: tuple[int, ...]
    a: int
    b: int

    def reversed(self) -> "_Path":
        return _Path(tuple(reversed(self.edges)), self.b, self.a)


@dataclass
class _Realized:
    paths: list[_Path] = field(default_factory=list)
    special: _Path | None = None  # the path ending at the subtree root, if any


def _tree_edge(g: Multigraph, u: int, v: int) -> int:
    for e in g.incident(u):
        if g.other_end(e, u) == v:
            return e
    raise AssertionError(f"missing tree edge ({u}, {v})")


def _realize_tree(prep: SedpInstance, root: int, labels: dict[int, LabelSet]) -> list[_Path]:
    """Reconstruct an explicit path family witnessing that the tree is
    gamma-empty-connected, following the label rules' constructive steps
    with all arbitrary choices fixed to lowest index."""
    g = prep.inst.g
    modes: dict[int, str | int] = {root: "ge"}
    order: list[int] = []
    stack = [root]
    plans: dict[int, tuple] = {}  # node -> (matching, alpha, exclude, chosen_xpath)
    while stack:
        t = stack.pop()
        order.append(t)
        mode = modes[t]
        children = list(prep.children[t])
        if not children:
            continue
        child_labels = {c: labels[c] for c in children}
        plan = _node_plan(children, child_labels)
        exclude: int | None = None
        if isinstance(mode, int):
            holders = sorted(c for c in children if mode in child_labels[c].pair_labels)
            exclude = next(c for c in holders if _deliverable_via(plan, c))
        cover, matching = _max_cover(plan, exclude)
        matched = {v for e in matching for v in e}
        unmatched_neg = sorted(v for v in plan.v_neg if v not in matched and v != exclude)
        suppliers_pool = sorted(v for v in plan.v_x if v != exclude)
        alpha = dict(zip(unmatched_neg, suppliers_pool))
        used_suppliers = set(alpha.values())
        spare_x = [v for v in suppliers_pool if v not in used_suppliers]
        chosen_xpath: int | None = None
        if mode == "gx":
            chosen_xpath = spare_x[0]
        child_mode: dict[int, str | int] = {}
        if exclude is not None:
            child_mode[exclude] = mode  # deliver this pair upward
        for ci, cj in matching:
            p = plan.shared_pair[(ci, cj)] if (ci, cj) in plan.shared_pair else plan.shared_pair[(cj, ci)]
            child_mode[ci] = p
            child_mode[cj] = p
        for u, supplier in alpha.items():
            child_mode[u] = min(labels[u].pair_labels)
            child_mode[supplier] = "gx"
        if chosen_xpath is not None:
            child_mode[chosen_xpath] = "gx"
        for c in children:
            child_mode.setdefault(c, "ge")
        plans[t] = (matching, alpha, exclude, chosen_xpath)
        for c in children:
            modes[c] = child_mode[c]
            stack.append(c)

    results: dict[int, _Realized] = {}
    for t in reversed(order):
        mode = modes[t]
        children = list(prep.children[t])
        if not children:
            results[t] = _realize_leaf(prep, t, mode)
            continue
        matching, alpha, exclude, chosen_xpath = plans[t]
        out = _Realized()
        for c in children:
            sub = results[c]
            out.paths.extend(sub.paths)
        # Join matched deliveries through t.
        for ci, cj in matching:
            si = results[ci].special
            sj = results[cj].special
            assert si is not None and sj is not None
            edges = si.edges + (_tree_edge(g, ci, t), _tree_edge(g, t, cj)) + sj.reversed().edges
            out.paths.append(_Path(edges, si.a, sj.a))
        # Route unmatched deliveries to x through their supplier.
        for u, supplier in alpha.items():
            su = results[u].special
            sv = results[supplier].special
            assert su is not None and sv is not None
            edges = su.edges + (_tree_edge(g, u, t), _tree_edge(g, t, supplier)) + sv.reversed().edges
            out.paths.append(_Path(edges, su.a, sv.a))
        if exclude is not None:
            sp = results[exclude].special
            assert sp is not None
            out.special = _Path(sp.edges + (_tree_edge(g, exclude, t),), sp.a, t)
        if chosen_xpath is not None:
            sx = results[chosen_xpath].special
            assert sx is not None
            out.special = _Path(sx.edges + (_tree_edge(g, chosen_xpath, t),), sx.a, t)
        results[t] = out
    return results[root].paths


def _realize_leaf(prep: SedpInstance, leaf: int, mode: str | int) -> _Realized:
    g = prep.inst.g
    pair = prep.pair_of.get(leaf)
    x_edge = prep.x_edge_of.get(leaf)
    out = _Realized()
    if mode == "ge":
        if pair is not None:
            assert x_edge is not None, "terminal leaf without x-edge cannot be gamma-empty"
            out.paths.append(_Path((x_edge,), leaf, prep.x))
        return out
    if mode == "gx":
        assert pair is None and x_edge is not None
        out.special = _Path((x_edge,), prep.x, leaf)
        return out
    assert pair == mode, "leaf asked for a pair it does not hold"
    out.special = _Path((), leaf, leaf)
    return out


def solve_sedp(inst: EdpInstance, x: int | None = None) -> SolveResult:
    """Decide the instance and, on yes, return a verified solution.

    The instance is normalized internally if needed.  If x is not supplied,
    a single feedback vertex is searched for; inputs whose feedback vertex
    set number exceeds one are rejected with NotFvsOne.
    """
    work = normalize_instance(inst)
    if x is None:
        probe = find_fvs_one(work.g)
        if probe.vertex is not None:
            x = probe.vertex
        elif probe.already_forest:
            x = 1 if work.g.n else None
        else:
            raise NotFvsOne("no single feedback vertex exists")
    if x is None:  # empty graph
        return SolveResult("yes", PathSet(()))

    prep = prepare_sedp(work, x)
    tree_labels: dict[int, LabelSet] = {}
    for root in prep.roots:
        labels = labels_for_tree(prep, root)
        if not labels[root].gamma_empty:
            return SolveResult("no")
        tree_labels.update(labels)

    all_paths: list[_Path] = []
    for root in prep.roots:
        all_paths.extend(_realize_tree(prep, root, tree_labels))
    by_terminal: dict[int, _Path] = {}
    for path in all_paths:
        for end in (path.a, path.b):
            if end in prep.pair_of:
                assert end not in by_terminal, "terminal served by two paths"
                by_terminal[end] = path

    g = prep.inst.g
    prepared_paths: list[tuple[int, ...]] = []
    for p in prep.inst.pairs:
        ps = by_terminal[p.s]
        if p.t in (ps.a, ps.b):
            walk = ps.edges if ps.a == p.s else ps.reversed().edges
        else:
            pt = by_terminal[p.t]
            to_x = ps.edges if ps.a == p.s else ps.reversed().edges
            from_x = pt.reversed().edges if pt.a == p.t else pt.edges
            walk = to_x + from_x
        prepared_paths.append(shortcut_walk(g, tuple(walk), p.s))

    sol = PathSet(map_paths(prepared_paths, prep.edge_origin))
    return SolveResult("yes", certify("sedp", inst, work, sol))
