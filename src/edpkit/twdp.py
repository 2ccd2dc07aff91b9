"""Fixed-parameter EDP solver for bounded treewidth plus bounded degree.

A leaf-to-root dynamic program over a nice tree decomposition.  Each node
stores records (used, give, single) describing how edge-disjoint path
families in the processed subgraph interact with the current bag:

  - used: multiset of bag-vertex pairs through which an already-seen
    terminal pair awaits its connection (each side delivered to one anchor),
  - give: how many spare bag-to-bag paths the subgraph supplies,
  - single: the bag anchor of every terminal whose partner is still unseen.

Every record carries one concrete witness (a set of edge-disjoint paths in
the subgraph below the node, bag-internal edges excluded).  All node
procedures produce candidate witnesses and re-derive records from them, so
a record is stored exactly when some witness realizes it.  The degree bound
caps multiplicities: a bag vertex of degree d meets at most d paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from edpkit.graph import Multigraph
from edpkit.instance import (
    EdpInstance,
    PathSet,
    SolveResult,
    certify,
    normalize_instance,
)
from edpkit.treedec import (
    NiceTreeDecomposition,
    TreeDecomposition,
    WidthExceeded,
    build_tree_decomposition,
    make_nice,
)

# A witness path: (edges, a, b, vertex_frozenset); edges walk from a to b.
Path = tuple[tuple[int, ...], int, int, frozenset[int]]
State = frozenset[Path]


def _path_key(p: Path) -> tuple[tuple[int, ...], int, int]:
    return (p[0], p[1], p[2])

RecordKey = tuple[
    tuple[tuple[int, int], ...],  # used, sorted with multiplicity
    tuple[tuple[tuple[int, int], int], ...],  # give as ((x, y), count)
    tuple[tuple[int, int], ...],  # single as (terminal, anchor)
]

EMPTY_RECORD: RecordKey = ((), (), ())


def _mk_path(edges: tuple[int, ...], a: int, b: int, verts: frozenset[int]) -> Path:
    if (b, a) < (a, b):
        a, b = b, a
        edges = tuple(reversed(edges))
    return (edges, a, b, verts)


def _path_vertices(g: Multigraph, edges: tuple[int, ...], start: int) -> frozenset[int]:
    out = {start}
    cur = start
    for e in edges:
        cur = g.other_end(e, cur)
        out.add(cur)
    return frozenset(out)


@dataclass
class _Context:
    """Fixed data the derivation needs at one decomposition node."""

    bag: frozenset[int]
    in_y: frozenset[int]
    partner: dict[int, int]
    delta: int


def derive_record(ctx: _Context, state: State) -> RecordKey | None:
    """Record realized by a path collection, or None when no role assignment
    satisfies the semantics (then the collection is discarded)."""
    terminal_path: dict[int, tuple[Path, int]] = {}
    gives: dict[tuple[int, int], int] = {}
    closed: set[int] = set()
    partner = ctx.partner
    for path in state:
        edges, a, b, _ = path
        a_term = a in partner
        b_term = b in partner
        if a == b:
            if not a_term:
                return None
            if a in terminal_path:
                return None
            terminal_path[a] = (path, a)
            continue
        if a_term and b_term:
            if partner[a] != b:
                return None
            if a in terminal_path or b in terminal_path:
                return None
            terminal_path[a] = (path, b)
            terminal_path[b] = (path, a)
            closed.add(a)
            closed.add(b)
            continue
        if a_term or b_term:
            term, anchor = (a, b) if a_term else (b, a)
            if anchor not in ctx.bag:
                return None
            if term in terminal_path:
                return None
            terminal_path[term] = (path, anchor)
            continue
        if a not in ctx.bag or b not in ctx.bag:
            return None
        key = (a, b) if a < b else (b, a)
        gives[key] = gives.get(key, 0) + 1
        if gives[key] > ctx.delta:
            return None

    used: list[tuple[int, int]] = []
    single: list[tuple[int, int]] = []
    seen_pairs: set[tuple[int, int]] = set()
    for term in ctx.in_y & frozenset(partner):
        mate = partner[term]
        if mate in ctx.in_y:
            pk = (term, mate) if term < mate else (mate, term)
            if pk in seen_pairs:
                continue
            seen_pairs.add(pk)
            if term in closed:
                continue
            if term not in terminal_path or mate not in terminal_path:
                return None
            x1 = terminal_path[term][1]
            x2 = terminal_path[mate][1]
            if x1 == x2 or x1 not in ctx.bag or x2 not in ctx.bag:
                return None
            used.append((x1, x2) if x1 < x2 else (x2, x1))
        else:
            if term not in terminal_path:
                return None
            anchor = terminal_path[term][1]
            if anchor not in ctx.bag:
                return None
            single.append((term, anchor))
    used.sort()
    for key in set(used):
        if used.count(key) > ctx.delta:
            return None
    return (tuple(used), tuple(sorted(gives.items())), tuple(sorted(single)))


class Table:
    """record -> first witness found (deterministic insertion order)."""

    def __init__(self) -> None:
        self.records: dict[RecordKey, State] = {}

    def add(self, ctx: _Context, state: State) -> None:
        rec = derive_record(ctx, state)
        if rec is not None and rec not in self.records:
            self.records[rec] = state

    def __len__(self) -> int:
        return len(self.records)


def _glue_closure(base: State, bag: frozenset[int]) -> Iterator[State]:
    """All states reachable by concatenating pairs of paths that meet at a
    bag vertex and share no other vertex (the restriction of one longer path
    to the two sides of a join)."""
    seen: set[State] = set()
    stack = [base]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        yield state
        paths = sorted(state, key=_path_key)
        for i, p1 in enumerate(paths):
            for p2 in paths[i + 1 :]:
                for merged in _merge_options(p1, p2, bag):
                    stack.append((state - {p1, p2}) | {merged})


def _merge_options(p1: Path, p2: Path, bag: frozenset[int]) -> list[Path]:
    e1, a1, b1, v1 = p1
    e2, a2, b2, v2 = p2
    common = v1 & v2
    if len(common) != 1:
        return []
    (x,) = common
    if x not in bag:
        return []
    ends1 = {a1, b1}
    ends2 = {a2, b2}
    if x not in ends1 or x not in ends2:
        return []
    # Orient p1 to end at x and p2 to start there.
    edges1 = e1 if b1 == x else tuple(reversed(e1))
    start1 = a1 if b1 == x else b1
    edges2 = e2 if a2 == x else tuple(reversed(e2))
    end2 = b2 if a2 == x else a2
    if start1 == end2:
        return []
    return [_mk_path(edges1 + edges2, start1, end2, v1 | v2)]


def _forget_states(g: Multigraph, base: State, v: int, e_v: list[int]) -> Iterator[State]:
    """All assignments of the edges between v and the new bag onto the
    existing paths: each edge stays unused, starts a new path, extends a
    path at one matching endpoint, or joins two paths."""
    out_seen: set[State] = set()

    def rec(state: State, idx: int) -> Iterator[State]:
        if idx == len(e_v):
            if state not in out_seen:
                out_seen.add(state)
                yield state
            return
        e = e_v[idx]
        u, w = g.edges[e]
        # Option: leave e unused.
        yield from rec(state, idx + 1)
        # Option: e becomes a new single-edge path.
        yield from rec(state | {_mk_path((e,), u, w, frozenset((u, w)))}, idx + 1)
        paths = sorted(state, key=_path_key)
        for p in paths:
            edges, a, b, verts = p
            for end, other_endpoint in ((u, w), (w, u)):
                if end not in (a, b) or (a == b and end != a):
                    continue
                if end in (a, b) and other_endpoint in verts:
                    continue
                oriented = edges if b == end else tuple(reversed(edges))
                start = a if b == end else b
                ext = _mk_path(oriented + (e,), start, other_endpoint, verts | {other_endpoint})
                yield from rec((state - {p}) | {ext}, idx + 1)
                if a == b:
                    break  # trivial path has one distinct endpoint
        for i, p1 in enumerate(paths):
            for p2 in paths[i + 1 :]:
                for orient in ((u, w), (w, u)):
                    m = _join_via_edge(p1, p2, e, orient[0], orient[1])
                    if m is not None:
                        yield from rec((state - {p1, p2}) | {m}, idx + 1)

    yield from rec(base, 0)


def _join_via_edge(p1: Path, p2: Path, e: int, u: int, w: int) -> Path | None:
    """Join p1 (must end at u) and p2 (must end at w) through edge e."""
    e1, a1, b1, v1 = p1
    e2, a2, b2, v2 = p2
    if u not in (a1, b1) or w not in (a2, b2):
        return None
    if v1 & v2:
        return None
    edges1 = e1 if b1 == u else tuple(reversed(e1))
    start1 = a1 if b1 == u else b1
    edges2 = e2 if a2 == w else tuple(reversed(e2))
    end2 = b2 if a2 == w else a2
    return _mk_path(edges1 + (e,) + edges2, start1, end2, v1 | v2)


def record_space_bound(bag_size: int, delta: int, open_terminals: int) -> int:
    """Instantiated size bound for one table, from the record shape."""
    pairs = bag_size * (bag_size - 1) // 2
    used_choices = (delta + 1) ** pairs
    give_choices = (delta + 1) ** pairs
    single_choices = max(bag_size, 1) ** min(open_terminals, delta * max(bag_size, 1))
    return used_choices * give_choices * single_choices


def compute_tables(
    work: EdpInstance,
    nice: NiceTreeDecomposition,
    free_children: bool = True,
) -> tuple[list[Table], list[frozenset[int]], list[_Context]]:
    """Run the record DP over a nice decomposition of a normalized instance.

    Returns the per-node tables (children freed unless requested otherwise),
    the per-node processed vertex sets, and the derivation contexts.
    """
    g = work.g
    delta = max(g.max_degree(), 1)
    partner: dict[int, int] = {}
    for p in work.pairs:
        partner[p.s] = p.t
        partner[p.t] = p.s

    nodes = nice.nodes
    tables: list[Table] = [Table() for _ in nodes]
    in_y: list[frozenset[int]] = [frozenset()] * len(nodes)
    contexts: list[_Context] = []
    for i, nd in enumerate(nodes):
        y = frozenset(nd.bag)
        for c in nd.children:
            y |= in_y[c]
        in_y[i] = y
        ctx = _Context(bag=nd.bag, in_y=y, partner=partner, delta=delta)
        contexts.append(ctx)
        table = tables[i]
        if nd.kind == "leaf":
            (v,) = nd.bag
            if v in partner:
                table.add(ctx, frozenset({_mk_path((), v, v, frozenset({v}))}))
            else:
                table.add(ctx, frozenset())
        elif nd.kind == "introduce":
            (c,) = nd.children
            v = nd.vertex
            assert v is not None
            extra = (
                frozenset({_mk_path((), v, v, frozenset({v}))})
                if v in partner
                else frozenset()
            )
            for state in tables[c].records.values():
                table.add(ctx, state | extra)
            if free_children:
                tables[c] = Table()
        elif nd.kind == "forget":
            (c,) = nd.children
            v = nd.vertex
            assert v is not None
            e_v = sorted(
                e
                for e in g.incident(v)
                if g.other_end(e, v) in nd.bag
            )
            for state in tables[c].records.values():
                for out in _forget_states(g, state, v, e_v):
                    table.add(ctx, out)
            if free_children:
                tables[c] = Table()
        else:  # join
            a, b = nd.children
            for sa in tables[a].records.values():
                for sb in tables[b].records.values():
                    for out in _glue_closure(sa | sb, nd.bag):
                        table.add(ctx, out)
            if free_children:
                tables[a] = Table()
                tables[b] = Table()
    return tables, in_y, contexts


def solve_twdp(
    inst: EdpInstance,
    k: int | None = None,
    decomposition: TreeDecomposition | None = None,
) -> SolveResult:
    """Decide the instance; on yes return a verified PathSet.

    k is a treewidth target: on small graphs a proven excess raises
    WidthExceeded (propagated to the caller); the heuristic decomposition
    used on larger graphs never refuses.  A pre-built decomposition can be
    supplied to pin the decomposition choice (it is made nice internally).
    """
    work = normalize_instance(inst)
    g = work.g
    if g.n == 0:
        return SolveResult("yes", PathSet(()))
    td = decomposition if decomposition is not None else build_tree_decomposition(g, k)
    nice = make_nice(td)
    tables, _, _ = compute_tables(work, nice)

    root_table = tables[nice.root]
    witness = root_table.records.get(EMPTY_RECORD)
    if witness is None:
        return SolveResult("no")
    by_terminal: dict[int, Path] = {}
    for path in witness:
        _, a, b, _ = path
        by_terminal[a] = path
        by_terminal[b] = path
    out_paths = []
    for p in work.pairs:
        path = by_terminal[p.s]
        edges, a, b, _ = path
        out_paths.append(edges if a == p.s else tuple(reversed(edges)))
    sol = PathSet(tuple(out_paths))
    return SolveResult("yes", certify("twdp", inst, work, sol))
