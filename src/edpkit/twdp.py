"""Fixed-parameter EDP solver for bounded treewidth plus bounded degree.

A leaf-to-root dynamic program over a nice tree decomposition.  Each node
stores records (used, give, single) describing how edge-disjoint walk
families in the processed subgraph interact with the current bag:

  - used: multiset of bag-vertex pairs through which an already-seen
    terminal pair awaits its connection (each side delivered to one anchor),
  - give: how many spare bag-to-bag walks the subgraph supplies,
  - single: the bag anchor of every terminal whose partner is still unseen.

Walk semantics.  The node steps run on endpoint states: the sorted tuple
of (a, b) end pairs, a <= b, of a family of edge-disjoint walks in the
subgraph below the node, bag-internal edges excluded.  No vertex sets are
kept, so a walk may revisit a vertex but never an edge; certify turns the
root's walks into paths.  A record is a function of the ends alone
(_record), so a stored record is realized by its witness, and a record that
some walk family realizes is stored unless a stored record dominates it
(below).  The degree bound caps multiplicities: a bag vertex of degree d
meets at most d walks.

  - Introduce adds the trivial (v, v) walk of a terminal v.  An introduced
    non-terminal is no walk end, so that node shares its child's table.
  - Forget offers v's edges to the bag one at a time, with one
    deduplicated set of endpoint states per edge, shared by all child
    records of the forget node: the edge stays unused, starts a walk,
    extends a walk at one end, or joins two walks.  A spare walk (no
    terminal end) that still ends at v after the last edge is dropped,
    since a spare walk may always be left unused.
  - Join unites the two children's families and glues walk ends at
    non-terminal bag vertices, but only an end from one child to an end
    from the other, and never two terminal walks of different pairs.  Two
    walks of the same child that meet at a bag vertex x entered x through
    edges of that child's subgraph, and their concatenation was already
    offered where the later of those edges was added (a forget joins two
    walks through an edge) or at a lower join, so a same-side glue adds no
    record.  A terminal's one edge is offered at one forget only, so at
    most one child has a walk from it beyond the trivial one.  Its trivial
    walk matches either side: kept once when both children carry it, and
    replaced by the other child's walk from that terminal when only one
    does.

Antichain tables.  Once a node's candidates are all offered, every record
whose give is a strict sub-multiset of the give of another record with the
same used and single is dropped: its extra spare walks aside, the larger
record offers the same walks, and each node step is monotone in give (with
the forget's drop rule, and a per-edge limit that counts only the ends of
terminal walks at v), so whatever the smaller record leads to, the larger
one leads to with at least as much give.

Each record keeps one witness: the ends and walks of the first candidate
that realized it.  A candidate is its endpoint state plus a recipe (a
replay of forget moves, or the glued chains of a join); a table keeps the
recipe of each new record, and once the dominated records are dropped it
runs the recipes of the survivors only, one witness per surviving record.
Child tables are freed once read.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import inf
from operator import itemgetter
from typing import Callable

from edpkit.instance import (
    EdpInstance,
    SolveResult,
    certify,
    normalize_instance,
)
from edpkit.treedec import (
    NiceTreeDecomposition,
    TreeDecomposition,
    build_tree_decomposition,
    make_nice,
)

# Endpoint state: sorted (a, b) ends, a <= b, one pair per walk.
Ends = tuple[tuple[int, int], ...]
# Walks aligned with an endpoint state: walks[i] runs from ends[i][0] to ends[i][1].
Walks = tuple[tuple[int, ...], ...]
# A candidate: its endpoint state and the recipe that builds its walks.
Candidate = tuple[Ends, Callable[..., Walks], tuple]

RecordKey = tuple[
    tuple[tuple[int, int], ...],  # used, sorted with multiplicity
    tuple[tuple[tuple[int, int], int], ...],  # give as ((x, y), count)
    tuple[tuple[int, int], ...],  # single as (terminal, anchor)
]

EMPTY_RECORD: RecordKey = ((), (), ())

_CLOSED = -1  # anchor of a terminal whose walk already reaches its partner
_end_key = itemgetter(0)


@dataclass
class _Context:
    """Fixed data the derivation needs at one decomposition node."""

    bag: frozenset[int]
    partner: dict[int, int]
    delta: int
    terminals: frozenset[int]  # the terminals in the processed subgraph
    # Pairs (s, t), s < t, with both terminals processed, and the sorted
    # processed terminals whose partner is not.
    closing: list[tuple[int, int]] = field(init=False, repr=False)
    open: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        terms = sorted(self.terminals)
        self.closing = [
            (t, self.partner[t]) for t in terms if self.partner[t] in self.terminals and t < self.partner[t]
        ]
        self.open = [t for t in terms if self.partner[t] not in self.terminals]


def _record(ctx: _Context, ends) -> RecordKey | None:
    """Record realized by walks with these (a, b) ends, or None when no role
    assignment satisfies the semantics (then the family is discarded)."""
    partner = ctx.partner
    bag = ctx.bag
    anchor: dict[int, int] = {}
    gives: dict[tuple[int, int], int] = {}
    for p in ends:
        a, b = p
        if a in partner:
            if a in anchor:
                return None
            if b != a and b in partner:
                if partner[a] != b or b in anchor:
                    return None
                anchor[a] = anchor[b] = _CLOSED
            else:
                anchor[a] = b
        elif b in partner:
            if b in anchor:
                return None
            anchor[b] = a
        else:
            if a == b or a not in bag or b not in bag:
                return None
            count = gives.get(p, 0) + 1
            if count > ctx.delta:
                return None
            gives[p] = count

    used: list[tuple[int, int]] = []
    for s, t in ctx.closing:
        xs = anchor.get(s)
        if xs == _CLOSED:
            continue
        xt = anchor.get(t)
        if xs is None or xt is None or xs == xt or xs not in bag or xt not in bag:
            return None
        used.append((xs, xt) if xs < xt else (xt, xs))
    used.sort()
    for i in range(ctx.delta, len(used)):
        if used[i] == used[i - ctx.delta]:
            return None
    single: list[tuple[int, int]] = []
    for t in ctx.open:
        x = anchor.get(t)
        if x is None or x not in bag:
            return None
        single.append((t, x))
    return (tuple(used), tuple(sorted(gives.items())), tuple(single))


class Table:
    """One node's records: record -> (ends, walks), the witness of the first
    candidate that realized it (deterministic insertion order).

    While a node's candidates are offered, a record maps to its candidate
    (ends, make, args); settle() then drops the dominated records and builds
    the witnesses of the others."""

    def __init__(self) -> None:
        self.records: dict[RecordKey, tuple] = {}

    def add(self, ctx: _Context, state: Candidate) -> None:
        """Offer a candidate; it is kept when its record is new."""
        rec = _record(ctx, state[0])
        if rec is not None and rec not in self.records:
            self.records[rec] = state

    def settle(self) -> None:
        """Keep the records whose give is maximal, and build their walks."""
        records = self.records
        for rec in _dominated(records):
            del records[rec]
        for rec, (ends, make, args) in records.items():
            records[rec] = (ends, make(*args))


def _dominated(records: Collection[RecordKey]) -> set[RecordKey]:
    """Records whose give is a strict sub-multiset of the give of another
    record with the same used and single.

    A give is coded as a bit set with one bit per (pair, copy), so a
    sub-multiset is a subset.  Within one (used, single) group, records are
    taken by falling size and tested against the maximal ones seen so far."""
    dropped: set[RecordKey] = set()
    if len(records) < 2 or not any(rec[1] for rec in records):
        return dropped
    first: dict[tuple, RecordKey] = {}  # (used, single) -> its first record
    groups: dict[tuple, list[RecordKey]] = {}  # the keys of two or more
    for rec in records:
        key = rec[0], rec[2]
        if key in first:
            groups.setdefault(key, [first[key]]).append(rec)
        else:
            first[key] = rec
    bit: dict[tuple[tuple[int, int], int], int] = {}
    code: dict[tuple, tuple[int, int]] = {}  # give -> (size, bit set)
    for group in groups.values():
        coded = []
        for rec in group:
            give = rec[1]
            if give not in code:
                mask = 0
                for pair, count in give:
                    for k in range(count):
                        mask |= 1 << bit.setdefault((pair, k), len(bit))
                code[give] = (mask.bit_count(), mask)
            coded.append((*code[give], rec))
        coded.sort(key=itemgetter(0), reverse=True)
        maximal: list[int] = []
        for _, mask, rec in coded:
            if any(mask & top == mask for top in maximal):
                dropped.add(rec)
            else:
                maximal.append(mask)
    return dropped


def _sorted_walks(items: list[tuple[tuple[int, int], tuple[int, ...]]]) -> Walks:
    """Walks of (ends, walk) items, ends normalized, in endpoint-state order."""
    items.sort(key=_end_key)
    return tuple(w for _, w in items)


def _normalized(a: int, b: int, walk: tuple[int, ...]) -> tuple[tuple[int, int], tuple[int, ...]]:
    return ((a, b), walk) if a <= b else ((b, a), walk[::-1])


def _with_trivial(ends: Ends, walks: Walks, v: int) -> Walks:
    return _sorted_walks([*zip(ends, walks), ((v, v), ())])


# --- forget -----------------------------------------------------------------

# A forget move (e, x, y, i, j): walk i of the current state, oriented to end
# at x (or nothing when i < 0), then edge e from x to y, then walk j oriented
# to start at y (or nothing when j < 0).  Indices refer to the sorted state.
Move = tuple[int, int, int, int, int]


def _drop(items: list, i: int, j: int) -> None:
    """Delete entries i and j of a list; an index below 0 names no entry."""
    for k in sorted((i, j), reverse=True):
        if k >= 0:
            del items[k]


def _replace(ends: Ends, i: int, j: int, a: int, b: int) -> Ends:
    """ends without entries i and j, plus walk (a, b)."""
    rest = list(ends)
    _drop(rest, i, j)
    insort(rest, (a, b) if a <= b else (b, a))
    return tuple(rest)


def _edge_moves(
    ends: Ends, e: int, u: int, v: int, limit: float, partner: dict[int, int]
) -> list[tuple[Ends, Move | None]]:
    """Endpoint states after offering edge e = uv (u stays in the bag, v is
    forgotten), each with the move that realizes it (None: e unused).

    States in which more than `limit` terminal walks (walks with a terminal
    end) end at v are left out.  A move's count is taken from the walks it
    consumes and the terminal walk it extends, so a walk that a join leads
    back into v is not counted; that only keeps more states, which the
    record then rejects.  On v's last edge (limit 0) no spare walk is led
    into v: it would be dropped there, and the same state with the walk
    left unused has the larger give (a walk closed at u, which no record
    accepts, is the exception).  A fresh walk is offered only between two
    non-terminals: a terminal has degree one, and its walk is the trivial
    one until this edge extends it."""
    at_u = []  # (index, far end) of walks with an end at u
    at_v = []
    held = 0  # terminal walks ending at v
    for i, (a, b) in enumerate(ends):
        if a == u or b == u:
            at_u.append((i, b if a == u else a))
        if a == v or b == v:
            far = b if a == v else a
            at_v.append((i, far))
            held += far in partner
    out: list[tuple[Ends, Move | None]] = []
    if held <= limit:
        out.append((ends, None))
        if limit and u not in partner and v not in partner:
            fresh = list(ends)
            insort(fresh, (u, v) if u < v else (v, u))
            out.append((tuple(fresh), (e, u, v, -1, -1)))
    for i, far in at_u:
        if held + (far in partner) <= limit and (limit or far == u):
            out.append((_replace(ends, i, -1, far, v), (e, u, v, i, -1)))
    for i, far in at_v:
        if held - (far in partner) <= limit:
            out.append((_replace(ends, i, -1, far, u), (e, v, u, i, -1)))
    for i, far_u in at_u:
        for j, far_v in at_v:
            if i != j and held - (far_v in partner) <= limit:
                out.append((_replace(ends, i, j, far_u, far_v), (e, u, v, i, j)))
    return out


def _forget_walks(ends: Ends, walks: Walks, moves: tuple[Move, ...], drop: int) -> Walks:
    """Replay forget moves on a child witness, then drop the walks with an
    end at `drop` (0 drops none)."""
    items = list(zip(ends, walks))
    for e, x, y, i, j in moves:
        a, left = x, ()
        if i >= 0:
            (p, w) = items[i]
            a, left = (p[0], w) if p[1] == x else (p[1], w[::-1])
        b, right = y, ()
        if j >= 0:
            (p, w) = items[j]
            b, right = (p[1], w) if p[0] == y else (p[0], w[::-1])
        _drop(items, i, j)
        insort(items, _normalized(a, b, left + (e,) + right), key=_end_key)
    return tuple(w for p, w in items if drop not in p)


def _forget(ctx: _Context, table: Table, child: Table, v: int, links: list[tuple[int, int]]) -> None:
    """Offer v's edges e to bag vertices u, given as (e, u), one at a time,
    then, when v is no terminal, drop every walk that still ends at v.

    A spare walk there may be left unused, and a terminal walk there leaves
    its terminal without a walk, which no record accepts.  Dropping keeps
    the step monotone in give: from a state with extra spare walks, the
    same moves reach the same states plus those walks, which either still
    end in the bag or are dropped.  Only terminal walks must leave v, and
    each edge takes at most one walk end off v, so when v is no terminal a
    state keeps no more terminal walks at v than edges remain to be
    offered.

    One deduplicated state set per edge serves the whole forget node: a
    layer maps each state to its first derivation (child ends, child walks,
    moves), child records taken in table order.  A state's continuations do
    not depend on the record it came from, so a state that two child
    records reach is extended and recorded once, with the derivation from
    the first of them."""
    partner = ctx.partner
    drop = 0 if v in partner else v
    # Distinct records have distinct ends, since a record is a function of
    # its ends.
    layer: dict[Ends, tuple[Ends, Walks, tuple[Move, ...]]] = {
        ends: (ends, walks, ()) for ends, walks in child.records.values()
    }
    for done, (e, u) in enumerate(links, start=1):
        limit = len(links) - done if drop else inf
        nxt: dict[Ends, tuple[Ends, Walks, tuple[Move, ...]]] = {}
        for state, derivation in layer.items():
            for out, move in _edge_moves(state, e, u, v, limit, partner):
                if out not in nxt:
                    ends, walks, moves = derivation
                    nxt[out] = derivation if move is None else (ends, walks, moves + (move,))
        layer = nxt
    offered: set[Ends] = set()
    for state, (ends, walks, moves) in layer.items():
        if drop:
            state = tuple([p for p in state if drop not in p])
            if state in offered:
                continue  # the same state with other walks dropped
            offered.add(state)
        table.add(ctx, (state, _forget_walks, (ends, walks, moves, drop)))


# --- join -------------------------------------------------------------------

# One child witness prepared for gluing: terminal -> its trivial walk, the
# other walks' ends and walks, and non-terminal vertex x -> (the walk ends
# at x, and for each of them the terminal at the walk's far end, or 0 for a
# spare walk).  Walk i's ends are numbered 2i (at ends[i][0]) and 2i + 1 (at
# ends[i][1]).
_Side = tuple[
    dict[int, tuple[int, ...]],
    list[tuple[int, int]],
    list[tuple[int, ...]],
    dict[int, tuple[list[int], list[int]]],
]


def _side(partner: dict[int, int], ends: Ends, walks: Walks) -> _Side:
    trivial: dict[int, tuple[int, ...]] = {}
    pieces: list[tuple[int, int]] = []
    piece_walks: list[tuple[int, ...]] = []
    at: dict[int, tuple[list[int], list[int]]] = {}
    for p, w in zip(ends, walks):
        a, b = p
        if a == b and a in partner:
            trivial[a] = w
            continue
        k = 2 * len(pieces)
        pieces.append(p)
        piece_walks.append(w)
        for end, x, far in ((k, a, b), (k + 1, b, a)):
            if x not in partner:
                site = at.setdefault(x, ([], []))
                site[0].append(end)
                site[1].append(far if far in partner else 0)
    return trivial, pieces, piece_walks, at


@lru_cache(maxsize=None)
def _matchings(m: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every partial matching between range(m) and range(n), as (i, j) pairs."""
    if m == 0:
        return ((),)
    out = list(_matchings(m - 1, n))
    for j in range(n):
        rest = [k for k in range(n) if k != j]
        out += [((m - 1, j), *((i, rest[r]) for i, r in ms)) for ms in _matchings(m - 1, n - 1)]
    return tuple(out)


@lru_cache(maxsize=None)
def _matchings_avoiding(
    m: int, n: int, clash: frozenset[tuple[int, int]]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The partial matchings of _matchings(m, n) that use no pair in clash."""
    return tuple(ms for ms in _matchings(m, n) if clash.isdisjoint(ms))


def _glue_walks(
    pieces: list[tuple[int, int]],
    piece_walks: list[tuple[int, ...]],
    glues: list[tuple[int, int]],
    trivial: list[tuple[int, tuple[int, ...]]],
) -> Walks:
    """Walks of the pieces glued at the matched ends, plus the trivial walks."""
    mate = {}
    for p, q in glues:
        mate[p] = q
        mate[q] = p
    seen = [False] * len(pieces)
    items = [((v, v), w) for v, w in trivial]
    for start in range(2 * len(pieces)):
        if seen[start >> 1] or start in mate:
            continue
        walk: tuple[int, ...] = ()
        end: int | None = start
        while end is not None:
            i = end >> 1
            seen[i] = True
            walk += piece_walks[i][::-1] if end & 1 else piece_walks[i]
            last = end ^ 1
            end = mate.get(last)
        items.append(_normalized(pieces[start >> 1][start & 1], pieces[last >> 1][last & 1], walk))
    return _sorted_walks(items)


def _join(ctx: _Context, table: Table, left: Table, right: Table) -> None:
    """Unite every pair of child witnesses, with every cross-side glue that
    does not join two terminal walks of different pairs (their record would
    be rejected)."""
    partner = ctx.partner
    sides_b = [_side(partner, *w) for w in right.records.values()]
    for witness in left.records.values():
        trivial_a, pieces_a, walks_a, at_a = _side(partner, *witness)
        shift = 2 * len(pieces_a)
        for trivial_b, pieces_b, walks_b, at_b in sides_b:
            trivial = [(v, w) for v, w in trivial_a.items() if v in trivial_b]
            pieces = pieces_a + pieces_b
            piece_walks = walks_a + walks_b
            sites = []
            choices = []
            for x in at_a.keys() & at_b.keys():
                (ea, ta), (eb, tb) = at_a[x], at_b[x]
                sites.append((ea, [shift + end for end in eb]))
                matchings = _matchings(len(ea), len(eb))
                if any(ta) and any(tb):
                    clash = frozenset(
                        (i, j)
                        for i, s in enumerate(ta)
                        if s
                        for j, t in enumerate(tb)
                        if t and partner[s] != t
                    )
                    if clash:
                        matchings = _matchings_avoiding(len(ea), len(eb), clash)
                choices.append(matchings)
            for combo in product(*choices):
                glues = [(ea[i], eb[j]) for matching, (ea, eb) in zip(combo, sites) for i, j in matching]
                ends = _glued_ends(pieces, glues, trivial)
                if ends is not None:
                    table.add(ctx, (ends, _glue_walks, (pieces, piece_walks, glues, trivial)))


def _glued_ends(
    pieces: list[tuple[int, int]],
    glues: list[tuple[int, int]],
    trivial: list[tuple[int, tuple[int, ...]]],
) -> Ends | None:
    """Endpoint state after the glues, or None if one closes a cycle."""
    far: dict[int, int] = {}  # end of a glued walk -> its other end
    for p, q in glues:
        fp = far.pop(p, p ^ 1)
        if fp == q:
            return None
        fq = far.pop(q, q ^ 1)
        far[fp] = fq
        far[fq] = fp
    touched = {p >> 1 for glue in glues for p in glue}
    out = [(v, v) for v, _ in trivial]
    out += [p for i, p in enumerate(pieces) if i not in touched]
    for f, h in far.items():
        if f < h:
            a, b = pieces[f >> 1][f & 1], pieces[h >> 1][h & 1]
            out.append((a, b) if a <= b else (b, a))
    return tuple(sorted(out))


def compute_tables(
    work: EdpInstance,
    nice: NiceTreeDecomposition,
    free_children: bool = True,
) -> list[Table]:
    """Run the record DP over a nice decomposition of a normalized instance
    and return the per-node tables.  A child's table is emptied once its
    parent is computed, so only the root's records remain, unless
    `free_children` is False."""
    g = work.g
    delta = max(g.max_degree(), 1)
    partner: dict[int, int] = {}
    for p in work.pairs:
        partner[p.s] = p.t
        partner[p.t] = p.s

    nodes = nice.nodes
    tables: list[Table] = [Table() for _ in nodes]
    terminals: list[frozenset[int]] = [frozenset()] * len(nodes)
    for i, nd in enumerate(nodes):
        plain = nd.kind == "introduce" and nd.vertex not in partner
        if nd.kind == "forget" or plain:
            # The node processes the terminals its child did: share the set.
            (c,) = nd.children
            terminals[i] = terminals[c]
        else:
            terminals[i] = frozenset(v for v in nd.bag if v in partner).union(
                *(terminals[c] for c in nd.children)
            )
        if plain:
            # No walk ends at the new vertex, so every child record stays
            # as it is, witness and order included: share the table.
            tables[i] = tables[c]
        else:
            ctx = _Context(bag=nd.bag, partner=partner, delta=delta, terminals=terminals[i])
            table = tables[i]
            if nd.kind == "leaf":
                (v,) = nd.bag
                if v in partner:
                    table.add(ctx, (((v, v),), _with_trivial, ((), (), v)))
                else:
                    table.add(ctx, ((), tuple, ()))
            elif nd.kind == "introduce":  # of a terminal
                (c,) = nd.children
                v = nd.vertex
                assert v is not None
                for ends, walks in tables[c].records.values():
                    more = list(ends)
                    insort(more, (v, v))
                    table.add(ctx, (tuple(more), _with_trivial, (ends, walks, v)))
            elif nd.kind == "forget":
                (c,) = nd.children
                v = nd.vertex
                assert v is not None
                links = sorted(
                    (e, g.other_end(e, v))
                    for e in g.incident(v)
                    if g.other_end(e, v) in nd.bag
                )
                _forget(ctx, table, tables[c], v, links)
            else:  # join
                _join(ctx, table, tables[nd.children[0]], tables[nd.children[1]])
            table.settle()
        if free_children:
            for c in nd.children:
                tables[c] = Table()
    return tables


def solve_twdp(
    inst: EdpInstance,
    k: int | None = None,
    decomposition: TreeDecomposition | None = None,
) -> SolveResult:
    """Decide the instance; on yes return a verified PathSet.

    k is a width target: the instance is refused with status
    "width-exceeded", before any table is computed, when the min-fill width
    of the normalized graph is over k.
    The DP runs on build_tree_decomposition's choice: min-fill's tree, or
    a path layout of the same width.  A pre-built
    decomposition can be supplied to pin the decomposition choice (it is
    made nice internally, and k is not checked against it); it must be a
    tree decomposition of the normalized graph, terminal leaves included,
    or TreeDecomposition.validate raises ValueError.
    """
    work = normalize_instance(inst)
    g = work.g
    if g.n == 0:
        return SolveResult("yes", certify("twdp", inst, ()))
    if decomposition is None:
        td = build_tree_decomposition(g, k)
        if k is not None and td.width > k:
            return SolveResult("width-exceeded")
    else:
        td = decomposition
        td.validate(g)
    nice = make_nice(td)
    tables = compute_tables(work, nice)

    witness = tables[nice.root].records.get(EMPTY_RECORD)
    if witness is None:
        return SolveResult("no")
    # At the root every pair is closed by one walk with ends (s, t).
    walk_of = dict(zip(*witness))
    walks = [walk_of[(p.s, p.t)] if p.s < p.t else walk_of[(p.t, p.s)][::-1] for p in work.pairs]
    return SolveResult("yes", certify("twdp", inst, walks))
