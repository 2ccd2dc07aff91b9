"""Reference per-state kernels: `edpkit.twdp`'s `_record` and `_edge_moves`
as they were before they were rewritten for speed, verbatim, with the
`_drop` and `_replace` helpers the successor construction called.

`_record` counted the spare walks in a dict and sorted its items;
`_edge_moves` built each successor through `_replace`.  The library's
kernels must return equal records and, for `_edge_moves`, the same
successors with the same moves in the same order: the order decides which
derivation of a state a forget keeps, and so the witness of its record.
"""

from __future__ import annotations

from bisect import insort

from edpkit.twdp import _CLOSED, Ends, Move, RecordKey, _Context


def _record(ctx: _Context, ends) -> RecordKey | None:
    """Record realized by walks with these (a, b) ends, or None when no role
    assignment satisfies the semantics (then the family is discarded).
    Every processed terminal ends exactly one walk of every offered state
    (forget drops spare walks only), so a terminal is a single exactly when
    its partner has no anchor."""
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
            gives[p] = gives.get(p, 0) + 1

    used: list[tuple[int, int]] = []
    single: list[tuple[int, int]] = []
    for t, x in anchor.items():
        if x == _CLOSED:
            continue
        if x not in bag:
            return None
        s = partner[t]
        xs = anchor.get(s)
        if xs is None:
            single.append((t, x))
        elif t < s:
            if x == xs:
                return None
            used.append((x, xs) if x < xs else (xs, x))
    return (tuple(sorted(used)), tuple(sorted(gives.items())), tuple(sorted(single)))


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
    back into v is not counted; that only keeps more states, and _record
    rejects those that leave a terminal walk at v.  On v's last edge
    (limit 0) no spare walk is led into v: it would be dropped there, and
    the same state with the walk left unused has the larger give (a walk
    closed at u, which no record accepts, is the exception).  A fresh walk is offered only between two
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
