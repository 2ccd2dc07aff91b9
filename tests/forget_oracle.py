"""Reference forget step: one set of layers per child record, the loop that
`edpkit.twdp._forget` replaced with layers shared by all child records.

Each child record in table order runs its own layers from its own ends, and
offers its final states to the table, so a state that two child records
reach is extended and recorded once for each.  The tables must equal the
library's record for record, witness for witness.
"""

from __future__ import annotations

from math import inf

from edpkit.twdp import Ends, Move, Table, _Context, _edge_moves, _forget_walks


def forget_per_record(ctx: _Context, table: Table, child: Table, v: int, links: list[tuple[int, int]]) -> None:
    partner = ctx.partner
    drop = 0 if v in partner else v
    for ends, walks in child.records.values():
        layer: dict[Ends, tuple[Move, ...]] = {ends: ()}
        for done, (e, u) in enumerate(links, start=1):
            limit = len(links) - done if drop else inf
            nxt: dict[Ends, tuple[Move, ...]] = {}
            for state, moves in layer.items():
                for out, move in _edge_moves(state, e, u, v, limit, partner):
                    if out not in nxt:
                        nxt[out] = moves if move is None else moves + (move,)
            layer = nxt
        offered: set[Ends] = set()
        for state, moves in layer.items():
            if drop:
                state = tuple([p for p in state if drop not in p or p[0] in partner or p[1] in partner])
                if state in offered:
                    continue
                offered.add(state)
            table.add(ctx, (state, _forget_walks, (ends, walks, moves, drop)))
