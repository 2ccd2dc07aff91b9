"""Reference shortcut: the restart loop that `edpkit.instance.shortcut_walk`
replaced with one pass.

After cutting the first loop it finds, the scan starts again from the
beginning of the walk, so it cuts the loops in the order the walk closes
them, as the one-pass version does.  The two must return the same edges
on every edge-simple walk.
"""

from __future__ import annotations

from edpkit.graph import Multigraph


def shortcut_by_restarts(g: Multigraph, path: tuple[int, ...], start: int) -> tuple[int, ...]:
    verts = [start]
    cur = start
    for e in path:
        cur = g.other_end(e, cur)
        verts.append(cur)
    edges = list(path)
    changed = True
    while changed:
        changed = False
        seen: dict[int, int] = {}
        for i, v in enumerate(verts):
            if v in seen:
                j = seen[v]
                del verts[j + 1 : i + 1]
                del edges[j:i]
                changed = True
                break
            seen[v] = i
    return tuple(edges)
