"""Reference min-fill elimination order: the full rescan that
`edpkit.treedec._min_fill_order` replaced.

At every step it recounts the fill of every remaining vertex and takes the
least, ties to the lowest id.  Quadratic in n, so only for tests, where the
incremental order must equal it vertex for vertex.
"""

from __future__ import annotations

from edpkit.graph import Multigraph


def min_fill_order(g: Multigraph) -> list[int]:
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    order = []
    remaining = set(range(1, g.n + 1))
    while remaining:
        best_v, best_fill = -1, None
        for v in sorted(remaining):
            nb = adj[v]
            fill = 0
            nb_list = sorted(nb)
            for i, a in enumerate(nb_list):
                for b in nb_list[i + 1 :]:
                    if b not in adj[a]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nb_list = sorted(adj[best_v])
        for i, a in enumerate(nb_list):
            for b in nb_list[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        for a in nb_list:
            adj[a].discard(best_v)
        del adj[best_v]
        remaining.discard(best_v)
        order.append(best_v)
    return order
