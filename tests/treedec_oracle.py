"""Reference tree-decomposition check, read straight off the definition,
for `edpkit.treedec.TreeDecomposition.validate` to agree with.

One node has no parent, every other node's parent is a node, and every
node reaches the parentless one by walking parents.  Every bag vertex is
a vertex of the graph.  The bags holding a vertex are connected: a
breadth-first search from one of them along tree edges, staying inside
them, reaches all of them.  Every edge lies in some bag, found by
scanning all bags.  Quadratic, so only for tests.
"""

from __future__ import annotations

from edpkit.graph import Multigraph


def is_tree_decomposition(bags: list[frozenset[int]], parent: list[int], g: Multigraph) -> bool:
    nodes = range(len(bags))
    if len(parent) != len(bags) or sum(p < 0 for p in parent) != 1 or max(parent) >= len(bags):
        return False
    for i in nodes:
        seen = set()
        while parent[i] >= 0:
            if i in seen:
                return False
            seen.add(i)
            i = parent[i]
    if any(not 1 <= v <= g.n for bag in bags for v in bag):
        return False
    neighbours: list[list[int]] = [[] for _ in nodes]
    for i in nodes:
        if parent[i] >= 0:
            neighbours[i].append(parent[i])
            neighbours[parent[i]].append(i)
    for v in range(1, g.n + 1):
        holding = {i for i in nodes if v in bags[i]}
        if not holding:
            return False
        queue = [min(holding)]
        reached = set(queue)
        for i in queue:
            for j in neighbours[i]:
                if j in holding and j not in reached:
                    reached.add(j)
                    queue.append(j)
        if reached != holding:
            return False
    return all(any(u in bag and v in bag for bag in bags) for u, v in g.edges)
