"""Independent signature oracle: edge-labeling enumeration.

Assigns every component-incident edge a class label (or unused), keeps
assignments whose classes form paths, and derives the admitted
configurations directly from the definition.  Structurally different from
the production search, which decides each candidate configuration with one
backtracking path search; only usable for small edge sets.
"""

from __future__ import annotations

from itertools import permutations

from edpkit.fracture import Config, FractureModulator, canonical_trace
from edpkit.instance import EdpInstance


def signature_by_labeling(inst: EdpInstance, comp: set[int], x: FractureModulator) -> set[Config]:
    g = inst.g
    mod = x.vertices
    allowed = comp | mod
    edge_ids = [
        i
        for i, (u, v) in enumerate(g.edges)
        if u in allowed and v in allowed and (u in comp or v in comp)
    ]
    pair_indices = sorted(j for j, p in enumerate(inst.pairs) if set(p.members()) & comp)
    terminals = {}
    for j in pair_indices:
        terminals[inst.pairs[j].s] = j
        terminals[inst.pairs[j].t] = j
    k = len(mod)
    configs: set[Config] = set()

    def class_is_path(cls: list[int]) -> tuple[int, int] | None:
        deg: dict[int, int] = {}
        for e in cls:
            a, b = g.edges[e]
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        ends = [v for v, d in deg.items() if d == 1]
        if len(ends) != 2 or any(d > 2 for d in deg.values()):
            return None
        seen = {ends[0]}
        stack = [ends[0]]
        adj: dict[int, list[int]] = {}
        for e in cls:
            a, b = g.edges[e]
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != set(deg):
            return None
        return min(ends), max(ends)

    def assignments(i: int, classes: list[list[int]]):
        if i == len(edge_ids):
            yield [list(c) for c in classes]
            return
        e = edge_ids[i]
        yield from assignments(i + 1, classes)  # unused
        for ci in range(len(classes) + 1):
            if ci == len(classes):
                classes.append([e])
                yield from assignments(i + 1, classes)
                classes.pop()
            else:
                classes[ci].append(e)
                yield from assignments(i + 1, classes)
                classes[ci].pop()

    for labeling in assignments(0, []):
        paths = []
        ok = True
        for cls in labeling:
            ends = class_is_path(cls)
            if ends is None:
                ok = False
                break
            paths.append(ends)
        if not ok:
            continue
        internal: set[int] = set()
        anchors: dict[int, list[int]] = {}
        beta: dict[tuple[int, int], int] = {}
        for a, b in paths:
            a_t, b_t = a in terminals, b in terminals
            if a_t and b_t:
                if terminals[a] != terminals[b]:
                    ok = False
                    break
                internal.add(terminals[a])
            elif a_t or b_t:
                term, anchor = (a, b) if a_t else (b, a)
                if anchor not in mod:
                    ok = False
                    break
                anchors.setdefault(terminals[term], []).append(anchor)
            else:
                if a not in mod or b not in mod:
                    ok = False
                    break
                beta[(a, b)] = beta.get((a, b), 0) + 1
        if not ok:
            continue
        routed = []
        for j in pair_indices:
            if j in internal:
                if j in anchors:
                    ok = False
                    break
                continue
            pair_anchors = anchors.get(j, [])
            if len(pair_anchors) != 2 or pair_anchors[0] == pair_anchors[1]:
                ok = False
                break
            routed.append(tuple(sorted(pair_anchors)))
        if not ok:
            continue
        # Each terminal must be an endpoint of exactly one path: count.
        endpoint_count: dict[int, int] = {}
        for a, b in paths:
            for v in (a, b):
                if v in terminals:
                    endpoint_count[v] = endpoint_count.get(v, 0) + 1
        if any(c != 1 for c in endpoint_count.values()) or set(endpoint_count) != set(terminals):
            continue
        beta_key = tuple(sorted(beta.items()))
        if any(c > k * k for _, c in beta_key):
            continue
        if len(routed) > k:
            continue
        trace_opts = []
        for xa, xb in routed:
            rest = sorted(mod - {xa, xb})
            opts = []
            for r in range(0, len(rest) + 1):
                for mid in permutations(rest, r):
                    seq = (xa, *mid, xb)
                    if len(seq) <= k:
                        opts.append(canonical_trace(seq))
            trace_opts.append(opts)

        def expand(idx: int, chosen: list):
            if idx == len(routed):
                configs.add((tuple(sorted(chosen)), beta_key))
                return
            for opt in trace_opts[idx]:
                chosen.append(opt)
                expand(idx + 1, chosen)
                chosen.pop()

        expand(0, [])
    return configs
