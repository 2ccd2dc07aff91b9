"""Shared test fixtures: seeded random instance generators.

The base seed comes from EDPKIT_SEED (default 0) so the randomized
corpora are reproducible; individual generators derive their own streams.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import strategies as st

from edpkit.graph import Multigraph, find_fvs_one
from edpkit.instance import EdpInstance, TerminalPair, augmented_graph, normalize_instance
from edpkit.oracle import exhaustive_fracture_number

BASE_SEED = int(os.environ.get("EDPKIT_SEED", "0"))


def rng_for(tag: str) -> random.Random:
    return random.Random(f"{BASE_SEED}:{tag}")


@pytest.fixture
def rng(request) -> random.Random:
    return rng_for(request.node.name)


def random_multigraph(rng, max_n=8, max_m=12, parallel=0.2, directed=False):
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    edges = []
    for _ in range(m):
        if n < 2:
            break
        a, b = rng.sample(range(1, n + 1), 2)
        edges.append((a, b))
        if rng.random() < parallel:
            edges.append((a, b))
    return Multigraph(n, edges, directed=directed)


@st.composite
def multigraphs(draw, max_n=9, max_edges=14):
    """Small multigraphs with parallel edges, isolated vertices and
    several components."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Multigraph(n, [])
    edge = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(edge, max_size=max_edges))
    doubled = draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    return Multigraph(n, edges + doubled)


def grid_graph(w, h):
    """The w x h grid, vertex r*w + c + 1."""
    edges = [(v, v + 1) for v in range(1, w * h + 1) if v % w]
    edges += [(v, v + w) for v in range(1, w * h - w + 1)]
    return Multigraph(w * h, edges)


def random_normalized_instance(rng, max_n=9, max_m=12, max_pairs=3):
    while True:
        n = rng.randint(2, max_n)
        m = rng.randint(0, max_m)
        edges = []
        for _ in range(m):
            a, b = rng.sample(range(1, n + 1), 2)
            edges.append((a, b))
        g = Multigraph(n, edges)
        k = rng.randint(0, max_pairs)
        try:
            cand = rng.sample(range(1, n + 1), 2 * k)
            pairs = [TerminalPair(cand[2 * i], cand[2 * i + 1]) for i in range(k)]
            return normalize_instance(EdpInstance(g, tuple(pairs)))
        except ValueError:
            continue


def random_fvs1_instance(rng, max_base=9, max_pairs=3, parallel_x=0.15):
    """Random forest plus one extra vertex wired to it, then normalized.
    Retries until a single feedback vertex provably suffices."""
    while True:
        n = rng.randint(2, max_base)
        edges = []
        for v in range(2, n + 1):
            if rng.random() < 0.8:
                edges.append((rng.randint(max(1, v - 4), v - 1), v))
        x = n + 1
        for v in range(1, n + 1):
            if rng.random() < 0.5:
                edges.append((v, x))
                if rng.random() < parallel_x:
                    edges.append((v, x))
        g = Multigraph(x, edges)
        k = rng.randint(0, max_pairs)
        try:
            cand = rng.sample(range(1, x + 1), 2 * k)
            pairs = [TerminalPair(cand[2 * i], cand[2 * i + 1]) for i in range(k)]
            inst = normalize_instance(EdpInstance(g, tuple(pairs)))
        except ValueError:
            continue
        if find_fvs_one(inst.g).found:
            return inst


def random_bounded_degree_instance(rng, max_n=12, max_deg=3, max_pairs=3):
    while True:
        n = rng.randint(2, max_n)
        m = rng.randint(0, min(16, 2 * n))
        edges = []
        for _ in range(m):
            a, b = rng.sample(range(1, n + 1), 2)
            edges.append((a, b))
            if rng.random() < 0.1:
                edges.append((a, b))
        g = Multigraph(n, edges)
        k = rng.randint(0, max_pairs)
        try:
            cand = rng.sample(range(1, n + 1), 2 * k)
            pairs = [TerminalPair(cand[2 * i], cand[2 * i + 1]) for i in range(k)]
            inst = normalize_instance(EdpInstance(g, tuple(pairs)))
        except ValueError:
            continue
        if inst.g.max_degree() <= max_deg:
            return inst


def random_fractured_instance(rng, max_n=10, kmax=3, max_pairs=3):
    while True:
        inst = random_normalized_instance(rng, max_n=max_n, max_m=min(14, 2 * max_n), max_pairs=max_pairs)
        if exhaustive_fracture_number(augmented_graph(inst), kmax) is not None:
            return inst


def star_of_paths(total_vertices: int, num_pairs: int) -> EdpInstance:
    """Hub vertex 1 with `num_pairs` cycles through it; two terminal leaves
    hang off the middle of each cycle, paired with the neighboring cycles'
    leaves.  Always a yes-instance (each leaf can reach the hub along its
    own half of the cycle)."""
    x = 1
    budget = total_vertices - 1 - 2 * num_pairs
    seg = max(4, budget // num_pairs)
    edges = []
    next_id = 1
    mids = []
    for _ in range(num_pairs):
        first = next_id + 1
        path = list(range(first, first + seg))
        next_id = path[-1]
        edges.append((x, path[0]))
        edges.extend((a, a + 1) for a in path[:-1])
        edges.append((path[-1], x))
        mids.append((path[len(path) // 2 - 1], path[len(path) // 2]))
    leaf_a = []
    leaf_b = []
    for ma, mb in mids:
        next_id += 1
        edges.append((ma, next_id))
        leaf_a.append(next_id)
        next_id += 1
        edges.append((mb, next_id))
        leaf_b.append(next_id)
    pairs = tuple(
        TerminalPair(leaf_a[i], leaf_b[(i + 1) % num_pairs])
        for i in range(num_pairs)
    )
    return EdpInstance(Multigraph(next_id, edges), pairs)


def delivered_past_matching() -> EdpInstance:
    """17 vertices with feedback vertex 9; the forest is rooted at 1.
    Vertex 2 delivers terminal 12 up to the root through its child 4;
    without that child its conflict graph keeps the edge 5-15 of pair
    (14, 15), whose walk must come from the matching of that smaller
    graph.  No other node delivering a pair has an edge left there."""
    edges = [
        (1, 2), (2, 3), (2, 4), (2, 5), (5, 6), (3, 7), (4, 8), (4, 9), (5, 9), (6, 9),
        (7, 9), (6, 10), (9, 11), (8, 12), (1, 13), (5, 14), (2, 15), (4, 16), (3, 17),
    ]
    pairs = (TerminalPair(10, 11), TerminalPair(12, 13), TerminalPair(14, 15), TerminalPair(16, 17))
    return EdpInstance(Multigraph(17, edges), pairs)
