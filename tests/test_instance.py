import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import edpkit
from edpkit import instance
from edpkit.fracture import solve_fracture
from edpkit.graph import Multigraph
from edpkit.instance import (
    CertificateError,
    EdpInstance,
    MultiDemandInstance,
    ParseError,
    PathSet,
    TerminalPair,
    augmented_graph,
    certify,
    normalize_instance,
    parse_instance,
    shortcut_walk,
    verify_solution,
    walk_endpoints,
    write_instance,
)
from edpkit.oracle import brute_force_edp
from edpkit.sedp import solve_sedp
from edpkit.twdp import solve_twdp

from conftest import multigraphs, random_normalized_instance, random_multigraph
from shortcut_oracle import shortcut_by_restarts


def test_parse_basic():
    inst = parse_instance("p edp 2 1 1\ne 1 2\nt 1 2\n")
    assert isinstance(inst, EdpInstance)
    assert inst.g.n == 2 and inst.g.m == 1
    assert inst.pairs == (TerminalPair(1, 2),)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="edge count mismatch"):
        parse_instance("p edp 3 2 0\ne 1 2\n")
    with pytest.raises(ParseError, match="vertex id out of range"):
        parse_instance("p edp 3 1 0\ne 0 3\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("q nonsense\n")
    with pytest.raises(ParseError, match="missing header"):
        parse_instance("c just a comment\n")
    with pytest.raises(ParseError, match="demand count mismatch"):
        parse_instance("p edp 3 0 2\nt 1 2\n")


def test_parse_multi_variants():
    md = parse_instance("p mdedp 3 2 1\ne 1 2\ne 2 3\nt 1 3 2\n")
    assert isinstance(md, MultiDemandInstance) and md.g.directed
    mu = parse_instance("p muedp 3 2 1\ne 1 2\ne 2 3\nt 1 3 2\n")
    assert isinstance(mu, MultiDemandInstance) and not mu.g.directed


def test_round_trip(rng):
    simple = parse_instance("p edp 2 1 1\ne 1 2\nt 1 2\n")
    assert parse_instance(write_instance(simple)) == simple
    for _ in range(40):
        inst = random_normalized_instance(rng, max_n=100, max_m=150, max_pairs=5)
        assert parse_instance(write_instance(inst)) == inst
    empty_pairs = EdpInstance(Multigraph(3, [(1, 2)]), ())
    assert parse_instance(write_instance(empty_pairs)) == empty_pairs
    md = MultiDemandInstance(Multigraph(3, [(1, 2), (2, 3)], directed=True), ((1, 3, 2),))
    assert parse_instance(write_instance(md)) == md


def test_normalize_triangle_example():
    tri = EdpInstance(Multigraph(3, [(1, 2), (2, 3), (1, 3)]), (TerminalPair(1, 2),))
    norm = normalize_instance(tri)
    assert norm.g.n == 5 and norm.g.m == 5
    assert norm.pairs == (TerminalPair(4, 5),)
    assert norm.normalized


def test_normalize_idempotent_and_partial(rng):
    # terminal 1 fine, terminal 2 too crowded: only 2 gets a leaf
    g = Multigraph(5, [(1, 3), (2, 3), (2, 4), (2, 5)])
    inst = EdpInstance(g, (TerminalPair(1, 2),))
    norm = normalize_instance(inst)
    assert norm.pairs == (TerminalPair(1, 6),)
    assert normalize_instance(norm) is norm
    for _ in range(50):
        inst = random_normalized_instance(rng)
        assert normalize_instance(inst) is inst


def test_normal_form_is_built_once_and_hidden():
    raw = EdpInstance(Multigraph(3, [(1, 2), (2, 3), (1, 3)]), (TerminalPair(1, 2),))
    twin = EdpInstance(raw.g, raw.pairs)
    before = (hash(raw), repr(raw))
    norm = normalize_instance(raw)
    assert normalize_instance(raw) is norm
    # The kept normal form is no field: twin, which has none yet, still equals raw.
    assert raw == twin and (hash(raw), repr(raw)) == before == (hash(twin), repr(twin))
    assert normalize_instance(twin) == norm and normalize_instance(twin) is not norm


def test_normalize_preserves_answer(rng):
    for _ in range(120):
        n = rng.randint(2, 8)
        g = random_multigraph(rng, max_n=n, max_m=10, parallel=0.1)
        k = rng.randint(0, 3)
        try:
            cand = rng.sample(range(1, g.n + 1), 2 * k)
            pairs = tuple(TerminalPair(cand[2 * i], cand[2 * i + 1]) for i in range(k))
            inst = EdpInstance(g, pairs)
        except ValueError:
            continue
        norm = normalize_instance(inst)
        raw = brute_force_edp(norm if inst.normalized else _forced(inst))
        # compare via the normalized instance in both roles
        assert brute_force_edp(norm).status == raw.status


def _forced(inst):
    return normalize_instance(inst)


@st.composite
def instances_with_pairs(draw):
    """A small multigraph with up to three pairs; terminals may repeat,
    touch each other and have any degree."""
    g = draw(multigraphs())
    if g.n < 2:
        g = Multigraph(2, [(1, 2)])
    pair = st.tuples(st.integers(1, g.n), st.integers(1, g.n)).filter(lambda p: p[0] != p[1])
    return EdpInstance(g, tuple(TerminalPair(s, t) for s, t in draw(st.lists(pair, max_size=3))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instances_with_pairs())
def test_normal_form_matches_an_edge_scan(inst):
    # Reference rule: a terminal occurrence gets a leaf when its terminal
    # occurs twice, has degree other than one, or ends an edge whose other
    # end is a terminal, found by scanning every edge.
    terminals = [v for p in inst.pairs for v in p.members()]
    adjacent = {v for e in inst.g.edges if set(e) <= set(terminals) for v in e}
    bad = {v for v in terminals if terminals.count(v) > 1 or inst.g.degree(v) != 1 or v in adjacent}
    assert inst.normalized == (not bad)
    edges, pairs, next_id = list(inst.g.edges), [], inst.g.n
    for p in inst.pairs:
        ends = []
        for v in p.members():
            if v in bad:
                next_id += 1
                edges.append((v, next_id))
            ends.append(next_id if v in bad else v)
        pairs.append(TerminalPair(*ends))
    want = EdpInstance(Multigraph(next_id, edges), tuple(pairs)) if bad else inst
    assert normalize_instance(inst) == want and want.normalized


def test_augmented_graph_examples():
    inst = EdpInstance(Multigraph(2, []), (TerminalPair(1, 2),))
    aug = augmented_graph(inst)
    assert aug.edges == ((1, 2),)
    p4 = EdpInstance(Multigraph(4, [(1, 2), (2, 3), (3, 4)]), (TerminalPair(1, 4),))
    aug = augmented_graph(p4)
    assert aug.edges == ((1, 2), (2, 3), (3, 4), (1, 4))
    none = EdpInstance(Multigraph(3, [(1, 2)]), ())
    assert augmented_graph(none).edges == ((1, 2),)


def test_augmented_edge_count(rng):
    for _ in range(30):
        inst = random_normalized_instance(rng)
        assert augmented_graph(inst).m == inst.g.m + len(inst.pairs)


def test_verify_solution_examples():
    p4 = EdpInstance(Multigraph(4, [(1, 2), (2, 3), (3, 4)]), (TerminalPair(1, 4),))
    assert verify_solution(p4, PathSet(((0, 1, 2),))).ok
    two = EdpInstance(
        Multigraph(6, [(1, 2), (2, 3), (3, 4), (5, 2), (3, 6)]),
        (TerminalPair(1, 4), TerminalPair(5, 6)),
    )
    v = verify_solution(two, PathSet(((0, 1, 2), (3, 1, 4))))
    assert not v.ok and "edge reused" in v.reason
    v = verify_solution(p4, PathSet(((0, 1),)))
    assert not v.ok and "wrong endpoint" in v.reason
    v = verify_solution(p4, PathSet(((0, 2),)))
    assert not v.ok and "not consecutive" in v.reason


def test_verified_solution_certifies_yes(rng):
    for _ in range(60):
        inst = random_normalized_instance(rng, max_n=8)
        result = brute_force_edp(inst)
        if result.is_yes:
            assert verify_solution(inst, result.paths).ok


def test_denormalize_paths():
    # Walks of the normal form map back through certify: the leaf edges
    # that normalization appends, indices 3 and 4, are dropped.
    tri = EdpInstance(Multigraph(3, [(1, 2), (2, 3), (1, 3)]), (TerminalPair(1, 2),))
    norm = normalize_instance(tri)
    assert norm.g.edges[3:] == ((1, 4), (2, 5))
    result = brute_force_edp(norm)
    assert result.is_yes
    assert verify_solution(tri, certify("test", tri, result.paths.paths)).ok
    # The walk 4-1-3-2-5 of the normal form is the path 1-3-2 of tri.
    assert certify("test", tri, [(3, 2, 1, 4)]) == PathSet(((2, 1),))


def test_shortcut_walk():
    g = Multigraph(4, [(1, 2), (2, 3), (3, 1), (1, 4)])
    walk = (0, 1, 2, 3)  # 1-2-3-1-4 revisits vertex 1
    short = shortcut_walk(g, walk, 1)
    assert short == (3,)


@pytest.mark.parametrize("walk", [(5,), (1,)], ids=["index-out-of-range", "edge-off-the-walk"])
def test_certify_rejects_broken_walks(walk):
    # Path 1-2-3: edge 5 does not exist, and edge 1 = (2, 3) does not leave 1.
    inst = EdpInstance(Multigraph(3, [(1, 2), (2, 3)]), (TerminalPair(1, 3),))
    with pytest.raises(CertificateError):
        certify("test", inst, [walk])


def test_certify_rejects_a_walk_without_a_pair():
    # The second walk names an edge that does not exist; it must not be
    # dropped unchecked because the instance has one pair.
    inst = EdpInstance(Multigraph(3, [(1, 2), (2, 3)]), (TerminalPair(1, 3),))
    assert certify("test", inst, [(0, 1)]) == PathSet(((0, 1),))
    with pytest.raises(CertificateError):
        certify("test", inst, [(0, 1), (7,)])


def test_certificate_check_survives_optimize():
    # Under `python -O` a failing certificate must still raise, in every
    # engine, instead of being returned as a verified "yes".
    script = textwrap.dedent(
        """
        import edpkit.instance as instance
        from edpkit.fracture import solve_fracture
        from edpkit.graph import Multigraph
        from edpkit.instance import CertificateError, EdpInstance, TerminalPair, Verdict
        from edpkit.oracle import brute_force_edp
        from edpkit.sedp import solve_sedp
        from edpkit.twdp import solve_twdp

        if __debug__:
            raise SystemExit("not running under -O")
        g = Multigraph(7, [(1, 2), (2, 3), (4, 5), (5, 6), (3, 7), (6, 7)])
        inst = EdpInstance(g, (TerminalPair(1, 4),))
        solvers = {
            "sedp": lambda: solve_sedp(inst),
            "twdp": lambda: solve_twdp(inst),
            "fracture": lambda: solve_fracture(inst, kmax=4),
            "brute": lambda: brute_force_edp(inst),
        }
        for name, solve in solvers.items():
            if solve().status != "yes":
                raise SystemExit(f"{name} does not answer yes")
        instance.verify_solution = lambda inst, sol: Verdict(False, "forced failure")
        for name, solve in solvers.items():
            try:
                result = solve()
            except CertificateError as exc:
                print(name, "raised", exc)
            else:
                print(name, "returned", result.status)
        """
    )
    src = str(Path(edpkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [[name, "raised"] for name in ("sedp", "twdp", "fracture", "brute")]
    assert all("forced failure" in line for line in lines)


def test_each_bad_edge_is_reported_with_its_line():
    # parse_instance is the one place that checks a parsed edge (the public
    # Multigraph constructor keeps its own checks, see test_graph.py).
    with pytest.raises(ParseError, match=r"line 3: vertex id out of range: \(2, 4\)"):
        parse_instance("p edp 3 2 0\ne 1 2\ne 2 4\n")
    with pytest.raises(ParseError, match=r"line 4: self-loop rejected: \(3, 3\)"):
        parse_instance("p edp 3 3 0\ne 1 2\nc comment\ne 3 3\ne 2 3\n")


@st.composite
def edge_simple_walks(draw):
    """A small multigraph, a start vertex and an edge-simple walk from it."""
    g = draw(multigraphs())
    if g.n == 0:
        g = Multigraph(1, [])
    start = draw(st.integers(1, g.n))
    walk: list[int] = []
    used: set[int] = set()
    cur = start
    for _ in range(draw(st.integers(0, g.m))):
        free = [e for e in g.incident(cur) if e not in used]
        if not free:
            break
        e = draw(st.sampled_from(free))
        used.add(e)
        walk.append(e)
        cur = g.other_end(e, cur)
    return g, tuple(walk), start


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edge_simple_walks())
def test_shortcut_walk_matches_restarts(case):
    g, walk, start = case
    short = shortcut_walk(g, walk, start)
    assert short == shortcut_by_restarts(g, walk, start)
    assert walk_endpoints(g, short, start) == walk_endpoints(g, walk, start)
    verts = [start]
    for e in short:
        verts.append(g.other_end(e, verts[-1]))
    assert len(set(verts)) == len(verts)


def test_certify_verifies_once_per_yes(monkeypatch):
    # Terminals of degree 2: sedp, twdp and fracture solve the normalized
    # instance, and certify still verifies once, on the caller's instance.
    inst = EdpInstance(Multigraph(6, [(v, v % 6 + 1) for v in range(1, 7)]), (TerminalPair(1, 4),))
    assert not inst.normalized
    checked = []

    def counting(target, sol):
        checked.append(target)
        return verify_solution(target, sol)

    monkeypatch.setattr(instance, "verify_solution", counting)
    solvers = {
        "sedp": lambda: solve_sedp(inst),
        "twdp": lambda: solve_twdp(inst),
        "fracture": lambda: solve_fracture(inst, kmax=4),
        "brute": lambda: brute_force_edp(inst),
    }
    for name, solve in solvers.items():
        checked.clear()
        result = solve()
        assert result.is_yes, name
        assert len(checked) == 1 and checked[0] is inst, name
        assert verify_solution(inst, result.paths).ok, name


def _read_outcome(reader, text):
    """The instance a reader returns, or the type and text of what it raises."""
    try:
        return reader(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)


# Inserted by the mutations below: whitespace that str.split and
# str.splitlines treat alike or apart, comment lines, tags and signs.
_INSERTS = [" ", "  ", "\t", "\r", "\r\n", "\n", "\x0b", "\x0c", "\x1c", "\x85", "c x\n", "c", "e ", "t ", "p", "+", "-", "_", "0", "7"]


def _mutated_instance_text(rng: random.Random) -> str:
    n = rng.randint(1, 7)
    edges = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 6))] if n > 1 else []
    pairs = tuple(TerminalPair(*rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 3))) if n > 1 else ()
    text = write_instance(EdpInstance(Multigraph(n, edges), pairs))
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(5)
        if kind == 0:  # insert
            text = text[:i] + rng.choice(_INSERTS) + text[i:]
        elif kind == 1:  # delete
            text = text[:i] + text[i + 1 :]
        elif kind == 2:  # duplicate
            text = text[:i] + text[i : i + 1] + text[i:]
        elif kind == 3:  # a space for a newline or back, which keeps the field count
            swap = {" ": "\n", "\n": " "}
            text = text[:i] + swap.get(text[i : i + 1], text[i : i + 1]) + text[i + 1 :]
        else:  # a number for another one, perhaps out of range or equal to its neighbour
            start = i
            while start < len(text) and not text[start].isdigit():
                start += 1
            stop = start
            while stop < len(text) and text[stop].isdigit():
                stop += 1
            text = text[:start] + str(rng.randint(0, n + 1)) + text[stop:]
    return text


def test_bulk_reader_agrees_with_the_line_reader():
    # parse_instance reads a plain edp file in bulk; on every file it must
    # give what the line reader alone gives, instance or ParseError.
    rng = random.Random(29)
    read_in_bulk = 0
    for _ in range(6000):
        text = _mutated_instance_text(rng)
        want = _read_outcome(instance._read_lines, text)
        assert _read_outcome(parse_instance, text) == want, text
        read_in_bulk += instance._read_plain_edp(text) is not None
    assert 1000 < read_in_bulk < 5000, read_in_bulk
    # A lone CR ends a line for the line reader, but is no separator of
    # the bulk reader's.
    for text in ("p edp 2 0\r 0", "p edp 2 0\r 0\n", "p edp 2 1 0\ne 1\r2\n"):
        with pytest.raises(ParseError):
            parse_instance(text)
        assert instance._read_plain_edp(text) is None


def test_instance_rejects_non_integer_terminals():
    g = Multigraph(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match=r"vertex id is not an integer: 1\.5"):
        EdpInstance(g, (TerminalPair(1.5, 3),))
    with pytest.raises(ValueError, match="vertex id is not an integer: '3'"):
        EdpInstance(g, (TerminalPair(1, "3"),))
