import contextlib
import gc
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.generators.atlas import graph_atlas_g

from edpkit import cli, fracture, graph, instance, oracle, reductions, sedp, twdp
from edpkit.cli import (
    EXIT_INTERNAL,
    EXIT_NO,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    EXIT_YES,
    main,
    parse_mcc,
    parse_solution,
)
from edpkit.graph import find_fvs_one
from edpkit.graph import Multigraph
from edpkit.instance import EdpInstance, ParseError, TerminalPair, parse_instance, write_instance
from edpkit.oracle import exhaustive_fracture_number

from conftest import grid_graph, star_of_paths


def write(tmp_path: Path, name: str, text: str) -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="ascii")
    return p


P4 = "p edp 4 3 1\ne 1 2\ne 2 3\ne 3 4\nt 1 4\n"
NO_INSTANCE = "p edp 6 5 2\ne 1 5\ne 2 5\ne 5 6\ne 6 3\ne 6 4\nt 1 3\nt 2 4\n"


def test_solve_yes_writes_solution(tmp_path, capsys):
    inst = write(tmp_path, "p4.edp", P4)
    code = main(["solve", str(inst)])
    assert code == EXIT_YES
    out = capsys.readouterr().out
    assert "s yes" in out
    sol = tmp_path / "p4.edp.sol"
    assert sol.exists()
    verdict, paths = parse_solution(sol.read_text())
    assert verdict == "yes" and paths.paths == ((0, 1, 2),)
    assert main(["verify", str(inst), str(sol)]) == EXIT_YES


def test_solution_path_takes_one_file(tmp_path, capsys):
    # A second "yes" would overwrite the first file's solution.
    first = write(tmp_path, "a.edp", P4)
    second = write(tmp_path, "b.edp", "p edp 3 2 1\ne 1 2\ne 2 3\nt 3 1\n")
    out = tmp_path / "out.sol"
    assert main(["solve", "--solution", str(out), str(first), str(second)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--solution" in captured.err and "s yes" not in captured.out
    assert not out.exists()


def test_solve_engines_agree(tmp_path):
    inst = write(tmp_path, "p4.edp", P4)
    no_inst = write(tmp_path, "no.edp", NO_INSTANCE)
    for engine in ("auto", "sedp", "twdp", "fracture", "brute"):
        assert main(["solve", "--engine", engine, str(inst)]) == EXIT_YES
        assert main(["solve", "--engine", engine, str(no_inst)]) == EXIT_NO


def grid_text(extra_edges, pairs, w=4, h=4):
    """A w x h grid (vertex r*w + c + 1) plus extra edges, as an instance."""
    edges = [(v, v + 1) for v in range(1, w * h + 1) if v % w]
    edges += [(v, v + w) for v in range(1, w * h - w + 1)]
    edges += extra_edges
    n = max([w * h] + [v for e in extra_edges for v in e])
    lines = [f"p edp {n} {len(edges)} {len(pairs)}"]
    lines += [f"e {u} {v}" for u, v in edges]
    lines += [f"t {a} {b}" for a, b in pairs]
    return "\n".join(lines) + "\n"


DENSE9_EDGES = [
    (1, 3), (1, 5), (1, 8), (1, 9), (2, 3), (2, 7), (3, 4), (3, 5), (3, 6), (3, 8), (3, 9), (4, 5),
    (4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (5, 8), (5, 9), (6, 8), (6, 9), (7, 8), (8, 9),
]
# Hub 1 is the one feedback vertex: the path 2-...-9 and the path 5-10-11
# hang off it, and every pair's terminals have degree 2.
FVS1_EDGES = [(v, v + 1) for v in range(2, 9)] + [(1, 2), (1, 4), (1, 6), (1, 9), (5, 10), (10, 11), (1, 11)]
GOLDEN = {
    "twdp": (
        grid_text([], [(1, 36), (6, 31)], w=6, h=6),
        "s yes\npath 1: 31 37 43 49 21 22 23 24 25 60\npath 2: 5 35 9 34 3 33 39 45 51 57 27 26\n",
    ),
    # The modulator {1, 3, 4, 7} has the three edges 1-3, 3-4 and 4-7 inside it.
    "fracture": (
        write_instance(EdpInstance(Multigraph(9, DENSE9_EDGES), (TerminalPair(3, 2),))),
        "s yes\npath 1: 8 2 3 23 6\n",
    ),
    "sedp": (
        write_instance(
            EdpInstance(Multigraph(11, FVS1_EDGES), (TerminalPair(2, 9), TerminalPair(3, 10), TerminalPair(4, 8)))
        ),
        "s yes\npath 1: 8 11\npath 2: 2 9 14 13\npath 3: 3 4 5 6\n",
    ),
    "brute": (P4, "s yes\npath 1: 1 2 3\n"),
}


@pytest.mark.parametrize("engine", sorted(GOLDEN))
def test_golden_certificates(tmp_path, capsys, engine):
    """Each engine's certificate for one instance, byte for byte: a change
    that keeps every verdict can still change which paths are written."""
    text, want = GOLDEN[engine]
    inst = write(tmp_path, "case.edp", text)
    sol = tmp_path / "case.sol"
    assert main(["solve", "--engine", engine, "--solution", str(sol), str(inst)]) == EXIT_YES
    assert f"[{engine}]" in capsys.readouterr().out
    assert sol.read_text(encoding="ascii") == want
    assert main(["verify", str(inst), str(sol)]) == EXIT_YES


def test_auto_twdp_with_terminals_on_grid_vertices(tmp_path, capsys):
    # auto falls through to twdp on these grids.  Terminals written on grid
    # vertices get leaves from normalization, which the decomposition must
    # cover; otherwise reconstruction raises KeyError (every terminal on a
    # grid vertex) or auto answers a wrong "no" (one terminal per pair).
    cases = {
        "all-on-vertex.edp": grid_text([], [(1, 16), (4, 13)]),
        "one-on-vertex.edp": grid_text([(16, 17), (13, 18)], [(1, 17), (4, 18)]),
        "no-on-vertex.edp": grid_text([], [(1, 16), (1, 13), (1, 11)]),
    }
    for name, text in cases.items():
        inst = write(tmp_path, name, text)
        want = main(["solve", "--engine", "brute", str(inst)])
        assert main(["solve", "--engine", "twdp", str(inst)]) == want
        assert main(["solve", str(inst)]) == want, name
        assert "[twdp]" in capsys.readouterr().out.splitlines()[-1]
        if want == EXIT_YES:
            assert main(["verify", str(inst), str(tmp_path / (name + ".sol"))]) == EXIT_YES
    capsys.readouterr()


def test_twdp_honours_width_limit_on_large_graphs(tmp_path, capsys):
    # A 6x6 grid has min-fill width 6; the DP must not run on it.
    inst = write(tmp_path, "grid6.edp", grid_text([], [(1, 36), (6, 31)], w=6, h=6))
    assert main(["solve", "--engine", "twdp", "--width-limit", "3", str(inst)]) == EXIT_UNKNOWN
    out = capsys.readouterr().out
    assert "s unknown [twdp]" in out and "exceeds target 3" in out


def test_auto_width_cap_on_small_graphs_falls_back_to_brute(tmp_path, capsys):
    two_triangles = "p edp 6 6 1\ne 1 2\ne 2 3\ne 1 3\ne 4 5\ne 5 6\ne 4 6\nt 1 2\n"
    inst = write(tmp_path, "tri2.edp", two_triangles)
    assert main(["solve", "--kmax", "0", "--width-limit", "1", str(inst)]) == EXIT_YES
    assert "s yes [brute]" in capsys.readouterr().out


# Hubs 1, 2, 3 joined to each of 4..9: no single feedback vertex, but a
# fracture modulator of three vertices.  Its terminals have degree 3, so it
# is not normalized.
HUBS = "p edp 9 18 2\n" + "".join(f"e {h} {v}\n" for v in range(4, 10) for h in (1, 2, 3)) + "t 4 5\nt 6 7\n"


@pytest.mark.parametrize(
    "text, options, engine",
    [
        (grid_text([], [(1, 16), (4, 13)]), [], "twdp"),
        (grid_text([], [(1, 16), (4, 13)]), ["--width-limit", "1"], "brute"),
        (HUBS, [], "fracture"),
    ],
    ids=["twdp", "brute-past-width-limit", "fracture-on-hubs"],
)
def test_auto_builds_one_normal_form(tmp_path, monkeypatch, capsys, text, options, engine):
    # sedp, fracture and twdp each normalize the raw instance, and all of
    # them get the one normal form that the instance keeps.
    built = []

    def keeping(inst):
        out = instance.normalize_instance(inst)
        if out is not inst:
            built.append(out)
        return out

    for module in (cli, fracture, sedp, twdp):
        monkeypatch.setattr(module, "normalize_instance", keeping)
    inst = write(tmp_path, "in.edp", text)
    assert main(["solve", *options, str(inst)]) == EXIT_YES
    assert f"[{engine}]" in capsys.readouterr().out
    assert len({id(out) for out in built}) == 1


K5 = "p edp 5 10 1\n" + "".join(f"e {a} {b}\n" for a in range(1, 6) for b in range(a + 1, 6)) + "t 1 2\n"


@pytest.mark.parametrize(
    "text, options, engine, reason",
    [
        (grid_text([], [(1, 16)]), ["--engine", "sedp"], "sedp", "no single feedback vertex exists"),
        (K5, ["--engine", "twdp", "--width-limit", "2"], "twdp", "decomposition width exceeds target 2"),
        (grid_text([], [(1, 16)]), ["--engine", "fracture", "--kmax", "0"], "fracture",
         "no fracture modulator of size <= 0"),
        (grid_text([], [(1, 16)]), ["--engine", "brute", "--budget", "0"], "brute", "budget exceeded"),
        (grid_text([], [(1, 16)]), ["--width-limit", "1", "--budget", "0"], "brute",
         "decomposition width over auto cap 1"),
    ],
    ids=["sedp", "twdp", "fracture", "brute", "auto-past-width-limit"],
)
def test_refusal_reasons(tmp_path, capsys, text, options, engine, reason):
    inst = write(tmp_path, "in.edp", text)
    assert main(["solve", *options, str(inst)]) == EXIT_UNKNOWN
    out = capsys.readouterr().out
    assert re.fullmatch(rf"{re.escape(str(inst))}: s unknown \[{engine}\] \d+\.\d\ds \({re.escape(reason)}\)\n", out), out


@st.composite
def small_grids(draw):
    """A 3x3 to 4x5 grid with one or two pairs on any of its vertices."""
    w, h = draw(st.integers(3, 4)), draw(st.integers(3, 5))
    vertex = st.integers(1, w * h)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    return grid_text([], draw(st.lists(pair, min_size=1, max_size=2)), w=w, h=h)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(text=small_grids(), cap=st.integers(1, 5))
def test_auto_cap_is_the_twdp_width_limit(tmp_path_factory, text, cap):
    # These grids have no single feedback vertex and --kmax 0 refutes every
    # modulator, so auto reaches twdp.  Its cap and --engine twdp's
    # --width-limit are one decision on the min-fill width of the
    # normalized graph.  Brute force gets no budget, so a fallback keeps its
    # reason in the summary.
    work = tmp_path_factory.mktemp("grid")
    inst = write(work, "g.edp", text)
    runs = {}
    for engine in ("auto", "twdp"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([
                "solve", "--engine", engine, "--kmax", "0", "--width-limit", str(cap), "--budget", "0",
                "--solution", str(work / f"{engine}.sol"), str(inst),
            ])
        runs[engine] = code, out.getvalue()
    (auto_code, auto_out), (twdp_code, twdp_out) = runs["auto"], runs["twdp"]
    refused = twdp_code == EXIT_UNKNOWN and f"exceeds target {cap}" in twdp_out
    fell_back = "[brute]" in auto_out and f"over auto cap {cap}" in auto_out
    assert fell_back == refused, (text, auto_out, twdp_out)
    if not refused:
        assert "[twdp]" in auto_out and "[twdp]" in twdp_out, (auto_out, twdp_out)
        assert auto_code == twdp_code, text
        if auto_code == EXIT_YES:
            assert (work / "auto.sol").read_bytes() == (work / "twdp.sol").read_bytes(), text


def test_auto_probes_feedback_vertex_once(tmp_path, monkeypatch):
    calls = []

    def counting(g):
        calls.append(g.n)
        return find_fvs_one(g)

    monkeypatch.setattr(cli, "find_fvs_one", counting)
    monkeypatch.setattr(sedp, "find_fvs_one", counting)
    hub = write(tmp_path, "hub.edp", write_instance(star_of_paths(600, 60)))
    triangle = write(tmp_path, "tri.edp", "p edp 3 3 1\ne 1 2\ne 2 3\ne 1 3\nt 2 3\n")
    for inst in (hub, triangle, write(tmp_path, "p4.edp", P4)):
        calls.clear()
        assert main(["solve", str(inst)]) == EXIT_YES
        assert len(calls) == 1, inst.name


def test_solve_multiple_files_with_jobs(tmp_path, capsys):
    a = write(tmp_path, "a.edp", P4)
    b = write(tmp_path, "b.edp", NO_INSTANCE)
    code = main(["solve", str(a), str(b)])
    assert code == EXIT_NO  # worst outcome
    out = capsys.readouterr().out
    assert "a.edp" in out and "b.edp" in out


def test_verify_rejects_tampered(tmp_path, capsys):
    inst = write(tmp_path, "p4.edp", P4)
    assert main(["solve", str(inst)]) == EXIT_YES
    sol = tmp_path / "p4.edp.sol"
    sol.write_text("s yes\npath 1: 1 2\n", encoding="ascii")
    assert main(["verify", str(inst), str(sol)]) == EXIT_NO
    capsys.readouterr()


@pytest.mark.parametrize(
    "path_line, reason",
    [
        ("path 1: 1 9", "path 1: edge index 9 out of range"),
        ("path 1: 1 1 2", "edge reused: 1"),
        ("path 1: 0", "path 1: edge index 0 out of range"),
    ],
    ids=["past-the-last-edge", "reused", "zero"],
)
def test_verify_names_edges_as_the_file_does(tmp_path, capsys, path_line, reason):
    # Solution files number edges from 1, and so does every rejection.
    inst = write(tmp_path, "p3.edp", "p edp 3 2 1\ne 1 2\ne 2 3\nt 1 3\n")
    sol = write(tmp_path, "p3.sol", f"s yes\n{path_line}\n")
    assert main(["verify", str(inst), str(sol)]) == EXIT_NO
    assert capsys.readouterr().out == f"rejected: {reason}\n"


@pytest.mark.parametrize(
    "sol_text", ["s no\npath 1: 1 2 3\ns yes\n", "s yes\npath 1: 1 2 3\ns no\n"], ids=["no-then-yes", "yes-then-no"]
)
def test_verify_rejects_a_second_verdict_line(tmp_path, capsys, sol_text):
    # The last verdict line used to win: the first file passed as "yes".
    inst = write(tmp_path, "p4.edp", P4)
    sol = write(tmp_path, "p4.sol", sol_text)
    with pytest.raises(ParseError, match="duplicate verdict line"):
        parse_solution(sol_text)
    assert main(["verify", str(inst), str(sol)]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_rejects_extra_verdict_fields(tmp_path, capsys):
    inst = write(tmp_path, "p4.edp", P4)
    sol_text = "s yes extra words\npath 1: 1 2 3\n"
    sol = write(tmp_path, "p4.sol", sol_text)
    with pytest.raises(ParseError, match="line 1: malformed verdict line"):
        parse_solution(sol_text)
    assert main(["verify", str(inst), str(sol)]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "sol_text, message",
    [
        ("c a comment\n\ns maybe\n", "line 3: missing or malformed verdict line"),
        ("c no verdict at all\n", "line 1: missing or malformed verdict line"),
        ("s no\npath 1: 1 2 3\n", 'line 2: path line in a "no" solution'),
        ("path 1: 1 2 3\ns no\n", 'line 1: path line in a "no" solution'),
    ],
    ids=["unknown-verdict-names-its-line", "missing-verdict", "no-then-path", "path-then-no"],
)
def test_verify_rejects_a_bad_verdict_at_its_line(tmp_path, capsys, sol_text, message):
    # A "no" file carries no paths; one that does used to pass as "no".
    inst = write(tmp_path, "p4.edp", P4)
    sol = write(tmp_path, "p4.sol", sol_text)
    with pytest.raises(ParseError, match=message):
        parse_solution(sol_text)
    assert main(["verify", str(inst), str(sol)]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_a_no_file_and_a_multi_demand_instance(tmp_path, capsys):
    # A "no" file has nothing to check, and only plain EDP instances are
    # checked at all.
    no = write(tmp_path, "no.sol", "s no\n")
    inst = write(tmp_path, "p4.edp", P4)
    assert main(["verify", str(inst), str(no)]) == EXIT_NO
    assert capsys.readouterr().out == "s no (nothing to verify)\n"
    multi = write(tmp_path, "m.muedp", MUEDP_BASE)
    assert main(["verify", str(multi), str(no)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: verification targets plain EDP instances\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("p edp 3 -1 0\n", "line 1: negative count in header"),
        ("p muedp 2 1 1\ne 1 2\nt 1 2 -1\n", "line 3: negative demand multiplicity"),
    ],
    ids=["header", "demand-multiplicity"],
)
def test_negative_counts_exit_usage(tmp_path, capsys, text, message):
    inst = write(tmp_path, "neg.edp", text)
    assert main(["solve", str(inst)]) == EXIT_USAGE
    assert message in capsys.readouterr().out


def test_unwritable_solution_path_exits_usage(tmp_path, capsys):
    # An OSError writing the solution is a usage error, not an internal one.
    inst = write(tmp_path, "p4.edp", P4)
    out = tmp_path / "no-such-dir" / "p4.sol"
    assert main(["solve", "--solution", str(out), str(inst)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err


def test_unwritable_solution_file_does_not_stop_the_next_file(tmp_path, capsys):
    # a.edp.sol is a directory: a.edp exits 64 with a summary, and b.edp is
    # still solved and its solution written.
    a = write(tmp_path, "a.edp", P4)
    b = write(tmp_path, "b.edp", P4)
    (tmp_path / "a.edp.sol").mkdir()
    assert main(["solve", str(a), str(b)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "a.edp.sol" in captured.err
    assert "Traceback" not in captured.err
    summaries = captured.out.splitlines()
    assert len(summaries) == 2
    assert summaries[0].startswith(f"{a}: s yes") and "solution not written" in summaries[0]
    assert summaries[1].startswith(f"{b}: s yes")
    assert main(["verify", str(b), str(tmp_path / "b.edp.sol")]) == EXIT_YES


def test_forest_solve_does_not_import_networkx(tmp_path):
    # networkx is imported by the first matching call, and a path needs none.
    inst = write(tmp_path, "p4.edp", P4)
    child = (
        "import sys\n"
        "from edpkit.cli import main\n"
        f"code = main(['solve', {str(inst)!r}])\n"
        "print(code, 'networkx' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"{EXIT_YES} False", run.stdout


def test_matching_solve_does_not_import_networkx(tmp_path):
    # Every H(t) of the hub trees is one edge between a pair's two
    # terminals, which the direct matching rule answers without networkx.
    inst = write(tmp_path, "hub.edp", hub_trees_text(30))
    child = (
        "import sys\n"
        "from edpkit import graph, sedp\n"
        "from edpkit.cli import main\n"
        "calls = []\n"
        "def counting(h, target):\n"
        "    calls.append(h.m)\n"
        "    return graph.matching_max_cover(h, target)\n"
        "sedp.matching_max_cover = counting\n"
        f"code = main(['solve', '--engine', 'sedp', {str(inst)!r}])\n"
        "print(code, len(calls), 'networkx' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"{EXIT_YES} 30 False", run.stdout


def test_solve_multi_instance_brute(tmp_path):
    md = write(tmp_path, "two.mdedp", "p mdedp 2 2 1\ne 1 2\ne 1 2\nt 1 2 2\n")
    assert main(["solve", str(md)]) == EXIT_YES
    bad = write(tmp_path, "one.mdedp", "p mdedp 2 1 1\ne 1 2\nt 1 2 2\n")
    assert main(["solve", str(bad)]) == EXIT_NO
    assert main(["solve", "--engine", "sedp", str(md)]) == EXIT_USAGE


def test_stats(tmp_path, capsys):
    inst = write(tmp_path, "p9.edp", "p edp 9 8 0\n" + "".join(f"e {i} {i+1}\n" for i in range(1, 9)))
    code = main(["stats", "--kmax", "4", str(inst)])
    assert code == EXIT_YES
    out = capsys.readouterr().out
    assert "fracture-number 3" in out
    assert "fvs-one forest" in out


def test_stats_fracture_number_matches_exhaustive(tmp_path, capsys):
    graphs = [G for G in graph_atlas_g() if G.number_of_nodes() == 6 and nx.is_connected(G)]
    assert len(graphs) == 112
    path = tmp_path / "atlas.edp"
    for G in graphs:
        g = Multigraph(6, [(u + 1, v + 1) for u, v in G.edges()])
        path.write_text(write_instance(EdpInstance(g, ())), encoding="ascii")
        for kmax in (1, 4):
            assert main(["stats", "--kmax", str(kmax), str(path)]) == EXIT_YES
            lines = capsys.readouterr().out.splitlines()
            truth = exhaustive_fracture_number(g, kmax)
            want = f"fracture-number {truth if truth is not None else f'> {kmax}'}"
            assert want in lines, (G.edges(), kmax)


def test_auto_refutes_modulators_without_component_scans(tmp_path, monkeypatch, capsys):
    # All of auto's probes fail on a 15x15 grid; the modulator search must
    # refute each k by packing, without listing components per branch.
    calls = []

    def counting(g, removed):
        calls.append(g.n)
        return graph.components_excluding(g, removed)

    for module in (fracture, oracle, reductions):
        monkeypatch.setattr(module, "components_excluding", counting)
    g = grid_graph(15, 15)
    inst = write(tmp_path, "grid.edp", write_instance(EdpInstance(g, (TerminalPair(1, 225), TerminalPair(15, 211)))))
    assert main(["solve", str(inst)]) == EXIT_YES
    assert "[brute]" in capsys.readouterr().out
    assert len(calls) <= 5


def test_input_errors_exit_usage(tmp_path, capsys):
    inst = write(tmp_path, "p4.edp", P4)
    sol = write(tmp_path, "bad.sol", "s yes\npath x: 1\n")
    assert main(["verify", str(inst), str(sol)]) == EXIT_USAGE
    accented = tmp_path / "accented.edp"
    accented.write_bytes(P4.replace("e 2 3", "c caf\xe9\ne 2 3").encode("latin-1"))
    assert main(["solve", str(accented)]) == EXIT_USAGE
    assert "line 3: non-ASCII byte 0xe9" in capsys.readouterr().out
    with pytest.raises(ParseError):
        parse_mcc("p mcc 2 x 2\n")


def test_internal_error_exits_internal(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(cli, "solve_sedp", broken)
    inst = write(tmp_path, "p4.edp", P4)
    assert main(["solve", str(inst)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: engine bug" in err


def test_gen_sidon(capsys):
    assert main(["gen", "sidon", "4"]) == EXIT_YES
    assert capsys.readouterr().out.strip() == "0 11 24 34"


def test_gen_mcc_pipeline(tmp_path, capsys):
    mcc = write(
        tmp_path,
        "tri.mcc",
        "p mcc 3 3 3\nv 1 1\nv 2 2\nv 3 3\ne 1 2\ne 2 3\ne 1 3\n",
    )
    assert main(["gen", "mcc-pipeline", str(mcc)]) == EXIT_YES
    out = capsys.readouterr().out
    assert "c meta audit-sidon pass" in out
    assert "p edp" in out


def test_gen_medp(tmp_path, capsys):
    base = write(tmp_path, "base.muedp", "p muedp 2 1 3\ne 1 2\nt 1 2 0\nt 1 2 0\nt 2 1 0\n")
    assert main(["gen", "medp", "1", "1", "1", str(base)]) == EXIT_YES
    out = capsys.readouterr().out
    assert "audit-one-pair-per-component pass" in out


def test_usage_errors(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.edp")]) == EXIT_USAGE
    bad = write(tmp_path, "bad.edp", "p edp 2 5 0\ne 1 2\n")
    assert main(["solve", str(bad)]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    capsys.readouterr()


def test_parse_mcc_errors():
    with pytest.raises(ParseError):
        parse_mcc("v 1 1\n")
    with pytest.raises(ParseError):
        parse_mcc("p mcc 2 1 2\nv 1 1\nv 2 2\n")


def test_one_parser_serves_every_call(tmp_path, capsys):
    inst = write(tmp_path, "p4.edp", P4)
    assert main(["solve", "--engine", "nonsense", str(inst)]) == EXIT_USAGE
    assert main(["solve", str(inst)]) == EXIT_YES
    assert main(["verify", str(inst), str(tmp_path / "p4.edp.sol")]) == EXIT_YES
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["solve", "--engine", "brute", str(write(tmp_path, "no.edp", NO_INSTANCE))]) == EXIT_NO
    capsys.readouterr()
    assert cli._parser() is cli._parser()
    # A value given in one call does not become the default of the next.
    assert cli._parser().parse_args(["solve", "--kmax", "2", "f"]).kmax == 2
    assert cli._parser().parse_args(["solve", "f"]).kmax == 4


def hub_trees_text(trees: int) -> str:
    """Hub 1 with `trees` two-leaf trees r-s, r-t hung off it by 1-r, and
    the pair (s, t) in each.  sedp runs one matching per tree."""
    edges, pairs = [], []
    for i in range(trees):
        r, s, t = 3 * i + 2, 3 * i + 3, 3 * i + 4
        edges += [(r, s), (r, t), (1, r)]
        pairs.append((s, t))
    lines = [f"p edp {3 * trees + 1} {len(edges)} {len(pairs)}"]
    lines += [f"e {u} {v}" for u, v in edges]
    lines += [f"t {a} {b}" for a, b in pairs]
    return "\n".join(lines) + "\n"


def test_collector_state_survives_every_exit(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(cli, "brute_force_edp", broken)
    p4 = write(tmp_path, "p4.edp", P4)
    accented = tmp_path / "accented.edp"
    accented.write_bytes(P4.replace("e 2 3", "c caf\xe9\ne 2 3").encode("latin-1"))
    runs = [
        (EXIT_YES, ["solve", str(p4)]),
        (EXIT_NO, ["solve", str(write(tmp_path, "no.edp", NO_INSTANCE))]),
        (EXIT_UNKNOWN, ["solve", "--engine", "sedp", str(write(tmp_path, "grid.edp", grid_text([], [(1, 16)])))]),
        (EXIT_USAGE, ["solve", str(write(tmp_path, "bad.edp", "p edp 2 5 0\ne 1 2\n"))]),
        (EXIT_USAGE, ["solve", str(accented)]),
        (EXIT_USAGE, ["verify", str(p4), str(write(tmp_path, "bad.sol", "s yes\npath x: 1\n"))]),
        (EXIT_INTERNAL, ["solve", "--engine", "brute", str(p4)]),
    ]
    was_enabled = gc.isenabled()
    try:
        for caller_paused in (False, True):
            if caller_paused:
                gc.disable()
            else:
                gc.enable()
            for code, argv in runs:
                assert main(argv) == code, argv
                assert gc.isenabled() is not caller_paused, argv
    finally:
        if was_enabled:
            gc.enable()
    capsys.readouterr()


def test_warm_solve_leaves_no_cyclic_garbage(tmp_path, monkeypatch, capsys):
    # edpkit solve runs with the cyclic collector paused, which is safe
    # only if no solve leaves reference cycles behind.
    matchings = []

    def counting(h, target):
        matchings.append(h.n)
        return graph.matching_max_cover(h, target)

    monkeypatch.setattr(sedp, "matching_max_cover", counting)
    hub = write(tmp_path, "hub.edp", hub_trees_text(30))
    grid = write(tmp_path, "grid.edp", grid_text([], [(1, 16), (4, 13)]))
    p4 = write(tmp_path, "p4.edp", P4)
    no = write(tmp_path, "no.edp", NO_INSTANCE)
    # Hubs 1, 2, 3 joined to each of 4..9: no single feedback vertex, but a
    # fracture modulator of three vertices.
    hubs = write(tmp_path, "hubs.edp", "p edp 9 18 2\n" + "".join(
        f"e {h} {v}\n" for v in range(4, 10) for h in (1, 2, 3)) + "t 4 5\nt 6 7\n")
    multi = write(tmp_path, "three.muedp", "p muedp 4 5 1\ne 1 2\ne 2 3\ne 3 4\ne 4 1\ne 1 3\nt 1 3 3\n")
    runs = [
        ["--engine", "auto", str(hub)],
        ["--engine", "sedp", str(hub)],
        ["--engine", "auto", str(grid)],
        ["--engine", "auto", str(hubs)],
        ["--engine", "twdp", str(grid)],
        ["--engine", "fracture", str(hubs)],
        ["--engine", "fracture", str(no)],
        ["--engine", "brute", str(grid)],
        ["--engine", "brute", str(no)],
        ["--engine", "brute", "--budget", "5", str(grid)],
        ["--engine", "brute", str(multi)],
    ]
    main(["solve", str(p4)])  # builds the parser once per process
    was_enabled = gc.isenabled()
    try:
        for argv in runs:
            gc.collect()
            gc.disable()
            main(["solve", "--solution", str(tmp_path / "out.sol"), *argv])
            assert gc.collect() == 0, argv
    finally:
        if was_enabled:
            gc.enable()
    out = capsys.readouterr().out
    assert len(matchings) >= 60
    assert out.count("s yes") == 9 and out.count("s no") == 2 and out.count("s unknown") == 1, out
    assert out.count("[fracture]") == 3 and out.count("[twdp]") == 2, out


# A 2x3 grid with two pairs, and a solution file for it.
GRID_2X3 = "c a 2x3 grid\np edp 6 7 2\ne 1 2\ne 2 3\ne 4 5\ne 5 6\ne 1 4\ne 2 5\ne 3 6\nt 1 6\nt 2 5\n"
GRID_2X3_SOL = "c paths list 1-based edge lines\ns yes\npath 1: 1 2 7\npath 2: 6\n"

mutations = st.lists(
    st.tuples(st.sampled_from(["delete", "duplicate", "swap", "truncate"]), st.integers(0, 999), st.integers(0, 999)),
    max_size=4,
)


def mutate(text: str, ops) -> str:
    """Apply line deletions and duplications, swaps of two whitespace
    tokens anywhere in the file, and truncations at a character."""
    for op, a, b in ops:
        lines = text.splitlines(keepends=True)
        if op == "truncate":
            text = text[: a % (len(text) + 1)]
        elif not lines:
            continue
        elif op == "delete":
            del lines[a % len(lines)]
            text = "".join(lines)
        elif op == "duplicate":
            i = a % len(lines)
            lines.insert(i, lines[i])
            text = "".join(lines)
        else:
            rows = [line.split() for line in lines]
            slots = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
            if not slots:
                continue
            (r1, c1), (r2, c2) = slots[a % len(slots)], slots[b % len(slots)]
            rows[r1][c1], rows[r2][c2] = rows[r2][c2], rows[r1][c1]
            text = "".join(" ".join(row) + "\n" for row in rows)
    return text


def parses(parse, text: str) -> bool:
    try:
        parse(text)
    except ParseError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst_ops=mutations, sol_ops=mutations)
def test_mutated_files_exit_usage_exactly_on_parse_errors(tmp_path_factory, inst_ops, sol_ops):
    # A file that does not parse must exit 64, never 1, which reads as "no".
    # Validity is decided by the parsers alone; main must not raise either.
    work = tmp_path_factory.mktemp("mutant")
    inst_text, sol_text = mutate(GRID_2X3, inst_ops), mutate(GRID_2X3_SOL, sol_ops)
    inst = write(work, "m.edp", inst_text)
    sol = write(work, "m.sol", sol_text)
    inst_ok = parses(parse_instance, inst_text)
    sol_ok = parses(parse_solution, sol_text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        solved = main(["solve", "--solution", str(work / "out.sol"), str(inst)])
        verified = main(["verify", str(inst), str(sol)])
    assert gc.isenabled()
    if not inst_ops and not sol_ops:
        assert solved == verified == EXIT_YES
    if inst_ok:
        assert solved in (EXIT_YES, EXIT_NO, EXIT_UNKNOWN), inst_text
    else:
        assert solved == EXIT_USAGE, inst_text
    if inst_ok and sol_ok:
        assert verified in (EXIT_YES, EXIT_NO), (inst_text, sol_text)
    else:
        assert verified == EXIT_USAGE, (inst_text, sol_text)


TRIANGLE_MCC = "c a triangle, one vertex per part\np mcc 3 3 3\nv 1 1\nv 2 2\nv 3 3\ne 1 2\ne 2 3\ne 1 3\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ops=mutations)
def test_mutated_mcc_files_exit_usage_exactly_on_parse_errors(tmp_path_factory, ops):
    # The third input format under the same gate as instances and solutions.
    text = mutate(TRIANGLE_MCC, ops)
    path = write(tmp_path_factory.mktemp("mcc"), "m.mcc", text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["gen", "mcc-pipeline", str(path)])
    assert "Traceback" not in err.getvalue(), (text, err.getvalue())
    if not ops:
        assert code == EXIT_YES
    if parses(parse_mcc, text):
        assert code in (EXIT_YES, EXIT_UNKNOWN), text
    else:
        assert code == EXIT_USAGE, text


MUEDP_BASE = "p muedp 2 1 3\ne 1 2\nt 1 2 0\nt 1 2 0\nt 2 1 0\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["gen", "sidon", "0"], None),
        (["gen", "medp", "-1", "1", "1"], MUEDP_BASE),
        (["gen", "mcc-pipeline"], "p mcc 3 2 2\nv 1 1\nv 2 1\nv 3 2\ne 1 3\ne 1 2\n"),
        (["gen", "mcc-pipeline"], "p mcc 3 1 3\nv 1 1\nv 2 2\nv 3 3\ne 1 4\n"),
        (["gen", "mcc-pipeline"], "p mcc 0 0 0\n"),
        (["gen", "mcc-pipeline"], "p mcc 3 3 3\np mcc 2 1 2\nv 1 1\nv 2 2\ne 1 2\n"),
        (["gen", "mcc-pipeline"], "p mcc 2 1 2\nv 1 1\nv 2 2\nv 7 1\ne 1 2\n"),
        (["gen", "mcc-pipeline"], "p mcc 2 1 2\nv 1 2\nv 1 1\nv 2 2\ne 1 2\n"),
        (["solve", "--kmax", "-1"], P4),
        (["solve", "--width-limit", "-1"], P4),
        (["solve", "--budget", "-1"], P4),
        (["stats", "--kmax", "-2"], P4),
    ],
    ids=[
        "sidon-zero", "medp-negative", "mcc-edge-in-part", "mcc-edge-out-of-range", "mcc-no-vertex",
        "mcc-duplicate-header", "mcc-part-out-of-range", "mcc-duplicate-part-line", "solve-kmax-negative",
        "solve-width-limit-negative", "solve-budget-negative", "stats-kmax-negative",
    ],
)
def test_bad_gen_arguments_exit_usage(tmp_path, capsys, argv, text):
    if text is not None:
        argv = argv + [str(write(tmp_path, "input.txt", text))]
    assert main(argv) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


# Normalization moves both terminals of each pair to new leaves (16
# vertices), where min-fill's width is 5; the raw graph's treewidth is 4.
STATS_WIDTH = (
    "p edp 12 18 2\n"
    + "".join(
        f"e {u} {v}\n"
        for u, v in [
            (1, 2), (1, 3), (1, 7), (1, 11), (2, 8), (3, 5), (3, 6), (3, 9), (5, 8),
            (5, 11), (6, 7), (6, 8), (6, 9), (6, 11), (7, 9), (8, 9), (9, 10), (10, 11),
        ]
    )
    + "t 6 3\nt 10 5\n"
)


def test_stats_width_is_the_width_twdp_compares(tmp_path, capsys):
    inst = write(tmp_path, "w.edp", STATS_WIDTH)
    assert main(["stats", str(inst)]) == EXIT_YES
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("decomposition-width ")]
    width = int(line.split()[1])
    assert width == 5
    sol = str(tmp_path / "w.sol")
    assert main(["solve", "--engine", "twdp", "--width-limit", str(width), "--solution", sol, str(inst)]) == EXIT_YES
    assert main(["solve", "--engine", "twdp", "--width-limit", str(width - 1), str(inst)]) == EXIT_UNKNOWN
    assert f"exceeds target {width - 1}" in capsys.readouterr().out
