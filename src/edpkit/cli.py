"""Command-line front end: solve, verify, gen, stats.

Exit codes: 0 yes, 1 no, 2 unknown (an engine's refusal status: budget,
feedback vertex, width or modulator), 64 usage or input errors, 70 internal
error (the traceback goes to stderr).

`solve` under `--engine auto` asks the engines in turn (sedp, fracture,
twdp, brute force), and each engine's refusal status moves the instance on
to the next.  The engines share the instance's one normal form.

`solve` and `verify` handle each file with the cyclic garbage collector
paused (`_collector_paused`): a solve keeps large structures alive, and
every full collection would scan them again.  This is safe because no
solve leaves cyclic garbage behind: edpkit's own code creates no
reference cycles, and `graph.max_weight_matching` frees those of networkx
right after each call
(`tests/test_cli.py::test_warm_solve_leaves_no_cyclic_garbage`).  A
matching whose edges share no endpoint, as every one of `sedp`'s is on a
forest of hub trees, is answered without networkx and leaves none.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import sys
import time
import traceback
from pathlib import Path

from edpkit.fracture import _least_modulator, solve_fracture
from edpkit.graph import Multigraph, find_fvs_one
from edpkit.instance import (
    EdpInstance,
    MultiDemandInstance,
    ParseError,
    PathSet,
    SolveResult,
    _headed,
    _ints,
    _out_of_range,
    augmented_graph,
    normalize_instance,
    parse_instance,
    parse_solution,
    verify_solution,
    write_instance,
)
from edpkit.oracle import brute_force_edp, brute_force_multi
from edpkit.reductions import (
    MccInstance,
    audit_medp_components,
    full_pipeline,
    medp_to_edp,
    sidon_sequence,
)
from edpkit.sedp import solve_sedp
from edpkit.treedec import build_tree_decomposition
from edpkit.twdp import solve_twdp

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70

AUTO_WIDTH_CAP = 8  # auto's twdp width target when --width-limit is not given


def _write_solution(path: Path, verdict: str, sol: PathSet | None) -> None:
    lines = [f"s {verdict}"]
    if sol is not None:
        for i, p in enumerate(sol.paths, start=1):
            lines.append(f"path {i}: " + " ".join(str(e + 1) for e in p))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _load(parse, path: str | Path):
    """parse() of the text of an input file; a non-ASCII byte is a ParseError."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"non-ASCII byte 0x{raw[exc.start]:02x}") from None
    return parse(text)


@contextlib.contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector for the block, then restore the
    state it had: a caller that had disabled it finds it still disabled.

    Nothing is owed afterwards: objects freed by reference counting lower
    the young generation's count again, so a block that leaves no cyclic
    garbage leaves the collector no work."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _solve_one(path: Path, args: argparse.Namespace) -> tuple[int, str]:
    try:
        inst = _load(parse_instance, path)
    except (OSError, ParseError) as exc:
        # Reported in the file's summary: solve goes on to the next file.
        return EXIT_USAGE, f"{path}: {exc}"
    t0 = time.monotonic()
    if isinstance(inst, MultiDemandInstance):
        if args.engine not in ("auto", "brute"):
            return EXIT_USAGE, f"{path}: engine {args.engine} handles plain EDP instances only"
        engine_used, result, passed_on = "brute", brute_force_multi(inst, budget=args.budget), ""
    else:
        engine_used, result, passed_on = _solve_edp(inst, args)
    elapsed = time.monotonic() - t0
    verdict = result.status if result.status in ("yes", "no") else "unknown"
    cap = _width_cap(args)
    reason = {
        "budget": "budget exceeded",
        "fvs-exceeded": "no single feedback vertex exists",
        "modulator-exceeded": f"no fracture modulator of size <= {args.kmax}",
        "width-exceeded": f"decomposition width over auto cap {cap}"
        if args.engine == "auto" else f"decomposition width exceeds target {cap}",
    }.get(passed_on or result.status, "")
    code = {"yes": EXIT_YES, "no": EXIT_NO}.get(verdict, EXIT_UNKNOWN)
    # Multi-demand paths serve expanded demands, not the pairs of a solution file.
    if result.is_yes and isinstance(inst, EdpInstance):
        out = Path(args.solution) if args.solution else path.with_suffix(path.suffix + ".sol")
        try:
            _write_solution(out, "yes", result.paths)
            reason = f"solution written to {out}"
        except OSError as exc:
            # A usage error of this file only: solve goes on to the next one.
            print(f"error: {exc}", file=sys.stderr)
            code, reason = EXIT_USAGE, f"solution not written: {exc}"
    summary = f"{path}: s {verdict} [{engine_used}] {elapsed:.2f}s" + (f" ({reason})" if reason else "")
    return code, summary


def _width_cap(args: argparse.Namespace) -> int | None:
    """twdp's width target: --width-limit, or auto's default cap."""
    if args.width_limit is None and args.engine == "auto":
        return AUTO_WIDTH_CAP
    return args.width_limit


def _solve_edp(inst: EdpInstance, args: argparse.Namespace) -> tuple[str, SolveResult, str]:
    """The engine that answered, its result, and the refusal status that
    sent the instance to brute force under auto ("" otherwise).  A named
    engine answers alone, and its refusal is its answer.  auto asks the
    engines in turn and moves on at each one's refusal status: sedp
    ("fvs-exceeded"), fracture within --kmax ("modulator-exceeded"), twdp
    under the width cap ("width-exceeded"), then brute force, whose summary
    gives twdp's refusal as its reason."""
    engines = {
        "sedp": lambda: solve_sedp(inst),
        "fracture": lambda: solve_fracture(inst, kmax=args.kmax),
        "twdp": lambda: solve_twdp(inst, k=_width_cap(args)),
        "brute": lambda: brute_force_edp(inst, budget=args.budget),
    }
    if args.engine != "auto":
        return args.engine, engines[args.engine](), ""
    for engine, refusal in (
        ("sedp", "fvs-exceeded"), ("fracture", "modulator-exceeded"), ("twdp", "width-exceeded")
    ):
        result = engines[engine]()
        if result.status != refusal:
            return engine, result, ""
    return "brute", engines["brute"](), result.status


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.solution and len(args.files) > 1:
        # Each "yes" would overwrite the one before it.
        print("error: --solution takes a single instance file", file=sys.stderr)
        return EXIT_USAGE
    worst = 0
    for f in args.files:
        # Paused per file, so the collector runs between the files.
        with _collector_paused():
            code, summary = _solve_one(Path(f), args)
        print(summary)
        worst = max(worst, code)
    return worst


def _cmd_verify(args: argparse.Namespace) -> int:
    with _collector_paused():
        inst = _load(parse_instance, args.instance)
        verdict, sol = _load(parse_solution, args.solution)
        if not isinstance(inst, EdpInstance):
            print("error: verification targets plain EDP instances", file=sys.stderr)
            return EXIT_USAGE
        if verdict == "no":
            print("s no (nothing to verify)")
            return EXIT_NO
        outcome = verify_solution(inst, sol)
        if outcome.ok:
            print("verified: all paths connect their pairs edge-disjointly")
            return EXIT_YES
        print(f"rejected: {outcome.reason}")
        return EXIT_NO


def _cmd_stats(args: argparse.Namespace) -> int:
    inst = _load(parse_instance, args.file)
    g = inst.g
    demands = len(inst.pairs) if isinstance(inst, EdpInstance) else len(inst.triples)
    print(f"n {g.n}")
    print(f"m {g.m}")
    print(f"demands {demands}")
    print(f"max-degree {g.max_degree()}")
    und = g if not g.directed else Multigraph(g.n, g.edges, directed=False)
    if isinstance(inst, EdpInstance):
        probe = find_fvs_one(g)
        if probe.already_forest:
            print("fvs-one forest")
        elif probe.vertex is not None:
            print(f"fvs-one {probe.vertex}")
        else:
            print("fvs-one none")
        work = normalize_instance(inst)
        least = _least_modulator(augmented_graph(work), args.kmax)
        print(f"fracture-number {least[0] if least is not None else f'> {args.kmax}'}")
        und = work.g  # the graph whose width --width-limit and auto's cap judge
    td = build_tree_decomposition(und)
    print(f"decomposition-width {td.width}")
    return EXIT_YES


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.generator == "sidon":
        seq = sidon_sequence(args.n)
        print(" ".join(str(x) for x in seq))
        return EXIT_YES
    if args.generator == "mcc-pipeline":
        res = full_pipeline(_load(parse_mcc, args.file))
        for key, value in sorted(res.meta.items()):
            print(f"c meta {key} {value}")
        for key, value in sorted(res.audits.items()):
            print(f"c meta audit-{key} {'pass' if value else 'FAIL'}")
        sys.stdout.write(write_instance(res.edp))
        return EXIT_YES if all(res.audits.values()) else EXIT_UNKNOWN
    if args.generator == "medp":
        base = _load(parse_instance, args.file)
        if isinstance(base, EdpInstance) or base.g.directed or len(base.triples) != 3:
            print("error: medp generator expects a muedp file with three triples", file=sys.stderr)
            return EXIT_USAGE
        triples = tuple(
            (s, t, n)
            for (s, t, _), n in zip(base.triples, (args.n1, args.n2, args.n3))
        )
        medp = MultiDemandInstance(base.g, triples)
        inst, layout = medp_to_edp(medp)
        ok = audit_medp_components(inst, layout)
        print(f"c meta deletion-set {' '.join(str(v) for v in layout.deletion_set)}")
        print(f"c meta audit-one-pair-per-component {'pass' if ok else 'FAIL'}")
        sys.stdout.write(write_instance(inst))
        return EXIT_YES if ok else EXIT_UNKNOWN
    print(f"error: unknown generator {args.generator}", file=sys.stderr)
    return EXIT_USAGE


def parse_mcc(text: str) -> MccInstance:
    """Multicolored-clique input: "p mcc <n> <m> <k>", then one "v <vertex>
    <part>" line per vertex (1-based parts) and m "e <u> <v>" lines."""
    _, n, m, k, lines = _headed(text, ("mcc",))
    if n < 1:
        raise ParseError(1, "an mcc instance needs at least one vertex")
    part_of: dict[int, int] = {}
    edges: dict[int, tuple[int, int]] = {}  # line number -> edge
    for line_no, fields in lines:
        tag = fields[0]
        if tag == "v":
            v, part = _ints(line_no, "part line", fields, 3)
            if not 1 <= v <= n:
                raise _out_of_range(line_no, v)
            if v in part_of:
                raise ParseError(line_no, f"duplicate part line for vertex {v}")
            part_of[v] = part
        elif tag == "e":
            u, v = _ints(line_no, "edge line", fields, 3)
            if not (1 <= u <= n and 1 <= v <= n):
                raise _out_of_range(line_no, u, v)
            edges[line_no] = (u, v)
        elif tag == "p":
            raise ParseError(line_no, "duplicate header")
        else:
            raise ParseError(line_no, f"unknown line tag: {tag!r}")
    if len(edges) != m:
        raise ParseError(len(text.splitlines()), f"edge count mismatch: header says {m}, found {len(edges)}")
    parts: list[list[int]] = [[] for _ in range(k)]
    for v in range(1, n + 1):
        part = part_of.get(v)
        if part is None or not (1 <= part <= k):
            raise ParseError(1, f"vertex {v} has no valid part")
        parts[part - 1].append(v)
    for line_no, (u, v) in edges.items():
        if part_of[u] == part_of[v]:
            raise ParseError(line_no, f"edge ({u}, {v}) inside part {part_of[u]}")
    return MccInstance(n, tuple(tuple(p) for p in parts), tuple(edges.values()))


def _count(minimum: int):
    """An argparse type: an integer of at least `minimum`."""
    def count(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"{text} is below the minimum {minimum}")
        return int(text)
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edpkit",
        description="Exact edge-disjoint paths solvers, oracles, and hard-instance generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide an instance and emit a solution file on yes")
    solve.add_argument("files", nargs="+", help="instance files")
    solve.add_argument(
        "--engine",
        default="auto",
        choices=["auto", "sedp", "twdp", "fracture", "brute"],
        help="auto picks sedp when one feedback vertex suffices, then the fracture "
        "pipeline within --kmax, then the treewidth DP, then brute force",
    )
    solve.add_argument("--kmax", type=_count(0), default=4, help="fracture modulator size bound (default 4)")
    solve.add_argument(
        "--width-limit",
        type=_count(0),
        default=None,
        help="twdp refuses (exit 2) a decomposition wider than this; auto sends wider "
        "instances to brute force (default cap 8)",
    )
    solve.add_argument("--budget", type=_count(0), default=10**7, help="brute-force node budget (default 1e7)")
    solve.add_argument(
        "--solution", default=None, help="solution output path, for a single file (default <file>.sol)"
    )
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check a solution file against an instance")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.set_defaults(func=_cmd_verify)

    stats = sub.add_parser("stats", help="structural statistics of an instance")
    stats.add_argument("file")
    stats.add_argument("--kmax", type=_count(0), default=4, help="fracture modulator search bound (default 4)")
    stats.set_defaults(func=_cmd_stats)

    gen = sub.add_parser("gen", help="hard-instance generators")
    gensub = gen.add_subparsers(dest="generator", required=True)
    gsidon = gensub.add_parser("sidon", help="Sidon sequence of length n")
    gsidon.add_argument("n", type=_count(1))
    gmcc = gensub.add_parser("mcc-pipeline", help="multicolored-clique hardness pipeline")
    gmcc.add_argument("file", help="mcc input file")
    gmedp = gensub.add_parser("medp", help="three-demand bounded-pairs-per-component instance")
    gmedp.add_argument("n1", type=_count(0))
    gmedp.add_argument("n2", type=_count(0))
    gmedp.add_argument("n3", type=_count(0))
    gmedp.add_argument("file", help="muedp base file naming the three terminal pairs")
    gen.set_defaults(func=_cmd_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than
    parsing a command line, and in-process callers call main many times."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ParseError) as exc:
        # An unreadable or malformed input file, or an unwritable output file.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # A crash must not exit with 1, which reads as "no".
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
