"""Benchmark of `edpkit solve` on seeded corpora, end to end or traced.

    python3 perfbench/run.py --workload fvs1-forest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One process, one closed-loop client, no threads.  The workload's corpus
is generated from --seed and written under `.perfbench_run/` in the
checkout; each case is then solved in-process through the real entry
point, `edpkit.cli.main(["solve", "--solution", SOL, FILE])`, with the
default `auto` engine.  Whole passes over the corpus run until --seconds
have elapsed (at least MIN_PASSES).  Every outcome is checked against the
case's expected verdict, and every "yes" is re-checked with
`edpkit verify` outside the timed calls.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced pass
and then traced passes with wrappers installed on the `edpkit` modules
(see tracer.py), and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
--all runs every workload, each in its own child process, one after the
other.  See NOTES.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402

# workloads.WORKLOADS; importing workloads here would import edpkit before
# the set-up is timed.
WORKLOADS = ("fvs1-forest", "twdp-grid", "fracture-hubs", "fallback-grid")
MIN_PASSES = 2
SETUP_REPS = 3
TAIL_BEYOND = 10
EXIT_CODE = {"yes": 0, "no": 1}


@dataclasses.dataclass
class Outcome:
    case: int
    seconds: float  # wall time of the call
    code: int | None
    error: str | None
    status: str  # "ok" | "raised" | "unknown" | "wrong"
    scaled: float = 0.0  # the same in reference seconds (see reference_seconds)


# A fixed pure-Python task (dict, set and frozenset work, as in the
# solvers) that takes about REF_SECONDS on an undisturbed 2-vCPU Xeon VM.
REF_SECONDS = 0.005
_REF_GRAPH = {v: [(v * 7 + k) % 500 for k in range(1, 5)] for v in range(500)}


def reference_seconds() -> float:
    """Wall time of the reference task right now.  Other tenants of a
    shared machine can slow it down by 1.5x for tens of seconds; a call's
    wall time times REF_SECONDS / (reference time around the call) is the
    same figure however busy the machine was.  The garbage collector is
    off meanwhile: a collection of the calls' garbage that the task's
    allocations set off would be billed to the machine, not the call."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(16):
            seen, stack, arcs = {0}, [0], []
            while stack:
                v = stack.pop()
                for w in _REF_GRAPH[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
                        arcs.append(frozenset((v, w)))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program(root: Path):
    """Put the checkout's `src/` first on the import path."""
    src = root / "src"
    if not (src / "edpkit" / "__init__.py").is_file():
        fail(f"no edpkit sources under {src}")
    sys.path.insert(0, str(src))
    try:
        import networkx  # noqa: F401  (dependency, imported outside the set-up timing)
    except ImportError as exc:
        fail(f"cannot import networkx: {exc}")


def fresh_import():
    """Import `workloads` (and through it `edpkit`) from scratch."""
    for name in list(sys.modules):
        if name == "edpkit" or name.startswith("edpkit.") or name == "workloads":
            del sys.modules[name]
    return importlib.import_module("workloads")


def setup(workload: str, seed: int, work: Path):
    """Import edpkit, generate the corpus and write its files; repeated
    SETUP_REPS times, returning the last corpus and the median time in
    reference seconds."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        before = reference_seconds()
        t0 = time.perf_counter()
        wl = fresh_import()
        from edpkit.instance import write_instance

        cases = wl.build(workload, seed)
        work.mkdir(parents=True)
        files = []
        for i, case in enumerate(cases):
            path = work / f"{i:03d}-{case.name}.edp"
            path.write_text(write_instance(case.inst), encoding="ascii")
            files.append(path)
        wall = time.perf_counter() - t0
        times.append(wall * 2 * REF_SECONDS / (before + reference_seconds()))
    # Solving reads the files; holding every instance in memory would only
    # make the garbage collector's passes longer than in an `edpkit` process.
    cases = [dataclasses.replace(case, inst=None) for case in cases]
    gc.collect()
    return cases, files, statistics.median(times)


def call_cli(cli, argv: list[str]) -> tuple[int | None, str | None, float]:
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        error = None
    except Exception as exc:  # a crash is a failed call, recorded with its type
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, error, time.perf_counter() - t0


def run_pass(cli, cases, files, op_base: int = 0, tracer=None) -> list[Outcome]:
    outcomes = []
    refs = []
    for i, (case, path) in enumerate(zip(cases, files)):
        refs.append(reference_seconds())
        sol = path.with_suffix(".sol")
        sol.unlink(missing_ok=True)
        if tracer is not None:
            tracer.op, tracer.enabled = op_base + i, True
        code, error, seconds = call_cli(cli, ["solve", "--solution", str(sol), str(path)])
        if tracer is not None:
            tracer.enabled = False
        expected = EXIT_CODE[case.expected]
        if error is not None:
            status = "raised"
        elif code not in EXIT_CODE.values():
            status = "unknown"
        elif code != expected:
            status = "wrong"
        elif code == 0:
            verified, _, _ = call_cli(cli, ["verify", str(path), str(sol)])
            status = "ok" if verified == 0 else "wrong"
        else:
            status = "ok"
        outcomes.append(Outcome(i, seconds, code, error, status))
    refs.append(reference_seconds())
    for o, before, after in zip(outcomes, refs, refs[1:]):
        o.scaled = o.seconds * 2 * REF_SECONDS / (before + after)
    return outcomes


def timed_passes(cli, cases, files, seconds: float, min_passes: int, tracer=None):
    """Whole passes until `seconds` have elapsed, at least `min_passes`."""
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, cases, files, len(passes) * len(cases), tracer))
    return passes


def answers_per_min(outcomes: list[Outcome]) -> float:
    return sum(o.status == "ok" for o in outcomes) / (sum(o.scaled for o in outcomes) / 60.0)


def tail(per_case: list[float]) -> tuple[float, float]:
    """The tail over the cases' median call times, and its percentile: the
    case with TAIL_BEYOND / MIN_PASSES cases above it, so that in a run of
    MIN_PASSES passes TAIL_BEYOND calls lie beyond it.  Taking each case's
    median keeps one slow call from setting the tail."""
    above = TAIL_BEYOND // MIN_PASSES
    ordered = sorted(per_case)
    return ordered[len(ordered) - above - 1], 100.0 * (1 - above / len(ordered))


def end_to_end(cases, passes, setup_s: float) -> tuple[dict, list[str]]:
    def latency(o: Outcome) -> float:
        return o.scaled if o.status == "ok" else math.inf

    per_case = [statistics.median(latency(o) for o in calls) for calls in zip(*passes)]
    tail_value, tail_pct = tail(per_case)
    flat = [o for p in passes for o in p]
    metrics = {
        "answers_per_min": (statistics.median(answers_per_min(p) for p in passes), "1/min"),
        "solve_p50_s": (statistics.median(latency(o) for o in flat), "s"),
        "solve_tail_s": (tail_value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = sum(o.seconds for o in flat) / sum(o.scaled for o in flat)
    notes = [
        f"solve_tail_s is p{tail_pct:.1f} of the median calls of {len(cases)} cases "
        f"({cases[per_case.index(tail_value)].name}); answers_per_min is the median of {len(passes)} passes",
        f"times in reference seconds; the machine ran at {wall:.3f} wall seconds per reference second",
    ]
    return metrics, notes


def layer_metrics(tr, passes: int, op_ok_yes: int, ops: int) -> dict:
    spans = tr.spans
    selfs = tracing.self_times(spans)
    solve = [i for i, s in enumerate(spans) if isinstance(s.op, int)]

    def named(name):
        return [spans[i] for i in solve if spans[i].name == name]

    def seconds(name):
        return sum(s.duration for s in tracing.outermost(spans, name) if isinstance(s.op, int)) / passes

    def calls(name):
        return len(named(name)) / passes

    def self_s(name):
        return sum(selfs[i] for i in solve if spans[i].name == name) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    def mean_info(name, key):
        values = [s.info[key] for s in named(name)]
        return ratio(sum(values), len(values))

    # The exponent of the sedp algorithm itself: each solve_sedp call minus
    # its own find_fvs_one probe, which graph.find_fvs_one.s reports.
    probe_in: dict[int, float] = {}
    for s in named("graph.find_fvs_one"):
        if s.parent is not None and spans[s.parent].name == "sedp.solve_sedp":
            probe_in[s.parent] = probe_in.get(s.parent, 0.0) + s.duration
    sedp_points = []
    for i in solve:
        s = spans[i]
        if s.name == "sedp.solve_sedp" and s.duration > probe_in.get(i, 0.0):
            sedp_points.append((math.log(s.info["n"]), math.log(s.duration - probe_in.get(i, 0.0))))
    size_exponent = 0.0
    if len({x for x, _ in sedp_points}) > 1:
        size_exponent = statistics.linear_regression(*zip(*sedp_points)).slope

    # A decomposition `auto` builds itself is used if the twdp tables are
    # computed in the same call; over the width cap, brute force runs instead.
    call_of: list[int | None] = []
    for i, s in enumerate(spans):  # a parent precedes its children
        call_of.append(i if s.name == "cli.main" else None if s.parent is None else call_of[s.parent])
    tables_in = {call_of[i] for i in solve if spans[i].name == "twdp.compute_tables"}
    probes = hits = 0
    wasted = 0.0
    for i in solve:
        s = spans[i]
        if s.parent is None or spans[s.parent].name != "cli.main":
            continue
        if s.name in ("graph.find_fvs_one", "fracture.solve_fracture"):
            hit = s.info["hit"]
        elif s.name == "treedec.build_tree_decomposition":
            hit = s.parent in tables_in
        else:
            continue
        probes += 1
        hits += hit
        wasted += 0.0 if hit else s.duration

    candidates = tr.counts["twdp.candidate_states"]
    modulator = named("fracture.find_fracture_modulator")
    ilp = named("ilp.solve_feasibility")
    brute = named("oracle.brute_force_edp")
    widths = [s.info["width"] for s in named("treedec.build_tree_decomposition")]
    medp = [s for s in spans if s.name == "reductions.medp_to_edp" and s.op == "setup"]
    values = {
        "graph.find_fvs_one.s": (seconds("graph.find_fvs_one"), "s"),
        "graph.find_fvs_one.calls_per_op": (ratio(len(named("graph.find_fvs_one")), ops), "ratio"),
        "graph.max_weight_matching.s": (seconds("graph.max_weight_matching"), "s"),
        "graph.max_weight_matching.calls": (calls("graph.max_weight_matching"), "count"),
        "graph.components_excluding.calls": (calls("graph.components_excluding"), "count"),
        "sedp.prepare_sedp.s": (seconds("sedp.prepare_sedp"), "s"),
        "sedp.labels_for_tree.s": (seconds("sedp.labels_for_tree"), "s"),
        "sedp.labels_for_tree.calls": (calls("sedp.labels_for_tree"), "count"),
        "sedp.solve_sedp.self_s": (self_s("sedp.solve_sedp"), "s"),
        "sedp.size_exponent": (size_exponent, "ratio"),
        "treedec.build_tree_decomposition.s": (seconds("treedec.build_tree_decomposition"), "s"),
        "treedec.width_max": (float(max(widths, default=0)), "count"),
        "treedec.make_nice.s": (seconds("treedec.make_nice"), "s"),
        "treedec.join_nodes": (sum(s.info["joins"] for s in named("treedec.make_nice")) / passes, "count"),
        "twdp.compute_tables.s": (seconds("twdp.compute_tables"), "s"),
        "twdp.candidate_states": (candidates / passes, "count"),
        "twdp.records": (tr.counts["twdp.records"] / passes, "count"),
        "twdp.record_yield": (ratio(tr.counts["twdp.records"], candidates), "ratio"),
        "fracture.find_fracture_modulator.s": (seconds("fracture.find_fracture_modulator"), "s"),
        "fracture.find_fracture_modulator.hit_ratio": (
            ratio(sum(s.info["hit"] for s in modulator), len(modulator)), "ratio"),
        "fracture.component_signature.s": (seconds("fracture.component_signature"), "s"),
        "fracture.signature_configs": (
            sum(s.info["configs"] for s in named("fracture.component_signature")) / passes, "count"),
        "fracture.solve_fracture.self_s": (self_s("fracture.solve_fracture"), "s"),
        "ilp.solve_feasibility.s": (seconds("ilp.solve_feasibility"), "s"),
        "ilp.vars": (mean_info("ilp.solve_feasibility", "vars"), "count"),
        "ilp.rows": (mean_info("ilp.solve_feasibility", "rows"), "count"),
        "ilp.infeasible_ratio": (ratio(sum(s.info["infeasible"] for s in ilp), len(ilp)), "ratio"),
        "oracle.brute_force_edp.s": (seconds("oracle.brute_force_edp"), "s"),
        "oracle.budget_ratio": (ratio(sum(s.info["budget"] for s in brute), len(brute)), "ratio"),
        "instance.parse_instance.s": (seconds("instance.parse_instance"), "s"),
        "instance.normalize_instance.calls_per_op": (
            ratio(len(named("instance.normalize_instance")), ops), "ratio"),
        "instance.verify_solution.s": (seconds("instance.verify_solution"), "s"),
        "instance.verify_solution.calls_per_yes": (
            ratio(len(named("instance.verify_solution")), op_ok_yes), "ratio"),
        "reductions.medp_to_edp.s": (sum(s.duration for s in medp), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.auto.wasted_probe_s": (wasted / passes, "s"),
        "cli.auto.probe_hit_ratio": (ratio(hits, probes), "ratio"),
    }
    return values


def summarize(cases, passes) -> tuple[bool, int, int, list[str]]:
    flat = [o for p in passes for o in p]
    failed = [o for o in flat if o.status != "ok"]
    lines = [f"fail_rate {len(failed) / len(flat):.4f} ratio ({len(failed)} of {len(flat)} calls failed)"]
    by_kind: dict[str, int] = {}
    for o in failed:
        where = "grid-vertex terminals" if cases[o.case].vertex_terminals else "other cases"
        what = o.error.split(":")[0] if o.error else f"exit {o.code}"
        key = f"{o.status} ({what}) on {where}"
        by_kind[key] = by_kind.get(key, 0) + 1
    lines += [f"  {count} x {key}" for key, count in sorted(by_kind.items())]
    correct = not any(o.status == "wrong" for o in flat)
    return correct, len(flat), len(failed), lines


def baseline_lines(cases, passes) -> list[str]:
    out = []
    for i, case in enumerate(cases):
        if case.baseline:
            calls = [p[i] for p in passes if p[i].status == "ok"]
            if not calls:
                out.append(f"baseline case {case.name} [{case.baseline}]: failed")
                continue
            scaled = statistics.median(o.scaled for o in calls)
            wall = statistics.median(o.seconds for o in calls)
            out.append(f"baseline case {case.name} [{case.baseline}]: solve median {scaled:.3f} s "
                       f"({wall:.3f} s wall) over {len(calls)} calls")
    return out


BASELINE_SPANS = ("cli.main", "graph.find_fvs_one", "sedp.solve_sedp", "fracture.solve_fracture",
                  "treedec.build_tree_decomposition", "twdp.compute_tables", "oracle.brute_force_edp")


def baseline_trace_lines(tr, cases) -> list[str]:
    """Wall time of the main steps of each baseline case's first traced
    call, to set beside the ROADMAP baseline."""
    out = []
    for i, case in enumerate(cases):
        if not case.baseline:
            continue
        steps = []
        for name in BASELINE_SPANS:
            spans = [s for s in tracing.outermost(tr.spans, name) if s.op == i]
            if spans:
                steps.append(f"{name} {sum(s.duration for s in spans):.3f} s x{len(spans)}")
        out.append(f"baseline case {case.name} [{case.baseline}], traced: " + ", ".join(steps))
    return out


def run_workload(args) -> int:
    root = Path(args.root).resolve()
    load_program(root)
    work = root / ".perfbench_run" / args.workload
    try:
        cases, files, setup_s = setup(args.workload, args.seed, work)
        from edpkit import cli

        if not args.trace:
            passes = timed_passes(cli, cases, files, args.seconds, MIN_PASSES)
            metrics, notes = end_to_end(cases, passes, setup_s)
        else:
            plain = timed_passes(cli, cases, files, 0.0, 1)
            tr = tracing.Tracer()
            installation = tracing.install(tr)
            try:
                tr.op, tr.enabled = "setup", True
                importlib.import_module("workloads").build(args.workload, args.seed)
                tr.enabled = False
                passes = timed_passes(cli, cases, files, args.seconds, 1, tracer=tr)
            finally:
                installation.remove()
            leftovers = tracing.leftover_wrappers()
            if leftovers:
                fail(f"wrappers left installed: {leftovers}")
            flat = [o for p in passes for o in p]
            yes = sum(o.code == 0 for o in flat)
            metrics = layer_metrics(tr, len(passes), yes, len(flat))
            traced_rate = answers_per_min(passes[0])
            plain_rate = answers_per_min(plain[0])
            metrics["trace.overhead_ratio"] = (traced_rate / plain_rate if plain_rate else 0.0, "ratio")
            notes = [
                f"first traced pass: answers_per_min {traced_rate:.2f} against {plain_rate:.2f} "
                f"untraced; {len(passes)} traced passes, {len(tr.spans)} spans",
                *baseline_trace_lines(tr, cases),
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other workload's files are there
    correct, attempted, failed, lines = summarize(cases, passes)
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} cases per pass, {len(passes)} passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for line in notes + lines + baseline_lines(cases, passes):
        print(f"  {line}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one after the other, so
    each peak_rss_mb belongs to one workload."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", args.root]
        done = subprocess.run(cmd, check=False)
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=os.getcwd(), help="checkout whose src/ is measured (default: .)")
    args = parser.parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
