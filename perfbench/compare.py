"""Compare two commits on the benchmark.

    python3 perfbench/compare.py run --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \\
        --workload twdp-grid --pairs 10 --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

`run` measures both checkouts with this copy of the benchmark
(`run.py --root`), so both sides use identical benchmark code, for the
`run_seconds` that BENCHMARK.json sets.  Pair i
runs seed SEED+i on both sides, alternating which side goes first, one
child process at a time; each run appends one JSON line to --out.

`report` prints, for each workload and metric, each side's median and
quartiles and the pairs the change won, and labels the pair:

  improved    the change better in at least nine tenths of the pairs (ties
              count for neither side), and the medians apart by more than
              the parent's quartile spread;
  worse       the same rule in the other direction, and the change's median
              worse than the parent's by more than the metric's bound;
  no worse    the change's median worse by at most the bound, and either the
              parent's quartile spread within the bound or every change run
              better than every parent run;
  unresolved  anything else, including a spread wider than the bound and
              fewer than 10 pairs.

Bounds and directions come from BENCHMARK.json; a metric without a bound
is never labelled "no worse".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def load_spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_pairs(args) -> int:
    sides = {"parent": args.parent, "change": args.change}
    seconds = load_spec()["run_seconds"]
    with open(args.out, "a", encoding="utf-8") as out:
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                       "--seed", str(args.seed + i), "--seconds", str(seconds),
                       "--trace", str(args.trace), "--root", sides[side]]
                done = subprocess.run(cmd, capture_output=True, text=True, check=False)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"pair {i} {side}: run failed\n{done.stderr}", file=sys.stderr)
                    return 1
                record = {"workload": args.workload, "pair": i, "side": side,
                          "first": order[0], "trace": args.trace, "result": json.loads(lines[-1])}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"pair {i} {side}: done")
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def label(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple[str, int]:
    """Label a metric from paired runs (parent[i] against change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    n = len(parent)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gap = sign * (cm - pm)
    spread = p3 - p1
    worse_by = -gap / abs(pm) if pm else 0.0
    if n < 10:
        return "unresolved", wins
    if wins >= 0.9 * n and gap > spread:
        return "improved", wins
    if bound is not None:
        if losses >= 0.9 * n and -gap > spread and worse_by > bound:
            return "worse", wins
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        steady = pm != 0 and spread / abs(pm) <= bound
        if worse_by <= bound and (steady or all_better):
            return "no worse", wins
    return "unresolved", wins


def report(args) -> int:
    spec = load_spec()
    by_name = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict[tuple[str, int, str], dict] = {}
    for path in args.files:
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            runs[rec["workload"], rec["pair"], rec["side"]] = rec["result"]
    workloads = sorted({w for w, _, _ in runs})
    print(f"{'workload':16} {'metric':44} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'won':>7}  label")
    for workload in workloads:
        pairs = sorted({i for w, i, _ in runs if w == workload})
        pairs = [i for i in pairs if (workload, i, "parent") in runs and (workload, i, "change") in runs]
        if not pairs:
            continue
        names = runs[workload, pairs[0], "parent"]["metrics"].keys()
        for name in names:
            parent = [runs[workload, i, "parent"]["metrics"][name]["value"] for i in pairs]
            change = [runs[workload, i, "change"]["metrics"][name]["value"] for i in pairs]
            meta = by_name.get(name, {"better": "lower"})
            verdict, wins = label(parent, change, meta["better"], meta.get("bound"))
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(f"{workload:16} {name:44} {pm:12.6g} [{p1:.6g}, {p3:.6g}]".ljust(96)
                  + f" {cm:12.6g} [{c1:.6g}, {c3:.6g}]".ljust(35)
                  + f" {wins:>3}/{len(pairs):<3}  {verdict}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two commits on the benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="alternate runs of both checkouts")
    run.add_argument("--parent", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=100)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report", help="label each workload and metric")
    rep.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    return run_pairs(args) if args.command == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
