"""Self-tests of the benchmark (outside the tier-1 suite):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import pytest

import compare
import run
import tracer as tracing
import workloads as wl
from edpkit import cli
from edpkit.graph import Multigraph
from edpkit.instance import MultiDemandInstance, write_instance
from edpkit.oracle import brute_force_edp, brute_force_multi

BUDGET = 200_000


def _snapshot(cases):
    return [(c.name, c.expected, c.vertex_terminals, write_instance(c.inst)) for c in cases]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_files(workload):
    assert _snapshot(wl.build(workload, 7)) == _snapshot(wl.build(workload, 7))
    assert _snapshot(wl.build(workload, 7)) != _snapshot(wl.build(workload, 8))


def _agree_with_brute(cases) -> int:
    """Check every case brute force finishes on; return how many it did."""
    checked = 0
    for case in cases:
        result = brute_force_edp(case.inst, budget=BUDGET)
        if result.status != "budget":
            assert result.status == case.expected, case.name
            checked += 1
    return checked


@pytest.mark.parametrize("workload", ["twdp-grid", "fallback-grid"])
def test_grid_verdicts_agree_with_brute(workload):
    cases = wl.build(workload, 0)
    assert _agree_with_brute(cases) == len(cases)


def test_fvs1_constructions_agree_with_brute():
    rng = random.Random(0)
    cases = []
    for _ in range(4):
        cases.append(wl.Case("hub-yes", wl.hub_cycles_yes(120, 20, rng), "yes"))
        cases.append(wl.Case("hub-no", wl.hub_cycles_no(120, 20, rng), "no"))
        cases.append(wl.Case("cycle", wl.cycle_with_triangles(140, 10, 3, rng), "yes"))
    cases.append(wl.Case("star", wl.star_of_paths(200, 20), "yes"))
    assert _agree_with_brute(cases) == len(cases)


def test_fracture_hub_verdicts_agree_with_brute():
    rng = random.Random(0)
    cases = [wl.fracture_hubs(6, 6, want, rng) for want in ("yes", "no") * 6]
    assert _agree_with_brute(cases) >= len(cases) // 2


def test_recorded_medp_verdicts_agree_with_multi_demand_oracle():
    for (demands, counts), verdict in wl.MEDP_BASES.items():
        base = MultiDemandInstance(
            Multigraph(4, wl.K4_EDGES), tuple((s, t, c) for (s, t), c in zip(demands, counts))
        )
        assert brute_force_multi(base).status == verdict


def _span(name, start, end, parent=None, op=0):
    s = tracing.Span(name, start, parent, op)
    s.end = end
    return s


def test_self_time_arithmetic():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: covered once
        _span("c", 8.0, 12.0, parent=0),  # runs past its parent's end
        _span("d", 2.0, 3.0, parent=1),
        _span("a", 2.5, 2.75, parent=4),  # recursive a under a
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 0.75, 0.25])
    assert tracing.outermost(spans, "a") == [spans[1]]


def test_wrappers_are_all_removed(tmp_path):
    import edpkit.twdp

    modules = tracing.edpkit_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    table_add = edpkit.twdp.Table.add
    path = tmp_path / "grid.edp"
    path.write_text(write_instance(wl.grid_yes(4, 4, 2, random.Random(1)).inst))
    tr = tracing.Tracer()
    installation = tracing.install(tr)
    try:
        assert tracing.leftover_wrappers()
        tr.enabled, tr.op = True, 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", "--solution", str(tmp_path / "s.sol"), str(path)]) == 0
        tr.enabled = False
    finally:
        installation.remove()
    assert {s.name for s in tr.spans} >= {"cli.main", "twdp.compute_tables", "graph.find_fvs_one"}
    assert tr.counts["twdp.candidate_states"] > 0
    assert tracing.leftover_wrappers() == []
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert edpkit.twdp.Table.add is table_add


def test_traced_generation_records_medp_to_edp():
    tr = tracing.Tracer()
    installation = tracing.install(tr)
    try:
        tr.enabled, tr.op = True, "setup"
        cases = wl.build("fallback-grid", 3)
        tr.enabled = False
    finally:
        installation.remove()
    medp = [s for s in tr.spans if s.name == "reductions.medp_to_edp"]
    assert len(medp) == sum(c.name.startswith("medp-") for c in cases) > 0
    assert run.layer_metrics(tr, 1, 0, 1)["reductions.medp_to_edp.s"][0] > 0


def test_auto_probes_are_judged_by_what_follows_them():
    def call(op, start, last):
        # cli.main with three failed-or-not probes, each 1 s, then `last`.
        base = len(tr.spans)
        tr.spans += [
            _span("cli.main", start, start + 10, op=op),
            _span("graph.find_fvs_one", start, start + 1, parent=base, op=op),
            _span("fracture.solve_fracture", start + 1, start + 2, parent=base, op=op),
            _span("treedec.build_tree_decomposition", start + 2, start + 3, parent=base, op=op),
            _span(last, start + 3, start + 4, parent=base, op=op),
        ]
        tr.spans[base + 1].info = {"hit": False}
        tr.spans[base + 2].info = {"hit": False}
        tr.spans[base + 3].info = {"width": 5}
        tr.spans[base + 4].info = {"budget": False}

    tr = tracing.Tracer()
    call(0, 0.0, "twdp.compute_tables")  # the decomposition is used
    call(1, 20.0, "oracle.brute_force_edp")  # over the cap: discarded
    metrics = run.layer_metrics(tr, 1, 0, 2)
    assert metrics["cli.auto.probe_hit_ratio"][0] == pytest.approx(1 / 6)
    assert metrics["cli.auto.wasted_probe_s"][0] == pytest.approx(5.0)


def test_tail_leaves_ten_calls_of_two_passes_beyond_it():
    # Five cases above it: ten calls beyond it in a run of two passes.
    assert run.tail([float(v) for v in range(1, 21)]) == (15.0, 75.0)
    assert run.tail([1.0] * 10 + [math.inf] * 6) == (math.inf, 68.75)


def test_scaled_times_follow_the_reference_task():
    ok = run.Outcome(0, 2.0, 0, None, "ok", scaled=1.0)
    assert run.answers_per_min([ok, ok]) == 60.0
    assert run.reference_seconds() > 0


def test_compare_labels():
    parent = [100.0 + i for i in range(10)]
    assert compare.label(parent, [p * 1.5 for p in parent], "higher", 0.1)[0] == "improved"
    assert compare.label(parent, [p * 0.5 for p in parent], "higher", 0.1)[0] == "worse"
    same = parent[1:] + parent[:1]
    assert compare.label(parent, same, "higher", 0.1)[0] == "no worse"
    noisy = [10.0, 200.0] * 5
    assert compare.label(noisy, noisy[::-1], "higher", 0.1)[0] == "unresolved"
    assert compare.label(parent[:9], same[:9], "higher", 0.1)[0] == "unresolved"
