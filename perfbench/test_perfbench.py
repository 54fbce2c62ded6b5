"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench

Each workload runs once untraced (seed 0) and once traced (seed 1) for one
second: a reference pass, then one replay (one pair when traced); about
forty seconds in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from drbem1d import Grid  # noqa: E402
from bench import best_segments, check_case  # noqa: E402
from march import (CORRECTOR, REACTION, CaseResult, Clock, Pass, replay_pass,  # noqa: E402
                   span_passes, span_times, tail_percentile)
from workloads import JITTER, NAMES, make_workload, seeded_grid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, seed, trace, root=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,seed", [(0, 0), (1, 1)])
@pytest.mark.parametrize("name", NAMES)
def test_short_run_reports_every_metric_and_passes_the_gate(name, trace, seed):
    proc = run_bench(name, seed, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        key: m["unit"] for key, m in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["value"] != 0

    if trace:
        workload = make_workload(name, seed)
        levels = sum(c.levels for c in workload.cases)
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        # At this commit only the varying-coefficient problem refactors per level.
        expected = {"kink_const_n321": 1, "gfn_varying_n257": levels,
                    "front_sweep_n65": len(workload.cases)}
        assert metrics["stepping.factorizations"] == expected[name]
        assert metrics["stepping.levels"] == levels
        assert metrics["problems.reaction.calls"] == metrics["stepping.passes"]


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(NAMES[0], 0, 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_zero_is_uniform_and_other_seeds_jitter_interior_nodes():
    uniform = Grid.with_spacing(-1.0, 1.0, 1 / 128)
    assert np.array_equal(seeded_grid(-1.0, 1.0, 1 / 128, 0).nodes, uniform.nodes)
    for seed in (1, 7):
        nodes = seeded_grid(-1.0, 1.0, 1 / 128, seed).nodes
        assert np.array_equal(nodes, seeded_grid(-1.0, 1.0, 1 / 128, seed).nodes)
        shift = nodes - uniform.nodes
        assert shift[0] == 0.0 and shift[-1] == 0.0
        assert 0.0 < np.max(np.abs(shift)) <= JITTER * uniform.h
    assert not np.array_equal(seeded_grid(-1.0, 1.0, 1 / 128, 1).nodes,
                              seeded_grid(-1.0, 1.0, 1 / 128, 2).nodes)


def test_self_time_excludes_children_and_passes_count_reaction_spans():
    spans = [
        ("case", 0.0, 10.0, -1, "c"),
        (CORRECTOR, 1.0, 5.0, 0, "c"),
        (REACTION, 1.5, 2.0, 1, "c"),
        (REACTION, 3.0, 4.0, 1, "c"),
        (CORRECTOR, 6.0, 7.0, 0, "c"),
        (REACTION, 6.25, 6.5, 4, "c"),
    ]
    total, own, calls = span_times(spans)
    assert total[CORRECTOR] == 5.0
    assert own[CORRECTOR] == pytest.approx(5.0 - 1.75)
    assert own["case"] == pytest.approx(5.0)
    assert calls[REACTION] == 3
    assert span_passes(spans) == {"c": [2, 1]}


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990)
    assert tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert tail_percentile(list(range(1, 20)))[0] == 50.0


def test_gate_rejects_library_errors_loose_errors_and_mismatches():
    case = make_workload("gfn_varying_n257", 0).cases[0]
    good = CaseResult(case.case_id, u=np.zeros(3), errors=[1e-6], passes=[3] * case.levels)
    assert check_case(case, good, 1e-5) == []
    assert check_case(case, CaseResult(case.case_id, error="SolverError: x"), 1e-5) == [
        "SolverError: x"]
    assert "above tolerance" in check_case(case, good, 1e-7)[0]
    other = CaseResult(case.case_id, u=np.ones(3), errors=[1e-6], passes=[2] * case.levels)
    assert len(check_case(case, good, 1e-5, reference=other)) == 2


def test_clock_segments_tile_the_pass_and_the_fastest_reading_counts():
    workload = make_workload("gfn_varying_n257", 0)
    timed = replay_pass(workload, Clock())
    # two setup segments, then one per level and one for the final error
    assert timed.segments.shape == (2 + workload.cases[0].levels + 1,)
    assert np.all(timed.segments > 0)
    assert timed.segments.sum() == pytest.approx(timed.wall_s, rel=1e-3)

    ok = [CaseResult("c")]
    fast = Pass(1.0, 0.1, 2, ok, segments=np.array([0.1, 0.5, 0.4]))
    slow = Pass(2.0, 0.2, 2, ok, segments=np.array([0.2, 0.3, 0.9]))
    failed = Pass(0.1, 0.1, 2, [CaseResult("c", error="SolverError: x")],
                  segments=np.array([0.01, 0.01, 0.01]))
    assert np.array_equal(best_segments([fast, slow, failed]), [0.1, 0.3, 0.4])
    assert best_segments([failed]) is None
