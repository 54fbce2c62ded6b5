"""Compare two checkouts on perfbench in alternating pairs, and write a BENCH_*.json.

    python tools/bench_pairs.py PARENT --workload all --seed 0 --seconds 3 --pairs 10
    python tools/bench_pairs.py PARENT --workload all --seed 0 --seconds 3 --pairs 1 --trace 1
    python tools/bench_pairs.py PARENT --run-fig1 --pairs 10 --out BENCH_x.json
    python tools/bench_pairs.py PARENT --run-fig5 --pairs 10 --out BENCH_x.json
    python tools/bench_pairs.py COPY --workload all --seed 0 --pairs 10 --out BENCH_x.json

PARENT is the checkout to compare against (a `git clone` of the parent commit,
say); the change is the checkout this file is in.  Each pair runs
`perfbench/run.py` once in each checkout, one process after the other; the
side that runs first alternates from pair to pair, so that a slow stretch of a
shared host falls on both sides alike.  With --trace 0 it prints,
for each workload and end-to-end metric of BENCHMARK.json, each side's median,
quartiles and IQR, the ratio of the medians and the pairs in which the change
did better.  With --trace 1 it records each side's per-layer metrics.

--run-fig1 times `run` itself instead, in process: fig1's problem (N = 161,
tau = 0.001) to t = 5, the fastest of 5 marches in each process, in
microseconds a level; the final state's sha256 and the pass count must agree
between the checkouts.  --run-fig5 times `sweep` over fig5's six rows with the
peak error tracked, the fastest of 5 sweeps in each process, in seconds; every
row's peak, l_inf and rms (as float.hex) and iters_max must agree.

With --out, the rows go into that JSON file, beside the rows already in it,
under "end_to_end", "per_layer_traced" or "run_rows", keyed by workload and
seed; its "environment" is the block perfbench writes, from the change's run.

An A/A run compares the checkout with a copy of itself (COPY above, a `git
archive` of it, say), so that its ratios show the host's spread.  When
PARENT's src/ holds this checkout's Python files byte for byte, the rows go
under the same section names prefixed with "a_a_".
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

FIG1_RUN = """
import hashlib, json, sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
from drbem1d import Grid, StepConfig, assemble_drbem, make_fitzhugh_nagumo, run
problem = make_fitzhugh_nagumo(0.75)
grid = Grid.with_spacing(-10.0, 10.0, 0.125)
cfg, ops, best = StepConfig(tau=1e-3), assemble_drbem(grid), float("inf")
for _ in range(5):
    start = perf_counter()
    traj = run(problem, grid, cfg, 5.0, ops=ops)
    best = min(best, perf_counter() - start)
print(json.dumps({"us_per_level": 1e6 * best / len(traj.level_iterations),
                  "u_sha256": hashlib.sha256(traj.states[-1].u.tobytes()).hexdigest(),
                  "passes": sum(traj.level_iterations)}))
"""

FIG5_SWEEP = """
import json, sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
from drbem1d.presets import fig5_benchmark
from drbem1d.verification import sweep
bench = fig5_benchmark()
rows, best = [(row.problem, row.h, row.tau) for row in bench.rows], float("inf")
for _ in range(5):
    start = perf_counter()
    results = sweep(rows, bench.t_end, track_peak=True)
    best = min(best, perf_counter() - start)
print(json.dumps({"sweep_s": best,
                  "rows": [[r.peak.hex(), r.l_inf.hex(), r.rms.hex(), r.iters_max]
                           for r in results]}))
"""

# the in-process rows: their script, and the timed key of what it prints (lower
# is better); everything else it prints must agree between the checkouts
IN_PROCESS = {"fig1_run_t5": (FIG1_RUN, "us_per_level"), "fig5_sweep": (FIG5_SWEEP, "sweep_s")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare against")
    parser.add_argument("--workload", default="all", help="a perfbench workload, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    in_process = parser.add_mutually_exclusive_group()
    in_process.add_argument("--run-fig1", action="store_const", dest="row", const="fig1_run_t5",
                            help="time run on fig1's problem to t = 5 instead of perfbench")
    in_process.add_argument("--run-fig5", action="store_const", dest="row", const="fig5_sweep",
                            help="time sweep over fig5's rows instead of perfbench")
    parser.add_argument("--out", type=Path, help="the BENCH_*.json to add the rows to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def environment_vars():
    env = dict(os.environ)
    if not any(var in env for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")):
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def perfbench(checkout, args) -> dict:
    """One perfbench process in checkout: {workload: its result JSON}."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=environment_vars(),
                          check=False)
    if proc.returncode not in (0, 1):  # 1 still reports: some case failed its gate
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result if args.workload == "all" else {args.workload: result}


def in_process_run(checkout, args) -> dict:
    """One process of args.row's script in checkout: what it prints."""
    cmd = [sys.executable, "-c", IN_PROCESS[args.row][0], str(checkout / "src")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=environment_vars(),
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def pairs(args, measure):
    """[(first side, {side: measurement})] over args.pairs alternating pairs."""
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    out = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: measure(sides[side], args) for side in order}
        out.append((order[0], got))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    return out


def compare(parent, change, better) -> dict:
    """Medians, quartiles, IQR and per-pair wins of one metric's readings."""
    p_q, c_q = np.percentile(parent, [25, 50, 75]), np.percentile(change, [25, 50, 75])
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    return {"better": better, "parent": parent, "change": change,
            "parent_quartiles": p_q.tolist(), "change_quartiles": c_q.tolist(),
            "parent_iqr": float(p_q[2] - p_q[0]), "change_iqr": float(c_q[2] - c_q[0]),
            "ratio_of_medians": float(c_q[1] / p_q[1]), "change_better_pairs": int(wins)}


def end_to_end_rows(args, runs) -> dict:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = {}
    for workload in runs[0][1]["change"]:
        per_side = {side: [got[side][workload] for _, got in runs] for side in ("parent", "change")}
        row = {"pairs": len(runs), "first": [first for first, _ in runs],
               "correct": {s: all(r["correct"] for r in per_side[s]) for s in per_side},
               "failed": {s: sum(r["failed"] for r in per_side[s]) for s in per_side},
               "attempted": {s: sum(r["attempted"] for r in per_side[s]) for s in per_side},
               "metrics": {}}
        print(f"\n{workload} seed {args.seed}: {len(runs)} pairs, correct {row['correct']}")
        print(f"  {'metric':14s} {'parent median [q1, q3] iqr':>40s} "
              f"{'change median [q1, q3] iqr':>40s} {'ratio':>7s} wins")
        for metric in metrics:
            name = metric["name"]
            values = {s: [r["metrics"][name]["value"] for r in per_side[s]] for s in per_side}
            if any(v is None for vals in values.values() for v in vals):
                continue
            m = row["metrics"][name] = compare(values["parent"], values["change"],
                                               metric["better"])
            cells = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}] {q[2] - q[0]:.3g}"
                     for q in (m["parent_quartiles"], m["change_quartiles"])]
            print(f"  {name:14s} {cells[0]:>40s} {cells[1]:>40s} "
                  f"{m['ratio_of_medians']:7.4f} {m['change_better_pairs']}/{len(runs)}")
        rows[f"{workload} seed {args.seed}"] = row
    return rows


def traced_rows(args, runs) -> dict:
    rows = {}
    for workload in runs[0][1]["change"]:
        rows[f"{workload} seed {args.seed}"] = [
            {"pair": i + 1, "first": first,
             **{side: {name: m["value"] for name, m in got[side][workload]["metrics"].items()}
                for side in ("parent", "change")}}
            for i, (first, got) in enumerate(runs)]
        for name in ("stepping.corrector_solve.self_s", "stepping.build_level_system.s"):
            cells = [np.median([got[s][workload]["metrics"][name]["value"] for _, got in runs])
                     for s in ("parent", "change")]
            print(f"{workload} seed {args.seed} {name}: parent {cells[0]:.6g} s, "
                  f"change {cells[1]:.6g} s (median over {len(runs)} traced pairs)")
    return rows


def outputs(row, record) -> dict:
    """What an in-process record holds besides its timing."""
    timed = IN_PROCESS[row][1]
    return {key: value for key, value in record.items() if key != timed}


def run_rows(row, runs) -> dict:
    """The in-process row's timing over the pairs, once every process of both
    checkouts gave the first one's outputs; SystemExit otherwise."""
    want = outputs(row, runs[0][1]["parent"])
    for i, (_, got) in enumerate(runs):
        for side, record in got.items():
            if outputs(row, record) != want:
                raise SystemExit(f"{row}: the {side}'s outputs in pair {i + 1} differ "
                                 "from the parent's in pair 1")
    timed = IN_PROCESS[row][1]
    values = {s: [got[s][timed] for _, got in runs] for s in ("parent", "change")}
    m = compare(values["parent"], values["change"], "lower")
    print(f"{row} {timed}: parent median {m['parent_quartiles'][1]:.4g}, "
          f"change {m['change_quartiles'][1]:.4g}, ratio {m['ratio_of_medians']:.4f}, "
          f"change better in {m['change_better_pairs']}/{len(runs)} pairs")
    return {row: {"pairs": len(runs), "first": [f for f, _ in runs], **want, timed: m}}


def same_source(parent) -> bool:
    """Whether parent's src/ holds this checkout's Python files byte for byte."""
    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in (root / "src").rglob("*.py")}
    return files(parent.resolve()) == files(ROOT)


def perfbench_environment(args) -> dict:
    """The environment block of the change's last perfbench record."""
    workload = "kink_const_n321" if args.workload == "all" else args.workload
    record = ROOT / "perfbench" / "out" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    return json.loads(record.read_text())["environment"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.row is not None:
        section, rows = "run_rows", run_rows(args.row, pairs(args, in_process_run))
    else:
        runs = pairs(args, perfbench)
        section, rows = (("per_layer_traced", traced_rows(args, runs)) if args.trace
                         else ("end_to_end", end_to_end_rows(args, runs)))
    if args.out is not None:
        bench = json.loads(args.out.read_text()) if args.out.exists() else {}
        if args.row is None:
            bench["environment"] = perfbench_environment(args)
        if same_source(args.parent):
            section = "a_a_" + section
        bench.setdefault(section, {}).update(rows)
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
