"""drbem1d benchmark: measures one workload of the library in ../src.

    python3 perfbench/run.py --workload kink_const_n321 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 1

Passes over the workload repeat until --seconds have elapsed.  With --trace 0
every pass is untraced and the end-to-end metrics are medians over passes.
With --trace 1 untraced and traced passes alternate: the traced ones give the
per-layer metrics, and each must reproduce its untraced partner bit for bit.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only when every case passed
its checks.  `--workload all` runs every workload in its own interpreter and
prints one table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description="drbem1d benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another; prints one table."""
    from workloads import NAMES  # noqa: E402 - needs the library on sys.path

    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        # Exit code 1 still prints a result: some case failed its checks.
        results[name] = (json.loads(proc.stdout.splitlines()[-1])
                         if proc.returncode in (0, 1) else None)
        if proc.returncode != 0:
            status = 1
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
    metric_names = sorted({m for r in results.values() if r for m in r["metrics"]})
    print(f"{'metric':34s}" + "".join(f"{n:>20s}" for n in results))
    for metric in metric_names:
        cells, unit = [], ""
        for r in results.values():
            entry = r["metrics"].get(metric) if r else None
            unit = entry["unit"] if entry else unit
            cells.append("-" if entry is None or entry["value"] is None else f"{entry['value']:.6g}")
        print(f"{metric + ' [' + unit + ']':34s}" + "".join(f"{c:>20s}" for c in cells))
    ratios = ["-" if r is None else f"{r['failed'] / r['attempted']:.6g}" for r in results.values()]
    print(f"{'fail_ratio [failed/attempted]':34s}" + "".join(f"{c:>20s}" for c in ratios))
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drbem1d" / "__init__.py").is_file():
        print(f"error: no drbem1d package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads.  One thread unless the
    # caller chose otherwise: on two shared cores a second BLAS thread made
    # passes both slower and less steady.
    if not any(var in os.environ for var in THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import drbem1d

    if SRC.resolve() not in Path(drbem1d.__file__).resolve().parents:
        print(f"error: imported drbem1d from {drbem1d.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from bench import measure

    return measure(args, nproc(), THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
