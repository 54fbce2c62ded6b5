"""Write every user-visible output of drbem1d into OUTDIR and print its sha256.

    python tools/output_digest.py OUTDIR
    python tools/output_digest.py OUTDIR --compare OTHERDIR

Runs `reproduce` on table1, table2, table3 and fig5, `solve` on each
configs/*.cfg with OUTDIR as the working directory, and `check` (its stdout is
kept as check.txt), then prints one "sha256  path" line per file under OUTDIR on stdout.
Two checkouts give byte-identical outputs when their listings diff clean.

With --compare, the outputs are written the same way and compared cell by cell
with those of another checkout in OTHERDIR instead: for each file, the largest
relative change |a - b| / max(|a|, |b|) of its numeric cells, overall and by
column, and every changed corrector-iteration cell (a CSV column whose name
holds "iters") or text cell.  A CSV's cells are its fields as csv.reader reads
them, with each "#" note line one cell; any other file's cells are its
whitespace-separated words.
"""

import argparse
import contextlib
import csv
import hashlib
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from drbem1d.cli import main  # noqa: E402


def cell_rows(path):
    """The file's lines as lists of cells, and each cell's column name."""
    lines = path.read_text().splitlines()
    if path.suffix != ".csv":
        return [line.split() for line in lines], lambda j: f"word {j + 1}"
    notes = [[line] for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    header = table[0] if table else []
    return notes + table, lambda j: header[j] if j < len(header) else f"field {j + 1}"


def number(text):
    try:
        return float(text)
    except ValueError:
        return None


def relative_change(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare_file(name, path, other):
    """Report lines for the file `name`, at path here and at other in the other
    checkout: its largest numeric change, then each changed iteration or text cell."""
    rows, column = cell_rows(path)
    other_rows, _ = cell_rows(other)
    largest, by_column, changed = (0.0, ""), {}, []
    if len(rows) != len(other_rows):
        changed.append(f"  line count: {len(other_rows)} -> {len(rows)}")
    for i, (row, other_row) in enumerate(zip(rows, other_rows), start=1):
        if len(row) != len(other_row):
            changed.append(f"  line {i}: {' '.join(other_row)!r} -> {' '.join(row)!r}")
            continue
        for j, (new, old) in enumerate(zip(row, other_row)):
            col = column(j)
            a, b = number(new), number(old)
            if a is None or b is None or "iters" in col:
                if new != old:
                    changed.append(f"  line {i} {col}: {old!r} -> {new!r}")
                continue
            rel = relative_change(a, b)
            by_column[col] = max(by_column.get(col, 0.0), rel)
            if rel > largest[0]:
                largest = (rel, f" (line {i} {col})")
    summary = f"{name}: largest relative change {largest[0]:.2g}{largest[1]}"
    columns = ", ".join(f"{col} {rel:.2g}" for col, rel in by_column.items())
    return [summary] + ([f"  by column: {columns}"] if largest[0] else []) + changed


def files(directory):
    return {p.relative_to(directory) for p in directory.rglob("*") if p.is_file()}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--compare", type=Path, metavar="OTHERDIR",
                        help="compare the outputs with those of another checkout in OTHERDIR")
    args = parser.parse_args()
    out = args.outdir.resolve()
    other = args.compare.resolve() if args.compare else None
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the listing
        for table in ("table1", "table2", "table3", "fig5"):
            main(["reproduce", table, "--out", str(out)])
        os.chdir(out)
        for config in sorted((ROOT / "configs").glob("*.cfg")):
            main(["solve", str(config)])
    with open("check.txt", "w") as stdout, contextlib.redirect_stdout(stdout):
        main(["check"])
    if other is None:
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    else:
        ours, theirs = files(out), files(other)
        for rel in sorted(ours | theirs):
            if rel not in ours or rel not in theirs:
                print(f"{rel}: only in {out if rel in ours else other}")
                continue
            print("\n".join(compare_file(rel, out / rel, other / rel)))
