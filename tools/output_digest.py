"""Write every user-visible output of drbem1d into OUTDIR, and list or judge it.

    python tools/output_digest.py OUTDIR
    python tools/output_digest.py OUTDIR --compare GOLDENDIR

Runs `reproduce` on table1, table2, table3 and fig5, `solve` on each
configs/*.cfg with OUTDIR as the working directory, and `check` (its stdout is
kept as check.txt): 24 files.  Then prints one "sha256  path" line per file
under OUTDIR on stdout, so two checkouts give byte-identical outputs when their
listings diff clean.  tests/golden is this OUTDIR as the committed tree writes
it, so `python tools/output_digest.py tests/golden` is the update mode.

With --compare, the outputs are written the same way and judged cell by cell
against those in GOLDENDIR (tests/golden, or another checkout's OUTDIR).  A
CSV's cells are its fields as csv.reader reads them, with each "#" note line one
cell; check.txt's are each line's text with its figures (printed as :.2e)
replaced by "#", then the figures.  RULES holds the rules:

- a measured CSV column within GOLDEN_RTOL relative of its golden value; a
  derived column through the columns it is computed from, so that none is judged
  more strictly than its source;
- a check.txt figure whose golden value is at least 1e-6 within 1% of it; the
  roundoff-level ones count only through their line's PASS;
- every other cell (labels, x, t, corrector counts, status, headers, notes,
  verdicts) the same text.

For each file it prints the largest relative change of its judged numbers,
overall and by column, then each cell that breaches its rule.  A file found in
only one of the two directories is a breach too.  It exits 1 on any breach.
The Tier-1 golden tests judge their outputs through `compare_file` and `judge`.
"""

import argparse
import contextlib
import csv
import hashlib
import math
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from drbem1d.cli import main  # noqa: E402

GOLDEN_RTOL = 1e-9
# every figure in check's details is printed as :.2e
FIGURE = re.compile(r"\d\.\d+e[+-]\d+")


def relative_change(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def within(rtol, atol=0.0, shift=0.0):
    """The rule that a value a and its golden value b agree: a + shift and
    b + shift within rtol relative, or a and b within atol absolute."""
    return lambda a, b: relative_change(a + shift, b + shift) <= rtol or abs(a - b) <= atol


# column -> rule, for the cells judged as numbers; every other cell must be the
# same text
RULES = {
    **dict.fromkeys(("l_inf", "rms", "l_inf_peak", "l_inf_reference", "rms_reference",
                     "u_numeric", "u_exact"), within(GOLDEN_RTOL)),
    # |u_numeric - u_exact| passes through zero
    "abs_error": within(GOLDEN_RTOL, atol=1e-12),
    # l_inf / l_inf_reference - 1, whose 1 + value is l_inf over a fixed reference
    "l_inf_rel_dev": within(GOLDEN_RTOL, shift=1.0),
    # ln(l_inf_prev / l_inf) / ln 2, as every preset halves h or doubles tau: two
    # errors within GOLDEN_RTOL each move it by at most 2 GOLDEN_RTOL / ln 2
    "observed_order": within(0.0, atol=2 * GOLDEN_RTOL / math.log(2)),
    # check.txt's figures
    "figure": lambda a, b: b < 1e-6 or abs(a - b) <= 0.01 * b,
}


def cell_rows(path):
    """The file's lines as lists of cells, and each cell's column name."""
    lines = path.read_text().splitlines()
    if path.suffix != ".csv":
        return ([[FIGURE.sub("#", line), *FIGURE.findall(line)] for line in lines],
                lambda j: "figure" if j else "text")
    notes = [[line] for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    header = table[0] if table else []
    return notes + table, lambda j: header[j] if j < len(header) else f"field {j + 1}"


def number(text):
    try:
        return float(text)
    except ValueError:
        return None


def judge(rows, golden, column):
    """rows against their golden rows by RULES: the largest relative change of the
    judged numbers and where it is, the largest by column, and the breaches."""
    largest, by_column, breaches = (0.0, ""), {}, []
    if len(rows) != len(golden):
        breaches.append(f"line count: {len(golden)} -> {len(rows)}")
    for i, (row, want) in enumerate(zip(rows, golden), start=1):
        if len(row) != len(want):
            breaches.append(f"line {i}: {' '.join(want)!r} -> {' '.join(row)!r}")
            continue
        for j, (new, old) in enumerate(zip(row, want)):
            col = column(j)
            rule, a, b = RULES.get(col), number(new), number(old)
            if rule is None or a is None or b is None:
                if new != old:
                    breaches.append(f"line {i} {col}: {old!r} -> {new!r}")
                continue
            rel = relative_change(a, b)
            by_column[col] = max(by_column.get(col, 0.0), rel)
            if rel > largest[0]:
                largest = (rel, f" (line {i} {col})")
            if not rule(a, b):
                breaches.append(f"line {i} {col}: {old!r} -> {new!r} breaches its rule")
    return largest, by_column, breaches


def compare_file(name, path, golden_path):
    """The report on the file `name`, at path against golden_path (its largest
    numeric change, overall and by column, then each breach), and its breaches."""
    rows, column = cell_rows(path)
    (largest, where), by_column, breaches = judge(rows, cell_rows(golden_path)[0], column)
    columns = ", ".join(f"{col} {rel:.2g}" for col, rel in by_column.items())
    report = [f"{name}: largest relative change {largest:.2g}{where}"]
    report += [f"  by column: {columns}"] if largest else []
    return report + [f"  {breach}" for breach in breaches], breaches


def files(directory):
    return {p.relative_to(directory) for p in directory.rglob("*") if p.is_file()}


def compare_dirs(out, golden):
    """The report on every file under out against golden's, and the files that
    breach: those with a breaching cell and those found on one side only."""
    report, breached = [], []
    ours, theirs = files(out), files(golden)
    for rel in sorted(ours | theirs):
        if rel in ours and rel in theirs:
            lines, breaches = compare_file(rel, out / rel, golden / rel)
        else:
            lines = breaches = [f"{rel}: only in {out if rel in ours else golden}"]
        report += lines
        breached += [rel] if breaches else []
    return report, breached


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--compare", type=Path, metavar="GOLDENDIR",
                        help="judge the outputs against those in GOLDENDIR; exit 1 on a breach")
    args = parser.parse_args()
    out = args.outdir.resolve()
    golden = args.compare.resolve() if args.compare else None
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the listing
        for table in ("table1", "table2", "table3", "fig5"):
            main(["reproduce", table, "--out", str(out)])
        os.chdir(out)
        for config in sorted((ROOT / "configs").glob("*.cfg")):
            main(["solve", str(config)])
    with open("check.txt", "w") as stdout, contextlib.redirect_stdout(stdout):
        main(["check"])
    if golden is None:
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    else:
        report, breached = compare_dirs(out, golden)
        print("\n".join(report))
        print("breach the golden rules: " + ", ".join(map(str, breached)) if breached
              else "every file within the golden rules")
        sys.exit(1 if breached else 0)
