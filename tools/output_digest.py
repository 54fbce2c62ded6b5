"""Write every user-visible output of drbem1d into OUTDIR and print its sha256.

    python tools/output_digest.py OUTDIR

Runs `reproduce` on table1, table2, table3 and fig5, `solve` on each
configs/*.cfg with OUTDIR as the working directory, and `check` (its stdout is
kept as check.txt), then prints one "sha256  path" line per file under OUTDIR on stdout.
Two checkouts give byte-identical outputs when their listings diff clean.
"""

import contextlib
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from drbem1d.cli import main  # noqa: E402

out = Path(sys.argv[1]).resolve()
out.mkdir(parents=True, exist_ok=True)
with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the digests
    for table in ("table1", "table2", "table3", "fig5"):
        main(["reproduce", table, "--out", str(out)])
    os.chdir(out)
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        main(["solve", str(config)])
with open("check.txt", "w") as stdout, contextlib.redirect_stdout(stdout):
    main(["check"])
for path in sorted(p for p in out.rglob("*") if p.is_file()):
    print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
