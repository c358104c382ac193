"""Compare `fracgrid verify` between two source trees, seed by seed.

    python tools/report_diff.py OLD_SRC NEW_SRC [--seeds 0-31] [-- VERIFY_ARGS...]

Runs `python -m fracgrid.cli verify --seed S --out DIR VERIFY_ARGS` once per
seed with each tree first on PYTHONPATH, one process at a time. It reports
whether exit codes, stdout and stderr agree, and how many report.json and
report.csv files (and reports inside them) are byte-identical once the
runtime_ms field, the only one that may differ, is masked. Exits 0 when
everything agrees, 1 otherwise. Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_JSON_RUNTIME = re.compile(rb'("runtime_ms": )[^,\n}]*')


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(src: Path, seed: int, out: Path, args: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    cmd = [sys.executable, "-m", "fracgrid.cli", "verify", "--seed", str(seed),
           "--out", str(out), *args]
    done = subprocess.run(cmd, env=env, capture_output=True)
    return done.returncode, done.stdout, done.stderr


def _json_reports(path: Path) -> list:
    """The file's opening bracket, then each report's bytes, runtime_ms
    masked; with indent=2 a report starts at a line of two spaces and a brace."""
    masked = _JSON_RUNTIME.sub(rb"\1_", path.read_bytes())
    return re.split(rb"\n(?=  \{)", masked)


def _csv_reports(path: Path) -> list:
    """The file's comment line and header, then each report's row,
    runtime_ms masked."""
    with open(path, newline="") as fh:
        comment = fh.readline()
        header, *rows = csv.reader(fh)
    column = header.index("runtime_ms")
    for row in rows:
        row[column] = "_"
    return [(comment, header), *rows]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", type=Path, help="source tree holding the fracgrid package")
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--seeds", default="0-31", help="inclusive range A-B, or one seed")
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    args.verify_args = argv[cut + 1:]
    seeds = _seeds(args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        agree = {"exit code": 0, "stdout": 0, "stderr": 0}
        # per file name: files equal, files compared, reports equal, reports
        files = {"report.json": [0, 0, 0, 0], "report.csv": [0, 0, 0, 0]}
        differing = []
        for seed in seeds:
            outs = [root / side / str(seed) for side in ("old", "new")]
            old, new = (_run(src, seed, out, args.verify_args)
                        for src, out in zip((args.old_src, args.new_src), outs))
            ok = old == new
            for i, key in enumerate(agree):
                agree[key] += old[i] == new[i]
            for name, read in (("report.json", _json_reports), ("report.csv", _csv_reports)):
                paths = [out / name for out in outs]
                if not any(p.exists() for p in paths):
                    continue
                a, b = (read(p) if p.exists() else [None] for p in paths)
                tally = files[name]
                tally[0] += a == b
                tally[1] += 1
                tally[2] += sum(x == y for x, y in zip(a[1:], b[1:]))
                tally[3] += max(len(a), len(b)) - 1
                ok &= a == b
            if not ok:
                differing.append(seed)
    print(" ".join(["verify", *args.verify_args]), f"over seeds {seeds[0]}-{seeds[-1]}")
    for key, count in agree.items():
        print(f"{key} agrees: {count} of {len(seeds)}")
    for name, (equal, count, same, total) in files.items():
        print(f"{name} identical apart from runtime_ms: {equal} of {count} files, "
              f"{same} of {total} reports")
    if differing:
        print(f"differing seeds: {differing}")
    return 0 if not differing else 1


if __name__ == "__main__":
    sys.exit(main())
