"""Compare the output of one fracgrid subcommand between two source trees, seed by seed.

    python tools/report_diff.py OLD_SRC NEW_SRC [--command verify] [--seeds 0-31]
        [-- COMMAND_ARGS...]

Runs `python -m fracgrid.cli COMMAND --seed S --out DIR COMMAND_ARGS` once per
seed with each tree first on PYTHONPATH, one process at a time. COMMAND is
`verify` unless --command names another subcommand. It reports whether exit
codes, stdout and stderr agree, and, for every file either run writes, how
many are byte-identical once the runtime_ms field, the only one that may
differ, is masked wherever a report carries it: a JSON file's
`"runtime_ms": ...` members and a CSV file's runtime_ms column. A JSON file
is also compared report by report, a CSV file row by row. Every other file
is compared byte for byte. Exits 0 when everything agrees, 1 otherwise.
Standard library only.
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


def _run(src: Path, command: str, seed: int, out: Path, args: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    cmd = [sys.executable, "-m", "fracgrid.cli", command, "--seed", str(seed),
           "--out", str(out), *args]
    done = subprocess.run(cmd, env=env, capture_output=True)
    return done.returncode, done.stdout, done.stderr


def _json_parts(path: Path) -> list:
    """The file's opening bracket, then each report's bytes, runtime_ms
    masked; with indent=2 a report starts at a line of two spaces and a brace."""
    masked = _JSON_RUNTIME.sub(rb"\1_", path.read_bytes())
    return re.split(rb"\n(?=  \{)", masked)


def _csv_parts(path: Path) -> list:
    """The file's comment line and header, then each row, its runtime_ms
    masked if the header has that column."""
    with open(path, newline="") as fh:
        comment = fh.readline()
        header, *rows = csv.reader(fh)
    if "runtime_ms" in header:
        column = header.index("runtime_ms")
        for row in rows:
            row[column] = "_"
    return [(comment, header), *rows]


# per suffix: how a file splits into a head and its parts, and what a part is
_READERS = {".json": (_json_parts, "reports"), ".csv": (_csv_parts, "rows")}


def _parts(path: Path) -> list:
    if not path.exists():
        return [None]
    reader = _READERS.get(path.suffix)
    return reader[0](path) if reader else [path.read_bytes()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", type=Path, help="source tree holding the fracgrid package")
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--command", default="verify", help="fracgrid subcommand to run")
    ap.add_argument("--seeds", default="0-31", help="inclusive range A-B, or one seed")
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    args.command_args = argv[cut + 1:]
    seeds = _seeds(args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        agree = {"exit code": 0, "stdout": 0, "stderr": 0}
        # per file name: files equal, files compared, parts equal, parts
        files = {}
        differing = []
        for seed in seeds:
            outs = [root / side / str(seed) for side in ("old", "new")]
            old, new = (_run(src, args.command, seed, out, args.command_args)
                        for src, out in zip((args.old_src, args.new_src), outs))
            ok = old == new
            for i, key in enumerate(agree):
                agree[key] += old[i] == new[i]
            names = {p.relative_to(out).as_posix() for out in outs if out.exists()
                     for p in out.rglob("*") if p.is_file()}
            for name in sorted(names):
                a, b = (_parts(out / name) for out in outs)
                tally = files.setdefault(name, [0, 0, 0, 0])
                tally[0] += a == b
                tally[1] += 1
                tally[2] += sum(x == y for x, y in zip(a[1:], b[1:]))
                tally[3] += max(len(a), len(b)) - 1
                ok &= a == b
            if not ok:
                differing.append(seed)
    print(" ".join([args.command, *args.command_args]), f"over seeds {seeds[0]}-{seeds[-1]}")
    for key, count in agree.items():
        print(f"{key} agrees: {count} of {len(seeds)}")
    for name, (equal, count, same, total) in sorted(files.items()):
        line = f"{name} identical apart from runtime_ms: {equal} of {count} files"
        # a field file's JSON header holds no reports, and a binary file no parts
        print(f"{line}, {same} of {total} {_READERS[Path(name).suffix][1]}" if total else line)
    if differing:
        print(f"differing seeds: {differing}")
    return 0 if not differing else 1


if __name__ == "__main__":
    sys.exit(main())
