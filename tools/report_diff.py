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
is compared byte for byte. For each file name that is not identical
everywhere, it prints the largest relative move |a - b| / max(|a|, |b|) of
any number that both runs wrote in the same place of a JSON report or a CSV
row (a JSON cell read as JSON), and where: seed, file, report or row, field.
Exits 0 when everything agrees, 1 otherwise. Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
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


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))  # inf, or nan, if either is


def _moves(a, b, where: str):
    """(relative move, where) for each pair of numbers at one place of a
    and b: JSON values, or CSV cells, which are read as numbers or JSON;
    runtime_ms is skipped, and so is a place that only one of them has."""
    if isinstance(a, str) and isinstance(b, str):
        try:
            a, b = float(a), float(b)
        except ValueError:
            try:
                a, b = json.loads(a), json.loads(b)
            except ValueError:
                return
    if isinstance(a, bool) or isinstance(b, bool):
        return
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        yield _relative(float(a), float(b)), where
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() & b.keys() - {"runtime_ms"}):
            yield from _moves(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _moves(x, y, f"{where}[{i}]")


def _file_moves(name: str, old: Path, new: Path):
    """_moves over two runs' versions of one JSON or CSV file, located by
    report (with its check_id) or row, then field."""
    suffix = Path(name).suffix
    if not (old.exists() and new.exists()) or suffix not in _READERS:
        return
    if suffix == ".json":
        a, b = (json.loads(path.read_bytes()) for path in (old, new))
        # a list of reports, or one object such as a field file's header
        pairs = ([(f"report {i} ({x.get('check_id')})", x, y) for i, (x, y) in enumerate(zip(a, b))]
                 if isinstance(a, list) else [("", a, b)])
    else:
        (_, header), *rows = _csv_parts(old)
        pairs = ((f"row {i}", dict(zip(header, x)), dict(zip(header, y)))
                 for i, (x, y) in enumerate(zip(rows, _csv_parts(new)[1:])))
    for place, x, y in pairs:
        for move, field in _moves(x, y, ""):
            yield move, " ".join(filter(None, (name, place, field.lstrip("."))))


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
        # per file name: the largest relative move of a number, and where
        largest = {}
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
                if a != b:
                    best = largest.setdefault(name, (0.0, "no number moved"))
                    for move, where in _file_moves(name, *(out / name for out in outs)):
                        if not move <= best[0]:  # nan is the largest move
                            best = (move, f"seed {seed}, {where}")
                    largest[name] = best
            if not ok:
                differing.append(seed)
    print(" ".join([args.command, *args.command_args]), f"over seeds {seeds[0]}-{seeds[-1]}")
    for key, count in agree.items():
        print(f"{key} agrees: {count} of {len(seeds)}")
    for name, (equal, count, same, total) in sorted(files.items()):
        line = f"{name} identical apart from runtime_ms: {equal} of {count} files"
        # a field file's JSON header holds no reports, and a binary file no parts
        print(f"{line}, {same} of {total} {_READERS[Path(name).suffix][1]}" if total else line)
        if name in largest:
            move, where = largest[name]
            print(f"  largest relative move {move:.3g}: {where}")
    if differing:
        print(f"differing seeds: {differing}")
    return 0 if not differing else 1


if __name__ == "__main__":
    sys.exit(main())
