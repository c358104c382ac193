"""Record the reference outputs that outputs.py compares every request with.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Writes perfbench/reference/{verify-2d,ladder}.json. Run it only in
a change that means to move the program's outputs, and say so in CHANGES.md.
"""

import json
import os
import sys
import tempfile

import fracgrid
from fracgrid import cli
from fracgrid.norms import gagliardo_report

from outputs import HERE, summarize_reports
from spec import REFERENCE_SEEDS, VERIFY_ARGS, VERIFY_GRID, EXTENT, ladder_rungs
from worker import ladder_pass, make_inputs, route_rows

STANDARD_ERRORS = 4.0


def _mc_rel(report: dict, corpus) -> float:
    """Relative tolerance of a Monte-Carlo contiguity spread: four standard
    errors of each ratio, twice over because the spread is max / min."""
    params = report["params"]
    if report["check_id"] != "contiguity_p2" or params.get("method") != "montecarlo":
        return 0.0
    worst = 0.0
    for entry in corpus:
        rep = gagliardo_report(entry.field, params["s"], 2.0, method="montecarlo")
        total = fracgrid.lp_norm(entry.field, 2.0) + rep.value
        worst = max(worst, rep.detail["stat_error"] / total)
    return 2.0 * STANDARD_ERRORS * worst


def record_verify(workload: str) -> tuple:
    head = {"workload": workload, "route": route_rows(workload)}
    rows = []
    dim, n = VERIFY_GRID[workload]
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(REFERENCE_SEEDS):
            argv = ["verify", "--seed", str(seed), "--out", tmp, "--format", "json",
                    *VERIFY_ARGS[workload]]
            code = cli.main(argv)
            with open(os.path.join(tmp, "report.json")) as fh:
                reports = json.load(fh)
            corpus = fracgrid.sample_corpus(fracgrid.make_grid(dim, n, EXTENT), seed)
            checks = [row + [_mc_rel(r, corpus)]
                      for row, r in zip(summarize_reports(reports), reports)]
            rows.append({"seed": seed, "exit": code, "checks": checks})
            print(workload, seed, code, file=sys.stderr, flush=True)
    return head, rows


def record_ladder() -> tuple:
    _, rows = ladder_pass(make_inputs("ladder", 0), ladder_rungs())
    for row in rows:
        row["k2"] = row["k2"]["sample"]
        row["k3"] = row["k3"]["sample"]
    return {"workload": "ladder"}, rows


def write_reference(workload: str, head: dict, rows: list) -> None:
    """`head` plus a "rows" list, one row per line, so a diff names the
    seed or rung whose output moved."""
    with open(os.path.join(HERE, "reference", f"{workload}.json"), "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "rows": [\n')
        fh.write(",\n".join(json.dumps(row) for row in rows))
        fh.write("\n]}\n")


def main() -> int:
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    records = {"ladder": record_ladder()}
    for workload in VERIFY_ARGS:
        records[workload] = record_verify(workload)
    for workload, (head, rows) in records.items():
        write_reference(workload, head, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
