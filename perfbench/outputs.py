"""Output checks: every request's output against the recorded reference.

`perfbench/reference/` holds, per workload, what the program computed when the
reference was recorded (see make_reference.py):

* `verify-*.json`: for each recorded seed, the exit code and every check's
  status (pass, fail or error) and measured numbers; plus the route distance
  of the corpus gaussian on the verify grid.
* `ladder.json`: per rung, the route distance, the round-trip error and five
  samples of each K-curve.

Rules. A check that passed in the reference must pass, with its numbers within
REL_TOL (Monte-Carlo numbers: within four standard errors, recorded with the
reference). A check that failed or errored may now pass. Numbers that are
errors (round-trip, duality defect, route distance) may fall freely but may
rise by at most ERROR_SLACK.
"""

import json
import math
import os
import re

from spec import rung_tag

HERE = os.path.dirname(os.path.abspath(__file__))

REL_TOL = 1e-3
ABS_TOL = 1e-9
ERROR_SLACK = 0.02
ERROR_CHECKS = ("ftc_roundtrip", "integration_by_parts")

_PASSED_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


def load_reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)


def status(report: dict) -> str:
    if report["passed"]:
        return "pass"
    return "error" if str(report["notes"]).startswith("error:") else "fail"


def flat_numbers(value) -> list:
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in flat_numbers(v)]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return []
    return [float(value)]


def summarize_reports(reports: list) -> list:
    """[check id, status, measured numbers] per report, in report order."""
    return [[r["check_id"], status(r), flat_numbers(r["measured"])] for r in reports]


def _close(new: float, ref: float, rel: float) -> bool:
    return abs(new - ref) <= rel * abs(ref) + ABS_TOL


def _not_worse(new: float, ref: float) -> bool:
    return math.isfinite(new) and new <= ref * (1.0 + ERROR_SLACK) + ABS_TOL


def reference_row(reference: dict, seed: int) -> dict:
    """The recorded outputs of `seed`; a KeyError when it was not recorded."""
    return {row["seed"]: row for row in reference["rows"]}[seed]


def check_verify(code: int, stdout: str, reports: list, expected: dict) -> list:
    """Problems with one `fracgrid verify` request against the reference row
    of its seed; empty when correct."""
    problems = []
    statuses = [status(r) for r in reports]
    passed = statuses.count("pass")
    lines = stdout.splitlines()
    match = _PASSED_LINE.match(lines[0]) if lines else None
    if match is None or (int(match.group(1)), int(match.group(2))) != (passed, len(reports)):
        problems.append(f"summary line {lines[:1]} does not match {passed}/{len(reports)} in report.json")
    if code != (0 if passed == len(reports) else 1):
        problems.append(f"exit code {code} with {passed}/{len(reports)} checks passed")
    for i, r in enumerate(reports):
        m, b = r["measured"], r["bound"]
        if (statuses[i] != "error" and isinstance(m, (int, float))
                and isinstance(b, (int, float)) and r["passed"] != (m <= b)):
            problems.append(f"check {i} ({r['check_id']}): verdict {r['passed']} "
                            f"disagrees with measured {m} <= bound {b}")

    count = len(expected["checks"])
    if len(reports) != count:
        return problems + [f"{len(reports)} reports, expected {count}"]
    for i, (r, st) in enumerate(zip(reports, statuses)):
        cid, ref_status, ref_numbers, mc_rel = expected["checks"][i]
        where = f"check {i} ({cid})"
        if r["check_id"] != cid:
            problems.append(f"{where}: got {r['check_id']}")
            continue
        if ref_status != "pass":
            continue  # fixing a failed or errored check is never a failure
        if st != "pass":
            problems.append(f"{where}: {st}, reference passes; notes: {r['notes']}")
            continue
        numbers = flat_numbers(r["measured"])
        if len(numbers) != len(ref_numbers):
            problems.append(f"{where}: measured {numbers}, reference {ref_numbers}")
            continue
        for new, ref in zip(numbers, ref_numbers):
            ok = (_not_worse(new, ref) if cid in ERROR_CHECKS
                  else _close(new, ref, max(REL_TOL, mc_rel)))
            if not ok:
                problems.append(f"{where}: measured {new!r}, reference {ref!r}")
    return problems


def check_rungs(rows: list, reference_rows: list) -> list:
    """Problems with the per-rung outputs: route distance, round-trip error
    and K-curves, as far as the reference records them. A route distance of
    exactly zero would mean the two routes are no longer independent."""
    problems = []
    by_tag = {_tag(r): r for r in reference_rows}
    for row in rows:
        tag = _tag(row)
        ref = by_tag.get(tag)
        if ref is None:
            problems.append(f"rung {tag}: no reference")
            continue
        if "error" in row:
            problems.append(f"rung {tag}: the program raised {row['error']}")
            continue
        for name in ("route", "ftc"):
            if name in ref and not (row[name] > 0.0 and _not_worse(row[name], ref[name])):
                problems.append(f"rung {tag}: {name} {row[name]!r}, reference {ref[name]!r}")
        for name in ("k2", "k3"):
            if name not in ref:
                continue
            curve = row[name]
            if not curve["ok"]:
                problems.append(f"rung {tag}: {name} breaks the K-functional invariants")
            if not all(_close(a, b, REL_TOL) for a, b in zip(curve["sample"], ref[name])):
                problems.append(f"rung {tag}: {name} {curve['sample']}, reference {ref[name]}")
    return problems


def _tag(row: dict) -> str:
    return rung_tag(row["dim"], row["n"], row["s"])
