"""Quick self-check of the benchmark: outputs only, no timing gate.

    python3 perfbench/selfcheck/selfcheck.py

Runs every workload once untraced and once traced at its smallest size (one
second, the fewest requests, and for the ladder only its cheapest rungs), and
requires a correct result that names every metric of BENCHMARK.json. Then
runs the benchmark in a directory holding only BENCHMARK.json and perfbench/,
where it must fail without printing a result. Takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCRATCH = ROOT / ".perfbench_work" / "selfcheck"


def run(cwd: Path, workload: str, trace: int) -> tuple:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=175)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc, result = run(ROOT, workload, trace)
            names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            ok = (proc.returncode == 0 and result is not None and result["correct"]
                  and set(result["metrics"]) == names and result["failed"] == 0)
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace}: "
                  f"{result and {k: result[k] for k in ('correct', 'attempted', 'failed')}}")
            if not ok:
                failures.append(f"{workload} trace={trace}")
                print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    shutil.copytree(ROOT / "perfbench", SCRATCH / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run(SCRATCH, "verify-2d", 0)
    ok = proc.returncode != 0 and result is None
    print(f"{'ok  ' if ok else 'FAIL'} without sources: exit code {proc.returncode}")
    if not ok:
        failures.append("without sources")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print("self-check " + ("passed" if not failures else f"FAILED: {', '.join(failures)}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
