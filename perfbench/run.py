"""fracgrid benchmark: one run of one workload. See perfbench/README.md.

    python3 perfbench/run.py --workload verify-2d --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Prints one line per metric, then, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Exits 1 when an output check
failed and 2 when the run could not be made.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from outputs import check_rungs, check_verify, load_reference, reference_row, status
from spec import BLAS_THREADS, REFERENCE_SEEDS, VERIFY_ARGS, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")

SETUP_SHARE = 0.10      # share of the run spent timing set-up, between requests
DEADLINE_S = 170        # the run is abandoned, and its children killed, after this
ACCURACY_BOUND = 1e-2   # quadrature round-trip tolerance of check_ftc_roundtrip


def request_kind(trace: int, index: int) -> str:
    """Untraced runs make only `plain` requests. Traced runs make `spans` and
    `plain` requests alternately: span metrics come from `spans` requests and
    the overhead baseline from `plain` ones. After the clock stops, a traced
    run makes one `memory` request in a fresh process, so its tracemalloc
    peaks include every cold table build, and tracemalloc, which slows
    Python-heavy code several times over, touches no timed request."""
    return ("spans", "plain")[index % 2] if trace else "plain"


class Children:
    """Every process the run starts; `kill_all` stops and reaps the rest."""

    def __init__(self):
        self.live = []

    def start(self, argv, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(ROOT), **kwargs)
        self.live.append(proc)
        return proc

    def reap(self, proc) -> tuple:
        """Wait for `proc`; (exit code, max RSS in KiB)."""
        _, wait_status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss

    def run(self, argv, log: Path) -> tuple:
        """Run to completion; (exit code, wall seconds, max RSS KiB, stdout)."""
        with open(log, "w") as out, open(log.with_suffix(".err"), "w") as err:
            t0 = time.perf_counter()
            proc = self.start(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            code, rss = self.reap(proc)
            wall = time.perf_counter() - t0
        return code, wall, rss, log.read_text()

    def kill_all(self) -> None:
        for proc in list(self.live):
            proc.kill()
            self.reap(proc)


class Metric:
    def __init__(self, value, samples: int):
        self.value, self.samples = float(value), samples


def median_metric(values) -> Metric:
    return Metric(statistics.median(values), len(values))


# ---------------------------------------------------------------------------
# workloads

class Setup:
    """Times set-up in fresh processes: start the interpreter, import fracgrid
    and generate the workload's inputs. The host's speed drifts by tens of
    percent over seconds, so the probes are spread over the run, between
    requests, and setup_s is their median rather than a reading of one
    moment."""

    def __init__(self, children, args, work):
        self.children, self.log = children, work / "setup.log"
        self.argv = [sys.executable, WORKER, "setup", "--workload", args.workload,
                     "--seed", str(args.program_seed)] + (["--small"] if args.small else [])
        self.times = []
        self.env = self.probe()

    def probe(self) -> dict:
        code, wall, _, out = self.children.run(self.argv, self.log)
        if code != 0:
            raise RuntimeError(f"set-up failed with exit code {code}; see {self.log}")
        self.times.append(wall)
        return json.loads(out)

    def keep_up(self, elapsed: float) -> None:
        while sum(self.times) < SETUP_SHARE * elapsed:
            self.probe()


def closed_loop(args, setup: Setup, request) -> list:
    """`request(kind)` until --seconds have passed, and at least twice (four
    times when traced), with set-up probes in between."""
    requests = []
    t0 = time.perf_counter()
    while len(requests) < (4 if args.trace else 2) or time.perf_counter() - t0 < args.seconds:
        requests.append(request(request_kind(args.trace, len(requests))))
        setup.keep_up(time.perf_counter() - t0)
    return requests


def run_verify(children, args, work, setup, reference) -> dict:
    try:
        expected = reference_row(reference, args.program_seed)
    except KeyError:
        raise RuntimeError(f"no reference for seed {args.program_seed}") from None
    out_dir = work / "out"
    cli_args = ["verify", "--seed", str(args.program_seed), *VERIFY_ARGS[args.workload],
                "--out", str(out_dir)]
    first_reports = []

    def request(kind: str) -> dict:
        if kind == "plain":
            argv = [sys.executable, "-m", "fracgrid.cli", *cli_args]
        else:
            argv = [sys.executable, WORKER, "verify", "--spans", str(work / "spans.jsonl"),
                    "--summary", str(work / "summary.json"),
                    *(["--memory"] if kind == "memory" else []), "--", *cli_args]
        shutil.rmtree(out_dir, ignore_errors=True)
        code, wall, rss, stdout = children.run(argv, work / "request.log")
        done = {"wall": wall, "rss": rss, "kind": kind, "problems": []}
        try:
            reports = json.loads((out_dir / "report.json").read_text())
            done["problems"] = check_verify(code, stdout, reports, expected)
            stripped = [{k: v for k, v in r.items() if k != "runtime_ms"} for r in reports]
            if not first_reports:
                first_reports.append(stripped)
                done["reports"] = reports
            elif stripped != first_reports[0]:
                done["problems"].append("report differs from the run's first report")
            if kind != "plain":
                done["layers"] = json.loads((work / "summary.json").read_text())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            done["problems"].append(f"unreadable output (exit code {code}): {exc!r}")
        return done

    requests = closed_loop(args, setup, request)
    if args.trace:
        requests.append(request("memory"))
    shutil.rmtree(out_dir, ignore_errors=True)

    reports = next((r["reports"] for r in requests if "reports" in r), None)
    if reports is None:
        raise RuntimeError(f"no request gave a report: {requests[0]['problems']}")
    code, _, _, out = children.run([sys.executable, WORKER, "route", "--workload",
                                    args.workload], work / "route.log")
    if code != 0:
        raise RuntimeError(f"route worker failed with exit code {code}; see {work}")
    rows = json.loads(out)["rungs"]
    statuses = [status(r) for r in reports]
    quad_ftc = [r["measured"] for r in reports
                if r["check_id"] == "ftc_roundtrip" and r["params"].get("path") == "quadrature"]
    # every request is a fresh process, so every request is a first request
    return {
        "requests": requests, "problems": check_rungs(rows, reference["route"]),
        "first_walls": [r["wall"] for r in requests if r["kind"] == "plain"],
        "check_pass_ratio": statuses.count("pass") / len(statuses),
        "checks": len(statuses),
        "route_rel_l2_max": max(r["route"] for r in rows),
        "ftc_rel_l2_max": max(quad_ftc),
    }


class LadderServer:
    """One `worker.py ladder` process, asked one pass at a time."""

    def __init__(self, children, args, work, name: str):
        self.children, self.log = children, work / f"{name}.err"
        argv = [sys.executable, WORKER, "ladder", "--seed", str(args.program_seed),
                "--spans", str(work / f"{name}-spans.jsonl")]
        with open(self.log, "w") as err:
            self.proc = children.start(argv + (["--small"] if args.small else []),
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                       stderr=err, text=True)
        if not json.loads(self.proc.stdout.readline() or "{}").get("ready"):
            raise RuntimeError(f"ladder worker did not start; see {self.log}")
        self.passes = 0

    def ask(self, command: str) -> dict:
        self.passes += 1
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"ladder worker ended; see {self.log}")
        return json.loads(line)

    def close(self) -> int:
        """Stop the worker; its max RSS in KiB."""
        self.proc.stdin.write("quit\n")
        self.proc.stdin.close()
        self.proc.stdout.close()
        code, rss = self.children.reap(self.proc)
        if code != 0:
            raise RuntimeError(f"ladder worker failed with exit code {code}; see {self.log}")
        return rss


def run_ladder(children, args, work, setup, reference) -> dict:
    def request(kind: str) -> dict:
        answer = server.ask(kind)
        return {"wall": answer["wall_s"], "kind": kind, "cold": server.passes == 1,
                "layers": answer.get("layers"), "rungs": answer["rungs"],
                "problems": check_rungs(answer["rungs"], reference["rows"])}

    server = LadderServer(children, args, work, "ladder")
    requests = closed_loop(args, setup, request)
    rss = server.close()
    for r in requests:
        r["rss"] = rss
    if args.trace:
        server = LadderServer(children, args, work, "memory")
        requests.append(request("memory"))
        requests[-1]["rss"] = server.close()

    # the accuracy metrics take each rung from the last pass that computed it
    rows = {}
    for r in requests:
        rows.update({(row["dim"], row["n"], row["s"]): row
                     for row in r["rungs"] if "error" not in row})
    if not rows:
        raise RuntimeError(f"no rung gave outputs: {requests[0]['problems'][:3]}")
    checks = len(requests[0]["rungs"])
    accurate = [r for r in rows.values() if max(r["route"], r["ftc"]) <= ACCURACY_BOUND]
    return {
        "requests": requests, "problems": [], "first_walls": [requests[0]["wall"]],
        "check_pass_ratio": len(accurate) / checks, "checks": checks,
        "route_rel_l2_max": max(r["route"] for r in rows.values()),
        "ftc_rel_l2_max": max(r["ftc"] for r in rows.values()),
    }


# ---------------------------------------------------------------------------
# metrics

def end_to_end(result: dict, setup: Setup) -> dict:
    requests = result["requests"]
    walls = [r["wall"] for r in requests]
    checks = result["checks"]
    return {
        "setup_s": median_metric(setup.times),
        "first_request_s": median_metric(result["first_walls"]),
        "request_p50_s": median_metric(walls[1:]),
        "peak_rss_mb": Metric(max(r["rss"] for r in requests) / 1024.0, len(requests)),
        "check_pass_ratio": Metric(result["check_pass_ratio"], checks),
        "route_rel_l2_max": Metric(result["route_rel_l2_max"], 1),
        "ftc_rel_l2_max": Metric(result["ftc_rel_l2_max"], 1),
        # printed, not gated: both are 0 on a healthy run
        "failed_ratio": Metric(sum(1 for r in requests if r["problems"]) / len(requests),
                               len(requests)),
        "check_fail_ratio": Metric(1.0 - result["check_pass_ratio"], checks),
    }


def per_layer(result: dict, names) -> dict:
    """Span metrics: median over the `spans` requests, leaving out the
    ladder's cold first pass except for first-call time; peaks: maximum over
    the `memory` requests."""
    requests = result["requests"]
    spans = [r for r in requests if r["kind"] == "spans"]
    warm = [r["layers"] for r in spans if not r.get("cold")]
    memory = [r["layers"] for r in requests if r["kind"] == "memory"]
    out = {}
    for name in names:
        if name == "trace_overhead_ratio":
            on = [r["wall"] for r in spans if not r.get("cold")]
            off = [r["wall"] for r in requests if r["kind"] == "plain"]
            out[name] = Metric(statistics.median(on) / statistics.median(off), len(on))
        elif name.endswith(("first_call_s", "repeat_call_s")):
            calls = name[:-2] + "s"  # e.g. direct.first_calls
            pool = [r["layers"] for r in spans] if "first" in name else warm
            samples = [t[name] for t in pool if t[calls] > 0]
            out[name] = median_metric(samples) if samples else Metric(0.0, 0)
        elif name.endswith("peak_alloc_mb"):
            out[name] = Metric(max(t[name] for t in memory), len(memory))
        else:
            # a check or layer the workload never calls has no span: 0
            out[name] = median_metric([t.get(name, 0.0) for t in warm])
    return out


def environment(probe_env: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fracgrid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **probe_env,
            "blas_threads": BLAS_THREADS, "git_sha": sha,
            "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="ladder: only the cheapest rungs (self-check)")
    args = ap.parse_args()
    args.program_seed = args.seed % REFERENCE_SEEDS
    if not (ROOT / "src" / "fracgrid" / "__init__.py").is_file():
        print(f"error: no fracgrid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    children = Children()

    def abandon(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, abandon)
    signal.alarm(DEADLINE_S)
    try:
        setup = Setup(children, args, work)
        if args.workload == "ladder":
            result = run_ladder(children, args, work, setup, load_reference("ladder"))
        else:
            result = run_verify(children, args, work, setup, load_reference(args.workload))
    except (RuntimeError, TimeoutError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        children.kill_all()

    if args.trace:
        metrics = per_layer(result, [m["name"] for m in wanted])
    else:
        metrics = end_to_end(result, setup)
    env = environment(setup.env)
    requests = result["requests"]
    problems = result["problems"] + [p for r in requests for p in r["problems"]]
    failed = sum(1 for r in requests if r["problems"])
    units = {m["name"]: m["unit"] for m in wanted}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(requests)} requests, {failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<34} {m.value:<14.6g} {units.get(name, 'ratio')}  (n={m.samples})")
    for p in problems[:20]:
        print(f"  output check: {p}")
    with open(work / "result.json", "w") as fh:
        json.dump({"env": env, "problems": problems,
                   "metrics": {k: vars(v) for k, v in metrics.items()},
                   "requests": [[r["kind"], r["wall"]] for r in requests]}, fh, indent=1)
    print(json.dumps({
        "correct": not problems, "attempted": len(requests), "failed": failed,
        "metrics": {name: {"value": metrics[name].value, "unit": units[name]}
                    for name in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
