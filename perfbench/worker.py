"""Child processes of the benchmark; run.py starts them with src/ on the path.

    worker.py setup  --workload W --seed N [--small]
        start, import fracgrid, generate the workload's inputs, exit
    worker.py verify --spans F --summary G [--memory] -- <fracgrid arguments>
        `fracgrid <arguments>` with the tracer installed
    worker.py route  --workload W
        spectral-against-quadrature gradient distance on the verify grid
    worker.py ladder --seed N [--small] --spans F
        long-lived ladder server; reads `plain`, `spans`, `memory` or `quit`
        lines on stdin and answers each with one JSON line on stdout
"""

import argparse
import json
import os
import random
import sys
import time

import numpy as np

import fracgrid
from fracgrid import cli, direct, interp, spectral

from spec import BLAS_ENV, EXTENT, S_VALUES, VERIFY_GRID, ladder_rungs
from tracer import Tracer, summarize

K_SAMPLE_INDEX = (0, 50, 100, 150, 199)


def make_inputs(workload: str, seed: int, small: bool = False):
    """The workload's inputs for a seed: the corpus of the verify grid, or
    the corpus gaussian of every ladder grid."""
    if workload != "ladder":
        dim, n = VERIFY_GRID[workload]
        return fracgrid.sample_corpus(fracgrid.make_grid(dim, n, EXTENT), seed)
    fields = {}
    for dim, n, _ in ladder_rungs(small):
        if (dim, n) not in fields:
            grid = fracgrid.make_grid(dim, n, EXTENT)
            fields[(dim, n)] = next(e.field for e in fracgrid.sample_corpus(grid, seed)
                                    if e.label == "gaussian")
    return fields


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(a))


def _k_summary(curve) -> dict:
    v, t = curve.values, curve.t_grid
    slack = 1e-9 * max(1.0, float(v[-1]))
    ok = bool(np.all(np.isfinite(v)) and np.all(v >= -slack)
              and np.all(np.diff(v) >= -slack) and np.all(np.diff(v / t) <= slack))
    return {"method": curve.method, "ok": ok,
            "sample": [float(v[i]) for i in K_SAMPLE_INDEX]}


def ladder_pass(fields, rungs) -> tuple:
    """One request: every rung's four computations, timed together; the
    output numbers are taken after the clock stops. A rung on which the
    program raised gives a row with its "error" and no numbers."""
    outputs = []
    t0 = time.perf_counter()
    for dim, n, s in rungs:
        u = fields[(dim, n)]
        try:
            gs = spectral.riesz_gradient_spectral(u, s)
            gq = direct.riesz_gradient_quadrature(u, s)
            rec = direct.ftc_convolution_quadrature(gq, s)
            k2 = interp.k_curve(u, 2.0)
            k3 = interp.k_curve(u, 3.0)
        except Exception as exc:
            outputs.append((dim, n, s, repr(exc)))
            continue
        outputs.append((dim, n, s, u, gs, gq, rec, k2, k3))
    wall = time.perf_counter() - t0
    rows = []
    for dim, n, s, *results in outputs:
        if len(results) == 1:
            rows.append({"dim": dim, "n": n, "s": s, "error": results[0]})
            continue
        u, gs, gq, rec, k2, k3 = results
        centred = u.samples - u.samples.mean()
        rows.append({"dim": dim, "n": n, "s": s,
                     "route": _rel_l2(gs.samples, gq.samples),
                     "ftc": float(np.linalg.norm(rec.samples - centred)
                                  / np.linalg.norm(u.samples)),
                     "k2": _k_summary(k2), "k3": _k_summary(k3)})
    return wall, rows


def serve_ladder(args) -> int:
    fields = make_inputs("ladder", args.seed, args.small)
    tracer = Tracer()
    reply({"ready": True})
    request = 0
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            break
        rungs = ladder_rungs(args.small)
        random.Random(args.seed * 1000 + request).shuffle(rungs)
        traced = command in ("spans", "memory")
        if traced:
            tracer.install()
            tracer.begin(request, memory=command == "memory")
        try:
            wall, rows = ladder_pass(fields, rungs)
        finally:
            if traced:
                spans = tracer.end()
                tracer.uninstall()
        answer = {"wall_s": wall, "rungs": rows}
        if traced:
            answer["layers"] = summarize(spans)
        reply(answer)
        request += 1
    tracer.write(args.spans)
    return 0


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def traced_cli(args) -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin(0, memory=args.memory)
    try:
        code = cli.main(args.argv)
    finally:
        spans = tracer.end()
        tracer.uninstall()
        tracer.write(args.spans)
        with open(args.summary, "w") as fh:
            json.dump(summarize(spans), fh)
    return code


def route_rows(workload: str) -> list:
    """Route distance of the corpus gaussian on the verify grid, per s."""
    dim, n = VERIFY_GRID[workload]
    u = next(e.field for e in make_inputs(workload, 0) if e.label == "gaussian")
    return [{"dim": dim, "n": n, "s": s,
             "route": _rel_l2(spectral.riesz_gradient_spectral(u, s).samples,
                              direct.riesz_gradient_quadrature(u, s).samples)}
            for s in S_VALUES]


def main() -> int:
    ap = argparse.ArgumentParser(prog="worker.py")
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--small", action="store_true")
    p = sub.add_parser("verify")
    p.add_argument("--spans", required=True)
    p.add_argument("--summary", required=True)
    p.add_argument("--memory", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("route")
    p.add_argument("--workload", required=True)
    p = sub.add_parser("ladder")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--small", action="store_true")
    p.add_argument("--spans", required=True)
    args = ap.parse_args()
    if args.mode == "setup":
        make_inputs(args.workload, args.seed, args.small)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        reply({"numpy": np.__version__,
               "blas": f"{blas.get('name')} {blas.get('version')}",
               "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV}})
        return 0
    if args.mode == "verify":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return traced_cli(args)
    if args.mode == "route":
        reply({"rungs": route_rows(args.workload)})
        return 0
    return serve_ladder(args)


if __name__ == "__main__":
    sys.exit(main())
