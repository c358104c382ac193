"""Workload definitions shared by the parent (run.py) and its children (worker.py).

This module imports nothing from fracgrid or numpy, so the parent process
stays small and its own memory never shows in a measurement.
"""

import os

WORKLOADS = ("verify-2d", "ladder")

# OpenBLAS, OpenMP and MKL thread count for every child process; at or
# below nproc, and one thread is the steadiest on a shared two-core host
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EXTENT = 16.0
S_VALUES = (0.25, 0.5, 0.75)

# `fracgrid verify` arguments on top of the bundled default config
VERIFY_ARGS = {
    "verify-2d": ["--dim", "2", "--grid", "64x16"],
}
VERIFY_GRID = {"verify-2d": (2, 64)}

# reference/verify-*.json records seeds 0..REFERENCE_SEEDS-1; a run's --seed n
# reaches the program as n mod REFERENCE_SEEDS, so every run's numbers are checked
REFERENCE_SEEDS = 32


def ladder_rungs(small: bool = False) -> list:
    """(dim, N, s) for one ladder pass; `small` keeps the cheapest rungs."""
    sizes_1d = (512,) if small else (512, 1024, 2048, 4096)
    sizes_2d = (64,) if small else (64, 128)
    rungs = [(1, n, s) for n in sizes_1d for s in S_VALUES]
    rungs += [(2, n, s) for n in sizes_2d for s in S_VALUES]
    if not small:
        rungs.append((2, 256, 0.5))
    return rungs


def rung_tag(dim: int, n: int, s: float) -> str:
    return f"{dim}d,N={n},s={s:g}"


def child_env(root) -> dict:
    """Environment of every child: the checkout's src first, BLAS threads fixed."""
    env = dict(os.environ)
    src = os.path.join(str(root), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    return env
