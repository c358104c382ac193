"""K-functional machinery for the (L^p, W^{1,p}) couple and the (theta,q)
interpolation norm.

Two routes to K(t,u) = inf { ||u-b||_p + t ||b||_W : b }. For p = 2 the
infimum of the quadratic relaxation has a per-frequency closed form (the
Hilbert W-norm diagonalizes), giving a two-sided oracle K2 <= K <= sqrt(2) K2.
For general p the infimum is bounded above by restricting b to scaled Gaussian
mollifications of u. Both produce KCurve objects over a fixed log t-grid.

Off p = 2 the 33 smoothing scales are independent: they run in groups on a
thread pool with one worker per usable CPU, created per call. Every line of
the envelope is the sum of one whole contiguous row, so a curve's bytes do not
depend on the grouping or the worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import Field, _lp_roots
from .spectral import _half_grid_tables

__all__ = [
    "KCurve",
    "default_t_grid",
    "k_functional",
    "k_curve",
    "interpolation_norm",
]

KCURVE_POINTS = 200
KCURVE_RANGE = (1e-6, 1e6)

_METHODS = ("exact_hilbert_p2", "mollifier_family")

# scale grid for the mollifier family; spans from "barely smooths the last
# octave" to "averages the whole torus"
_SIGMA_COUNT = 33
_THETA_GRID = np.linspace(0.0, 1.0, 21)
# frequencies per block of the exact p=2 sum: its (T, block) temporaries
# stay under 1 MiB at T = 200
_FREQ_BLOCK = 512
# values per block of the p != 2 curve: a group of sigmas forms its lines in
# blocks of at most this many values (whole rows; one row if a row is larger),
# and holds max(1, _BLOCK_VALUES // (20 N^dim)) sigmas
_BLOCK_VALUES = 2 ** 16


def default_t_grid() -> np.ndarray:
    lo, hi = KCURVE_RANGE
    return np.geomspace(lo, hi, KCURVE_POINTS)


@dataclass(frozen=True)
class KCurve:
    """K(t,u) sampled on a log-spaced t grid."""

    t_grid: np.ndarray
    values: np.ndarray
    method: str

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("t_grid and values must be matching 1-d arrays")
        if not (np.all(t > 0.0) and np.all(np.diff(t) > 0.0)):
            raise ValueError("t_grid must be positive and strictly increasing")
        if self.method not in _METHODS:
            raise ValueError(f"unknown KCurve method {self.method!r}")
        slack = 1e-9 * max(1.0, float(v[-1]))
        if not np.all(np.isfinite(v)) or np.any(v < -slack):
            raise ValueError("K values must be finite and nonnegative")
        if np.any(np.diff(v) < -slack):
            raise ValueError("K(t) must be nondecreasing in t")
        if np.any(np.diff(v / t) > slack / t[:-1]):
            raise ValueError("K(t)/t must be nonincreasing in t")
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)


def _check_args(u: Field, p: float, method: str | None) -> str:
    if u.rank != "scalar":
        raise ValueError("k_functional expects a scalar field")
    if not (np.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    if method is None:
        method = "exact_hilbert_p2" if p == 2.0 else "mollifier_family"
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "exact_hilbert_p2" and p != 2.0:
        raise ValueError("exact_hilbert_p2 requires p = 2")
    return method


def _sigma_grid(grid) -> np.ndarray:
    return np.geomspace(grid.spacing / 16.0, grid.extent, _SIGMA_COUNT)


def _half_spectrum(u: Field) -> tuple:
    """The one forward transform of a curve: u's rfftn half-spectrum, with
    the half-grid |2 pi xi|, multiplicity and gradient tables."""
    mags, mult, grads = _half_grid_tables(u.grid)
    return np.fft.rfftn(u.samples), mags, mult, grads


def _parseval_weights(u: Field) -> tuple:
    """Half-grid Parseval weights h^dim/N^dim |u_hat|^2 times the column
    multiplicity, summing to ||u||_2^2, and |2 pi xi|; both raveled."""
    grid = u.grid
    spec, mags, mult, _ = _half_spectrum(u)
    w = (grid.spacing ** grid.dim / grid.node_count) * np.abs(spec) ** 2 * mult
    return w.ravel(), mags.ravel()


def _exact_hilbert_values(u: Field, ts: np.ndarray) -> np.ndarray:
    # sum_k w_k tb/(1 + tb) with tb = t^2 beta_k, over blocks of frequencies
    # so that no (T, N^dim) array is built
    w, mags = _parseval_weights(u)
    beta = 1.0 + mags ** 2
    t2 = ts[:, None] ** 2
    k2 = np.zeros(ts.size)
    for lo in range(0, w.size, _FREQ_BLOCK):
        tb = t2 * beta[None, lo:lo + _FREQ_BLOCK]
        tb /= 1.0 + tb
        k2 += tb @ w[lo:lo + _FREQ_BLOCK]
    return np.sqrt(np.maximum(k2, 0.0))


def _mollifier_values_p2(u: Field, ts: np.ndarray) -> np.ndarray:
    # b = theta G_sigma u gives ||u - b||_2^2 = C (theta0 - theta)^2 + D and
    # ||b||_W = theta sqrt(d) from Parseval sums over m = G_sigma's symbol:
    # B = sum m w, C = sum m^2 w, theta0 = B/C, D = sum (1 - theta0 m)^2 w
    # (summed term by term: A - B^2/C cancels to noise when b is nearly u).
    # Each (t, sigma) pair minimizes the convex f(theta) = sqrt(C (theta0 -
    # theta)^2 + D) + S theta over [0, theta0], S = t sqrt(d), in closed form
    w, mags = _parseval_weights(u)
    beta = 1.0 + mags ** 2
    a_tot = float(np.sum(w))
    if a_tot == 0.0:
        return np.zeros_like(ts)
    sigmas = _sigma_grid(u.grid)
    m = np.exp(-0.5 * sigmas[:, None] ** 2 * mags[None, :] ** 2)
    mm = m * m
    b_s = m @ w
    c_s = mm @ w
    d_s = mm @ (beta * w)
    # a sigma whose smoothed part underflows to 0 (C = 0) offers only b = 0
    live = c_s > 0.0
    c_safe = np.where(live, c_s, 1.0)
    theta0 = np.where(live, b_s / c_safe, 0.0)
    resid = (1.0 - theta0[:, None] * m) ** 2 @ w

    # f'(theta0 - x) = 0 at x = S sqrt(D) / sqrt(C (C - S^2)) when S^2 < C;
    # otherwise f is nondecreasing on [0, theta0] and theta = 0
    slope = ts[:, None] * np.sqrt(d_s)[None, :]
    gap = c_s[None, :] - slope ** 2
    inside = gap > 0.0
    with np.errstate(over="ignore"):  # x = inf clips to theta = 0
        x = slope * np.sqrt(resid) / (np.sqrt(c_safe) * np.sqrt(np.where(inside, gap, 1.0)))
    theta = np.where(inside, np.maximum(theta0 - x, 0.0), 0.0)
    best = (np.sqrt(c_s * (theta0 - theta) ** 2 + resid) + slope * theta).min(axis=1)
    caps = np.minimum(math.sqrt(a_tot), ts * math.sqrt(float(np.sum(beta * w))))
    return np.minimum(best, caps)


def _lp_rows(values: np.ndarray, p: float, vol: float, out=None) -> np.ndarray:
    """lp_norm's midpoint rule, one norm per row of a (rows, nodes) array.
    Overwrites values with |values| and out, if given, with |values|^p."""
    np.abs(values, out=values)
    with np.errstate(over="ignore"):
        sums = np.sum(np.power(values, p, out=out), axis=1)
    return _lp_roots(sums, values, p, vol)


def _pool_workers() -> int:
    """One worker per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mollifier_values_lp(u: Field, p: float, ts: np.ndarray) -> np.ndarray:
    # every candidate b = theta G_sigma u contributes the line a + t c with
    # a = ||u - b||_p and c = ||b||_p + ||grad b||_p; K is their lower envelope.
    # b and grad b come from the one half-spectrum by inverse transforms. The
    # heavy steps of a sigma group are numpy calls that release the GIL
    from concurrent.futures import ThreadPoolExecutor  # not paid by `import fracgrid`

    grid = u.grid
    n = grid.node_count
    axes = tuple(range(-grid.dim, 0))
    vol = grid.spacing ** grid.dim
    spec, mags, _, grads = _half_spectrum(u)
    flat = u.samples.reshape(1, -1)
    thetas = _THETA_GRID[1:]
    mags2 = mags ** 2

    def grad_magnitude(b_hat):
        """|grad b| per row, one row per b_hat."""
        grad = np.fft.irfftn(grads * b_hat[:, None], s=grid.shape, axes=axes)
        grad **= 2
        mag = np.sum(grad, axis=1).reshape(len(b_hat), -1)
        return np.sqrt(mag, out=mag)

    def group_lines(sigmas):
        """(a, c) of the lines of a group of sigmas, one row per sigma."""
        g = sigmas.size
        b_hat = np.empty((g,) + spec.shape, dtype=spec.dtype)
        for b_row, sigma in zip(b_hat, sigmas):
            np.multiply(np.exp(-0.5 * sigma ** 2 * mags2), spec, out=b_row)
        b = np.fft.irfftn(b_hat, s=grid.shape, axes=axes).reshape(g, 1, n)
        mag = grad_magnitude(b_hat)
        del b_hat
        # the u - theta b lines in blocks of whole rows, and their powers in
        # one more block, both reused
        rows = min(thetas.size, max(1, _BLOCK_VALUES // (g * n)))
        block = np.empty((g * rows, n))
        powers = np.empty_like(block)
        a = np.empty((g, thetas.size))
        for lo in range(0, thetas.size, rows):
            k = min(rows, thetas.size - lo)
            part = block[:g * k].reshape(g, k, n)
            np.multiply(thetas[lo:lo + k, None], b, out=part)
            np.subtract(flat, part, out=part)
            a[:, lo:lo + k] = _lp_rows(part.reshape(-1, n), p, vol, powers[:g * k]).reshape(g, k)
        w = _lp_rows(b.reshape(g, n), p, vol, powers[:g]) + _lp_rows(mag, p, vol, powers[:g])
        return a, thetas * w[:, None]

    norm_u = _lp_rows(flat.copy(), p, vol)
    w_u = norm_u + _lp_rows(grad_magnitude(spec[None]), p, vol)
    sigmas = _sigma_grid(grid)
    size = max(1, _BLOCK_VALUES // (thetas.size * n))
    with ThreadPoolExecutor(max_workers=_pool_workers()) as pool:
        tasks = [pool.submit(group_lines, sigmas[i:i + size]) for i in range(0, sigmas.size, size)]
    groups = [task.result() for task in tasks]  # in sigma order
    a = np.concatenate([norm_u, [0.0]] + [ga.ravel() for ga, _ in groups])
    c = np.concatenate([[0.0], w_u] + [gc.ravel() for _, gc in groups])
    return np.min(a[None, :] + ts[:, None] * c[None, :], axis=1)


def _k_values(u: Field, p: float, method: str, ts: np.ndarray) -> np.ndarray:
    if method == "exact_hilbert_p2":
        return _exact_hilbert_values(u, ts)
    if p == 2.0:
        return _mollifier_values_p2(u, ts)
    return _mollifier_values_lp(u, p, ts)


def k_functional(u: Field, t: float, p: float, method: str | None = None) -> float:
    """K(t, u) between L^p and W^{1,p} on the field's torus.

    exact_hilbert_p2 returns the closed-form quadratic relaxation K2, which
    brackets the true value as K2 <= K <= sqrt(2) K2. mollifier_family
    returns an upper bound from Gaussian-smoothed decompositions, including
    the trivial endpoints b = 0 and b = u.
    """
    method = _check_args(u, p, method)
    if not (np.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    return float(_k_values(u, p, method, np.array([float(t)]))[0])


def k_curve(u: Field, p: float, method: str | None = None) -> KCurve:
    """Sample K(t,u) on default_t_grid(): 200 log-spaced points in [1e-6, 1e6]."""
    method = _check_args(u, p, method)
    ts = default_t_grid()
    return KCurve(t_grid=ts, values=_k_values(u, p, method, ts), method=method)


def interpolation_norm(u: Field, theta: float, q: float, p: float) -> float:
    """(theta, q) real-interpolation norm built on the K-curve.

    Log-trapezoid quadrature of (t^-theta K)^q dt/t over the standard grid,
    plus the analytic tails from K ~ c t (small t) and K ~ const (large t).
    Raises if the sampled curve has not reached those asymptotic regimes.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    if not (np.isfinite(q) and q >= 1.0):
        raise ValueError(f"q must satisfy 1 <= q < inf, got {q}")
    curve = k_curve(u, p)
    t, v = curve.t_grid, curve.values
    scale = float(v[-1])
    if scale == 0.0:
        return 0.0
    # tail models require K flat at the top and linear at the bottom of the grid
    if abs(v[-1] - v[-17]) > 1e-2 * scale:
        raise ValueError("upper K tail has not flattened; tail integral unreliable")
    slope0, slope1 = v[0] / t[0], v[16] / t[16]
    if abs(slope0 - slope1) > 1e-2 * slope0:
        raise ValueError("lower K tail is not linear; tail integral unreliable")
    integrand = (t ** (-theta) * v) ** q
    body = float(np.trapezoid(integrand, np.log(t)))
    tail_hi = scale ** q * t[-1] ** (-theta * q) / (theta * q)
    tail_lo = slope0 ** q * t[0] ** ((1.0 - theta) * q) / ((1.0 - theta) * q)
    return float((body + tail_lo + tail_hi) ** (1.0 / q))
