"""K-functional machinery for the (L^p, W^{1,p}) couple and the (theta,q)
interpolation norm.

k_curve samples K(t,u) = inf { ||u-b||_p + t ||b||_W : b } by the route p
picks. At p = 2 the Hilbert W-norm diagonalizes, and the quadratic relaxation
K2 has a per-frequency closed form, a two-sided oracle K2 <= K <= sqrt(2) K2.
At p != 2, with ||b||_W = ||b||_p + ||grad b||_p, K is bounded above by taking
b among scaled Gaussian mollifications of u. _mollifier_values_p2 is that
family at p = 2: no route of k_curve, but the upper side K2 is held against.

Off p = 2 the curve is the lower envelope of 33 smoothing scales x 20
weights of lines, and few of them reach it. The scales run in groups on
one core._worker_pool per call, one worker per usable CPU, in two rounds:
a probe evaluates each scale's lines at weight 1/2 and 1, a serial step
bounds every other line from below by convexity and Minkowski's inequality,
and only the lines whose bound meets the probed envelope at some t are then
evaluated. The envelope of a superset of the lines that attain it is the same
minimum, and every line is the sum of one whole contiguous row, so a curve's
bytes do not depend on the pruning, the grouping or the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Field, _lp_rows, _require_exponent, _require_order, _require_rank,
                   _table_cache, _worker_pool)
from .spectral import _half_grid_tables, _half_spectrum_power

__all__ = [
    "KCurve",
    "default_t_grid",
    "k_curve",
    "interpolation_norm",
]

KCURVE_POINTS = 200
KCURVE_RANGE = (1e-6, 1e6)

# scale grid for the mollifier family; spans from "barely smooths the last
# octave" to "averages the whole torus"
_SIGMA_COUNT = 33
_THETA_GRID = np.linspace(0.0, 1.0, 21)
# |xi| classes per block of the exact p=2 sum: its (T, block) temporaries
# stay under 1 MiB at T = 200
_FREQ_BLOCK = 512
# values per block of the p != 2 curve: its lines are formed in blocks of at
# most this many values (whole rows; one row if a row is larger), and a group
# holds max(1, _BLOCK_VALUES // (2 N^dim)) sigmas, whose two probe lines fit
# one block
_BLOCK_VALUES = 2 ** 16


def default_t_grid() -> np.ndarray:
    lo, hi = KCURVE_RANGE
    return np.geomspace(lo, hi, KCURVE_POINTS)


@dataclass(frozen=True)
class KCurve:
    """K(t,u) sampled on a log-spaced t grid. method names the route:
    exact_hilbert_p2 holds K2, with K2 <= K <= sqrt(2) K2, and
    mollifier_family an upper bound on K."""

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
        if self.method not in ("exact_hilbert_p2", "mollifier_family"):
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


def _sigma_grid(grid) -> np.ndarray:
    return np.geomspace(grid.spacing / 16.0, grid.extent, _SIGMA_COUNT)


def _parseval_weights(u: Field) -> tuple:
    """Half-grid Parseval weights h^dim/N^dim |u_hat|^2 times the column
    multiplicity, summing to ||u||_2^2, and |2 pi xi|; both raveled."""
    grid = u.grid
    w = (grid.spacing ** grid.dim / grid.node_count) * _half_spectrum_power(u)
    return w.ravel(), _half_grid_tables(grid)[0].ravel()


@_table_cache
def _magnitude_classes(grid) -> tuple:
    """The distinct |2 pi xi| of the half grid, ascending, and the class of
    each half-grid frequency, raveled; both read-only."""
    classes, inverse = np.unique(_half_grid_tables(grid)[0].ravel(), return_inverse=True)
    for a in (classes, inverse):
        a.flags.writeable = False
    return classes, inverse


def _exact_hilbert_values(u: Field, ts: np.ndarray) -> np.ndarray:
    # sum_k w_k tb/(1 + tb) with tb = t^2 beta_k: beta depends on |xi| alone,
    # so the weights are summed per class of equal |2 pi xi| first, and the
    # classes in blocks, so that no (T, classes) array is built
    w, _ = _parseval_weights(u)
    classes, inverse = _magnitude_classes(u.grid)
    w = np.bincount(inverse, weights=w, minlength=classes.size)
    beta = 1.0 + classes ** 2
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


def _line_lower_bounds(a_probe, probe_thetas, norm_u, norm_b, thetas) -> np.ndarray:
    """Lower bounds on every line a(theta) = ||u - theta b||_p of each sigma
    (one row per sigma, one column per theta), from a(0) = ||u||_p and a at
    the probe thetas (the columns of a_probe). Minkowski makes a Lipschitz
    with constant ||b||_p, and a is convex, so the secant through two known
    points lies below a outside their interval. Each bound sits 1e-9 of its
    terms' magnitudes lower, far more than the round-off of the computed
    norms; a NaN or inf among the terms gives a NaN or -inf bound."""
    xs = np.concatenate([[0.0], probe_thetas])
    ys = np.column_stack([np.full(len(norm_b), norm_u), a_probe])
    th = thetas[None, :]
    bounds = np.zeros((len(norm_b), thetas.size))
    for i, (x0, y0) in enumerate(zip(xs, ys.T)):
        bounds = np.maximum(bounds, y0[:, None] - np.abs(th - x0) * norm_b[:, None])
        for x1, y1 in zip(xs[i + 1:], ys.T[i + 1:]):
            secant = y0[:, None] + (th - x0) * ((y1 - y0) / (x1 - x0))[:, None]
            bounds = np.where((th <= x0) | (th >= x1), np.maximum(bounds, secant), bounds)
    return bounds - 1e-9 * (np.sum(ys, axis=1) + norm_b)[:, None]


def _mollifier_values_lp(u: Field, p: float, ts: np.ndarray) -> np.ndarray:
    # every candidate b = theta G_sigma u contributes the line a + t c with
    # a = ||u - b||_p and c = ||b||_p + ||grad b||_p; K is their lower envelope.
    # b and grad b come from the one half-spectrum by inverse transforms. A
    # probe evaluates each sigma's lines at theta = 1/2 and 1; any other line
    # is evaluated only if its lower bound meets the probed lines' envelope at
    # some t (the module docstring says why the bytes stay those of the whole
    # family). The heavy steps of a sigma group are numpy calls that release
    # the GIL
    grid = u.grid
    n = grid.node_count
    axes = tuple(range(-grid.dim, 0))
    vol = grid.spacing ** grid.dim
    spec = np.fft.rfftn(u.samples)
    mags, grads = _half_grid_tables(grid)
    flat = u.samples.reshape(1, -1)
    thetas = _THETA_GRID[1:]
    probe = np.searchsorted(thetas, (0.5, 1.0))
    mags2 = mags ** 2

    def smoothed(sigmas):
        """b_hat and b = G_sigma u of a group of sigmas, one row per sigma."""
        b_hat = np.empty((sigmas.size,) + spec.shape, dtype=spec.dtype)
        for b_row, sigma in zip(b_hat, sigmas):
            np.multiply(np.exp(-0.5 * sigma ** 2 * mags2), spec, out=b_row)
        return b_hat, np.fft.irfftn(b_hat, s=grid.shape, axes=axes).reshape(sigmas.size, n)

    def grad_magnitude(b_hat):
        """|grad b| per row, one row per b_hat."""
        grad = np.fft.irfftn(grads * b_hat[:, None], s=grid.shape, axes=axes)
        grad **= 2
        mag = np.sum(grad, axis=1).reshape(len(b_hat), -1)
        return np.sqrt(mag, out=mag)

    def line_norms(b, rows, row_thetas):
        """||u - theta b[row]||_p per (row, theta) pair: the lines in blocks
        of whole rows, and their powers in one more block, both reused."""
        size = max(1, _BLOCK_VALUES // n)
        block = np.empty((min(size, rows.size), n))
        powers = np.empty_like(block)
        a = np.empty(rows.size)
        for lo in range(0, rows.size, size):
            part = block[:min(size, rows.size - lo)]
            np.take(b, rows[lo:lo + size], axis=0, out=part)
            part *= row_thetas[lo:lo + size, None]
            np.subtract(flat, part, out=part)
            a[lo:lo + size] = _lp_rows(part, p, vol, powers[:len(part)])
        return a

    def probe_lines(sigmas):
        """A group's lines at the probe thetas, ||b||_p and ||b||_W per sigma."""
        g = sigmas.size
        b_hat, b = smoothed(sigmas)
        mag = grad_magnitude(b_hat)
        del b_hat
        a = line_norms(b, np.repeat(np.arange(g), probe.size), np.tile(thetas[probe], g))
        norm_b = _lp_rows(b, p, vol)
        # b's buffer is free once its norm is taken: it holds the powers of |grad b|
        return a.reshape(g, probe.size), norm_b, norm_b + _lp_rows(mag, p, vol, out=b)

    def kept_lines(sigmas, keep):
        """A group's lines where keep, one row per sigma, is set; b only for
        the sigmas that have such a line."""
        live = keep.any(axis=1)
        rows, cols = np.nonzero(keep[live])
        return line_norms(smoothed(sigmas[live])[1], rows, thetas[cols])

    norm_u = _lp_rows(flat.copy(), p, vol)
    w_u = norm_u + _lp_rows(grad_magnitude(spec[None]), p, vol)
    sigmas = _sigma_grid(grid)
    size = max(1, _BLOCK_VALUES // (probe.size * n))
    starts = range(0, sigmas.size, size)
    with _worker_pool() as run:
        probes = run(probe_lines, [sigmas[i:i + size] for i in starts])
        a_probe, norm_b, w = (np.concatenate(parts) for parts in zip(*probes))
        c = thetas * w[:, None]
        a_env = np.concatenate([norm_u, [0.0], a_probe.ravel()])
        c_env = np.concatenate([[0.0], w_u, c[:, probe].ravel()])
        env = np.min(a_env[None, :] + ts[:, None] * c_env[None, :], axis=1)
        bounds = _line_lower_bounds(a_probe, thetas[probe], norm_u[0], norm_b, thetas)
        # a NaN bound fails the comparison, so its line is kept
        keep = ~np.all(bounds[:, None, :] + ts[None, :, None] * c[:, None, :]
                       > env[None, :, None], axis=1)
        keep[:, probe] = False
        groups = [(sigmas[i:i + size], keep[i:i + size])
                  for i in starts if keep[i:i + size].any()]
        a_kept = run(lambda group: kept_lines(*group), groups)  # in sigma order
    a = np.concatenate([a_env] + a_kept)
    c = np.concatenate([c_env, c[keep]])
    return np.min(a[None, :] + ts[:, None] * c[None, :], axis=1)


def k_curve(u: Field, p: float) -> KCurve:
    """K(t, u) between L^p and W^{1,p} on default_t_grid(): at p = 2 the
    relaxation K2, with K2 <= K <= sqrt(2) K2; at p != 2 an upper bound on K,
    the endpoints b = 0 and b = u included. The W-norm changes at p = 2, so
    the curve jumps there."""
    _require_rank(u, "scalar", "k_curve")
    _require_exponent(p, "p")
    ts = default_t_grid()
    if p == 2.0:
        return KCurve(t_grid=ts, values=_exact_hilbert_values(u, ts), method="exact_hilbert_p2")
    return KCurve(t_grid=ts, values=_mollifier_values_lp(u, p, ts), method="mollifier_family")


def interpolation_norm(u: Field, theta: float, q: float, p: float) -> float:
    """(theta, q) real-interpolation norm built on the K-curve.

    Log-trapezoid quadrature of (t^-theta K)^q dt/t over the standard grid,
    plus the analytic tails from K ~ c t (small t) and K ~ const (large t).
    Raises if the sampled curve has not reached those asymptotic regimes.
    """
    _require_order(theta, "theta")
    _require_exponent(q, "q")
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
