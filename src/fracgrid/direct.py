"""Real-space route: gamma constants, lattice sums, singular convolutions.

Nothing in this module touches the FFT or the spectral route.  Gamma is
math.gamma, lattice sums are analytically continued through a
theta-function split, and the convolution operators are direct sums: in
1-d one valid-mode correlation against the doubled input, in 2-d a
separable sum.  Each 2-d table, a kernel here or the Gagliardo weight of
norms, is factored by _factored as w(d0, d1) = sum_r a_r(d0) b_r(d1);
_correlate, sum_r C(a_r) u C(b_r)^T with circulants C read from one
window view per factor (2 R n^3 multiply-adds, R of 19-34 for n of
64-512), is the package's one real-space correlation.  That independence
is deliberate: the spectral and real-space answers cross-validate each other.
From n = 128 on, a 2-d quadrature's two correlations run on core's worker
pool, one per worker.

The convolution quadrature treats the kernel singularity by excluding the
nearest-neighbour shell 0 < |m| <= 1 around the origin and compensating
with a local derivative term whose coefficient is a continued lattice sum.
Every other offset is kept: there is no outer window, because kernels are
periodized over every lattice image by one builder, _lattice_table, shared
with the Gagliardo weight in norms.  It splits the Mellin integral of the
power at t = 1 in _image_integrals, which also gives lattice_zeta at
offset 0: per-axis theta sums of a few images above the split, their
Poisson duals (short cosine and sine sums) below it, and the primary term
in closed form, so the tables and the sums converge exponentially in the
number of images.  It evaluates offsets 0..n/2 per axis and mirrors them,
and the 2-d factors are mirrored the same way, so odd and even symmetry
hold exactly on the grid and constants are annihilated up to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Field, GridSpec, _require_dimension, _require_order, _require_rank,
                   _table_cache, _worker_pool)

__all__ = [
    "GammaConstants",
    "gamma_fn",
    "constants",
    "lattice_zeta",
    "riesz_gradient_quadrature",
    "ftc_convolution_quadrature",
    "kernel_translation_l1",
]


# ---------------------------------------------------------------------------
# gamma function

def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments; finite up to about 171.6."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires a positive argument, got {x}")
    return math.gamma(x)


def _inv_gamma(x: float) -> float:
    """1/Gamma as an entire function: exactly 0 at the nonpositive integers,
    and +-inf where Gamma underflows, below about -171."""
    x = float(x)
    if x <= 0.0 and x.is_integer():
        return 0.0
    g = math.gamma(x)
    return 1.0 / g if g else math.copysign(math.inf, g)


# ---------------------------------------------------------------------------
# normalization constants

@dataclass(frozen=True)
class GammaConstants:
    """Normalizations tied to dimension and order.

    c_ns scales the gradient kernel, c_n_minus_s the reconstruction
    kernel, and gamma_1ps is the pairing constant linking the two:
    (dim - s - 1) / gamma_1ps == c_n_minus_s.  In one dimension
    gamma_1ps is negative; the identity still holds.
    """

    dim: int
    s: float
    c_ns: float
    c_n_minus_s: float
    gamma_1ps: float


def _c_sigma(dim: int, sigma: float) -> float:
    # c_{n,sigma} = 2^sigma Gamma((n+sigma+1)/2) / (pi^(n/2) Gamma((1-sigma)/2))
    return (2.0 ** sigma * gamma_fn((dim + sigma + 1.0) / 2.0)
            * _inv_gamma((1.0 - sigma) / 2.0) / math.pi ** (dim / 2.0))


@_table_cache
def constants(dim: int, s: float) -> GammaConstants:
    _require_dimension(dim, "dim")
    _require_order(s, "s")
    s = float(s)
    c_ns = _c_sigma(dim, s)
    c_mns = _c_sigma(dim, -s)
    if dim == 1:
        gamma_1ps = (dim - s - 1.0) / c_mns
    else:
        gamma_1ps = (math.pi ** (dim / 2.0) * 2.0 ** (1.0 + s)
                     * gamma_fn((1.0 + s) / 2.0) * _inv_gamma((dim - 1.0 - s) / 2.0))
    return GammaConstants(dim, s, c_ns, c_mns, gamma_1ps)


# ---------------------------------------------------------------------------
# lattice sums and periodized kernels by the theta split

def _gl_on_panels(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights of given order on each panel."""
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# 12-point Gauss-Legendre on panels that widen as exp(-pi t / 4) decays: the
# nearest image of an offset in [-1/2, 1/2] lies at distance 1/2 or more
_EWALD_NODES, _EWALD_WEIGHTS = _gl_on_panels(
    np.array([1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 17.0, 24.0, 32.0, 42.0]), 12)


def _offset_integers(n: int) -> np.ndarray:
    # offset index d corresponds to lattice displacement ((d+n/2) mod n) - n/2
    return (np.arange(n) + n // 2) % n - n // 2


# images |m| <= 4 per axis, and frequencies k <= 4: for t, u >= 1 and offsets
# in [0, 1/2] the first term left out is below exp(-pi 4.5^2) < 1e-27
_IMAGES = 4
# an image |m| >= 2 is summed over the nodes t < _IMAGE_REACH / ((|m| - 1/2)^2
# - 1) alone, 11.3, 2.69 and 1.26 for |m| = 2, 3, 4: beyond, exp(-pi t (x +
# m)^2) is below 2^-64 of the m = -1 term exp(-pi t (1 - x)^2), so adding it
# changes no bit of the sum. A frequency k is summed over u < _DUAL_REACH /
# k^2 alone, while 2 exp(-pi k^2 u) is still a normal double
_IMAGE_REACH = 64.0 * math.log(2.0) / math.pi
_DUAL_REACH = 708.0 / math.pi


def _theta_factors(x: np.ndarray, t: np.ndarray, odd: bool, origin: bool):
    """Per-axis theta sums of (x+m)^odd exp(-pi t (x+m)^2) for offsets x in
    [0, 1/2] (rows) and ascending nodes t (columns), as (the images m != 0,
    the m = 0 term if origin else None); images |m| >= 2 only over the
    nodes where a double can hold them (_IMAGE_REACH)."""
    rest = np.zeros((x.size, t.size))
    term0 = None
    for m in range(-_IMAGES, _IMAGES + 1):
        if m == 0 and not origin:
            continue
        reach = t.size if abs(m) < 2 else np.searchsorted(
            t, _IMAGE_REACH / ((abs(m) - 0.5) ** 2 - 1.0))
        y = x[:, None] + m
        term = (y * y) * (-math.pi * t[:reach])
        np.exp(term, out=term)
        if odd:
            term *= y
        if m:
            rest[:, :reach] += term
        else:
            term0 = term
    return rest, term0


def _dual_factors(x: np.ndarray, u: np.ndarray, odd: bool):
    """Poisson duals of the theta sums at ascending u = 1/t, as (the
    frequencies k != 0, the k = 0 term): 2 sum_(k>0) k^odd exp(-pi k^2 u)
    (sin if odd else cos)(2 pi k x), each k only while its exponential is a
    normal double (_DUAL_REACH)."""
    trig = np.sin if odd else np.cos
    rest = np.zeros((x.size, u.size))
    for k in range(1, _IMAGES + 1):
        reach = np.searchsorted(u, _DUAL_REACH / (k * k))
        weight = 2.0 * (k if odd else 1) * np.exp(-math.pi * k * k * u[:reach])
        rest[:, :reach] += np.outer(trig(2.0 * math.pi * k * x), weight)
    return rest, 0.0 if odd else 1.0


def _product_integral(factors, weights: np.ndarray) -> np.ndarray:
    """sum_q weights_q (prod_axes (rest + origin) - prod_axes origin) from
    per-axis (rest, origin) factors; in 2-d one matrix product of
    [r0 | o0] and [r1 + o1 | r1], which never forms the origin product."""
    (rest0, origin0), *other = factors
    if not other:
        return rest0 @ weights
    rest1, origin1 = other[0]
    left = np.hstack([rest0 * weights, np.broadcast_to(origin0 * weights, rest0.shape)])
    return left @ np.hstack([rest1 + origin1, rest1]).T


def _image_integrals(x: np.ndarray, dim: int, g: float, odd: bool) -> np.ndarray:
    """The theta split of sum_m f(x + m), f(y) = y0 |y|^-g if odd else
    |y|^-g, in units of pi^-a Gamma(a) with a = g/2, but for the m = 0 term
    over t >= 1: the images m != 0 integrated over t >= 1, and over t < 1
    the Poisson duals of every image, integrated in u = 1/t >= 1, with (if
    even) the k = 0 term continued. Offsets x per axis; a 1-d result in
    1-d, an [x0, x1] table in 2-d."""
    a = 0.5 * g
    t, w = _EWALD_NODES, _EWALD_WEIGHTS
    axes = [odd and ax == 0 for ax in range(dim)]
    # 1-d never reads the m = 0 term
    real = _product_integral([_theta_factors(x, t, o, dim == 2) for o in axes],
                             w * t ** (a - 1.0))
    dual = _product_integral([_dual_factors(x, t, o) for o in axes],
                             w * t ** (0.5 * dim + odd - a - 1.0))
    if not odd:
        dual += 2.0 / (g - dim)  # the k = 0 term, int_1^inf u^(dim/2-a-1) du continued
    return real + dual


@_table_cache
def lattice_zeta(dim: int, alpha: float) -> float:
    """Sum of |k|^(-alpha) over the nonzero integer lattice, continued.

    Valid for every real alpha except the pole at alpha == dim; the value
    at alpha == 0 is -1.  The theta split of _image_integrals at offset 0,
    less its m = 0 term over t < 1, 2/alpha, so the continuation is uniform
    in alpha.
    """
    _require_dimension(dim, "dim")
    alpha = float(alpha)
    if alpha == 0.0:
        return -1.0
    if abs(alpha - dim) < 1e-9:
        raise ValueError(f"lattice sum has a pole at alpha == dim == {dim}")
    bracket = _image_integrals(np.zeros(1), dim, alpha, False).item() - 2.0 / alpha
    return math.pi ** (alpha / 2.0) * _inv_gamma(alpha / 2.0) * bracket


def _lattice_table(grid: GridSpec, g: float, odd: bool) -> np.ndarray:
    """sum_m f(z + m L) per lattice offset z, f(y) = y0 |y|^-g if odd else
    |y|^-g, continued analytically where the sum diverges; 0 at z = 0.

    In units of the period, pi^-a Gamma(a) |x|^-2a = int_0^inf t^(a-1)
    exp(-pi t |x|^2) dt with a = g/2, split at t = 1: over t >= 1 the m = 0
    term is |x|^-g minus a lower incomplete gamma series, added here, and
    _image_integrals gives the rest: the other images as products of
    per-axis theta sums, integrated on [1, 42], and over t < 1 the Poisson
    duals of every image, frequency sums in u = 1/t.  The table is
    evaluated on offsets 0..n/2 per axis and mirrored, so it is exactly odd
    (if odd) or even in d0, exactly even in d1, and an odd table is 0 at the
    half period.
    """
    n, dim = grid.points_per_axis, grid.dim
    a = 0.5 * g
    x = np.arange(n // 2 + 1) / n
    images = _image_integrals(x, dim, g, odd)
    # the m = 0 term over t < 1: sum_j (-pi |x|^2)^j / (j! (a + j)), |x|^2 <= 1/2
    x0 = x if dim == 1 else x[:, None]
    r2 = x0 * x0 + (0.0 if dim == 1 else x * x)
    series, term = np.zeros(r2.shape), np.ones(r2.shape)
    for j in range(32):
        series += term / (a + j)
        term *= -math.pi * r2 / (j + 1)
    coef = math.pi ** a * _inv_gamma(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = coef * images + (x0 if odd else 1.0) * (r2 ** -a - coef * series)
    half.flat[0] = 0.0
    mint = _offset_integers(n)
    idx = np.abs(mint)
    table = half[idx] if dim == 1 else half[np.ix_(idx, idx)]
    if odd:
        sign = np.where(mint == -(n // 2), 0.0, np.sign(mint))
        table *= sign if dim == 1 else sign[:, None]
    with np.errstate(over="raise"):
        try:
            return table * np.float64(grid.extent) ** (odd - g)
        except FloatingPointError:
            raise ValueError(f"extent {grid.extent} is too small for a kernel table of power "
                             f"{g}: the table times extent^{odd - g:g} overflows") from None


# ---------------------------------------------------------------------------
# kernel tables

# a singular value of the quarter table counts while above this share of the
# largest one; the terms left out are below double-precision round-off
_RANK_CUTOFF = 1e-15


@dataclass(frozen=True)
class _Separable:
    """The 2-d offset table w(d0, d1) = sum_r left[r, d0] right[r, d1], held
    as its read-only (R, n) factors."""

    left: np.ndarray
    right: np.ndarray


def _factored(w: np.ndarray, odd: bool) -> _Separable:
    """Read-only factors of a full 2-d offset table w, even in d1 and odd (0
    at n/2) if odd, else even, in d0: the LAPACK SVD of its quarter keeps the
    terms above 1e-15 sigma_max, mirrored like _lattice_table's offsets."""
    n = w.shape[0]
    u, sigma, vt = np.linalg.svd(w[:n // 2 + 1, :n // 2 + 1])
    keep = sigma > _RANK_CUTOFF * sigma[0]
    mint = _offset_integers(n)
    idx = np.abs(mint)
    sign = np.where(mint == -(n // 2), 0.0, np.sign(mint)) if odd else 1.0
    a = (u[:, keep] * sigma[keep]).T[:, idx] * sign
    b = vt[keep][:, idx]
    for f in (a, b):
        f.flags.writeable = False
    return _Separable(a, b)


@_table_cache
def _kernel_tables(grid: GridSpec, nu: float):
    """Read-only offset tables for the kernel components z_i |z|^-(nu+1),
    one per axis, summed over every lattice image and zero on the
    nearest-neighbour shell 0 < |m| <= 1 that the local correction replaces.

    In 2-d the tables are held factored: the shell-zeroed first table is
    _factored(w0, odd=True) = (a, b), and the second, its transpose, is
    (b, a).  R is 18-19 at n = 64 and 27-29 at n = 256.
    """
    mint = _offset_integers(grid.points_per_axis)
    w = _lattice_table(grid, nu + 1.0, odd=True)
    if grid.dim == 1:
        w[mint ** 2 <= 1] = 0.0
        w.flags.writeable = False
        return (w,)
    w[mint[:, None] ** 2 + mint[None, :] ** 2 <= 1] = 0.0
    first = _factored(w, odd=True)
    return first, _Separable(first.right, first.left)


# ---------------------------------------------------------------------------
# circular correlation without the FFT

def _correlate(u: np.ndarray, w) -> np.ndarray:
    """sum_d w(d) u(x + d) over every lattice offset d, by direct sums.

    1-d is one valid-mode correlation against the doubled input.  2-d is the
    separable sum over the factors of w, sum_r C(left_r) u C(right_r)^T with
    C[x, y] = v((y - x) mod n) read from one window view of each factor's
    doubled rows and copied one pair at a time: 2 R n^3 multiply-adds in
    place of the n^4 / 2 of one product per row offset.
    """
    n = u.shape[0]
    if u.ndim == 1:
        return np.correlate(np.concatenate([u, u]), w, "valid")[:n]
    lefts, rights = (np.lib.stride_tricks.sliding_window_view(
        np.concatenate([f, f], axis=1), n, axis=1)[:, n:0:-1] for f in (w.left, w.right))
    out = np.zeros((n, n))
    for left, right in zip(lefts, rights):
        out += np.ascontiguousarray(left) @ (u @ np.ascontiguousarray(right).T)
    return out


# correlations over at least this many nodes run on the worker pool, one per
# worker. Three 2-d gradients (s = 1/4, 1/2, 3/4; shared 2-vCPU host, one
# BLAS thread) took 30-32 ms in place of 35-47 at n = 128 and 199-202 in
# place of 364-377 at n = 256; at n = 64 the hand-off made them slower,
# 8-10 ms in place of 4.5-7.5
_POOL_NODES = 128 ** 2


def _correlations(grid: GridSpec, samples, tables) -> list:
    """[_correlate(u, w) for u, w in zip(samples, tables)], in order."""
    with _worker_pool(grid.node_count >= _POOL_NODES) as run:
        return run(lambda pair: _correlate(*pair), zip(samples, tables))


def _diff4(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    # 4th-order centered first derivative; 2nd order is not enough to keep
    # the correction's own error below the main quadrature error
    return (-np.roll(arr, -2, axis=axis) + 8.0 * np.roll(arr, -1, axis=axis)
            - 8.0 * np.roll(arr, 1, axis=axis) + np.roll(arr, 2, axis=axis)) / (12.0 * h)


def _navot_coefficient(dim: int, gamma: float) -> float:
    # discrepancy between the excluded shell, 2 dim unit offsets, and the
    # continued lattice sum
    return 2.0 * dim - lattice_zeta(dim, gamma)


def riesz_gradient_quadrature(u: Field, s: float) -> Field:
    """Fractional gradient by real-space convolution with z |z|^-(dim+s+1).

    Independent of the Fourier route.  Accuracy is O(h^(3-s)) on smooth
    fields: the excluded nearest-neighbour shell is compensated by a
    derivative term whose coefficient combines the shell count with the
    continued lattice sum at exponent dim-1+s.
    """
    _require_rank(u, "scalar", "riesz_gradient_quadrature")
    grid = u.grid
    cst = constants(grid.dim, s)  # refuses an s outside (0,1)
    hn = grid.spacing ** grid.dim
    tables = _kernel_tables(grid, grid.dim + s)
    convs = [hn * c for c in _correlations(grid, [u.samples] * len(tables), tables)]
    coeff = (cst.c_ns * grid.spacing ** (1.0 - s) / grid.dim
             * _navot_coefficient(grid.dim, grid.dim - 1.0 + s))
    comps = [cst.c_ns * c + coeff * _diff4(u.samples, ax, grid.spacing)
             for ax, c in enumerate(convs)]
    return Field.vector(grid, np.stack(comps))


def ftc_convolution_quadrature(g: Field, s: float) -> Field:
    """Reconstruction from a fractional gradient, real-space route.

    Convolves against -z_i |z|^-(dim-s+1) and corrects the excluded shell
    with a divergence term; O(h^(3+s)) on smooth inputs.  Composed with
    the gradient it recovers the input minus its mean.
    """
    _require_rank(g, "vector", "ftc_convolution_quadrature")
    grid = g.grid
    cst = constants(grid.dim, s)  # refuses an s outside (0,1)
    tables = _kernel_tables(grid, grid.dim - s)
    conv = grid.spacing ** grid.dim * sum(_correlations(grid, g.samples, tables))
    div4 = sum(_diff4(g.samples[ax], ax, grid.spacing) for ax in range(grid.dim))
    coeff = (-cst.c_n_minus_s * grid.spacing ** (1.0 + s) / grid.dim
             * _navot_coefficient(grid.dim, grid.dim - 1.0 - s))
    return Field.scalar(grid, -cst.c_n_minus_s * conv + coeff * div4)


# ---------------------------------------------------------------------------
# L1 modulus of the reconstruction kernel under a unit translation

def _graded_edges(a: float, b: float, levels_a: int, levels_b: int,
                  q: float) -> np.ndarray:
    """Panel edges on [a, b], geometrically refined toward either end."""
    span = b - a
    pts = {a, b}
    for k in range(1, levels_a + 1):
        pts.add(a + span * q ** k)
    for k in range(1, levels_b + 1):
        pts.add(b - span * q ** k)
    return np.array(sorted(pts))


def _translation_l1_2d(s: float, refine: int) -> float:
    rho = 0.35          # radius of the polar patches at the singular points
    r_out = 200.0       # analytic far-field tail beyond this radius
    nu1 = 3.0 - s

    def integrand(x, y):
        ra = np.hypot(x, y)
        rb = np.hypot(x - 1.0, y)
        pa = ra ** (-nu1)
        pb = rb ** (-nu1)
        d1 = (x - 1.0) * pb - x * pa
        d2 = y * (pb - pa)
        return np.hypot(d1, d2)

    q = 0.55 ** (1.0 / refine)
    # polar patch at the origin; the patch at the translate equals it.
    # Substituting t = r^s and factoring r^(s-2) out of the vector norm
    # cancels every power of r, so nothing can overflow as r -> 0:
    # |K(x-e) - K(x)| r dr/dt = |unit(x) - r^(2-s) K(x-e)| / s
    t_edges = _graded_edges(0.0, rho ** s, 22 * refine, 0, q)
    t_nodes, t_w = _gl_on_panels(t_edges, 12)
    r_nodes = t_nodes ** (1.0 / s)
    r_pow = t_nodes ** ((2.0 - s) / s)      # r^(2-s), underflows harmlessly
    n_ang = 64 * refine
    th = np.arange(n_ang) * (2.0 * math.pi / n_ang)
    ct, st = np.cos(th)[None, :], np.sin(th)[None, :]
    xb = r_nodes[:, None] * ct - 1.0
    yb = r_nodes[:, None] * st
    pb = np.hypot(xb, yb) ** (-nu1)
    v1 = ct - r_pow[:, None] * (xb * pb)
    v2 = st - r_pow[:, None] * (yb * pb)
    w_disk = (t_w / s)[:, None] * (2.0 * math.pi / n_ang)
    t_disk = float(np.sum(w_disk * np.hypot(v1, v2)))

    # annulus rho <= r <= r_out minus the patch around the translate
    edges = np.unique(np.concatenate([
        _graded_edges(rho, 1.0 - rho, 3 * refine, 10 * refine, q),
        _graded_edges(1.0 - rho, 1.0 + rho, 10 * refine, 10 * refine, q),
        _graded_edges(1.0 + rho, 4.0, 10 * refine, 3 * refine, q),
        np.geomspace(4.0, r_out, 14 * refine),
    ]))
    r_nodes, r_w = _gl_on_panels(edges, 16)
    cos_cut = (r_nodes ** 2 + 1.0 - rho ** 2) / (2.0 * r_nodes)
    th_ex = np.arccos(np.clip(cos_cut, -1.0, 1.0))
    gx, gw = np.polynomial.legendre.leggauss(40 * refine)
    half = 0.5 * (math.pi - th_ex)
    mid = 0.5 * (math.pi + th_ex)
    th = mid[:, None] + half[:, None] * gx[None, :]
    ww = 2.0 * (r_nodes * r_w * half)[:, None] * gw[None, :]
    x = r_nodes[:, None] * np.cos(th)
    y = r_nodes[:, None] * np.sin(th)
    t_mid = float(np.sum(ww * integrand(x, y)))

    # far field: |difference| ~ r^(s-2) sqrt(1 + (3-s)(1-s) cos^2), whose
    # first angular correction integrates to zero, so the error is O(r^-2)
    tt = np.arange(720) * (2.0 * math.pi / 720)
    a_s = 2.0 * math.pi * float(
        np.mean(np.sqrt(1.0 + (3.0 - s) * (1.0 - s) * np.cos(tt) ** 2)))
    tail = a_s * r_out ** (s - 1.0) / (1.0 - s)
    return 2.0 * t_disk + t_mid + tail


def kernel_translation_l1(dim: int, s: float, refine: int = 1) -> float:
    """L1 distance between the reconstruction kernel and its unit translate.

    The kernel is the unscaled x |x|^-(dim-s+1).  In 1-d the distance is
    4/s in closed form: 1/s from each half-line outside [0, 1] and 2/s from
    inside it.  In 2-d graded panels absorb the two point singularities
    (with a power substitution matched to the r^(s-1) radial behavior) and
    the far field is integrated analytically; refine doubles their panel
    densities for convergence checks.
    """
    _require_dimension(dim, "dim")
    _require_order(s, "s")
    if not isinstance(refine, (int, np.integer)) or isinstance(refine, bool) or refine < 1:
        raise ValueError(f"refine must be an integer >= 1, got {refine!r}")
    if dim == 1:
        return 4.0 / s
    return _translation_l1_2d(s, refine)
