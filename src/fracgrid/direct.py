"""Real-space route: gamma constants, lattice sums, singular convolutions.

Nothing in this module touches the FFT or the spectral route.  The gamma
function is a Lanczos approximation, lattice sums are analytically
continued through a theta-function split, and the convolution operators
are direct sums: in 1-d one valid-mode correlation against the doubled
input, in 2-d one circulant product per row offset, with the rows d0 and
n - d0 folded into a single product by the kernel's parity in d0.  That
independence is deliberate: the spectral and real-space answers
cross-validate each other.

The convolution quadrature treats the kernel singularity by excluding the
nearest-neighbour shell 0 < |m| <= 1 around the origin and compensating
with a local derivative term whose coefficient is a continued lattice sum.
Every other offset is kept: there is no outer window, because kernels are
periodized over every lattice image by one builder, _lattice_table, shared
with the Gagliardo weight in norms.  It splits the Mellin integral of the
power at t = 1, like lattice_zeta: per-axis theta sums of a few images
above the split, their Poisson duals (short cosine and sine sums) below
it, and the primary term in closed form, so the tables converge
exponentially in the number of images.  It evaluates offsets 0..n/2 per
axis and mirrors them, so odd and even symmetry (and with it, annihilation
of constants) hold exactly on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Field, GridSpec, _table_cache

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
# gamma function (Lanczos, g = 7, 9 coefficients)

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _gamma_lanczos(x: float) -> float:
    # valid for x >= 0.5
    a = _LANCZOS[0]
    for i in range(1, 9):
        a += _LANCZOS[i] / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x - 0.5) * math.exp(-t) * a


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires a positive argument, got {x}")
    if x < 0.5:
        return _gamma_lanczos(x + 1.0) / x
    return _gamma_lanczos(x)


def _inv_gamma(x: float) -> float:
    """1/Gamma as an entire function; vanishes at nonpositive integers."""
    x = float(x)
    if x >= 1.5:
        return 1.0 / _gamma_lanczos(x)
    m = int(math.ceil(1.5 - x))
    prod = 1.0
    for i in range(m):
        prod *= x + i
    return prod / _gamma_lanczos(x + m)


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


@lru_cache(maxsize=None)
def constants(dim: int, s: float) -> GammaConstants:
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0,1), got {s}")
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
# theta(t) - 1 = 2 sum exp(-pi t j^2); j > 6 is below 1e-49 for t >= 1
_EWALD_THETA = 1.0 + 2.0 * sum(
    np.exp(-math.pi * _EWALD_NODES * j * j) for j in range(1, 7))


@lru_cache(maxsize=None)
def lattice_zeta(dim: int, alpha: float) -> float:
    """Sum of |k|^(-alpha) over the nonzero integer lattice, continued.

    Valid for every real alpha except the pole at alpha == dim; the value
    at alpha == 0 is -1.  Computed from the theta-function split of the
    completed sum, so the continuation is uniform in alpha.
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    alpha = float(alpha)
    if alpha == 0.0:
        return -1.0
    if abs(alpha - dim) < 1e-9:
        raise ValueError(f"lattice sum has a pole at alpha == dim == {dim}")
    t = _EWALD_NODES
    integrand = (_EWALD_THETA ** dim - 1.0) * (
        t ** (alpha / 2.0 - 1.0) + t ** ((dim - alpha) / 2.0 - 1.0))
    bracket = float(_EWALD_WEIGHTS @ integrand) + 2.0 / (alpha - dim) - 2.0 / alpha
    return math.pi ** (alpha / 2.0) * _inv_gamma(alpha / 2.0) * bracket


def _offset_integers(n: int) -> np.ndarray:
    # offset index d corresponds to lattice displacement ((d+n/2) mod n) - n/2
    return (np.arange(n) + n // 2) % n - n // 2


# images |m| <= 4 per axis, and frequencies k <= 4: for t, u >= 1 and offsets
# in [0, 1/2] the first term left out is below exp(-pi 4.5^2) < 1e-27
_IMAGES = 4


def _theta_factors(x: np.ndarray, t: np.ndarray, odd: bool):
    """Per-axis theta sums of (x+m)^odd exp(-pi t (x+m)^2) for offsets x
    (rows) and nodes t (columns), as (the images m != 0, the m = 0 term)."""
    rest = np.zeros((x.size, t.size))
    for m in range(-_IMAGES, _IMAGES + 1):
        y = x[:, None] + m
        term = (y * y) * (-math.pi * t)
        np.exp(term, out=term)
        if odd:
            term *= y
        if m:
            rest += term
        else:
            origin = term
    return rest, origin


def _dual_factors(x: np.ndarray, u: np.ndarray, odd: bool):
    """Poisson duals of the theta sums at u = 1/t, as (the frequencies k != 0,
    the k = 0 term): 2 sum_(k>0) k^odd exp(-pi k^2 u) (sin if odd else cos)(2 pi k x)."""
    trig = np.sin if odd else np.cos
    rest = np.zeros((x.size, u.size))
    for k in range(1, _IMAGES + 1):
        weight = 2.0 * (k if odd else 1) * np.exp(-math.pi * k * k * u)
        rest += np.outer(trig(2.0 * math.pi * k * x), weight)
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


def _lattice_table(grid: GridSpec, g: float, odd: bool) -> np.ndarray:
    """sum_m f(z + m L) per lattice offset z, f(y) = y0 |y|^-g if odd else
    |y|^-g, continued analytically where the sum diverges; 0 at z = 0.

    In units of the period, pi^-a Gamma(a) |x|^-2a = int_0^inf t^(a-1)
    exp(-pi t |x|^2) dt with a = g/2, split at t = 1: over t >= 1 the m = 0
    term is |x|^-g minus a lower incomplete gamma series and the other
    images are products of per-axis theta sums, integrated on [1, 42]; over
    t < 1 Poisson's formula turns them into frequency sums in u = 1/t.  The
    table is evaluated on offsets 0..n/2 per axis and mirrored, so it is
    exactly odd (if odd) or even in d0, exactly even in d1, and an odd table
    is 0 at the half period.
    """
    n, dim = grid.points_per_axis, grid.dim
    a = 0.5 * g
    x = np.arange(n // 2 + 1) / n
    t, w = _EWALD_NODES, _EWALD_WEIGHTS
    axes = [odd and ax == 0 for ax in range(dim)]
    real = _product_integral([_theta_factors(x, t, o) for o in axes], w * t ** (a - 1.0))
    dual = _product_integral([_dual_factors(x, t, o) for o in axes],
                             w * t ** (0.5 * dim + odd - a - 1.0))
    if not odd:
        dual += 2.0 / (g - dim)  # the k = 0 term, int_1^inf u^(dim/2-a-1) du continued
    # the m = 0 term over t < 1: sum_j (-pi |x|^2)^j / (j! (a + j)), |x|^2 <= 1/2
    x0 = x if dim == 1 else x[:, None]
    r2 = x0 * x0 + (0.0 if dim == 1 else x * x)
    series, term = np.zeros(r2.shape), np.ones(r2.shape)
    for j in range(32):
        series += term / (a + j)
        term *= -math.pi * r2 / (j + 1)
    coef = math.pi ** a * _inv_gamma(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = coef * (real + dual) + (x0 if odd else 1.0) * (r2 ** -a - coef * series)
    half.flat[0] = 0.0
    mint = _offset_integers(n)
    idx = np.abs(mint)
    table = half[idx] if dim == 1 else half[np.ix_(idx, idx)]
    if odd:
        sign = np.where(mint == -(n // 2), 0.0, np.sign(mint))
        table *= sign if dim == 1 else sign[:, None]
    return table * grid.extent ** (odd - g)


# ---------------------------------------------------------------------------
# kernel tables

@_table_cache
def _kernel_tables(grid: GridSpec, nu: float):
    """Read-only offset tables for the kernel components z_i |z|^-(nu+1),
    one per axis, summed over every lattice image and zero on the
    nearest-neighbour shell 0 < |m| <= 1 that the local correction replaces.
    """
    mint = _offset_integers(grid.points_per_axis)
    w = _lattice_table(grid, nu + 1.0, odd=True)
    if grid.dim == 1:
        tables = [w]
        radial2 = mint ** 2
    else:
        tables = [w, w.T]
        radial2 = mint[:, None] ** 2 + mint[None, :] ** 2
    tables = [np.ascontiguousarray(t) for t in tables]
    for t in tables:
        t[radial2 <= 1] = 0.0
        t.flags.writeable = False
    return tuple(tables)


# ---------------------------------------------------------------------------
# circular correlation without the FFT

def _correlate(u: np.ndarray, w: np.ndarray, odd: bool) -> np.ndarray:
    """sum_d w(d) u(x + d) over every lattice offset d, by direct sums.

    1-d is one valid-mode correlation against the doubled input.  2-d takes
    one circulant product per row offset d0; w is odd in d0 when odd, else
    even, so rows d0 and n - d0 share the product of roll(u, -d0) -/+
    roll(u, d0) with the block of row d0.  Rows 0 and n/2 stay unfolded.
    """
    n = u.shape[0]
    if u.ndim == 1:
        return np.correlate(np.concatenate([u, u]), w, "valid")[:n]
    out = np.zeros((n, n))
    for d0 in range(n // 2 + 1):
        rows = np.roll(u, -d0, axis=0)
        if 0 < d0 < n // 2:
            rows = rows - np.roll(u, d0, axis=0) if odd else rows + np.roll(u, d0, axis=0)
        # block[a, b] = w[d0, (a - b) mod n], copied from windows of the doubled row
        windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([w[d0], w[d0]]), n)
        out += rows @ windows[n:0:-1].T.copy()
    return out


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
    if u.rank != "scalar":
        raise ValueError("riesz_gradient_quadrature expects a scalar field")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0,1), got {s}")
    grid = u.grid
    cst = constants(grid.dim, s)
    hn = grid.spacing ** grid.dim
    convs = [hn * _correlate(u.samples, w, ax == 0)
             for ax, w in enumerate(_kernel_tables(grid, grid.dim + s))]
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
    if g.rank != "vector":
        raise ValueError("ftc_convolution_quadrature expects a vector field")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0,1), got {s}")
    grid = g.grid
    cst = constants(grid.dim, s)
    tables = _kernel_tables(grid, grid.dim - s)
    conv = grid.spacing ** grid.dim * sum(
        _correlate(c, w, ax == 0) for ax, (c, w) in enumerate(zip(g.samples, tables)))
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


def _translation_l1_1d(s: float, refine: int) -> float:
    # kernel f(x) = sign(x) |x|^(s-1); integrate |f(x-1) - f(x)|.  With the
    # substitution t = d^s (d = distance to the singular point) the leading
    # power cancels exactly: d^(s-1) dd = dt / s.  The integrand is written
    # in terms of d so no catastrophic 1 - tiny rounding can occur, and the
    # far field has exact antiderivatives.  By the x <-> 1-x and x <-> 1+x
    # mirror symmetries only two distinct pieces need quadrature.
    cut = 2.0
    lv = 24 * refine
    q = 0.55 ** (1.0 / refine)
    inv = 1.0 / s

    def piece(t_max, other_sign, other_base_plus):
        # integrand (d^(s-1) + other_sign*(1 -+ d)^(s-1)) dt/s with d = t^(1/s)
        edges = _graded_edges(0.0, t_max, lv, 0, q)
        nodes, weights = _gl_on_panels(edges, 16)
        d = nodes ** inv
        base = 1.0 + d if other_base_plus else 1.0 - d
        vals = (1.0 + other_sign * base ** (s - 1.0)
                * nodes ** ((1.0 - s) * inv)) * inv
        return float(weights @ vals)

    inner = piece(0.5 ** s, +1.0, False)     # (0, 1/2] about 0; doubled by mirror
    outer = piece(cut ** s, -1.0, True)      # [-cut, 0) about 0; doubled by mirror
    tails = 2.0 * ((1.0 + cut) ** s - cut ** s) / s
    return 2.0 * inner + 2.0 * outer + tails


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

    The kernel is the unscaled x |x|^-(dim-s+1).  Graded panels absorb the
    two point singularities (with a power substitution matched to the
    r^(s-1) radial behavior) and the far field is integrated analytically.
    refine doubles panel densities for convergence checks.
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0,1), got {s}")
    if refine < 1:
        raise ValueError("refine must be >= 1")
    if dim == 1:
        return _translation_l1_1d(s, refine)
    return _translation_l1_2d(s, refine)
