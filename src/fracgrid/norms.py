"""Difference-quotient norms: Gagliardo and Hölder seminorms, the D^s norm,
and translation moduli.

The Gagliardo double sum is the delicate one. Its integrand carries the
singular weight |x-y|^(-n-sp), so the plain lattice sum over pair offsets
misweights the near-diagonal shells. We exclude the zero offset and remove
the resulting discrepancy analytically: the low moments of the difference
integrand (computed spectrally) multiply continued lattice sums at the
matching exponents. The moments only mean something when the grid resolves
the gradient, so before subtracting we compare one-cell difference energy
against spectral gradient energy; fields that disagree (power tails, noise)
keep the raw sum and the report says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import reduce

import numpy as np

from .core import Field, Region, _table_cache, lp_norm, translate
from .direct import _lattice_table, lattice_zeta
from .spectral import exact_gradient, riesz_gradient_spectral

__all__ = [
    "NormReport",
    "gagliardo_seminorm",
    "gagliardo_report",
    "holder_seminorm",
    "dsp_norm",
    "translation_modulus",
]


@dataclass(frozen=True)
class NormReport:
    """One computed norm value plus enough context to reproduce it."""

    kind: str
    value: float
    method: str
    detail: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"norm value must be finite and nonnegative, got {self.value}")


# ---------------------------------------------------------------------------
# periodized scalar kernel |w|^(-gamma) on the offset lattice, from the
# theta-split lattice builder that also makes the quadrature kernels

@_table_cache
def _periodized_weight(grid, gamma: float) -> np.ndarray:
    """Read-only table of sum_images |w + m L|^(-gamma) per lattice offset; 0 at w = 0."""
    table = _lattice_table(grid, gamma, odd=False)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Gagliardo seminorm

def _autocorrelation(v: np.ndarray) -> np.ndarray:
    """R(w) = sum_x v(x) v(x+w) for every lattice offset w, by direct sums.

    1-d is one valid-mode correlation against the doubled field. 2-d takes
    one column product per row offset w0, M[a, b] = sum_i v(i, a) v(i+w0, b),
    and sums M along its wrapped diagonals b = a + w1; R(-w) = R(w) fills
    the other half of the row offsets.
    """
    n = v.shape[0]
    if v.ndim == 1:
        return np.correlate(np.concatenate([v, v]), v, "valid")[:n]
    rows = np.arange(n)[:, None]
    diagonals = (rows + np.arange(n)[None, :]) % n
    mirror = -np.arange(n) % n
    out = np.empty(v.shape)
    for w0 in range(n // 2 + 1):
        out[w0] = (v.T @ np.roll(v, -w0, axis=0))[rows, diagonals].sum(axis=0)
        out[mirror[w0]] = out[w0][mirror]
    return out


def _difference_profile(u: np.ndarray, p: float) -> np.ndarray:
    """S(w) = sum_x |u(x+w) - u(x)|^p for every lattice offset w, by direct sums.

    One step per row offset w0 <= N/2 compares the rolled field with u: in
    1-d that is one sum, in 2-d one (N, N, N) block over every column shift
    w1. S(-w) = S(w) fills the other half of the row offsets.
    """
    n = u.shape[0]
    mirror = -np.arange(n) % n
    columns = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    out = np.empty(u.shape)
    for w0 in range(n // 2 + 1):
        shifted = np.roll(u, -w0, axis=0)
        if u.ndim == 1:
            out[w0] = out[mirror[w0]] = np.sum(np.abs(shifted - u) ** p)
        else:
            out[w0] = np.sum(np.abs(shifted[:, columns] - u[:, None, :]) ** p, axis=(0, 2))
            out[mirror[w0]] = out[w0][mirror]
    return out


def _double_sum(u: Field, p: float, weight: np.ndarray) -> float:
    """h^n sum_w G(w) K(w) over every lattice offset w, with G(w) =
    h^n sum_x |u(x+w) - u(x)|^p the difference profile.

    At p = 2, G(w) = 2 h^n (sum v^2 - R(w)) with v the mean-removed field and
    R its autocorrelation, at any size. Other p sum over every node pair.
    """
    grid = u.grid
    hn = grid.spacing ** grid.dim
    if p == 2.0:
        v = u.samples - u.samples.mean()
        profile = 2.0 * hn * (float(np.sum(v * v)) - _autocorrelation(v))
    else:
        profile = hn * _difference_profile(u.samples, p)
    return hn * float(np.sum(profile * weight))


def _moment_correction(u: Field, s: float, p: float) -> float:
    """Analytic discrepancy of the node-excluded offset sum near w = 0."""
    grid = u.grid
    h = grid.spacing
    grad = exact_gradient(u)
    if grid.dim == 1:
        du = grad.samples[0]
        c_p = h * float(np.sum(np.abs(du) ** p))
        corr = c_p * lattice_zeta(1, 1.0 + s * p - p) * h ** (p - s * p)
        if p == 2.0:
            d2u = exact_gradient(Field.scalar(grid, du)).samples[0]
            c_4 = -(1.0 / 12.0) * h * float(np.sum(d2u ** 2))
            corr += c_4 * lattice_zeta(1, 2.0 * s - 3.0) * h ** (4.0 - 2.0 * s)
        return corr
    if p != 2.0:
        return 0.0  # directional moments have no isotropic continuation
    grad_sq = h ** 2 * float(np.sum(grad.samples ** 2))
    return 0.5 * grad_sq * lattice_zeta(2, 2.0 * s) * h ** (2.0 - 2.0 * s)


def _resolution_defect(u: Field) -> float:
    """Relative gap between one-cell difference energy and gradient energy.

    Per mode the forward difference carries 4 sin^2(theta h / 2) / h^2 against
    the exact theta^2, so the gap is ~(theta h)^2 / 12 for resolved fields and
    order one when the energy sits at the Nyquist scale.
    """
    grid = u.grid
    arr = u.samples
    hn = grid.spacing ** grid.dim
    grad = exact_gradient(u)
    spectral = hn * float(np.sum(grad.samples ** 2))
    if spectral == 0.0:
        return 0.0
    cell = 0.0
    for axis in range(grid.dim):
        d = np.roll(arr, -1, axis=axis) - arr
        cell += hn * float(np.sum(d * d)) / grid.spacing ** 2
    return abs(cell - spectral) / spectral


_RESOLUTION_GUARD = 0.05
_PAIR_BUDGET = 2 ** 28   # N^(2 dim) node pairs off p = 2: 1-d N <= 16384, 2-d N <= 128


def gagliardo_report(u: Field, s: float, p: float) -> NormReport:
    """Gagliardo seminorm with provenance; see gagliardo_seminorm."""
    if u.rank != "scalar":
        raise ValueError("gagliardo seminorm expects a scalar field")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0,1), got {s}")
    if not (np.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    if p != 2.0 and u.grid.node_count ** 2 > _PAIR_BUDGET:
        raise ValueError(f"gagliardo seminorm at p != 2 sums every node pair, at most "
                         f"{_PAIR_BUDGET} (1-d N <= 16384, 2-d N <= 128); this grid "
                         f"has {u.grid.node_count ** 2}")
    main = _double_sum(u, p, _periodized_weight(u.grid, u.grid.dim + s * p))
    defect = _resolution_defect(u)
    detail = {"resolution_defect": defect}
    if defect <= _RESOLUTION_GUARD:
        integral = main - _moment_correction(u, s, p)
        detail["correction_applied"] = True
    else:
        # the moment estimate is untrustworthy on fields this rough; keep
        # the raw sum and say so rather than subtract a junk term
        integral = main
        detail["correction_applied"] = False
    value = max(integral, 0.0) ** (1.0 / p)
    return NormReport(kind=f"gagliardo(s={s},p={p})", value=value,
                      method="full_double_sum", detail=detail)


def gagliardo_seminorm(u: Field, s: float, p: float) -> float:
    """Seminorm ( double integral of |u(x)-u(y)|^p |x-y|^(-dim-sp) )^(1/p).

    The double integral itself scales like |u|^p, so the 1/p power is what
    makes the result absolutely homogeneous. The lattice sum visits every
    pair offset exactly, with no sampling: at p = 2 through the
    autocorrelation of the field, at any size in 1-d and 2-d; at other p by
    direct pair sums, on grids of at most 2^28 node pairs (1-d N <= 16384,
    2-d N <= 128). Larger grids raise ValueError.
    """
    return gagliardo_report(u, s, p).value


# ---------------------------------------------------------------------------
# Hoelder seminorm

def _min_image(z: np.ndarray, period: float) -> np.ndarray:
    return z - period * np.round(z / period)


def holder_seminorm(u: Field, mu: float, region: Region | None = None) -> float:
    """max |u(x)-u(y)| / |x-y|^mu over grid pairs at least 2h apart.

    Distances are torus distances. 1-d grids visit every admissible offset;
    2-d grids use a fixed log-spaced offset stencil, dense near the diagonal
    where the ratio peaks.
    """
    if u.rank != "scalar":
        raise ValueError("holder_seminorm expects a scalar field")
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0,1), got {mu}")
    grid = u.grid
    region = region or Region.full_torus()
    mask = region.mask(grid)
    h = grid.spacing
    if region.kind == "centered_ball" and 2.0 * region.radius < 4.0 * h:
        raise ValueError("region smaller than 4 grid spacings")

    arr = u.samples
    best = 0.0
    found = False
    for off in _pair_offsets(grid):
        dist = math.sqrt(sum(_min_image(d * h, grid.extent) ** 2 for d in off))
        if dist < 2.0 * h - 1e-12:
            continue
        shifted_mask = mask
        shifted = arr
        for ax, d in enumerate(off):
            if d:
                shifted = np.roll(shifted, -int(d), axis=ax)
                shifted_mask = np.roll(shifted_mask, -int(d), axis=ax)
        both = mask & shifted_mask
        if not bool(np.any(both)):
            continue
        found = True
        top = float(np.max(np.abs(shifted[both] - arr[both])))
        best = max(best, top / dist ** mu)
    if not found:
        raise ValueError("region smaller than 4 grid spacings")
    return best


def _pair_offsets(grid):
    n = grid.points_per_axis
    if grid.dim == 1:
        return [(k,) for k in range(2, n // 2 + 1)]
    offsets = set()
    for k0 in range(-4, 5):
        for k1 in range(0, 5):
            offsets.add((k0, k1))
    radii = np.unique(np.rint(np.geomspace(2.0, n / 2.0, 14)).astype(int))
    angles = np.arange(24) * (math.pi / 24.0)  # half-turn; pairs are unordered
    for r in radii:
        for th in angles:
            offsets.add((int(round(r * math.cos(th))), int(round(r * math.sin(th)))))
    return sorted(o for o in offsets if o != (0, 0))


# ---------------------------------------------------------------------------
# D^s norm and translation moduli

def dsp_norm(u: Field, s: float, p: float) -> float:
    """lp norm of the field plus lp norm of its fractional gradient."""
    return lp_norm(u, p) + lp_norm(riesz_gradient_spectral(u, s), p)


@_table_cache
def _shift_table(grid, shifts: tuple) -> np.ndarray:
    """Read-only (H, N^dim) table of |m_h(k) - 1|^2 / N^dim, one row per shift.

    m_h is the multiplier that translate applies, whose inverse transform
    keeps only the real part: m_h(k) = (e^{2 pi i xi(k).h} + e^{-2 pi i xi(-k).h}) / 2
    with -k taken mod N. Off the Nyquist planes xi(-k) = -xi(k) and m_h is the
    phase e^{2 pi i xi.h}; on them xi(-k) = xi(k) along that axis, so that
    component enters as a cosine. With sigma the Nyquist components' angle
    and delta the others', m_h = cos(sigma) e^{i delta}, and |m_h - 1|^2 is
    summed from real and imaginary parts written in half-angle sines, which
    keeps small shifts free of cancellation and every entry nonnegative.
    """
    n = grid.points_per_axis
    f = 2.0 * math.pi * grid.freq_axes()[0]
    nyquist = np.where(np.arange(n) == n // 2, f, 0.0)
    others = f - nyquist
    table = np.empty((len(shifts), grid.node_count))
    # row by row, so that the temporaries stay one grid in size
    for row, h in zip(table, shifts):
        sigma = reduce(np.add.outer, [c * nyquist for c in h]).ravel()
        delta = reduce(np.add.outer, [c * others for c in h]).ravel()
        cos_sigma = np.cos(sigma)
        re = 2.0 * (cos_sigma * np.sin(0.5 * delta) ** 2 + np.sin(0.5 * sigma) ** 2)
        im = cos_sigma * np.sin(delta)
        row[:] = (re * re + im * im) / grid.node_count
    table.flags.writeable = False
    return table


def translation_modulus(u: Field, p: float, h_list) -> list:
    """[(h, ||u(.+h) - u||_p)] for each shift in h_list, order preserved.

    Each shift must be finite, have grid.dim components and magnitude below
    extent/4. At p = 2 every shift comes from one forward transform of u, by
    Parseval: ||u(.+h) - u||_2^2 = (h^n / N^n) sum_k |u_hat(k)|^2 |m_h(k) - 1|^2,
    with m_h the multiplier translate applies, including its real-part rule
    on the Nyquist planes (see _shift_table); lattice shifts agree with
    translate's exact permutation to round-off. Other p evaluate
    translate(u, h) - u for each shift.
    """
    grid = u.grid
    h_list = list(h_list)
    shifts = []
    for h in h_list:
        h_vec = np.atleast_1d(np.asarray(h, dtype=float)).ravel()
        if h_vec.size != grid.dim:
            raise ValueError(f"shift has {h_vec.size} components, grid has dim {grid.dim}")
        if not np.linalg.norm(h_vec) < grid.extent / 4.0:  # also false for NaN
            raise ValueError(f"shift must be finite with magnitude below extent/4, got {h}")
        shifts.append(tuple(h_vec.tolist()))
    if p != 2.0:
        return [(h, lp_norm(translate(u, h) - u, p)) for h in h_list]
    power = np.abs(np.fft.fftn(u.samples, axes=tuple(range(-grid.dim, 0)))) ** 2
    if u.rank == "vector":
        power = power.sum(axis=0)
    squares = grid.spacing ** grid.dim * (_shift_table(grid, tuple(shifts)) @ power.ravel())
    return [(h, math.sqrt(v)) for h, v in zip(h_list, squares)]
