"""Difference-quotient norms: Gagliardo and Hölder seminorms, the D^s norm,
and translation moduli.

The Gagliardo double sum is the delicate one. Its integrand carries the
singular weight |x-y|^(-n-sp), so the plain lattice sum over pair offsets
misweights the near-diagonal shells. We exclude the zero offset and remove
the resulting discrepancy analytically: the low moments of the difference
integrand (computed spectrally) multiply continued lattice sums at the
matching exponents. The moments only mean something when the grid resolves
the gradient, so before subtracting we compare one-cell difference energy
against spectral gradient energy, a Parseval sum; fields that disagree
(power tails, noise) keep the raw sum and the report says so. The lattice sum itself is exact
and FFT-free: in 2-d its weight is factored like the quadrature kernels,
and at p = 2 it goes through direct's correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import (Field, Region, _require_exponent, _require_order, _require_rank,
                   _require_shift, _shift_angles, _table_cache, _translated, lp_norm)
from .direct import _correlate, _factored, _lattice_table, lattice_zeta
from .spectral import (Multiplier, _half_spectrum_power, _l2_norm, _require_input,
                       exact_gradient, riesz_gradient_spectral)

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
def _periodized_weight(grid, gamma: float):
    """sum_images |w + m L|^(-gamma) per lattice offset w, 0 at w = 0: a
    read-only table in 1-d, its read-only factors (direct._factored) in 2-d."""
    table = _lattice_table(grid, gamma, odd=False)
    if grid.dim == 2:
        return _factored(table, odd=False)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Gagliardo seminorm

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


def _weigh(weight, profile: np.ndarray) -> float:
    """sum_w K(w) P(w) over every lattice offset w: one pairwise sum in 1-d,
    sum_r a_r^T P b_r over the factors of K in 2-d."""
    if profile.ndim == 1:
        return float(np.sum(weight * profile))
    return float(np.sum((weight.left @ profile) * weight.right))


def _double_sum(u: Field, p: float, weight) -> float:
    """h^n sum_w G(w) K(w) over every lattice offset w, with G(w) =
    h^n sum_x |u(x+w) - u(x)|^p the difference profile.

    At p = 2, G(w) = 2 h^n sum_x v(x) (v(x) - v(x+w)) with v the mean-removed
    field, so the sum is 2 h^2n <v, (sum K) v - K * v>, with (K * v)(x) =
    sum_w K(w) v(x+w) from direct._correlate. Other p sum every node pair.
    """
    grid = u.grid
    # a sum scaled by 0, a subnormal or inf carries no value
    try:
        hn2 = grid.spacing ** (2 * grid.dim)
    except OverflowError:
        hn2 = math.inf
    if not np.finfo(np.float64).tiny <= hn2 < math.inf:
        raise ValueError(f"grid spacing {grid.spacing} is out of range for a pair sum: "
                         f"h^{2 * grid.dim} = {hn2} is not a normal double")
    if p == 2.0:
        v = u.samples - u.samples.mean()
        total = _weigh(weight, np.ones(v.shape))
        return 2.0 * hn2 * float(np.sum(v * (total * v - _correlate(v, weight))))
    return hn2 * _weigh(weight, _difference_profile(u.samples, p))


def _moment_correction(u: Field, s: float, p: float, grad_norm: float) -> float | None:
    """Analytic discrepancy of the node-excluded offset sum near w = 0, from
    grad_norm = ||grad u||_2 and, in 1-d, the gradient itself; None where no
    term is known (2-d, p != 2)."""
    grid = u.grid
    h = grid.spacing
    if grid.dim == 1:
        du = Field.scalar(grid, exact_gradient(u).samples[0])
        c_p = grad_norm ** 2 if p == 2.0 else h * float(np.sum(np.abs(du.samples) ** p))
        corr = c_p * lattice_zeta(1, 1.0 + s * p - p) * h ** (p - s * p)
        if p == 2.0:
            c_4 = -(1.0 / 12.0) * _l2_norm(du, Multiplier("exact_gradient")) ** 2
            corr += c_4 * lattice_zeta(1, 2.0 * s - 3.0) * h ** (4.0 - 2.0 * s)
        return corr
    if p != 2.0:
        return None  # directional moments have no isotropic continuation
    return 0.5 * grad_norm ** 2 * lattice_zeta(2, 2.0 * s) * h ** (2.0 - 2.0 * s)


def _resolution_defect(u: Field, grad_norm: float) -> float:
    """Relative gap between one-cell difference energy and the gradient
    energy grad_norm^2, grad_norm = ||grad u||_2.

    Per mode the forward difference carries 4 sin^2(theta h / 2) / h^2 against
    the exact theta^2, so the gap is ~(theta h)^2 / 12 for resolved fields and
    order one when the energy sits at the Nyquist scale.
    """
    grid = u.grid
    arr = u.samples
    hn = grid.spacing ** grid.dim
    spectral = grad_norm ** 2
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
    _require_rank(u, "scalar", "gagliardo seminorm")
    _require_order(s, "s")
    _require_exponent(p, "p")
    if p != 2.0 and u.grid.node_count ** 2 > _PAIR_BUDGET:
        raise ValueError(f"gagliardo seminorm at p != 2 sums every node pair, at most "
                         f"{_PAIR_BUDGET} (1-d N <= 16384, 2-d N <= 128); this grid "
                         f"has {u.grid.node_count ** 2}")
    main = _double_sum(u, p, _periodized_weight(u.grid, u.grid.dim + s * p))
    grad_norm = _l2_norm(u, Multiplier("exact_gradient"))
    defect = _resolution_defect(u, grad_norm)
    # the moment estimate is untrustworthy on fields too rough for the grid:
    # they keep the raw sum, and the report says whether a term was taken off
    correction = (_moment_correction(u, s, p, grad_norm) if defect <= _RESOLUTION_GUARD
                  else None)
    integral = main if correction is None else main - correction
    detail = {"resolution_defect": defect, "correction_applied": correction is not None}
    value = max(integral, 0.0) ** (1.0 / p)
    return NormReport(kind=f"gagliardo(s={s},p={p})", value=value,
                      method="full_double_sum", detail=detail)


def gagliardo_seminorm(u: Field, s: float, p: float) -> float:
    """Seminorm ( double integral of |u(x)-u(y)|^p |x-y|^(-dim-sp) )^(1/p).

    The double integral itself scales like |u|^p, so the 1/p power is what
    makes the result absolutely homogeneous. The lattice sum visits every
    pair offset exactly, with no sampling: at p = 2 through direct's
    real-space correlation of the field with the weight, at any size in 1-d
    and 2-d; at other p by direct pair sums, on grids of at most 2^28 node
    pairs (1-d N <= 16384, 2-d N <= 128). Larger grids raise ValueError.
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
    where the ratio peaks. The region defaults to the whole torus.
    """
    _require_rank(u, "scalar", "holder_seminorm")
    _require_order(mu, "mu")
    grid = u.grid
    h = grid.spacing
    if region is None:
        mask = np.ones(grid.shape, dtype=bool)
    elif 2.0 * region.radius < 4.0 * h:
        raise ValueError("region smaller than 4 grid spacings")
    else:
        mask = region.mask(grid)

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
    """lp norm of the field plus lp norm of its fractional gradient; at p = 2
    the gradient's is a Parseval sum from one forward transform."""
    _require_exponent(p, "p")
    return lp_norm(u, p) + _gradient_norm(u, s, p)


def _gradient_norm(u: Field, s: float, p: float, power: np.ndarray | None = None) -> float:
    """||D^s u||_p; at p = 2 by Parseval (spectral._l2_norm), from power =
    _half_spectrum_power(u) if given."""
    if p == 2.0:
        return _l2_norm(u, Multiplier("riesz_gradient", s), power)
    return lp_norm(riesz_gradient_spectral(u, s), p)


@_table_cache
def _shift_table(grid, shifts: tuple) -> np.ndarray:
    """Read-only (H, M) table of |m_h(k) - 1|^2 / N^dim over the M modes of
    the rfftn half grid (the last axis keeps the columns 0..N/2), one row
    per shift.

    m_h = cos(sigma) e^{i delta} is the multiplier that translate applies,
    from the same core._shift_angles. |m_h - 1|^2 is summed from real and
    imaginary parts written in half-angle sines, which keeps small shifts
    free of cancellation and every entry nonnegative. m_h(-k) =
    conj(m_h(k)), so the table is even in k and the half grid, with each
    column's multiplicity, stands for the full one.
    """
    n = grid.points_per_axis
    table = np.empty((len(shifts), n ** (grid.dim - 1) * (n // 2 + 1)))
    # row by row, so that the temporaries stay one grid in size
    for row, h in zip(table, shifts):
        sigma, delta = (a.ravel() for a in _shift_angles(grid, h))
        cos_sigma = np.cos(sigma)
        re = 2.0 * (cos_sigma * np.sin(0.5 * delta) ** 2 + np.sin(0.5 * sigma) ** 2)
        im = cos_sigma * np.sin(delta)
        row[:] = (re * re + im * im) / grid.node_count
    table.flags.writeable = False
    return table


def translation_modulus(u: Field, p: float, h_list) -> list:
    """[(h, ||u(.+h) - u||_p)] for each shift in h_list, |h| < extent/4
    (core._require_shift), order preserved.

    At p = 2 every shift comes from one forward transform of u, by
    Parseval: ||u(.+h) - u||_2^2 = (h^n / N^n) sum_k |u_hat(k)|^2 |m_h(k) - 1|^2,
    with m_h = cos(sigma) e^{i delta} the multiplier translate applies (see
    core._shift_angles); the sum runs over the rfftn half grid, each column
    weighted by its multiplicity. Lattice shifts agree with translate's
    exact permutation to round-off. Other p evaluate translate(u, h) - u.
    """
    _require_exponent(p, "p")
    h_list = list(h_list)
    shifts = [_require_shift(u.grid, h, 4) for h in h_list]
    power = _half_spectrum_power(u) if p == 2.0 else None
    return list(zip(h_list, _moduli(u, p, shifts, power)))


def _moduli(u: Field, p: float, shifts, power) -> list:
    """||u(.+h) - u||_p, by translation_modulus's rule, for each flat shift h
    that core._require_shift(grid, h, 4) has passed; power is
    _half_spectrum_power(u) at p = 2 and unused at other p."""
    grid = u.grid
    if p != 2.0:
        return [lp_norm(_translated(u, v) - u, p) for v in shifts]
    table = _shift_table(grid, tuple(tuple(v.tolist()) for v in shifts))
    squares = grid.spacing ** grid.dim * (table @ power.ravel())
    return [math.sqrt(v) for v in squares]


def _gradient_and_moduli(u: Field, s: float, p: float, shifts) -> tuple:
    """(||D^s u||_p, _moduli(u, p, shifts)); at p = 2 both sum one
    half-spectrum power of u. Refuses p, s and u's rank before any transform."""
    _require_exponent(p, "p")
    _require_input(u, Multiplier("riesz_gradient", s))
    power = _half_spectrum_power(u) if p == 2.0 else None
    return _gradient_norm(u, s, p, power), _moduli(u, p, shifts, power)
