"""Fourier-multiplier operators on the periodic grid.

Conventions: unnormalized forward transform, 1/N^dim inverse (numpy
default), frequencies xi = k/L in cycles per unit length, symbols written
in 2 pi xi.  All symbols preserve conjugate symmetry so real fields map
to real fields; the residual imaginary part is checked and discarded.

On an even grid the mode k_j = -N/2 has no +N/2 partner, so a literal odd
symbol would push energy out of the conjugate-symmetric subspace.  Odd
symbols (gradient, reconstruction kernel) therefore switch to their real
magnitude on that hyperplane, component by component.  This keeps the
gradient/kernel symbol product identically 1 on every nonzero mode,
including Nyquist, and keeps the divergence dual to the gradient exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Field, GridSpec, _table_cache, lp_norm

__all__ = [
    "Multiplier",
    "apply_multiplier",
    "bessel_potential",
    "bessel_norm",
    "riesz_gradient_spectral",
    "riesz_divergence_spectral",
    "ftc_kernel_apply",
    "exact_gradient",
]

_IMAG_RESIDUE_TOL = 1e-10

# kind -> (input rank, output rank)
_RANKS = {
    "bessel": ("scalar", "scalar"),
    "exact_gradient": ("scalar", "vector"),
    "riesz_gradient": ("scalar", "vector"),
    "riesz_divergence": ("vector", "scalar"),
    "ftc_kernel": ("vector", "scalar"),
}


@dataclass(frozen=True)
class Multiplier:
    """A diagonal Fourier symbol. kind selects the formula, param its order."""

    kind: str
    param: float = 0.0

    @staticmethod
    def bessel(s: float) -> "Multiplier":
        _require_finite("bessel order s", s)
        return Multiplier("bessel", float(s))

    @staticmethod
    def riesz_gradient(s: float) -> "Multiplier":
        _require_order(s)
        return Multiplier("riesz_gradient", float(s))

    @staticmethod
    def riesz_divergence(s: float) -> "Multiplier":
        _require_order(s)
        return Multiplier("riesz_divergence", float(s))

    @staticmethod
    def ftc_kernel(s: float) -> "Multiplier":
        _require_order(s)
        return Multiplier("ftc_kernel", float(s))


_EXACT_GRADIENT = Multiplier("exact_gradient")


def _require_finite(name: str, s: float):
    if not math.isfinite(s):
        raise ValueError(f"{name} must be finite, got {s}")


def _require_order(s: float):
    if not 0.0 < s < 1.0:
        raise ValueError(f"operator order s must lie in (0,1), got {s}")


# ---------------------------------------------------------------------------
# symbol tables, cached per (multiplier, grid) and read-only


def _freq_grids(grid: GridSpec):
    comps = np.meshgrid(*grid.freq_axes(), indexing="ij")
    return comps, np.sqrt(sum(c ** 2 for c in comps))


def _nyquist_mask(grid: GridSpec, axis: int) -> np.ndarray:
    n = grid.points_per_axis
    idx = np.arange(n) == n // 2
    if grid.dim == 1:
        return idx
    if axis == 0:
        return np.broadcast_to(idx[:, None], (n, n))
    return np.broadcast_to(idx[None, :], (n, n))


def _odd_component_tables(grid: GridSpec, magnitude_exponent: float):
    """Vector of tables i * 2pi xi_j * |2pi xi|^(e) with Nyquist realification
    and the zero mode set to 0."""
    comps, mag = _freq_grids(grid)
    safe = np.where(mag > 0, mag, 1.0)
    radial = (2.0 * math.pi * safe) ** magnitude_exponent
    tables = []
    for j, cj in enumerate(comps):
        t = 2j * math.pi * cj * radial
        nyq = _nyquist_mask(grid, j)
        t = np.where(nyq, 2.0 * math.pi * np.abs(cj) * radial, t)
        t[mag == 0] = 0.0
        tables.append(t.astype(np.complex128))
    return tables


def _build_tables(m: Multiplier, grid: GridSpec):
    kind, s = m.kind, m.param
    if kind == "bessel":
        _, mag = _freq_grids(grid)
        t = (1.0 + 4.0 * math.pi ** 2 * mag ** 2) ** (-s / 2.0)
        return [t.astype(np.complex128)]
    if kind == "exact_gradient":
        return _gradient_tables(grid)
    if kind == "riesz_gradient":
        # component j: 2 pi i xi_j |2 pi xi|^(s-1)
        return _odd_component_tables(grid, s - 1.0)
    if kind == "riesz_divergence":
        # dual to the gradient: componentwise -conj of the gradient symbol
        grad = _symbol_tables(Multiplier.riesz_gradient(s), grid)
        return [-np.conj(t) for t in grad]
    if kind == "ftc_kernel":
        # component j: -i (xi_j/|xi|) |2 pi xi|^(-s) = conj(grad_j) / |2 pi xi|
        return [np.conj(t) for t in _odd_component_tables(grid, -s - 1.0)]
    raise ValueError(f"unknown multiplier kind {kind!r}")


def _gradient_tables(grid: GridSpec) -> list:
    """Component j: 2 pi i xi_j, zero on the Nyquist plane of axis j."""
    comps, _ = _freq_grids(grid)
    tables = []
    for j, cj in enumerate(comps):
        t = (2j * math.pi * cj).astype(np.complex128)
        t[_nyquist_mask(grid, j)] = 0.0
        tables.append(t)
    return tables


def _finite_tables(m: Multiplier, grid: GridSpec) -> tuple:
    """m's tables on grid, built without the cache; raises if one overflows."""
    with np.errstate(over="ignore"):
        tables = tuple(_build_tables(m, grid))
    for t in tables:
        if not np.all(np.isfinite(t)):
            raise ValueError(f"{m.kind} symbol of order {m.param} overflows on this grid")
    return tables


@_table_cache
def _symbol_tables(m: Multiplier, grid: GridSpec) -> tuple:
    tables = _finite_tables(m, grid)
    for t in tables:
        t.flags.writeable = False
    return tables


# ---------------------------------------------------------------------------
# application


def _to_real(spec_arr: np.ndarray, scale: float, m: Multiplier) -> np.ndarray:
    out = np.fft.ifftn(spec_arr)
    re, im = out.real, out.imag
    with np.errstate(over="ignore"):
        ref = float(np.linalg.norm(re)) + 1e-300
    if not math.isfinite(ref):
        # past this point the residue check below could never fire
        raise ValueError(f"{m.kind} of order {m.param} overflows: output norm is not finite")
    residue = float(np.linalg.norm(im)) / max(ref, scale)
    if residue > _IMAG_RESIDUE_TOL:
        # every symbol is conjugate symmetric, so this is round-off amplified
        # by a large symbol, e.g. a Bessel potential of strongly negative order
        raise ValueError(f"{m.kind} of order {m.param} loses precision: imaginary residue "
                         f"{residue:.1e} of the output exceeds {_IMAG_RESIDUE_TOL:g}")
    return np.ascontiguousarray(re)


def apply_multiplier(u: Field, m: Multiplier) -> Field:
    """Diagonal action in frequency space; returns the real part."""
    grid = u.grid
    tables = _symbol_tables(m, grid)
    input_rank, output_rank = _RANKS[m.kind]
    if u.rank != input_rank:
        raise ValueError(f"multiplier {m.kind} expects a {input_rank} field")
    scale = float(np.linalg.norm(u.samples))
    if input_rank == "scalar":
        spec = np.fft.fftn(u.samples)
        if output_rank == "scalar":
            return Field.scalar(grid, _to_real(tables[0] * spec, scale, m))
        comps = [_to_real(t * spec, scale, m) for t in tables]
        return Field.vector(grid, np.stack(comps))
    # vector input contracts against one table per component
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for t, comp in zip(tables, u.samples):
        acc += t * np.fft.fftn(comp)
    return Field.scalar(grid, _to_real(acc, scale, m))


def bessel_potential(u: Field, s: float) -> Field:
    """Smoothing of order s: symbol (1 + 4 pi^2 |xi|^2)^(-s/2); any real s."""
    return apply_multiplier(u, Multiplier.bessel(s))


def bessel_norm(u: Field, s: float, p: float) -> float:
    """L^p norm of the order -s potential (the H^{s,p} norm of u)."""
    _require_order(s)
    return lp_norm(bessel_potential(u, -s), p)


def riesz_gradient_spectral(u: Field, s: float) -> Field:
    """Fractional gradient of order s in (0,1); annihilates the mean."""
    return apply_multiplier(u, Multiplier.riesz_gradient(s))


def riesz_divergence_spectral(psi: Field, s: float) -> Field:
    """Fractional divergence, the exact negative adjoint of the gradient."""
    return apply_multiplier(psi, Multiplier.riesz_divergence(s))


def ftc_kernel_apply(g: Field, s: float) -> Field:
    """Convolution with the reconstruction kernel; inverts the gradient off the mean."""
    return apply_multiplier(g, Multiplier.ftc_kernel(s))


def exact_gradient(u: Field) -> Field:
    """Collocation derivative, symbol 2 pi i xi_j (zero at the Nyquist column)."""
    return apply_multiplier(u, _EXACT_GRADIENT)


@_table_cache
def _half_grid_tables(grid: GridSpec) -> tuple:
    """(|2 pi xi|, multiplicity per column, exact_gradient's symbols
    stacked on a leading axis) on the rfftn half grid, whose last axis keeps
    the columns 0..N/2; read-only.

    A real field has u_hat(-k) = conj(u_hat(k)), so a full-grid sum of
    |u_hat|^2 times an even function of k is the half-grid sum weighted by
    the multiplicity: 1 on the zero and Nyquist columns, 2 elsewhere.
    """
    n = grid.points_per_axis
    half = (..., slice(0, n // 2 + 1))
    _, mag = _freq_grids(grid)
    mags = np.ascontiguousarray(2.0 * math.pi * mag[half])
    mult = np.ones(n // 2 + 1)
    mult[1:(n + 1) // 2] = 2.0
    grads = np.stack([t[half] for t in _finite_tables(_EXACT_GRADIENT, grid)])
    for t in (mags, mult, grads):
        t.flags.writeable = False
    return mags, mult, grads
