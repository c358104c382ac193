"""Fourier-multiplier operators on the periodic grid.

Conventions: unnormalized forward transform, 1/N^dim inverse (numpy
default), frequencies xi = k/L in cycles per unit length, symbols written
in 2 pi xi.  Every symbol is conjugate symmetric, T(-k) = conj T(k), which
is checked when its table is built, so real fields map to real fields and
every transform is a half-spectrum rfftn/irfftn: the tables keep only the
columns 0..N/2 of the last axis.

On an even grid the mode k_j = -N/2 has no +N/2 partner, so a literal odd
symbol would push energy out of the conjugate-symmetric subspace.  Odd
symbols (gradient, reconstruction kernel) therefore switch to their real
magnitude on that hyperplane, component by component.  This keeps the
gradient/kernel symbol product identically 1 on every nonzero mode,
including Nyquist, and keeps the divergence dual to the gradient exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .core import (Field, GridSpec, _require_exponent, _require_order, _require_rank,
                   _table_cache, lp_norm)

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

_PRECISION_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Multiplier:
    """A diagonal Fourier symbol. kind selects the formula, param its order;
    an unknown kind, an order that is not a real number and one that _KINDS
    does not admit are refused here."""

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown multiplier kind {self.kind!r}")
        if isinstance(self.param, bool) or not isinstance(self.param, numbers.Real):
            raise ValueError(f"multiplier order must be a real number, got {self.param!r}")
        object.__setattr__(self, "param", float(self.param))
        _KINDS[self.kind].require(self.param)


# ---------------------------------------------------------------------------
# symbol tables, cached per (multiplier, grid) and read-only


def _freq_grids(grid: GridSpec):
    comps = np.meshgrid(*grid.freq_axes(), indexing="ij")
    return comps, np.sqrt(sum(c ** 2 for c in comps))


def _odd_component_tables(grid: GridSpec, magnitude_exponent: float):
    """Vector of tables i * 2pi xi_j * |2pi xi|^(e) with Nyquist realification
    and the zero mode set to 0."""
    comps, mag = _freq_grids(grid)
    safe = np.where(mag > 0, mag, 1.0)
    radial = (2.0 * math.pi * safe) ** magnitude_exponent
    tables = []
    for cj in comps:
        t = 2j * math.pi * cj * radial
        t = np.where(cj == cj.min(), 2.0 * math.pi * np.abs(cj) * radial, t)
        t[mag == 0] = 0.0
        tables.append(t.astype(np.complex128))
    return tables


def _bessel_tables(grid: GridSpec, s: float) -> list:
    _, mag = _freq_grids(grid)
    t = (1.0 + 4.0 * math.pi ** 2 * mag ** 2) ** (-s / 2.0)
    return [t.astype(np.complex128)]


def _gradient_tables(grid: GridSpec) -> list:
    """Component j: 2 pi i xi_j, zero on the Nyquist plane of axis j."""
    comps, _ = _freq_grids(grid)
    tables = []
    for cj in comps:
        t = (2j * math.pi * cj).astype(np.complex128)
        t[cj == cj.min()] = 0.0
        tables.append(t)
    return tables


def _finite_order(s: float) -> None:
    if not math.isfinite(s):
        raise ValueError(f"bessel order s must be finite, got {s}")


def _no_order(s: float) -> None:
    if s != 0.0:
        raise ValueError(f"exact_gradient takes no order, got {s}")


_unit_order = partial(_require_order, name="s")


class _Kind(NamedTuple):
    input_rank: str
    output_rank: str
    require: Callable[[float], None]  # refuses an order the kind does not admit
    tables: Callable[[GridSpec, float], list]  # full-grid symbol, a table per component


# every operator kind, declared once: a new operator is one more row
_KINDS = {
    "bessel": _Kind("scalar", "scalar", _finite_order, _bessel_tables),
    "exact_gradient": _Kind("scalar", "vector", _no_order, lambda grid, s: _gradient_tables(grid)),
    # component j: 2 pi i xi_j |2 pi xi|^(s-1)
    "riesz_gradient": _Kind("scalar", "vector", _unit_order,
                            lambda grid, s: _odd_component_tables(grid, s - 1.0)),
    # dual to the gradient: componentwise -conj of the gradient symbol
    "riesz_divergence": _Kind("vector", "scalar", _unit_order, lambda grid, s: [
        -np.conj(t) for t in _odd_component_tables(grid, s - 1.0)]),
    # component j: -i (xi_j/|xi|) |2 pi xi|^(-s) = conj(grad_j) / |2 pi xi|
    "ftc_kernel": _Kind("vector", "scalar", _unit_order, lambda grid, s: [
        np.conj(t) for t in _odd_component_tables(grid, -s - 1.0)]),
}


@_table_cache
def _symbol_tables(m: Multiplier, grid: GridSpec) -> tuple:
    """(tables, rms): m's tables on the rfftn half grid, whose last axis keeps
    the columns 0..N/2, stacked on a leading axis of components and
    read-only; and rms|T| over every component and every full-grid mode.

    Raises if a table overflows, or if it is not conjugate symmetric,
    T(-k) = conj T(k): only then does the half grid determine it and map
    real fields to real fields.
    """
    n = grid.points_per_axis
    with np.errstate(over="ignore"):
        full = _KINDS[m.kind].tables(grid, m.param)
    rms = []
    for t in full:
        if not np.all(np.isfinite(t)):
            raise ValueError(f"{m.kind} symbol of order {m.param} overflows on this grid")
        # flipped and rolled by one, the table holds T(-k mod N) at k
        if not np.array_equal(np.roll(np.flip(t), 1, axis=tuple(range(grid.dim))), np.conj(t)):
            raise ValueError(f"{m.kind} symbol of order {m.param} is not conjugate symmetric")
        # inf past |T| ~ 1e154, and then every nonzero input is refused
        with np.errstate(over="ignore"):
            rms.append(float(np.linalg.norm(t)) / math.sqrt(t.size))
    tables = np.stack([t[..., :n // 2 + 1] for t in full])
    tables.flags.writeable = False
    return tables, math.hypot(*rms)


# ---------------------------------------------------------------------------
# application


def _axes(grid: GridSpec) -> tuple:
    return tuple(range(-grid.dim, 0))


def _to_real(spec_arr: np.ndarray, grid: GridSpec) -> np.ndarray:
    # an overflow is named by _require_precision, not warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.irfftn(spec_arr, s=grid.shape, axes=_axes(grid))


def _require_precision(out: np.ndarray, scale: float, rms: float, m: Multiplier):
    """Raise if the output overflowed, or if transform round-off amplified by
    the symbol may exceed _PRECISION_TOL of the output or the input."""
    with np.errstate(over="ignore"):
        ref = float(np.linalg.norm(out))
    if not math.isfinite(ref):
        raise ValueError(f"{m.kind} of order {m.param} overflows: output norm is not finite")
    # round-off of the forward transform is spread over every mode, and the
    # symbol multiplies it by rms|T| on average, e.g. a Bessel potential of
    # strongly negative order
    bound = _EPS * rms * scale / (max(ref, scale) or 1.0)
    if bound > _PRECISION_TOL:
        raise ValueError(f"{m.kind} of order {m.param} loses precision: round-off bound "
                         f"{bound:.1e} of the output exceeds {_PRECISION_TOL:g}")


def apply_multiplier(u: Field, m: Multiplier) -> Field:
    """Diagonal action in frequency space, on the rfftn half spectrum."""
    input_rank, output_rank, *_ = _KINDS[m.kind]
    _require_rank(u, input_rank, f"multiplier {m.kind}")
    grid = u.grid
    tables, rms = _symbol_tables(m, grid)
    axes = _axes(grid)
    if input_rank == "scalar":
        spec = np.fft.rfftn(u.samples, axes=axes)
        comps = [_to_real(t * spec, grid) for t in tables]
    else:
        # vector input contracts against one table per component
        acc = sum(t * np.fft.rfftn(comp, axes=axes) for t, comp in zip(tables, u.samples))
        comps = [_to_real(acc, grid)]
    samples = comps[0] if output_rank == "scalar" else np.stack(comps)
    _require_precision(samples, float(np.linalg.norm(u.samples)), rms, m)
    return Field(grid=grid, rank=output_rank, samples=samples)


def bessel_potential(u: Field, s: float) -> Field:
    """Smoothing of order s: symbol (1 + 4 pi^2 |xi|^2)^(-s/2); any real s."""
    return apply_multiplier(u, Multiplier("bessel", s))


def bessel_norm(u: Field, s: float, p: float) -> float:
    """L^p norm of the order -s potential (the H^{s,p} norm of u)."""
    _require_order(s, "s")
    _require_exponent(p, "p")
    return lp_norm(bessel_potential(u, -s), p)


def riesz_gradient_spectral(u: Field, s: float) -> Field:
    """Fractional gradient of order s in (0,1); annihilates the mean."""
    return apply_multiplier(u, Multiplier("riesz_gradient", s))


def riesz_divergence_spectral(psi: Field, s: float) -> Field:
    """Fractional divergence, the exact negative adjoint of the gradient."""
    return apply_multiplier(psi, Multiplier("riesz_divergence", s))


def ftc_kernel_apply(g: Field, s: float) -> Field:
    """Convolution with the reconstruction kernel; inverts the gradient off the mean."""
    return apply_multiplier(g, Multiplier("ftc_kernel", s))


def exact_gradient(u: Field) -> Field:
    """Collocation derivative, symbol 2 pi i xi_j (zero at the Nyquist column)."""
    return apply_multiplier(u, Multiplier("exact_gradient"))


@_table_cache
def _half_grid_tables(grid: GridSpec) -> tuple:
    """(|2 pi xi|, exact_gradient's symbols stacked on a leading axis) on
    the rfftn half grid, whose last axis keeps the columns 0..N/2; read-only."""
    n = grid.points_per_axis
    _, mag = _freq_grids(grid)
    mags = np.ascontiguousarray(2.0 * math.pi * mag[..., :n // 2 + 1])
    mags.flags.writeable = False
    return mags, _symbol_tables(Multiplier("exact_gradient"), grid)[0]


def _half_spectrum_power(u: Field) -> np.ndarray:
    """|rfftn(u)|^2 on the half grid, summed over a vector field's components
    and weighted by each column's multiplicity, so that its sum against an
    even function of k is the full grid's sum of |fftn(u)|^2 against it.

    A real field has u_hat(-k) = conj(u_hat(k)), so the multiplicity is 1
    on the zero and Nyquist columns and 2 on the columns 1..(N-1)/2 between.
    """
    power = np.abs(np.fft.rfftn(u.samples, axes=_axes(u.grid))) ** 2
    if u.rank == "vector":
        power = power.sum(axis=0)
    power[..., 1:(u.grid.points_per_axis + 1) // 2] *= 2.0
    return power
