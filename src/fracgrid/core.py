"""Periodic grids, sampled fields, and the shared test-function corpus.

Everything downstream works on a uniform grid over the torus of period L
(dimension 1 or 2), with nodes x_j = (j - N/2) h, h = L/N.  Compactly
supported test functions live in the centered box of half-width L/4, so
that periodic wrap-around stays numerically invisible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "Region",
    "CorpusEntry",
    "make_grid",
    "sample_corpus",
    "lacunary_field",
    "lp_norm",
    "translate",
    "remove_mean",
    "write_field",
    "read_field",
    "FieldFileError",
]


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: `points_per_axis` nodes per axis, period `extent`."""

    dim: int
    points_per_axis: int
    extent: float

    @property
    def spacing(self) -> float:
        return self.extent / self.points_per_axis

    @property
    def node_count(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def shape(self):
        return (self.points_per_axis,) * self.dim

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis, centered: (j - N/2) h."""
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.spacing

    def coords(self):
        """Tuple of dim coordinate arrays, meshgrid 'ij' layout."""
        ax = self.axis()
        if self.dim == 1:
            return (ax,)
        return tuple(np.meshgrid(ax, ax, indexing="ij"))

    def radius(self) -> np.ndarray:
        """Distance from the origin at every node."""
        c = self.coords()
        if self.dim == 1:
            return np.abs(c[0])
        return np.sqrt(c[0] ** 2 + c[1] ** 2)

    def freq_axes(self):
        """Frequencies xi = k/L along each axis, fft ordering (cycles per unit length)."""
        f = np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        return (f,) * self.dim


# the one cache policy for the spectral, quadrature and Gagliardo tables and
# the gamma constants and lattice sums: least recently used, 64 entries per
# builder. The default 1-d and 2-d suites each hold 19 symbol and 6 quadrature
# entries (at most 19 per builder), and a ladder pass 19 symbol and 38
# quadrature entries, so neither evicts.
_table_cache = lru_cache(maxsize=64)


def make_grid(dim: int, points_per_axis: int, extent: float) -> GridSpec:
    if dim not in (1, 2):
        raise ValueError(f"unsupported dimension {dim}, expected 1 or 2")
    n = points_per_axis
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"points_per_axis must be a power of two >= 16, got {n}")
    if not (extent > 0 and math.isfinite(extent)):
        raise ValueError(f"extent must be positive and finite, got {extent}")
    return GridSpec(dim=dim, points_per_axis=int(n), extent=float(extent))


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class Field:
    """Real samples of a scalar or vector function on a GridSpec.

    Scalar samples have shape grid.shape; vector samples are stored
    components-first with shape (dim,) + grid.shape.  Samples are frozen
    after construction: every operation returns a new Field.
    """

    grid: GridSpec
    rank: str  # "scalar" | "vector"
    samples: np.ndarray

    def __post_init__(self):
        if self.rank not in ("scalar", "vector"):
            raise ValueError(f"rank must be 'scalar' or 'vector', got {self.rank!r}")
        want = self.grid.shape if self.rank == "scalar" else (self.grid.dim,) + self.grid.shape
        arr = np.ascontiguousarray(self.samples, dtype=np.float64)
        if arr.shape != want:
            raise ValueError(f"samples shape {arr.shape} does not match {want}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples contain NaN or Inf")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @staticmethod
    def scalar(grid: GridSpec, samples) -> "Field":
        return Field(grid=grid, rank="scalar", samples=np.asarray(samples))

    @staticmethod
    def vector(grid: GridSpec, samples) -> "Field":
        return Field(grid=grid, rank="vector", samples=np.asarray(samples))

    def with_samples(self, samples) -> "Field":
        return Field(grid=self.grid, rank=self.rank, samples=samples)

    # small pointwise algebra; shapes and grids must match exactly
    def __add__(self, other: "Field") -> "Field":
        self._compat(other)
        return self.with_samples(self.samples + other.samples)

    def __sub__(self, other: "Field") -> "Field":
        self._compat(other)
        return self.with_samples(self.samples - other.samples)

    def __mul__(self, c: float) -> "Field":
        return self.with_samples(self.samples * float(c))

    __rmul__ = __mul__

    def _compat(self, other: "Field"):
        if self.grid != other.grid or self.rank != other.rank:
            raise ValueError("field algebra requires matching grid and rank")

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean magnitude (abs for scalars)."""
        if self.rank == "scalar":
            return np.abs(self.samples)
        return np.sqrt(np.sum(self.samples ** 2, axis=0))


def remove_mean(u: Field) -> Field:
    if u.rank != "scalar":
        raise ValueError("remove_mean expects a scalar field")
    return u.with_samples(u.samples - u.samples.mean())


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Region:
    """Integration subdomain: the whole torus or a centered ball."""

    kind: str  # "full_torus" | "centered_ball"
    radius: float = 0.0

    @staticmethod
    def full_torus() -> "Region":
        return Region(kind="full_torus")

    @staticmethod
    def centered_ball(radius: float) -> "Region":
        if not radius > 0:
            raise ValueError("ball radius must be positive")
        return Region(kind="centered_ball", radius=float(radius))

    def mask(self, grid: GridSpec) -> np.ndarray:
        if self.kind == "full_torus":
            return np.ones(grid.shape, dtype=bool)
        if self.radius >= grid.extent / 2.0:
            raise ValueError("ball radius must lie strictly inside the period")
        return grid.radius() <= self.radius


# ---------------------------------------------------------------------------
# corpus

_SUPPORT_FRACTION = 0.88  # windows are identically 1 inside this fraction of L/4


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def _support_window(grid: GridSpec, r_off: float) -> np.ndarray:
    """Radial window, 1 on r <= r_on = _SUPPORT_FRACTION r_off, 0 on
    r >= r_off, smooth in between."""
    r_on = _SUPPORT_FRACTION * r_off
    r = grid.radius()
    return _smooth_step((r_off - r) / (r_off - r_on))


@dataclass(frozen=True)
class CorpusEntry:
    label: str
    family: str
    field: Field
    smooth: bool


def _gaussian(grid, sigma):
    r = grid.radius()
    return np.exp(-(r ** 2) / (2.0 * sigma ** 2)) * _support_window(grid, grid.extent / 4.0)


def _bump(grid, radius, smoothness):
    r = grid.radius()
    t = np.clip(r / radius, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        v = np.where(t < 1.0, np.exp(smoothness - smoothness / np.maximum(1.0 - t ** 2, 1e-300)), 0.0)
    return v


def _power_tail(grid, a, cutoff):
    # |x|^{-a} with the center node replaced by the exact cell average, then
    # windowed to vanish at the cutoff radius
    r = grid.radius()
    h = grid.spacing
    with np.errstate(divide="ignore"):
        v = np.where(r > 0, r, 1.0) ** (-a)
    if grid.dim == 1:
        cap = (h / 2.0) ** (-a) / (1.0 - a)
    else:
        cap = 2.0 * math.pi ** (a / 2.0) * h ** (-a) / (2.0 - a)
    v = np.where(r > 0, v, cap)
    return v * _support_window(grid, cutoff)


def _oscillatory(grid, k, sigma):
    x0 = grid.coords()[0]
    env = np.exp(-(grid.radius() ** 2) / (2.0 * sigma ** 2))
    return np.cos(2.0 * math.pi * k * x0 / grid.extent) * env * _support_window(grid, grid.extent / 4.0)


def _random_bandlimited(grid, rng, band_lo, band_hi):
    """Real field with random spectrum supported on band_lo <= |k| <= band_hi."""
    n = grid.points_per_axis
    coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    k = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers
    if grid.dim == 1:
        kk = np.abs(k)
    else:
        kx, ky = np.meshgrid(k, k, indexing="ij")
        kk = np.sqrt(kx ** 2 + ky ** 2)
    coef[(kk < band_lo) | (kk > band_hi)] = 0.0
    v = np.fft.ifftn(coef).real  # real part enforces conjugate symmetry
    peak = np.max(np.abs(v))
    return v / peak if peak > 0 else v


def sample_corpus(grid: GridSpec, seed: int) -> list:
    """Deterministic list of 8 test functions, at least one per family.

    Entries flagged smooth have rapidly decaying spectra; the power_tail
    entries have an algebraic singularity at the origin (finite L^p and
    D^s norms on the grid, large translation ratios).
    """
    rng = np.random.default_rng(seed)
    L = grid.extent
    entries = [
        CorpusEntry("gaussian", "gaussian(sigma=1.0)",
                    Field.scalar(grid, _gaussian(grid, 1.0)), True),
        CorpusEntry("gaussian_narrow", f"gaussian(sigma={L / 29.0:.6g})",
                    Field.scalar(grid, _gaussian(grid, L / 29.0)), True),
        CorpusEntry("bump", f"bump(radius={0.8 * L / 4.0:.6g}, smoothness=1.0)",
                    Field.scalar(grid, _bump(grid, 0.8 * L / 4.0, 1.0)), True),
        CorpusEntry("oscillatory", f"oscillatory(k=3, sigma={L / 12.0:.6g})",
                    Field.scalar(grid, _oscillatory(grid, 3, L / 12.0)), True),
        CorpusEntry("bandlimited_low", "random_bandlimited(band=[1,6])",
                    Field.scalar(grid, _random_bandlimited(grid, rng, 1, 6)), True),
        CorpusEntry("bandlimited_mid", "random_bandlimited(band=[4,12])",
                    Field.scalar(grid, _random_bandlimited(grid, rng, 4, 12)), True),
        CorpusEntry("powertail_mild", f"power_tail(a=0.25, cutoff={L / 8.0:.6g})",
                    Field.scalar(grid, _power_tail(grid, 0.25, L / 8.0)), False),
        CorpusEntry("powertail_steep", f"power_tail(a=0.45, cutoff={L / 8.0:.6g})",
                    Field.scalar(grid, _power_tail(grid, 0.45, L / 8.0)), False),
    ]
    half_box = grid.extent / 4.0
    outside = np.zeros(grid.shape, dtype=bool)
    for c in grid.coords():
        outside |= np.abs(c) >= half_box
    for e in entries:
        if e.family.startswith("random_bandlimited"):
            continue
        peak = np.max(np.abs(e.field.samples))
        leak = np.max(np.abs(e.field.samples[outside])) if np.any(outside) else 0.0
        assert leak <= 1e-12 * peak, f"corpus entry {e.label} leaks outside the support box"
    return entries


def lacunary_field(grid: GridSpec, s: float, seed: int = 0) -> Field:
    """Dyadic cosine sum sum_j 2^(-j s) cos(2 pi 2^j x1/L + phi_j).

    Its L^p translation modulus scales like t^s uniformly over octaves,
    which makes it the natural probe for translation estimates; smooth
    families decay like t and saturate nothing.
    """
    if not 0 < s < 1:
        raise ValueError("s must lie in (0,1)")
    rng = np.random.default_rng(seed)
    n = grid.points_per_axis
    x0 = grid.coords()[0]
    j_max = int(math.log2(n // 4))
    v = np.zeros(grid.shape)
    for j in range(j_max + 1):
        m = 2 ** j
        phi = rng.uniform(0.0, 2.0 * math.pi)
        v += m ** (-s) * np.cos(2.0 * math.pi * m * x0 / grid.extent + phi)
    return Field.scalar(grid, v)


# ---------------------------------------------------------------------------
# norms and shifts


_NORMAL_RANGE = (np.finfo(float).tiny, np.finfo(float).max)


def _lp_roots(sums, mags: np.ndarray, p: float, vol: float):
    """Midpoint-rule L^p norms (vol * sums)^(1/p) of the rows of the
    nonnegative mags (last axis), given their p-th-power sums; a scalar sum
    gives a 0-d result. A row whose vol * sum is not a normal number (0 or
    subnormal under a nonzero entry, or inf) is recomputed scaled by its max
    m, as m (vol sum (mags/m)^p)^(1/p); only those rows pay for the max, and
    every other row keeps the bits of the plain formula."""
    lo, hi = _NORMAL_RANGE
    with np.errstate(over="ignore"):
        integrals = vol * sums
    norms = integrals ** (1.0 / p)
    flat = np.reshape(integrals, -1)
    if all(lo <= v <= hi for v in flat.tolist()):
        return norms
    norms = np.array(norms, dtype=float)
    bad = np.flatnonzero(~((flat >= lo) & (flat <= hi)))
    rows = np.reshape(mags, (flat.size, -1))[bad]
    top = np.max(rows, axis=1, initial=0.0)
    live = top > 0.0
    scaled = np.sum((rows[live] / top[live, None]) ** p, axis=1)
    norms.reshape(-1)[bad[live]] = top[live] * (vol * scaled) ** (1.0 / p)
    return norms


def lp_norm(u: Field, p: float, region: Region = None) -> float:
    """Midpoint-rule L^p norm over the region, default the whole torus
    (Euclidean magnitude for vectors)."""
    if not np.isfinite(p) or p < 1:
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    mag = u.magnitude()
    if region is not None:
        mag = mag[region.mask(u.grid)]
    with np.errstate(over="ignore"):
        total = np.sum(mag ** p)
    return float(_lp_roots(total, mag, p, u.grid.spacing ** u.grid.dim))


def _shift_axis_counts(grid: GridSpec, h_vec) -> tuple:
    """Integer node shifts if h is a lattice vector, else None."""
    counts = []
    for comp in h_vec:
        c = comp / grid.spacing
        ci = round(c)
        if abs(c - ci) > 1e-12:
            return None
        counts.append(int(ci))
    return tuple(counts)


def translate(u: Field, h) -> Field:
    """Periodic shift u(. + h); exact spectral phase shift off the lattice."""
    h_vec = np.atleast_1d(np.asarray(h, dtype=float))
    if h_vec.size != u.grid.dim:
        raise ValueError(f"shift has {h_vec.size} components, grid has dim {u.grid.dim}")
    if not np.linalg.norm(h_vec) < u.grid.extent / 2.0:  # also false for NaN
        raise ValueError(f"shift must be finite with magnitude below extent/2, got {h}")

    def shift_scalar(arr):
        counts = _shift_axis_counts(u.grid, h_vec)
        if counts is not None:
            # u(x + h) with h = k h_grid is a cyclic permutation, exact
            out = arr
            for ax, k in enumerate(counts):
                out = np.roll(out, -k, axis=ax)
            return out
        spec = np.fft.fftn(arr)
        for ax, (f, comp) in enumerate(zip(u.grid.freq_axes(), h_vec)):
            shape = [1] * u.grid.dim
            shape[ax] = -1
            spec = spec * np.exp(2j * math.pi * f * comp).reshape(shape)
        return np.fft.ifftn(spec).real

    if u.rank == "scalar":
        return u.with_samples(shift_scalar(u.samples))
    return u.with_samples(np.stack([shift_scalar(c) for c in u.samples]))


# ---------------------------------------------------------------------------
# serialization: flat little-endian float64 payload plus a JSON header


def write_field(u: Field, path_base) -> tuple:
    path_base = str(path_base)
    header = {
        "dim": u.grid.dim,
        "points_per_axis": u.grid.points_per_axis,
        "extent": u.grid.extent,
        "rank": u.rank,
    }
    bin_path = path_base + ".bin"
    json_path = path_base + ".json"
    u.samples.astype("<f8").tofile(bin_path)
    with open(json_path, "w") as fh:
        json.dump(header, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return bin_path, json_path


class FieldFileError(ValueError):
    """A field file pair that exists but is corrupt: bad header or payload."""


_HEADER_TYPES = {"dim": (int,), "points_per_axis": (int,),
                 "extent": (int, float), "rank": (str,)}


def _read_header(json_path: str) -> dict:
    try:
        with open(json_path) as fh:
            header = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise FieldFileError(f"{json_path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FieldFileError(f"{json_path}: header must be a JSON object")
    for key, types in _HEADER_TYPES.items():
        if key not in header:
            raise FieldFileError(f"{json_path}: header lacks {key!r}")
        value = header[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise FieldFileError(f"{json_path}: header {key!r} has invalid value {value!r}")
    return header


def read_field(path_base) -> Field:
    """Inverse of write_field. Corrupt files raise FieldFileError; missing or
    unreadable ones raise OSError."""
    path_base = str(path_base)
    header = _read_header(path_base + ".json")
    with open(path_base + ".bin", "rb") as fh:
        payload = fh.read()
    try:
        grid = make_grid(header["dim"], header["points_per_axis"], header["extent"])
        rank = header["rank"]
        count = grid.node_count * (grid.dim if rank == "vector" else 1)
        if len(payload) != 8 * count:
            raise ValueError(f"binary payload has {len(payload)} bytes, "
                             f"header implies {8 * count}")
        shape = grid.shape if rank == "scalar" else (grid.dim,) + grid.shape
        samples = np.frombuffer(payload, dtype="<f8").reshape(shape)
        return Field(grid=grid, rank=rank, samples=samples)
    except ValueError as exc:
        raise FieldFileError(f"{path_base}: {exc}") from exc
