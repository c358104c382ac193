"""Periodic grids, sampled fields, and the shared test-function corpus.

Everything downstream works on a uniform grid over the torus of period L
(dimension 1 or 2), with nodes x_j = (j - N/2) h, h = L/N.  Compactly
supported test functions live in the centered box of half-width L/4, so
that periodic wrap-around stays numerically invisible.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce

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
        return tuple(np.meshgrid(*(self.axis(),) * self.dim, indexing="ij"))

    def radius(self) -> np.ndarray:
        """Distance from the origin at every node."""
        return np.sqrt(sum(c ** 2 for c in self.coords()))

    def freq_axes(self):
        """Frequencies xi = k/L along each axis, fft ordering (cycles per unit length)."""
        f = np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        return (f,) * self.dim


# the one cache policy for the spectral, quadrature and Gagliardo tables and
# the gamma constants and lattice sums: least recently used, 64 entries per
# builder. The default 1-d and 2-d suites each hold 19 symbol and 6 quadrature
# entries (at most 19 per builder), and a ladder pass 26 symbol (19 gradients
# and the exact gradient of each of its 7 grids), 7 half-grid and 38
# quadrature entries, so neither evicts.
_table_cache = lru_cache(maxsize=64)


def _worker_count() -> int:
    """One worker per usable CPU: the size of every thread pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _worker_pool(parallel: bool = True):
    """Yield map(fn, items) -> [fn(item) for item in items], in order, for
    the life of the context. With parallel and more than one worker, a map
    of two or more items runs on _worker_count() workers: the caller's
    thread, taking items from the back, and a thread pool of the others,
    taking them from the front, whose threads start on first use and are
    joined on exit. The caller works rather than waits, since a new thread
    pays about 1 ms for its first BLAS call. Otherwise the caller's thread
    does all the work and no thread starts. Only numpy calls that release
    the GIL gain from the pool."""
    def serial(fn, items):
        return [fn(item) for item in items]

    if not parallel or _worker_count() <= 1:
        yield serial
        return
    from concurrent.futures import ThreadPoolExecutor  # not paid by `import fracgrid`
    with ThreadPoolExecutor(max_workers=_worker_count() - 1) as pool:
        def pooled(fn, items):
            items = list(items)
            if len(items) < 2:
                return serial(fn, items)
            futures = [pool.submit(fn, item) for item in items]
            mine = {}
            for i in reversed(range(len(items))):
                if futures[i].cancel():  # no pool thread has started it
                    mine[i] = fn(items[i])
            return [mine[i] if i in mine else f.result() for i, f in enumerate(futures)]
        yield pooled


# ---------------------------------------------------------------------------
# preconditions: the one statement of each admissibility rule of the paper,
# which every module calls with the name of its own parameter


def _require_order(value: float, name: str) -> None:
    """An order s, mu or theta lies in (0, 1); NaN is refused."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0,1), got {value}")


def _require_exponent(value: float, name: str) -> None:
    """An exponent p or q lies in [1, inf); NaN is refused."""
    if not 1.0 <= value < math.inf:
        raise ValueError(f"{name} must satisfy 1 <= {name} < inf, got {value}")


def _require_dimension(value: int, name: str) -> None:
    """A dimension dim or n is 1 or 2."""
    if value not in (1, 2):
        raise ValueError(f"{name} must be 1 or 2, got {value}")


def _require_rank(u: Field, rank: str, who: str) -> None:
    """The field u that `who` takes is of rank "scalar" or "vector"."""
    if u.rank != rank:
        raise ValueError(f"{who} expects a {rank} field")


def _require_shift(grid: GridSpec, h, parts: int) -> np.ndarray:
    """A shift h has grid.dim components, however nested, and a magnitude
    below extent/parts; NaN is refused. Returns its components, flat."""
    h_vec = np.asarray(h, dtype=float).ravel()
    if h_vec.size != grid.dim:
        raise ValueError(f"shift has {h_vec.size} components, grid has dim {grid.dim}")
    if not np.linalg.norm(h_vec) < grid.extent / parts:  # also false for NaN
        raise ValueError(f"shift must be finite with magnitude below extent/{parts}, got {h}")
    return h_vec


def make_grid(dim: int, points_per_axis: int, extent: float) -> GridSpec:
    _require_dimension(dim, "dim")
    n = points_per_axis
    if not isinstance(n, (int, np.integer)) or n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"points_per_axis must be a power of two >= 16, got {n}")
    # node radii and Gaussian widths are squared downstream, and so are the
    # frequency magnitudes |2 pi xi|, up to dim (pi n / extent)^2
    if not (extent > 0 and math.isfinite(extent * extent)):
        raise ValueError(f"extent must be positive with a finite square, got {extent}")
    nyquist = math.pi * n / extent
    if not math.isfinite(dim * nyquist * nyquist):
        raise ValueError(f"extent {extent} is too small for {n} points per axis: "
                         f"the squared frequency magnitudes overflow")
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
    _require_rank(u, "scalar", "remove_mean")
    return u.with_samples(u.samples - u.samples.mean())


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Region:
    """Integration subdomain: a centered ball. Functions that take a region
    read None as the whole torus."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    def mask(self, grid: GridSpec) -> np.ndarray:
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
    kk = np.sqrt(sum(c ** 2 for c in np.meshgrid(*(k,) * grid.dim, indexing="ij")))
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
    _require_order(s, "s")
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


def _lp_rows(values: np.ndarray, p: float, vol: float, out=None) -> np.ndarray:
    """Midpoint-rule L^p norms (vol sum |x|^p)^(1/p), one per row of a
    (rows, nodes) array; lp_norm is its one-row case. Overwrites values
    with |values| and out, if given, with |values|^p.

    Every root is taken as a Python float power, the C library's pow, so a
    row's norm does not depend on the rows taken with it. A row whose vol *
    sum is not a normal number (0 or subnormal under a nonzero entry, or inf)
    is recomputed scaled by its max m, as m (vol sum (|x|/m)^p)^(1/p); only
    those rows pay for the max, and every other row keeps the bits of the
    plain formula."""
    np.abs(values, out=values)
    with np.errstate(over="ignore"):
        integrals = (vol * np.sum(np.power(values, p, out=out), axis=1)).tolist()
    lo, hi = _NORMAL_RANGE
    root = 1.0 / p
    norms = [v ** root for v in integrals]
    for i, v in enumerate(integrals):
        if not lo <= v <= hi:
            top = float(np.max(values[i], initial=0.0))
            if top > 0.0:
                norms[i] = top * (vol * float(np.sum((values[i] / top) ** p))) ** root
    return np.array(norms)


def lp_norm(u: Field, p: float, region: Region = None) -> float:
    """Midpoint-rule L^p norm over the region, default the whole torus
    (Euclidean magnitude for vectors)."""
    _require_exponent(p, "p")
    mag = u.magnitude()
    if region is not None:
        mag = mag[region.mask(u.grid)]
    return float(_lp_rows(mag.reshape(1, -1), p, u.grid.spacing ** u.grid.dim)[0])


def _shift_axis_counts(grid: GridSpec, h_vec) -> tuple:
    """Integer node shifts if the flat shift h_vec is a lattice vector, else None."""
    c = h_vec / grid.spacing
    ci = np.round(c)
    return tuple(int(k) for k in ci) if np.all(np.abs(c - ci) <= 1e-12) else None


def _half_freq_axes(grid: GridSpec) -> tuple:
    """grid.freq_axes() on the rfftn half grid: the last keeps 0..N/2."""
    *axes, last = grid.freq_axes()
    return (*axes, last[:grid.points_per_axis // 2 + 1])


def _shift_angles(grid: GridSpec, h) -> tuple:
    """(sigma, delta) on the rfftn half grid: the phase 2 pi xi.h of a shift
    h split into its Nyquist components (the most negative frequency of an
    axis, index N/2) and the rest.

    A real field's shift keeps only the real part of the inverse transform
    of u_hat e^{2 pi i xi.h}. Off the Nyquist planes that is the phase
    itself; on them xi(-k) = xi(k) along that axis, so its component enters
    as a cosine, and the multiplier is cos(sigma) e^{i delta}, conjugate
    symmetric like every real field's spectrum.
    """
    axes = [2.0 * math.pi * f for f in _half_freq_axes(grid)]
    nyquist = [np.where(f == f.min(), f, 0.0) for f in axes]
    sigma = reduce(np.add.outer, [c * q for c, q in zip(h, nyquist)])
    delta = reduce(np.add.outer, [c * (f - q) for c, f, q in zip(h, axes, nyquist)])
    return sigma, delta


def translate(u: Field, h) -> Field:
    """Periodic shift u(. + h), |h| < extent/2: a cyclic permutation, exact,
    on the lattice; off it the multiplier cos(sigma) e^{i delta} of
    _shift_angles on the rfftn half spectrum, every component in one call."""
    return _translated(u, _require_shift(u.grid, h, 2))


def _translated(u: Field, h_vec: np.ndarray) -> Field:
    """translate of a flat shift that _require_shift has passed."""
    grid = u.grid
    axes = tuple(range(-grid.dim, 0))
    counts = _shift_axis_counts(grid, h_vec)
    if counts is not None:
        return u.with_samples(np.roll(u.samples, [-k for k in counts], axis=axes))
    sigma, delta = _shift_angles(grid, h_vec)
    spec = np.fft.rfftn(u.samples, axes=axes) * (np.cos(sigma) * np.exp(1j * delta))
    return u.with_samples(np.fft.irfftn(spec, s=grid.shape, axes=axes))


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
