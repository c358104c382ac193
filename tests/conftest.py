import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fracgrid.core import make_grid, sample_corpus
from fracgrid.direct import _IMAGES, _lattice_table, _offset_integers
from fracgrid.interp import _THETA_GRID, _parseval_weights, _sigma_grid
from fracgrid.spectral import _freq_grids, _half_grid_tables


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance verdict lines after capture ends."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def rel_l2(a, b):
    """Relative l2 distance, safe against a zero reference."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / (scale if scale > 0 else 1.0))


def image_box_sum(grid, g, odd, images):
    """Nested image loop: sum over |m|_inf <= images of f(z + m L), f(y) =
    y0 |y|^-g if odd else |y|^-g, on the offsets 0..n/2 of each axis (the
    table block [:n/2+1] per axis); the m = 0 term is left out at z = 0."""
    n, period = grid.points_per_axis, grid.extent
    z = ((np.arange(n // 2 + 1) + n // 2) % n - n // 2) * grid.spacing
    shifted = z[:, None] + np.arange(-images, images + 1) * period
    # 1-d is one row of images; 2-d loops over the images m0 of axis 0
    rows = [shifted] if grid.dim == 1 else shifted.T[:, :, None, None]
    out = 0.0
    for y0 in rows:
        r2 = y0 * y0 if grid.dim == 1 else y0 * y0 + shifted[None, :, :] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = r2 ** (-g / 2.0) * (y0 if odd else 1.0)
        vals[r2 == 0.0] = 0.0
        out = out + vals.sum(axis=-1)
    return out


def untruncated_theta_factors(x, t, odd):
    """Per-axis theta sums of (x+m)^odd exp(-pi t (x+m)^2) over every image
    |m| <= 4 at every node, as (the images m != 0, the m = 0 term): the sum
    direct._theta_factors made before it left out the terms below round-off."""
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


def untruncated_dual_factors(x, u, odd):
    """Poisson duals of the theta sums over every frequency k <= 4 at every
    node, as (the frequencies k != 0, the k = 0 term): the sum
    direct._dual_factors made before it left out the underflowing terms."""
    trig = np.sin if odd else np.cos
    rest = np.zeros((x.size, u.size))
    for k in range(1, _IMAGES + 1):
        weight = 2.0 * (k if odd else 1) * np.exp(-math.pi * k * k * u)
        rest += np.outer(trig(2.0 * math.pi * k * x), weight)
    return rest, 0.0 if odd else 1.0


def row_offset_tables(grid, nu):
    """The full shell-zeroed offset tables of direct._kernel_tables, one
    N^dim array per axis, as they were before the 2-d tables were factored."""
    mint = _offset_integers(grid.points_per_axis)
    w = _lattice_table(grid, nu + 1.0, odd=True)
    if grid.dim == 1:
        tables, radial2 = [w], mint ** 2
    else:
        tables, radial2 = [w, w.T.copy()], mint[:, None] ** 2 + mint[None, :] ** 2
    for t in tables:
        t[radial2 <= 1] = 0.0
    return tuple(tables)


def row_offset_correlate(u, w, odd):
    """sum_d w(d) u(x + d) by one circulant product per row offset d0 of a
    full table w, the rows d0 and n - d0 folded by w's parity in d0: the
    2-d correlation direct._correlate made before its separable form."""
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


def serial_lp_rows(values, p, vol):
    """The midpoint-rule L^p norm of each row, each root a Python float
    power as in core._lp_rows; overwrites values."""
    np.abs(values, out=values)
    values **= p
    return np.array([v ** (1.0 / p) for v in (vol * np.sum(values, axis=1)).tolist()])


def flat_lp_norm(u, p, region=None):
    """lp_norm as one flat sum and a scalar root, for sums in the normal
    range: the form lp_norm took before it became core._lp_rows' one-row
    case, whose bits it keeps."""
    mag = u.magnitude()
    if region is not None:
        mag = mag[region.mask(u.grid)]
    total = np.sum(mag ** p)
    return float((u.grid.spacing ** u.grid.dim * total) ** (1.0 / p))


def serial_mollifier_lp(u, p, ts):
    """The p != 2 mollifier-family K values one sigma at a time on one
    thread, each sigma's 20 theta lines as one stacked (20, N^dim) block:
    the route interp._mollifier_values_lp took before its sigma groups ran
    on a thread pool."""
    grid = u.grid
    axes = tuple(range(-grid.dim, 0))
    vol = grid.spacing ** grid.dim
    spec = np.fft.rfftn(u.samples)
    mags, grads = _half_grid_tables(grid)
    flat = u.samples.reshape(1, -1)

    def w_norm(b_hat, b):
        grad = np.fft.irfftn(grads * b_hat, s=grid.shape, axes=axes)
        mag = np.sqrt(np.sum(grad ** 2, axis=0)).reshape(1, -1)
        return float(serial_lp_rows(b.reshape(1, -1), p, vol)[0]
                     + serial_lp_rows(mag, p, vol)[0])

    norm_u = float(serial_lp_rows(flat.copy(), p, vol)[0])
    lines_a = [np.array([norm_u, 0.0])]
    lines_c = [np.array([0.0, w_norm(spec, u.samples.copy())])]
    thetas = _THETA_GRID[1:]
    mags2 = mags ** 2
    block = np.empty((thetas.size, flat.size))
    for sigma in _sigma_grid(grid):
        b_hat = np.exp(-0.5 * sigma ** 2 * mags2) * spec
        b = np.fft.irfftn(b_hat, s=grid.shape, axes=axes)
        np.multiply(thetas[:, None], b.reshape(1, -1), out=block)
        np.subtract(flat, block, out=block)
        lines_a.append(serial_lp_rows(block, p, vol))
        lines_c.append(thetas * w_norm(b_hat, b))
    a = np.concatenate(lines_a)
    c = np.concatenate(lines_c)
    return np.min(a[None, :] + ts[:, None] * c[None, :], axis=1)


def unclassed_hilbert_values(u, ts):
    """The exact p = 2 K values sqrt(sum_k w_k tb / (1 + tb)), tb = t^2 (1 +
    |2 pi xi_k|^2), one term per half-grid frequency in blocks of 512: the
    sum interp._exact_hilbert_values made before it summed the weights of
    each class of equal |xi| first."""
    w, mags = _parseval_weights(u)
    beta = 1.0 + mags ** 2
    t2 = ts[:, None] ** 2
    k2 = np.zeros(ts.size)
    for lo in range(0, w.size, 512):
        tb = t2 * beta[None, lo:lo + 512]
        tb /= 1.0 + tb
        k2 += tb @ w[lo:lo + 512]
    return np.sqrt(np.maximum(k2, 0.0))


def module_names(module):
    """Every name a module's source refers to, from the AST rather than the
    text, so that docstrings and comments do not count: each attribute and
    plain name, imported module and imported name on its own, and beside
    them the dotted names, each outermost attribute chain (np.fft.rfftn) and
    each name imported from a module (numpy.fft.rfftn)."""
    tree = ast.parse(Path(module.__file__).read_text())
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
            if id(node) not in inner:
                names.append(_dotted(node))
        elif isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [a.name for a in node.names]
            names += [f"{node.module}.{a.name}" for a in node.names if node.module]
    return names


def imported_modules(module):
    """Every module a module's source imports, anywhere in it, from the AST
    like module_names: absolute ones by name (scipy.special), relative ones
    with their leading dots (.core, and . for from . import x)."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
    return found


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def pair_gather_profile(u, p):
    """Brute-force S(w) = sum_x |u(x+w) - u(x)|^p: one gather of all
    N^(2 dim) node pairs, indexed [x, w] in 1-d and [x0, x1, w0, w1] in 2-d."""
    n = u.shape[0]
    ahead = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n  # [x, w] -> x + w
    if u.ndim == 1:
        return (np.abs(u[ahead] - u[:, None]) ** p).sum(axis=0)
    pairs = u[ahead[:, None, :, None], ahead[None, :, None, :]] - u[:, :, None, None]
    return (np.abs(pairs) ** p).sum(axis=(0, 1))


def parseval_weights(u):
    """(|u_hat|^2 Parseval weights, |2 pi xi| table) of a scalar field: its
    frequency-side mass. The weights sum to the squared L^2 norm."""
    grid = u.grid
    spec = np.fft.fftn(u.samples)
    w = (grid.spacing ** grid.dim / grid.node_count) * np.abs(spec) ** 2
    _, mag = _freq_grids(grid)
    return w, 2.0 * math.pi * mag


def full_complex_translate(u, h):
    """u(. + h) as ifftn(fftn(u) e^{2 pi i xi.h}).real over the grid axes:
    the full complex route translate took before it moved to the rfftn half
    spectrum."""
    grid = u.grid
    axes = tuple(range(-grid.dim, 0))
    phase = np.exp(2j * math.pi * sum(
        c * f for c, f in zip(np.atleast_1d(h), np.meshgrid(*grid.freq_axes(), indexing="ij"))))
    return u.with_samples(np.fft.ifftn(np.fft.fftn(u.samples, axes=axes) * phase, axes=axes).real)


def loop_gradient_tables(grid):
    """exact_gradient's symbol as spectral built it in its own loop before it
    was derived from the order-1 Riesz symbol: component j is 2 pi i xi_j,
    zero on the Nyquist plane of axis j."""
    comps, _ = _freq_grids(grid)
    tables = []
    for cj in comps:
        t = (2j * math.pi * cj).astype(np.complex128)
        t[cj == cj.min()] = 0.0
        tables.append(t)
    return tables


def apply_symbol(u, table):
    """The scalar field ifftn(table * fftn(u)).real, for a symbol table on u's grid."""
    return u.with_samples(np.fft.ifftn(table * np.fft.fftn(u.samples)).real)


def zero_padded_upsample(arr, axis):
    """Trigonometric upsampling by 2 along one axis, with the half spectrum
    zero-padded by hand to the n + 1 bins of the doubled grid: the route
    verify._upsample_axis took before irfft did the padding."""
    n = arr.shape[axis]
    spec = np.fft.rfft(arr, axis=axis)
    edge = [slice(None)] * arr.ndim
    edge[axis] = slice(-1, None)
    spec[tuple(edge)] *= 0.5
    shape = list(spec.shape)
    shape[axis] = n + 1
    padded = np.zeros(shape, dtype=np.complex128)
    keep = [slice(None)] * arr.ndim
    keep[axis] = slice(0, n // 2 + 1)
    padded[tuple(keep)] = spec
    return np.fft.irfft(padded, n=2 * n, axis=axis) * 2.0


def corpus_entry(corpus, label):
    for e in corpus:
        if e.label == label:
            return e
    raise KeyError(label)


@pytest.fixture(scope="session")
def grid1():
    return make_grid(1, 512, 16.0)


@pytest.fixture(scope="session")
def grid2():
    return make_grid(2, 128, 16.0)


@pytest.fixture(scope="session")
def corpus1(grid1):
    return sample_corpus(grid1, seed=7)


@pytest.fixture(scope="session")
def corpus2(grid2):
    return sample_corpus(grid2, seed=7)
