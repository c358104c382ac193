"""Real-space route: gamma values, lattice sums, quadrature cross-checks.

The quadrature operators must agree with the Fourier route without sharing
any code with it, so every constant they rely on gets an independent oracle
here: gamma against 50-digit reference values, the continued lattice sums
against classical zeta identities, and the excluded-node coefficient against
a brute-force discrepancy limit.
"""

import math
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracgrid.core
import fracgrid.direct
import fracgrid.interp
import fracgrid.norms
import fracgrid.spectral
import fracgrid.verify
from fracgrid.core import Field, make_grid, sample_corpus
from fracgrid.direct import (
    _correlate,
    _inv_gamma,
    _kernel_tables,
    _lattice_table,
    constants,
    ftc_convolution_quadrature,
    gamma_fn,
    kernel_translation_l1,
    lattice_zeta,
    riesz_gradient_quadrature,
)
from fracgrid.interp import k_curve
from fracgrid.norms import _periodized_weight
from fracgrid.spectral import riesz_gradient_spectral

from conftest import (
    corpus_entry,
    image_box_sum,
    imported_modules,
    module_names,
    rel_l2,
    row_offset_correlate,
    row_offset_tables,
    untruncated_dual_factors,
    untruncated_theta_factors,
)

S_VALUES = [0.25, 0.5, 0.75]


def _negate_index(arr):
    # table value at the negated offset: reverse each axis, roll by one
    out = arr[::-1] if arr.ndim == 1 else arr[::-1, ::-1]
    for ax in range(arr.ndim):
        out = np.roll(out, 1, axis=ax)
    return out


def _negate_axis(arr, axis):
    # table value at the offset negated along one axis only
    return np.take(arr, -np.arange(arr.shape[axis]) % arr.shape[axis], axis=axis)


class TestGamma:
    def test_against_high_precision_reference(self):
        mp.mp.dps = 50
        for x in [0.1, 0.25, 0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 3.3, 4.75, 7.5, 12.0, 20.5]:
            want = float(mp.gamma(x))
            assert abs(gamma_fn(x) - want) <= 1e-13 * want, x

    def test_quarter_and_half_values(self):
        assert gamma_fn(0.25) == pytest.approx(3.6256099082219083, rel=1e-14)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(0.05, 25.0))
    def test_functional_equation(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive_argument(self, x):
        with pytest.raises(ValueError):
            gamma_fn(x)

    def test_reciprocal_extends_through_the_poles(self):
        # 1/Gamma is entire with exact zeros at the nonpositive integers
        for k in [0.0, -1.0, -2.0, -3.0]:
            assert _inv_gamma(k) == 0.0
        assert _inv_gamma(-0.5) == pytest.approx(-1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)
        for x in [0.3, 1.7, 6.2]:
            assert _inv_gamma(x) == pytest.approx(1.0 / gamma_fn(x), rel=1e-13)

    @pytest.mark.parametrize("x", [150.0, 171.0])
    def test_range_reaches_the_overflow(self, x):
        # Gamma is finite up to about 171.6; forming t^(x - 1/2) before the
        # e^(-t) factor would overflow from x = 142.5 on
        mp.mp.dps = 50
        want = float(mp.gamma(x))
        assert abs(gamma_fn(x) - want) <= 1e-13 * want
        assert _inv_gamma(x) == pytest.approx(1.0 / want, rel=1e-13)

    def test_reciprocal_is_total_where_gamma_underflows(self):
        # Gamma is a subnormal at -171.5 and a signed zero at -180.5, where
        # a bare 1 / Gamma would raise ZeroDivisionError
        assert _inv_gamma(-171.5) == math.inf
        assert _inv_gamma(-180.5) == -math.inf
        assert _inv_gamma(-181.5) == math.inf


class TestLatticeZeta:
    def test_one_dimensional_values(self):
        # the 1-d lattice sum is twice the classical zeta continuation
        mp.mp.dps = 30
        for alpha in [-1.5, -0.5, 0.5, 1.5, 2.7, 4.0, 6.2]:
            want = 2.0 * float(mp.zeta(alpha))
            assert lattice_zeta(1, alpha) == pytest.approx(want, rel=1e-12), alpha

    def test_regularized_count_at_zero(self):
        assert lattice_zeta(1, 0.0) == -1.0
        assert lattice_zeta(2, 0.0) == -1.0

    def test_trivial_zero(self):
        assert abs(lattice_zeta(1, -2.0)) <= 1e-13

    def test_two_dimensional_values(self):
        # square-lattice sum factorizes as 4 zeta(a/2) beta(a/2)
        mp.mp.dps = 30

        def beta(sv):
            return 4.0 ** (-sv) * float(mp.zeta(sv, 0.25) - mp.zeta(sv, 0.75))

        for alpha in [-0.8, 0.6, 1.3, 2.5, 3.1, 3.9]:
            want = 4.0 * float(mp.zeta(alpha / 2.0)) * beta(alpha / 2.0)
            assert lattice_zeta(2, alpha) == pytest.approx(want, rel=1e-12), alpha

    def test_pole_and_dimension_validation(self):
        with pytest.raises(ValueError):
            lattice_zeta(1, 1.0)
        with pytest.raises(ValueError):
            lattice_zeta(2, 2.0)
        with pytest.raises(ValueError):
            lattice_zeta(3, 0.5)


class TestConstants:
    def test_frozen_gradient_constant(self):
        # c(1, 1/2) reduces to 1/(2 sqrt(2 pi)) through Gamma(5/4) = Gamma(1/4)/4
        c = constants(1, 0.5)
        assert c.c_ns == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * math.pi)), rel=1e-14)
        assert c.gamma_1ps == pytest.approx(-0.5 * math.sqrt(2.0 * math.pi), rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("s", [0.1, 0.37, 0.5, 0.82])
    def test_pairing_identity(self, dim, s):
        c = constants(dim, s)
        assert (dim - s - 1.0) / c.gamma_1ps == pytest.approx(c.c_n_minus_s, rel=1e-12)

    def test_sign_structure(self):
        for s in [0.2, 0.5, 0.8]:
            one = constants(1, s)
            two = constants(2, s)
            assert one.c_ns > 0 and one.c_n_minus_s > 0 and one.gamma_1ps < 0
            assert two.c_ns > 0 and two.c_n_minus_s > 0 and two.gamma_1ps > 0

    @pytest.mark.parametrize("dim,s", [(3, 0.5), (1, 0.0), (1, 1.0), (2, -0.3)])
    def test_validation(self, dim, s):
        with pytest.raises(ValueError):
            constants(dim, s)


class TestExcludedNodeDiscrepancy:
    """Brute-force limit behind the quadrature correction coefficient.

    For a singular factor |y|^(-a) times a smooth window, the node-excluded
    Riemann sum overshoots the integral by h^(1-a) times the continued
    lattice sum.  This is the one fact the real-space route stands on, so
    it gets checked against mpmath directly, including on the continuation
    branch a < 0 where the plain series never converged to begin with.
    """

    @pytest.mark.parametrize("alpha", [0.4, 0.6, -0.5])
    def test_discrepancy_constant(self, alpha):
        mp.mp.dps = 30
        ref = mp.quad(
            lambda y: mp.fabs(y) ** (-alpha) * mp.cos(mp.pi * y) ** 8 * mp.exp(-y * y),
            [-0.5, 0, 0.5],
        )
        want = lattice_zeta(1, alpha)
        for n, tol in ((256, 1e-3), (512, 3e-4)):
            h = 1.0 / n
            m = np.arange(-n // 2, n // 2)
            m = m[m != 0].astype(float)
            y = m * h
            f = np.abs(y) ** (-alpha) * np.cos(math.pi * y) ** 8 * np.exp(-y * y)
            measured = (h * f.sum() - float(ref)) / h ** (1.0 - alpha)
            assert measured == pytest.approx(want, rel=tol), (alpha, n)


class TestKernelTables:
    def test_exact_odd_symmetry(self, grid1):
        for t in _kernel_tables(grid1, grid1.dim + 0.5):
            assert np.array_equal(t, -_negate_index(t))

    def test_tables_are_cached(self, grid1):
        first = _kernel_tables(grid1, 1.5)
        second = _kernel_tables(grid1, 1.5)
        assert first[0] is second[0]

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_cached_tables_are_read_only(self, dim, n):
        for w in _kernel_tables(make_grid(dim, n, 16.0), dim + 0.5):
            for t in (w,) if dim == 1 else (w.left, w.right):
                with pytest.raises(ValueError):
                    t[1] = 0.0

    @pytest.mark.parametrize("n", [16, 32, 64, 256])
    @pytest.mark.parametrize("nu", [1.5, 2.5])
    def test_factors_have_exact_parity_and_rebuild_the_table(self, n, nu):
        # w0 = a^T b with a odd in d0 and b even in d1; w1 = w0^T is (b, a)
        grid = make_grid(2, n, 16.0)
        w0, w1 = _kernel_tables(grid, nu)
        a, b = w0.left, w0.right
        assert w1.left is b and w1.right is a
        assert np.array_equal(_negate_axis(a, 1), -a)
        assert np.all(a[:, n // 2] == 0.0)
        assert np.array_equal(_negate_axis(b, 1), b)
        mint = (np.arange(n) + n // 2) % n - n // 2
        want = _lattice_table(grid, nu + 1.0, odd=True)
        want[mint[:, None] ** 2 + mint[None, :] ** 2 <= 1] = 0.0
        assert np.max(np.abs(a.T @ b - want)) <= 1e-14 * np.max(np.abs(want))
        assert a.shape[0] <= 40
        again = _kernel_tables(grid, nu)
        assert again[0].left is a and again[0].right is b
        for f in (a, b):
            assert not f.flags.writeable

    @pytest.mark.parametrize("dim,n", [(1, 512), (2, 64), (2, 256)])
    def test_gradient_of_constant_vanishes(self, dim, n):
        # the 2-d factored sum leaves round-off (5e-16 at N=256), not exact zeros
        grid = make_grid(dim, n, 16.0)
        u = Field.scalar(grid, np.full(grid.shape, 2.75))
        g = riesz_gradient_quadrature(u, 0.5)
        assert np.max(np.abs(g.samples)) <= 1e-10


class TestCrossValidation:
    """The two routes share no code; agreement pins both."""

    @pytest.mark.parametrize("s", S_VALUES)
    def test_gradient_matches_spectral_route_1d(self, corpus1, s):
        u = corpus_entry(corpus1, "gaussian").field
        a = riesz_gradient_quadrature(u, s)
        b = riesz_gradient_spectral(u, s)
        assert rel_l2(a.samples, b.samples) <= 1e-4

    @pytest.mark.parametrize("s", S_VALUES)
    def test_reconstruction_round_trip_1d(self, corpus1, s):
        u = corpus_entry(corpus1, "gaussian").field
        rec = ftc_convolution_quadrature(riesz_gradient_spectral(u, s), s)
        want = u.samples - u.samples.mean()
        assert rel_l2(rec.samples, want) <= 1e-5

    def test_full_quadrature_round_trip_1d(self, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        rec = ftc_convolution_quadrature(riesz_gradient_quadrature(u, 0.5), 0.5)
        want = u.samples - u.samples.mean()
        assert rel_l2(rec.samples, want) <= 1e-4

    def test_error_shrinks_under_refinement(self):
        errs = []
        for n in (256, 512):
            corpus = sample_corpus(make_grid(1, n, 16.0), seed=7)
            u = corpus_entry(corpus, "gaussian").field
            a = riesz_gradient_quadrature(u, 0.5)
            b = riesz_gradient_spectral(u, 0.5)
            errs.append(rel_l2(a.samples, b.samples))
        assert errs[0] <= 1e-3
        # h^(3-s) convergence predicts a ratio near 0.18
        assert errs[1] / errs[0] <= 0.35

    def test_two_dimensional_agreement(self):
        grid = make_grid(2, 64, 16.0)
        u = corpus_entry(sample_corpus(grid, seed=7), "gaussian").field
        a = riesz_gradient_quadrature(u, 0.5)
        b = riesz_gradient_spectral(u, 0.5)
        assert rel_l2(a.samples, b.samples) <= 6e-3
        rec = ftc_convolution_quadrature(b, 0.5)
        want = u.samples - u.samples.mean()
        assert rel_l2(rec.samples, want) <= 4e-3


class TestImageSumAndCorrelation:
    @pytest.mark.parametrize("g", [1.25, 1.75, 2.25, 2.75, 3.5])
    def test_one_dimensional_tables_match_hurwitz_zeta(self, g):
        # sum_m |x+m|^-g = zeta(g, x) + zeta(g, 1-x), and the odd sum is
        # zeta(g-1, x) - zeta(g-1, 1-x), continued below g = 2
        mp.mp.dps = 30
        grid = make_grid(1, 16, 1.0)
        x = [float(k) / 16 % 1.0 for k in (np.arange(16) + 8) % 16 - 8]
        even = [float(mp.zeta(g, v) + mp.zeta(g, 1 - v)) if v else 0.0 for v in x]
        odd = [float(mp.zeta(g - 1, v) - mp.zeta(g - 1, 1 - v)) if v not in (0.0, 0.5) else 0.0
               for v in x]
        for got, want in ((_lattice_table(grid, g, False), even), (_lattice_table(grid, g, True), odd)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("nu", [1.25, 1.5, 2.25, 2.75])
    def test_odd_image_sum_matches_nested_image_loop(self, dim, nu):
        # the loop over |m|_inf <= M misses images worth ~M^(dim-g), g = nu + 1,
        # so its gap to the full sum shrinks by 2^(g-dim) per doubling of M;
        # a gap that settled on a constant would mean a different limit
        grid = make_grid(dim, 16, 16.0)
        g = nu + 1.0
        table = _lattice_table(grid, g, True)[(slice(0, 9),) * dim]
        gaps = [np.max(np.abs(image_box_sum(grid, g, True, m) - table)) for m in (50, 100, 200)]
        for wide, narrow in zip(gaps[1:], gaps):
            assert narrow / wide >= 0.8 * 2.0 ** (g - dim)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_image_sum_parity_is_exact(self, dim):
        grid = make_grid(dim, 16, 16.0)
        odd = _lattice_table(grid, 2.75, True)
        even = _lattice_table(grid, 2.75, False)
        assert np.array_equal(_negate_axis(odd, 0), -odd)
        assert np.array_equal(_negate_axis(even, 0), even)
        assert np.all(odd[grid.points_per_axis // 2] == 0.0)
        if dim == 2:
            assert np.array_equal(_negate_axis(odd, 1), odd)
            assert np.array_equal(_negate_axis(even, 1), even)
            assert np.max(np.abs(even - even.T)) <= 1e-14 * np.max(even)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [16, 32])
    def test_correlation_matches_naive_circular_sum(self, dim, n):
        grid = make_grid(dim, n, 16.0)
        u = np.random.default_rng(n).standard_normal(grid.shape)
        for w in _kernel_tables(grid, dim + 0.5):
            want = np.zeros(grid.shape)
            for d in np.ndindex(*grid.shape):
                wd = w[d] if dim == 1 else w.left[:, d[0]] @ w.right[:, d[1]]
                want += wd * np.roll(u, [-k for k in d], axis=tuple(range(dim)))
            got = _correlate(u, w)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_two_dimensional_route_builds_one_circulant_pair_at_a_time(self):
        # the R circulant pairs stacked would take 28 MiB at this size
        grid = make_grid(2, 256, 16.0)
        u = corpus_entry(sample_corpus(grid, seed=7), "gaussian").field
        tracemalloc.start()
        try:
            g = riesz_gradient_quadrature(u, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(g.samples))
        assert peak < 16 * 2 ** 20

    def test_one_dimensional_route_needs_no_quadratic_memory(self):
        # the former N x N index table alone was 2 GiB at this size
        grid = make_grid(1, 16384, 16.0)
        u = corpus_entry(sample_corpus(grid, seed=7), "gaussian").field
        tracemalloc.start()
        try:
            g = riesz_gradient_quadrature(u, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(g.samples))
        assert peak < 64 * 2 ** 20


class TestThetaSplitCutoff:
    """The theta split leaves out only terms that change no bit: every table
    and lattice sum equals the one built on the untruncated sums."""

    @staticmethod
    def _untruncated(monkeypatch):
        monkeypatch.setattr(fracgrid.direct, "_theta_factors",
                            lambda x, t, odd, origin: untruncated_theta_factors(x, t, odd))
        monkeypatch.setattr(fracgrid.direct, "_dual_factors", untruncated_dual_factors)

    @staticmethod
    def _tables(grid, s):
        # uncached: the kernel tables of the gradient and the reconstruction
        # and the p = 2 Gagliardo weight, each 2-d table as its two factors
        built = [*_kernel_tables.__wrapped__(grid, grid.dim + s),
                 *_kernel_tables.__wrapped__(grid, grid.dim - s),
                 _periodized_weight.__wrapped__(grid, grid.dim + 2.0 * s)]
        return [a for b in built for a in ([b] if isinstance(b, np.ndarray) else [b.left, b.right])]

    @pytest.mark.parametrize("dim,n", [(1, 2 ** k) for k in range(4, 15)]
                             + [(2, 2 ** k) for k in range(4, 10)])
    def test_tables_equal_the_untruncated_sums(self, monkeypatch, dim, n):
        grid = make_grid(dim, n, 16.0)
        for s in (0.05, 0.25, 0.5, 0.75, 0.95):
            got = self._tables(grid, s)
            with monkeypatch.context() as m:
                self._untruncated(m)
                want = self._tables(grid, s)
            assert len(got) == len(want) == (3 if dim == 1 else 10)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), s

    @pytest.mark.parametrize("dim", [1, 2])
    def test_lattice_zeta_equals_the_untruncated_sum(self, monkeypatch, dim):
        alphas = (-5.75, -3.5, -1.5, -0.5, 0.5, 1.5, 2.5, 4.0)
        got = [lattice_zeta.__wrapped__(dim, a) for a in alphas]
        self._untruncated(monkeypatch)
        assert got == [lattice_zeta.__wrapped__(dim, a) for a in alphas]


class TestWorkerPool:
    """The two 2-d correlations of a quadrature run on one worker each from
    n = 128 on; that moves no byte."""

    @pytest.mark.parametrize("n", [128, 256])
    def test_bytes_do_not_depend_on_worker_count(self, monkeypatch, n):
        u = corpus_entry(sample_corpus(make_grid(2, n, 16.0), seed=3), "gaussian").field
        out = []
        for workers in (1, 2):
            monkeypatch.setattr(fracgrid.core, "_worker_count", lambda: workers)
            g = riesz_gradient_quadrature(u, 0.5)
            out.append((g.samples, ftc_convolution_quadrature(g, 0.5).samples))
        (g1, r1), (g2, r2) = out
        assert np.array_equal(g1, g2) and np.array_equal(r1, r2)

    def test_one_worker_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        u = corpus_entry(sample_corpus(make_grid(2, 128, 16.0), seed=3), "gaussian").field
        counts = []
        for workers in (1, 2):
            monkeypatch.setattr(fracgrid.core, "_worker_count", lambda: workers)
            started.clear()
            ftc_convolution_quadrature(riesz_gradient_quadrature(u, 0.5), 0.5)
            k_curve(u, 3.0)
            counts.append(len(started))
        # two workers: the probe does see the threads the pools start
        assert counts[0] == 0 and counts[1] > 0, counts

    def test_small_grids_keep_their_correlations_serial(self, monkeypatch):
        # below n = 128 the hand-off costs more than the second worker saves
        monkeypatch.setattr(fracgrid.core, "_worker_count", lambda: 2)
        monkeypatch.setattr(threading.Thread, "start", lambda thread: pytest.fail("started"))
        u = corpus_entry(sample_corpus(make_grid(2, 64, 16.0), seed=3), "gaussian").field
        ftc_convolution_quadrature(riesz_gradient_quadrature(u, 0.5), 0.5)


class TestRowOffsetOracle:
    """The separable 2-d sum against one circulant product per row offset of
    the full tables, the correlation it replaced."""

    def _with_row_offsets(self, monkeypatch, op, *args):
        # the oracle folds rows d0 and n - d0 by the table's parity in d0,
        # read off the table: component 0 is odd in d0, component 1 even
        def correlate(u, w):
            return row_offset_correlate(u, w, odd=not np.array_equal(w[1], w[-1]))
        with monkeypatch.context() as m:
            m.setattr(fracgrid.direct, "_kernel_tables", row_offset_tables)
            m.setattr(fracgrid.direct, "_correlate", correlate)
            return op(*args).samples

    def _check(self, monkeypatch, u, s):
        g = riesz_gradient_spectral(u, s)
        for op, arg in ((riesz_gradient_quadrature, u), (ftc_convolution_quadrature, g)):
            want = self._with_row_offsets(monkeypatch, op, arg, s)
            assert rel_l2(op(arg, s).samples, want) <= 1e-13, (op.__name__, s)

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_corpus_matches_row_offset_sums(self, monkeypatch, n, seed):
        for e in sample_corpus(make_grid(2, n, 16.0), seed=seed):
            for s in S_VALUES:
                self._check(monkeypatch, e.field, s)

    def test_gaussian_matches_row_offset_sums_at_256(self, monkeypatch):
        u = corpus_entry(sample_corpus(make_grid(2, 256, 16.0), seed=0), "gaussian").field
        for s in S_VALUES:
            self._check(monkeypatch, u, s)


class TestValidation:
    def test_rank_and_order_checks(self, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        g = riesz_gradient_spectral(u, 0.5)
        with pytest.raises(ValueError):
            riesz_gradient_quadrature(g, 0.5)
        with pytest.raises(ValueError):
            ftc_convolution_quadrature(u, 0.5)
        with pytest.raises(ValueError):
            riesz_gradient_quadrature(u, 1.2)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_an_order_at_the_shell_pole_is_refused_up_front(self, monkeypatch, dim):
        # it ended in "lattice sum has a pole at alpha == dim == 1" after the
        # kernel tables and correlations had run
        monkeypatch.setattr(fracgrid.direct, "_kernel_tables", None)  # never reached
        u = sample_corpus(make_grid(dim, 16, 16.0), 0)[0].field
        with pytest.raises(ValueError) as exc:
            riesz_gradient_quadrature(u, 1 - 1e-12)
        assert str(exc.value) == ("riesz_gradient_quadrature needs 1 - s >= 1e-09: its shell "
                                  "correction's lattice sum has a pole at s = 1; "
                                  "got s = 0.999999999999")


class TestKernelTranslationL1:
    def test_one_dimensional_closed_form(self):
        # splitting at the two singular points gives 1/s + 2/s + 1/s exactly
        for s in [0.05, 0.3, 0.5, 0.77, 0.95]:
            assert kernel_translation_l1(1, s) == 4.0 / s, s

    def test_frozen_midpoint_value(self):
        # refine acts on the 2-d quadrature only
        assert kernel_translation_l1(1, 0.5) == kernel_translation_l1(1, 0.5, refine=3) == 8.0
        assert kernel_translation_l1(1, 0.5, refine=np.int64(3)) == 8.0

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_two_dimensional_refinement_stability(self, s):
        coarse = kernel_translation_l1(2, s, refine=1)
        fine = kernel_translation_l1(2, s, refine=2)
        assert coarse > 0
        assert abs(fine - coarse) <= 1e-6 * coarse

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("refine", [1.5, True, 0])
    def test_refine_must_be_a_positive_integer(self, dim, refine):
        with pytest.raises(ValueError) as info:
            kernel_translation_l1(dim, 0.5, refine)
        assert str(info.value) == f"refine must be an integer >= 1, got {refine!r}"

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_translation_l1(3, 0.5)
        with pytest.raises(ValueError):
            kernel_translation_l1(1, 0.5, refine=0)
        with pytest.raises(ValueError):
            kernel_translation_l1(1, 1.0)


def test_quadrature_route_uses_no_fft():
    # the agreement of the two routes is evidence only while this holds: no
    # FFT and nothing from the spectral route; the AST, not the text,
    # because the docstrings name the FFT on purpose
    found = [n for n in module_names(fracgrid.direct)
             if "fft" in n.lower() or n.split(".")[-1] == "spectral"]
    assert found == []


_DIRECT_IMPORTS = {"__future__", "math", "dataclasses", "numpy", ".core"}


def test_quadrature_route_imports_only_its_allowlist():
    # the guard above matches fft and spectral by name only; an import of
    # scipy.special or of .interp would pass it and end the independence
    found = imported_modules(fracgrid.direct)
    assert "numpy" in found and set(found) <= _DIRECT_IMPORTS, found


def test_the_import_allowlist_reads_every_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import math\n"
                      "import scipy.special as sp\n"
                      "from . import spectral\n"
                      "def f():\n"
                      "    from .interp import k_curve\n")
    found = imported_modules(SimpleNamespace(__file__=str(source)))
    assert sorted(set(found) - _DIRECT_IMPORTS) == [".", ".interp", "scipy.special"]


def test_direct_is_the_one_home_of_real_space_correlation():
    # the quadrature kernels and the Gagliardo sum share direct._correlate;
    # a second copy of it elsewhere would be a second implementation to keep
    # in step. direct.py itself must show up, or the guard reads nothing
    found = {}
    for path in sorted(Path(fracgrid.direct.__file__).parent.glob("*.py")):
        names = module_names(SimpleNamespace(__file__=str(path)))
        found[path.name] = [n for n in names
                            if n.split(".")[-1] in ("correlate", "sliding_window_view")]
    assert found.pop("direct.py")
    assert found and all(names == [] for names in found.values()), found


def _full_complex_transforms(module):
    # a transform is a dotted member of an fft module (np.fft.fftn,
    # numpy.fft.ifftn); np.fft and numpy.fft themselves are the module
    return [n for n in module_names(module)
            if n.split(".")[-2:-1] == ["fft"] and n.split(".")[-1] in ("fft", "ifft", "fftn", "ifftn")]


@pytest.mark.parametrize("module", [fracgrid.spectral, fracgrid.norms, fracgrid.interp,
                                    fracgrid.verify],
                         ids=["spectral", "norms", "interp", "verify"])
def test_real_field_layers_use_no_full_complex_transform(module):
    # every field these layers transform is real, so each transform is a
    # half-spectrum rfftn/irfftn
    assert _full_complex_transforms(module) == []


def test_core_keeps_one_full_complex_transform():
    # the corpus generator _random_bandlimited takes the real part of a
    # random full spectrum; translate shifts on the half spectrum
    assert _full_complex_transforms(fracgrid.core) == ["np.fft.ifftn"]


def test_the_transform_guard_reads_dotted_names(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import numpy as np\n"
                      "from numpy.fft import ifftn\n"
                      "import fracgrid\n"
                      "a = np.fft.rfftn(x)\n"
                      "b = np.fft.fftn(x)\n"
                      "c = fracgrid.spectral.apply_multiplier(u, m)\n"
                      "d = np.random.default_rng(0)\n")
    module = SimpleNamespace(__file__=str(source))
    assert sorted(_full_complex_transforms(module)) == ["np.fft.fftn", "numpy.fft.ifftn"]
    # the bare names the quadrature and Gagliardo guards match stay listed
    assert {"spectral", "default_rng", "fft"} <= set(module_names(module))
