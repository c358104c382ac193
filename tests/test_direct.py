"""Real-space route: gamma values, lattice sums, quadrature cross-checks.

The quadrature operators must agree with the Fourier route without sharing
any code with it, so every constant they rely on gets an independent oracle
here: gamma against 50-digit reference values, the continued lattice sums
against classical zeta identities, and the excluded-node coefficient against
a brute-force discrepancy limit.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracgrid.direct
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
from fracgrid.spectral import riesz_gradient_spectral

from conftest import corpus_entry, image_box_sum, module_names, rel_l2

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
        for t in _kernel_tables(make_grid(dim, n, 16.0), dim + 0.5):
            with pytest.raises(ValueError):
                t[1] = 0.0

    @pytest.mark.parametrize("n", [32, 64])
    def test_second_component_is_the_transpose_with_exact_parity(self, n):
        # the 2-d row fold relies on w0 odd and w1 even in d0, both even in d1
        grid = make_grid(2, n, 16.0)
        for nu in (2.5, 1.5):
            w0, w1 = _kernel_tables(grid, nu)
            assert np.array_equal(w1, w0.T)
            assert np.array_equal(_negate_axis(w0, 0), -w0)
            assert np.array_equal(_negate_axis(w0, 1), w0)
            assert np.array_equal(_negate_axis(w1, 0), w1)
            assert np.array_equal(_negate_axis(w1, 1), -w1)

    @pytest.mark.parametrize("dim,n", [(1, 512), (2, 64)])
    def test_gradient_of_constant_vanishes(self, dim, n):
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
        for ax, w in enumerate(_kernel_tables(grid, dim + 0.5)):
            want = np.zeros(grid.shape)
            for d in np.ndindex(*grid.shape):
                want += w[d] * np.roll(u, [-k for k in d], axis=tuple(range(dim)))
            got = _correlate(u, w, odd=ax == 0)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

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


class TestKernelTranslationL1:
    def test_one_dimensional_closed_form(self):
        # splitting at the two singular points gives 1/s + 2/s + 1/s exactly
        for s in [0.05, 0.3, 0.5, 0.77, 0.95]:
            assert kernel_translation_l1(1, s) == pytest.approx(4.0 / s, rel=1e-8), s

    def test_frozen_midpoint_value(self):
        assert abs(kernel_translation_l1(1, 0.5) - 8.0) <= 1e-9

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_two_dimensional_refinement_stability(self, s):
        coarse = kernel_translation_l1(2, s, refine=1)
        fine = kernel_translation_l1(2, s, refine=2)
        assert coarse > 0
        assert abs(fine - coarse) <= 1e-6 * coarse

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
