"""Fourier-side operators: single-mode oracles, exact identities, duality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracgrid.core import Field, lp_norm, make_grid, remove_mean
from fracgrid.spectral import (
    Multiplier,
    _symbol_tables,
    apply_multiplier,
    bessel_norm,
    bessel_potential,
    exact_gradient,
    frequency_weights,
    ftc_kernel_apply,
    riesz_divergence_spectral,
    riesz_gradient_spectral,
)

from conftest import corpus_entry, rel_l2

S_VALUES = [0.25, 0.5, 0.75]


def _cos_mode(grid, k):
    # single cosine at integer wavenumber k along axis 0
    x = grid.coords()[0]
    return Field.scalar(grid, np.cos(2.0 * math.pi * k * x / grid.extent))


def _sin_mode(grid, k):
    x = grid.coords()[0]
    return Field.scalar(grid, np.sin(2.0 * math.pi * k * x / grid.extent))


class TestSingleModeOracles:
    """On one cosine the operators reduce to closed-form scalar actions."""

    @pytest.mark.parametrize("s", S_VALUES)
    def test_gradient_of_cosine(self, grid1, s):
        k = 3
        xi = k / grid1.extent
        grad = riesz_gradient_spectral(_cos_mode(grid1, k), s)
        want = -((2.0 * math.pi * xi) ** s) * _sin_mode(grid1, k).samples
        assert grad.rank == "vector"
        err = np.max(np.abs(grad.samples[0] - want))
        assert err <= 1e-12 * (2.0 * math.pi * xi) ** s

    @pytest.mark.parametrize("s", S_VALUES)
    def test_divergence_of_gradient_of_cosine(self, grid1, s):
        k = 5
        xi = k / grid1.extent
        u = _cos_mode(grid1, k)
        lap = riesz_divergence_spectral(riesz_gradient_spectral(u, s), s)
        want = -((2.0 * math.pi * xi) ** (2.0 * s)) * u.samples
        assert np.max(np.abs(lap.samples - want)) <= 1e-11

    def test_riesz_potential_of_cosine(self, grid1):
        sigma, k = 0.7, 3
        xi = k / grid1.extent
        out = apply_multiplier(_cos_mode(grid1, k), Multiplier.riesz_potential(sigma))
        want = (2.0 * math.pi * xi) ** (-sigma) * _cos_mode(grid1, k).samples
        assert np.max(np.abs(out.samples - want)) <= 1e-13

    def test_exact_gradient_of_cosine(self, grid1):
        k = 4
        xi = k / grid1.extent
        g = exact_gradient(_cos_mode(grid1, k))
        want = -2.0 * math.pi * xi * _sin_mode(grid1, k).samples
        assert np.max(np.abs(g.samples[0] - want)) <= 1e-13 * 2.0 * math.pi * xi

    def test_bessel_of_cosine(self, grid1):
        s, k = 0.6, 2
        xi = k / grid1.extent
        out = bessel_potential(_cos_mode(grid1, k), s)
        want = (1.0 + 4.0 * math.pi ** 2 * xi ** 2) ** (-s / 2.0)
        assert np.max(np.abs(out.samples - want * _cos_mode(grid1, k).samples)) <= 1e-13


class TestBessel:
    def test_order_zero_is_identity(self, grid1, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        assert rel_l2(bessel_potential(u, 0.0).samples, u.samples) <= 1e-14

    def test_semigroup_composition(self, grid1, corpus1):
        u = corpus_entry(corpus1, "bandlimited_mid").field
        a = bessel_potential(bessel_potential(u, 0.3), 0.45)
        b = bessel_potential(u, 0.75)
        assert rel_l2(a.samples, b.samples) <= 1e-12

    def test_inverse_order_round_trips(self, grid1, corpus1):
        u = corpus_entry(corpus1, "oscillatory").field
        back = apply_multiplier(bessel_potential(u, 0.4), Multiplier.inverse_bessel(0.4))
        assert rel_l2(back.samples, u.samples) <= 1e-12

    def test_positive_order_contracts_l2(self, grid1, corpus1):
        for e in corpus1:
            u = e.field
            assert lp_norm(bessel_potential(u, 0.5), 2.0) <= lp_norm(u, 2.0) * (1 + 1e-12)

    def test_norm_monotone_in_order(self, grid1, corpus1):
        u = corpus_entry(corpus1, "oscillatory").field
        values = [bessel_norm(u, s, 2.0) for s in (0.25, 0.5, 0.75)]
        assert values[0] < values[1] < values[2]

    def test_norm_rejects_order_outside_unit_interval(self, grid1, corpus1):
        u = corpus1[0].field
        with pytest.raises(ValueError):
            bessel_norm(u, 1.5, 2.0)

    def test_gaussian_norm_against_continuum_integral(self, grid1, corpus1):
        # frozen from the closed-form frequency integral of exp(-r^2/2):
        # the squared norm is the integral of (1+4 pi^2 xi^2)^(1/2) against
        # the Gaussian spectral density; grid value deviates by ~2.3e-6
        u = corpus_entry(corpus1, "gaussian").field
        want = 1.4586156268849061
        assert abs(bessel_norm(u, 0.5, 2.0) - want) <= 5e-6 * want


class TestFtcRoundTrip:
    @pytest.mark.parametrize("s", S_VALUES)
    def test_whole_corpus_round_trips(self, grid1, corpus1, s):
        for e in corpus1:
            u = e.field
            rec = ftc_kernel_apply(riesz_gradient_spectral(u, s), s)
            want = u.samples - u.samples.mean()
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(rec.samples - want)) <= 1e-12 * scale, e.label

    def test_round_trip_2d(self, grid2, corpus2):
        u = corpus_entry(corpus2, "bump").field
        rec = ftc_kernel_apply(riesz_gradient_spectral(u, 0.5), 0.5)
        want = u.samples - u.samples.mean()
        assert np.max(np.abs(rec.samples - want)) <= 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_round_trip_on_white_noise(self, dim, n):
        # white noise fills every mode including the Nyquist hyperplanes,
        # where the realified symbols must still multiply out to one
        rng = np.random.default_rng(11)
        grid = make_grid(dim, n, 8.0)
        u = remove_mean(Field.scalar(grid, rng.standard_normal(grid.shape)))
        rec = ftc_kernel_apply(riesz_gradient_spectral(u, 0.3), 0.3)
        assert rel_l2(rec.samples, u.samples) <= 1e-12

    def test_reconstruction_has_zero_mean(self, grid1, corpus1):
        u = corpus_entry(corpus1, "powertail_mild").field
        rec = ftc_kernel_apply(riesz_gradient_spectral(u, 0.5), 0.5)
        assert abs(rec.samples.mean()) <= 1e-13 * np.max(np.abs(rec.samples))

    def test_gradient_of_constant_vanishes(self, grid1):
        u = Field.scalar(grid1, np.full(grid1.shape, 2.75))
        g = riesz_gradient_spectral(u, 0.5)
        assert np.max(np.abs(g.samples)) <= 1e-13


class TestDuality:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), dim=st.sampled_from([1, 2]))
    def test_divergence_is_negative_adjoint(self, seed, dim):
        s = 0.5
        grid = make_grid(dim, 32, 4.0)
        rng = np.random.default_rng(seed)
        u = Field.scalar(grid, rng.standard_normal(grid.shape))
        psi = Field.vector(grid, rng.standard_normal((dim,) + grid.shape))
        w = grid.spacing ** dim
        lhs = w * float(np.sum(riesz_gradient_spectral(u, s).samples * psi.samples))
        rhs = -w * float(np.sum(u.samples * riesz_divergence_spectral(psi, s).samples))
        scale = lp_norm(u, 2.0) * lp_norm(psi, 2.0) + 1e-300
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestPlumbing:
    def test_frequency_weights_satisfy_parseval(self, grid1, corpus1):
        u = corpus_entry(corpus1, "bandlimited_low").field
        w, mags = frequency_weights(u)
        assert w.shape == grid1.shape and mags.shape == grid1.shape
        assert abs(w.sum() - lp_norm(u, 2.0) ** 2) <= 1e-12 * w.sum()

    def test_zero_mode_values(self, grid2):
        assert Multiplier.bessel(0.5).zero_mode_value(grid2) == 1.0
        assert Multiplier.riesz_potential(0.7).zero_mode_value(grid2) == 0.0
        assert Multiplier.riesz_gradient(0.5).zero_mode_value(grid2) == [0.0, 0.0]

    @pytest.mark.parametrize("m", [Multiplier.bessel(0.5), Multiplier.riesz_gradient(0.5),
                                   Multiplier.riesz_divergence(0.5), Multiplier.ftc_kernel(0.5)],
                             ids=lambda m: m.kind)
    def test_cached_symbol_tables_are_read_only(self, grid2, m):
        # the cache hands the same arrays to every caller
        tables = _symbol_tables(m, grid2)
        assert tables is _symbol_tables(m, grid2)
        for t in tables:
            with pytest.raises(ValueError):
                t[1, 1] = 0.0

    @pytest.mark.parametrize("make, name", [
        (Multiplier.bessel, "bessel order s"),
        (Multiplier.inverse_bessel, "bessel order s"),
        (Multiplier.riesz_potential, "riesz potential order sigma"),
    ], ids=["bessel", "inverse_bessel", "riesz_potential"])
    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_non_finite_bessel_order_is_rejected(self, make, name, s):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make(s)

    @pytest.mark.parametrize("order, where", [
        (400.0, "output norm is not finite"),  # finite table, overflowing output
        (1e4, "symbol of order 10000.0 overflows"),  # overflowing table
    ])
    def test_overflowing_riesz_potential_order_is_named(self, order, where):
        grid = make_grid(1, 64, 16.0)
        u = Field.scalar(grid, np.exp(-grid.axis() ** 2))
        with pytest.raises(ValueError, match=f"riesz_potential.*{where}"):
            apply_multiplier(u, Multiplier.riesz_potential(order))

    def test_asymmetric_custom_symbol_is_rejected(self, grid1, corpus1):
        # a constant imaginary table breaks conjugate symmetry: the inverse
        # transform comes out imaginary and must not be silently truncated
        u = corpus_entry(corpus1, "gaussian").field
        bad = Multiplier.custom(1j * np.ones(grid1.shape))
        with pytest.raises(RuntimeError):
            apply_multiplier(u, bad)

    def test_custom_table_shape_must_match_grid(self, grid1, corpus1):
        bad = Multiplier.custom(np.ones(grid1.points_per_axis // 2))
        with pytest.raises(ValueError):
            apply_multiplier(corpus1[0].field, bad)

    def test_rank_mismatch_is_rejected(self, grid1, corpus1):
        u = corpus1[0].field
        psi = riesz_gradient_spectral(u, 0.5)
        with pytest.raises(ValueError):
            riesz_gradient_spectral(psi, 0.5)
        with pytest.raises(ValueError):
            riesz_divergence_spectral(u, 0.5)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.2, 1.7])
    def test_operator_order_must_lie_in_unit_interval(self, s):
        with pytest.raises(ValueError):
            Multiplier.riesz_gradient(s)
