"""Difference-quotient norms against frequency-sum and closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracgrid.norms
from fracgrid.core import Field, Region, lp_norm, make_grid, sample_corpus, translate
from fracgrid.direct import _lattice_table
from fracgrid.norms import (
    NormReport,
    _difference_profile,
    _double_sum,
    _periodized_weight,
    _shift_table,
    dsp_norm,
    gagliardo_report,
    gagliardo_seminorm,
    holder_seminorm,
    translation_modulus,
)
from fracgrid.spectral import bessel_norm, exact_gradient

from conftest import (apply_symbol, corpus_entry, image_box_sum, module_names,
                      pair_gather_profile, parseval_weights, rel_l2)


def _frequency_seminorm_sq(u, s):
    # Parseval-weighted sum of |2 pi xi|^(2s): the p=2 oracle up to a
    # universal constant that the proportionality test never needs
    w, mags = parseval_weights(u)
    return float(np.sum(w * mags ** (2.0 * s)))


class TestGagliardo:
    def test_constant_field_has_zero_seminorm(self, grid1):
        u = Field.scalar(grid1, np.full(grid1.shape, 3.5))
        assert gagliardo_seminorm(u, 0.5, 2.0) == 0.0

    def test_homogeneity(self, grid1, corpus1):
        u = corpus_entry(corpus1, "bump").field
        base = gagliardo_seminorm(u, 0.5, 2.0)
        scaled = gagliardo_seminorm(4.75 * u, 0.5, 2.0)
        assert scaled == pytest.approx(4.75 * base, rel=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_p2_frequency_proportionality(self, grid1, corpus1, s):
        # [u]^2 divided by the frequency sum must be flat across the smooth
        # corpus; 2% spread is the budget the shell correction has to meet
        ratios = []
        for e in corpus1:
            if not e.smooth:
                continue
            sq = gagliardo_seminorm(e.field, s, 2.0) ** 2
            ratios.append(sq / _frequency_seminorm_sq(e.field, s))
        ratios = np.array(ratios)
        cv = ratios.std() / ratios.mean()
        assert cv <= 0.02, (s, ratios)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_double_sum_matches_all_pairs(self, dim, p):
        grid = make_grid(dim, 16, 8.0)  # h != 1, so every power of h shows
        hn = grid.spacing ** dim
        weight = _periodized_weight(grid, dim + 0.5 * p)
        for e in sample_corpus(grid, seed=7):
            want = pair_gather_profile(e.field.samples, p)
            got = _difference_profile(e.field.samples, p)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want), e.label
            assert _double_sum(e.field, p, weight) == pytest.approx(
                hn * hn * float(np.sum(want * weight)), rel=1e-12), e.label

    def test_no_random_numbers(self):
        # every Gagliardo value is an exact lattice sum; the AST, not the
        # text, so that prose may still name sampling
        found = [n for n in module_names(fracgrid.norms)
                 if "random" in n.lower() or n == "default_rng"]
        assert found == []

    def test_correction_guard_trips_on_white_noise(self, grid1):
        rng = np.random.default_rng(0)
        u = Field.scalar(grid1, rng.standard_normal(grid1.shape))
        rep = gagliardo_report(u, 0.5, 2.0)
        assert rep.detail["correction_applied"] is False
        smooth = gagliardo_report(
            Field.scalar(grid1, np.cos(2 * math.pi * grid1.axis() / grid1.extent)), 0.5, 2.0)
        assert smooth.detail["correction_applied"] is True

    def test_mollification_lowers_the_seminorm(self, grid1, corpus1):
        u = corpus_entry(corpus1, "oscillatory").field
        _, mags = parseval_weights(u)
        for sigma in (0.2, 0.5):
            smoothed = apply_symbol(u, np.exp(-0.5 * sigma ** 2 * mags ** 2))
            assert gagliardo_seminorm(smoothed, 0.5, 2.0) <= gagliardo_seminorm(u, 0.5, 2.0)

    def test_validation(self, grid1, corpus1):
        u = corpus1[0].field
        with pytest.raises(ValueError):
            gagliardo_seminorm(u, 1.2, 2.0)
        with pytest.raises(ValueError):
            gagliardo_seminorm(u, 0.5, 0.7)
        # off p = 2, where no autocorrelation exists, the pair budget admits
        # 1-d N <= 16384 and 2-d N <= 128
        for dim, n in ((1, 32768), (2, 256)):
            big = make_grid(dim, n, 16.0)
            with pytest.raises(ValueError, match="node pair"):
                gagliardo_seminorm(Field.scalar(big, np.zeros(big.shape)), 0.5, 3.0)

    def test_report_shape(self, grid1, corpus1):
        rep = gagliardo_report(corpus1[0].field, 0.25, 2.0)
        assert isinstance(rep, NormReport)
        assert rep.kind == "gagliardo(s=0.25,p=2.0)"
        assert rep.method == "full_double_sum"


class TestGagliardoExactP2:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_autocorrelation_matches_pair_gather_1d(self, grid1, corpus1, s):
        weight = _periodized_weight(grid1, 1.0 + 2.0 * s)
        for e in corpus1:
            gather = grid1.spacing ** 2 * float(np.sum(
                pair_gather_profile(e.field.samples, 2.0) * weight))
            got = _double_sum(e.field, 2.0, weight)
            assert got == pytest.approx(gather, rel=1e-12), e.label

    def test_two_dimensional_autocorrelation_matches_pair_loop(self):
        # at p = 2 the two exact routes must agree on every label
        grid = make_grid(2, 64, 16.0)
        hn = grid.spacing ** 2
        weight = _periodized_weight(grid, 3.0)
        for e in sample_corpus(grid, seed=7):
            loop = hn * float(np.sum(hn * _difference_profile(e.field.samples, 2.0) * weight))
            got = _double_sum(e.field, 2.0, weight)
            assert got == pytest.approx(loop, rel=1e-12), e.label

    def test_two_dimensional_constant_field_is_zero(self, grid2):
        u = Field.scalar(grid2, np.full(grid2.shape, -1.25))
        assert gagliardo_seminorm(u, 0.5, 2.0) == 0.0

    @pytest.mark.parametrize("dim, points", [(1, 4096), (2, 128)])
    def test_no_size_limit_and_no_sampling(self, dim, points):
        grid = make_grid(dim, points, 16.0)
        u = corpus_entry(sample_corpus(grid, seed=7), "bump").field
        rep = gagliardo_report(u, 0.5, 2.0)
        assert math.isfinite(rep.value) and rep.value > 0.0
        assert set(rep.detail) == {"resolution_defect", "correction_applied"}


class TestPeriodizedWeight:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("gamma", [1.5, 3.25])
    def test_even_image_sum_matches_nested_image_loop(self, dim, gamma):
        # past |m|_inf = M the images add a constant (divergent when gamma <=
        # dim, where the table is the continuation) plus a spread over the
        # offsets of order M^(dim-2-gamma), 2^(gamma+2-dim) smaller per doubling
        grid = make_grid(dim, 16, 16.0)
        table = _lattice_table(grid, gamma, False)[(slice(0, 9),) * dim]
        spreads = []
        for m in (50, 100, 200):
            gap = (image_box_sum(grid, gamma, False, m) - table).ravel()[1:]
            spreads.append(gap.max() - gap.min())
        for wide, narrow in zip(spreads[1:], spreads):
            assert narrow / wide >= 0.8 * 2.0 ** (gamma + 2.0 - dim)

    def test_two_dimensional_weight_is_a_200_image_sum_plus_a_constant(self):
        grid = make_grid(2, 16, 16.0)
        table = _periodized_weight(grid, 2.5)[:9, :9]
        gap = (image_box_sum(grid, 2.5, False, 200) - table).ravel()[1:]
        assert gap.max() - gap.min() <= 1e-8 * np.max(table)

    def test_cached_weight_is_read_only(self, grid2):
        weight = _periodized_weight(grid2, 3.0)
        assert weight is _periodized_weight(grid2, 3.0)
        with pytest.raises(ValueError):
            weight[1, 1] = 0.0


class TestHolder:
    def test_constant_field(self, grid1):
        u = Field.scalar(grid1, np.ones(grid1.shape))
        assert holder_seminorm(u, 0.5) == 0.0

    def test_coordinate_field_closed_form(self, grid1):
        # on |x| <= 2 the ratio |x-y|/|x-y|^mu peaks at the diameter
        u = Field.scalar(grid1, grid1.axis())
        got = holder_seminorm(u, 0.5, Region.centered_ball(2.0))
        assert got == pytest.approx(4.0 ** 0.5, rel=1e-12)

    def test_exponent_ladder(self, grid1, corpus1):
        # |d|^(m2-m1) <= diam^(m2-m1) pointwise gives the comparison
        diam = grid1.extent / 2.0
        for label in ("gaussian", "powertail_mild"):
            u = corpus_entry(corpus1, label).field
            lo = holder_seminorm(u, 0.3)
            hi = holder_seminorm(u, 0.6)
            assert lo <= diam ** 0.3 * hi * (1 + 1e-12)

    def test_two_dimensional_stencil(self, grid2, corpus2):
        u = corpus_entry(corpus2, "gaussian").field
        v = holder_seminorm(u, 0.5)
        assert 0.0 < v < math.inf
        assert holder_seminorm(2.0 * u, 0.5) == pytest.approx(2.0 * v, rel=1e-12)

    def test_region_too_small(self, grid1, corpus1):
        with pytest.raises(ValueError):
            holder_seminorm(corpus1[0].field, 0.5, Region.centered_ball(grid1.spacing))

    def test_validation(self, grid1, corpus1):
        with pytest.raises(ValueError):
            holder_seminorm(corpus1[0].field, 1.0)


class TestDsp:
    def test_zero_field(self, grid1):
        u = Field.scalar(grid1, np.zeros(grid1.shape))
        assert dsp_norm(u, 0.5, 2.0) == 0.0

    def test_pure_mode_closed_form(self, grid1):
        k, amp, s = 3.0, 1.4, 0.5
        x = grid1.axis()
        u = Field.scalar(grid1, amp * np.cos(2 * math.pi * k * x / grid1.extent))
        omega = 2.0 * math.pi * k / grid1.extent
        want = (1.0 + omega ** s) * amp * math.sqrt(grid1.extent / 2.0)
        assert dsp_norm(u, s, 2.0) == pytest.approx(want, rel=1e-12)

    def test_comparable_to_bessel_norm(self, grid1, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        for s in (0.25, 0.5, 0.75):
            for p in (1.5, 2.0, 3.0):
                ratio = dsp_norm(u, s, p) / bessel_norm(u, s, p)
                assert 0.25 <= ratio <= 4.0, (s, p, ratio)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_triangle_inequality(self, seed):
        grid = make_grid(1, 64, 8.0)
        rng = np.random.default_rng(seed)
        u = Field.scalar(grid, rng.standard_normal(64))
        v = Field.scalar(grid, rng.standard_normal(64))
        lhs = dsp_norm(u + v, 0.5, 2.0)
        assert lhs <= dsp_norm(u, 0.5, 2.0) + dsp_norm(v, 0.5, 2.0) + 1e-12 * lhs


class TestTranslationModulus:
    def test_zero_shift(self, grid1, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        [(_, v)] = translation_modulus(u, 2.0, [0.0])
        assert v == 0.0

    def test_even_in_h(self, grid1, corpus1):
        u = corpus_entry(corpus1, "bump").field
        out = translation_modulus(u, 2.0, [0.7, -0.7])
        assert out[0][1] == pytest.approx(out[1][1], rel=1e-12)

    def test_order_matches_input(self, grid1, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        hs = [0.4, 0.1, 0.9]
        out = translation_modulus(u, 2.0, hs)
        assert [h for h, _ in out] == hs

    def test_crude_upper_bound(self, grid1, corpus1):
        for e in corpus1:
            cap = 2.0 * lp_norm(e.field, 2.0)
            for _, v in translation_modulus(e.field, 2.0, [0.3, 1.1, 3.0]):
                assert v <= cap * (1 + 1e-12)

    def test_small_shift_slope_matches_derivative(self, grid1, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        h = 0.01
        [(_, v)] = translation_modulus(u, 2.0, [h])
        slope = lp_norm(exact_gradient(u), 2.0)
        assert v / h == pytest.approx(slope, rel=0.05)

    def test_rejects_large_shift(self, grid1, corpus1):
        with pytest.raises(ValueError):
            translation_modulus(corpus1[0].field, 2.0, [grid1.extent / 4.0])

    def test_2d_vector_shifts(self, grid2, corpus2):
        u = corpus_entry(corpus2, "gaussian").field
        out = translation_modulus(u, 2.0, [(0.5, 0.0), (0.0, 0.5)])
        assert out[0][1] == pytest.approx(out[1][1], rel=1e-10)  # radial symmetry

    @pytest.mark.parametrize("shift, message", [
        (math.nan, "finite"),
        ((0.5, 0.5), "2 components, grid has dim 1"),
        (4.0, "below extent/4"),
    ], ids=["nan", "two_components", "extent_over_4"])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_misuse_is_named_at_every_p(self, p, shift, message):
        grid = make_grid(1, 64, 16.0)
        u = corpus_entry(sample_corpus(grid, seed=7), "bump").field
        with pytest.raises(ValueError, match=message):
            translation_modulus(u, p, [0.5, shift])


_GRID_1D = make_grid(1, 64, 16.0)
_GRID_2D = make_grid(2, 64, 16.0)
# spacing 0.25 on both grids: lattice, off-lattice, sub-cell and negative shifts
_SHIFTS_1D = [0.25, 1.0, -1.0, 0.37, -0.37, 0.03125, -2.9, 3.9]
_SHIFTS_2D = [(0.25, 0.0), (1.0, -0.5), (0.37, 0.0), (0.0, -0.03125),
              (0.37, -1.1), (-0.3, 0.25), (-2.2, 1.3)]


class TestTranslationParseval:
    """At p = 2 the modulus comes from one transform of u; it must equal the
    norm of translate(u, h) - u, Nyquist planes included: white noise carries
    energy there, where the pure phase e^{2 pi i xi h} would overstate it."""

    @pytest.mark.parametrize("grid, shifts", [(_GRID_1D, _SHIFTS_1D), (_GRID_2D, _SHIFTS_2D)],
                             ids=["1d", "2d"])
    def test_matches_translate_on_noise_and_corpus(self, grid, shifts):
        noise = Field.scalar(grid, np.random.default_rng(3).standard_normal(grid.shape))
        fields = [noise] + [e.field for e in sample_corpus(grid, seed=7)]
        for u in fields:
            for h, v in translation_modulus(u, 2.0, shifts):
                want = lp_norm(translate(u, h) - u, 2.0)
                assert v == pytest.approx(want, rel=1e-13, abs=0.0), (h, v, want)

    def test_vector_field_sums_its_components(self):
        v = exact_gradient(corpus_entry(sample_corpus(_GRID_2D, seed=7), "bump").field)
        for h, got in translation_modulus(v, 2.0, _SHIFTS_2D):
            assert got == pytest.approx(lp_norm(translate(v, h) - v, 2.0), rel=1e-13)

    def test_cached_shift_table_is_read_only(self):
        shifts = tuple((h,) for h in _SHIFTS_1D)
        table = _shift_table(_GRID_1D, shifts)
        assert table.shape == (len(_SHIFTS_1D), 64)
        assert not table.flags.writeable
        assert _shift_table(_GRID_1D, shifts) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
