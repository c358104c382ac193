"""Fourier-side operators: single-mode oracles, exact identities, duality."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracgrid import spectral
from fracgrid.core import Field, lp_norm, make_grid, remove_mean, sample_corpus
from fracgrid.norms import translation_modulus
from fracgrid.spectral import (
    Multiplier,
    _symbol_tables,
    apply_multiplier,
    bessel_norm,
    bessel_potential,
    exact_gradient,
    ftc_kernel_apply,
    riesz_divergence_spectral,
    riesz_gradient_spectral,
)

from conftest import apply_symbol, corpus_entry, parseval_weights, rel_l2

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
        back = bessel_potential(bessel_potential(u, 0.4), -0.4)
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
        w, mags = parseval_weights(u)
        assert w.shape == grid1.shape and mags.shape == grid1.shape
        assert abs(w.sum() - lp_norm(u, 2.0) ** 2) <= 1e-12 * w.sum()

    def test_zero_mode_values(self, grid2):
        (bessel,), _ = _symbol_tables(Multiplier("bessel", 0.5), grid2)
        gradient, _ = _symbol_tables(Multiplier("riesz_gradient", 0.5), grid2)
        assert bessel[0, 0] == 1.0
        assert [t[0, 0] for t in gradient] == [0.0, 0.0]

    @pytest.mark.parametrize("m", [Multiplier(kind, 0.5) for kind in (
        "bessel", "riesz_gradient", "riesz_divergence", "ftc_kernel")] + [
        Multiplier("exact_gradient")], ids=lambda m: m.kind)
    def test_cached_symbol_tables_are_read_only(self, grid2, m):
        # the cache hands the same arrays to every caller; each keeps the
        # rfftn half grid, columns 0..N/2 of the last axis
        symbol = _symbol_tables(m, grid2)
        assert symbol is _symbol_tables(m, grid2)
        for t in symbol[0]:
            assert t.shape == (128, 65)
            assert not t.flags.writeable
            with pytest.raises(ValueError):
                t[1, 1] = 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["bessel", "inverse_bessel"])
    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_non_finite_bessel_order_is_rejected(self, sign, s):
        with pytest.raises(ValueError, match="bessel order s must be finite"):
            Multiplier("bessel", sign * s)

    @pytest.mark.parametrize("order, where", [
        (-200.0, "of order -200.0 overflows: output norm is not finite"),  # finite table
        (-300.0, "symbol of order -300.0 overflows on this grid"),  # overflowing table
        (-1e4, "symbol of order -10000.0 overflows on this grid"),
    ], ids=["output", "table", "table_far"])
    def test_overflowing_bessel_order_is_named(self, order, where):
        grid = make_grid(1, 64, 16.0)
        u = Field.scalar(grid, np.exp(-grid.axis() ** 2))
        with pytest.raises(ValueError, match=f"bessel {where}"):
            bessel_potential(u, order)

    def test_precision_loss_of_a_large_bessel_symbol_is_named(self):
        # the symbol is real and even, but at order -6 it reaches 1.6e10 on
        # this grid and amplifies transform round-off past the bound
        u = corpus_entry(sample_corpus(make_grid(1, 256, 16.0), 7), "bandlimited_low").field
        with pytest.raises(ValueError, match=r"bessel of order -6\.0 loses precision"):
            bessel_potential(u, -6.0)

    def test_asymmetric_custom_symbol_is_rejected(self, grid1, corpus1, monkeypatch):
        # a constant imaginary table breaks conjugate symmetry: its half grid
        # does not determine it, so it is refused when the table is built
        u = corpus_entry(corpus1, "gaussian").field
        monkeypatch.setitem(spectral._KINDS, "bessel", spectral._KINDS["bessel"]._replace(
            tables=lambda grid, s: [1j * np.ones(grid.shape)]))
        # the patched table passes through the one cache; keep it out of other tests
        _symbol_tables.cache_clear()
        try:
            with pytest.raises(ValueError, match="bessel symbol of order 0.5 is not conjugate symmetric"):
                _symbol_tables(Multiplier("bessel", 0.5), grid1)
            with pytest.raises(ValueError, match="is not conjugate symmetric"):
                apply_multiplier(u, Multiplier("bessel", 0.5))
        finally:
            _symbol_tables.cache_clear()

    @pytest.mark.parametrize("order, refused", [
        (-3.0, False), (-4.0, False), (-4.5, False), (-5.0, True), (-5.5, True), (-6.0, True),
    ])
    def test_precision_verdicts_on_bandlimited_low(self, order, refused):
        # the verdicts of the measured imaginary residue of a full complex
        # transform, which the round-off bound reproduces on this field
        u = corpus_entry(sample_corpus(make_grid(1, 256, 16.0), 7), "bandlimited_low").field
        if refused:
            with pytest.raises(ValueError, match=f"bessel of order {order} loses precision"):
                bessel_potential(u, order)
        else:
            assert np.all(np.isfinite(bessel_potential(u, order).samples))

    def test_rank_mismatch_is_rejected(self, grid1, corpus1):
        u = corpus1[0].field
        psi = riesz_gradient_spectral(u, 0.5)
        with pytest.raises(ValueError):
            riesz_gradient_spectral(psi, 0.5)
        with pytest.raises(ValueError):
            riesz_divergence_spectral(u, 0.5)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.2, 1.7])
    def test_operator_order_must_lie_in_unit_interval(self, s):
        for kind in ("riesz_gradient", "riesz_divergence", "ftc_kernel"):
            with pytest.raises(ValueError) as info:
                Multiplier(kind, s)
            assert str(info.value) == f"s must lie in (0,1), got {s}", kind

    @pytest.mark.parametrize("kind, order, message", [
        ("junk", 0.5, "unknown multiplier kind 'junk'"),
        ("riesz_gradient", 1.5, "s must lie in (0,1), got 1.5"),
        ("riesz_divergence", math.nan, "s must lie in (0,1), got nan"),
        ("ftc_kernel", -0.5, "s must lie in (0,1), got -0.5"),
        ("bessel", math.nan, "bessel order s must be finite, got nan"),
        ("exact_gradient", 3.0, "exact_gradient takes no order, got 3.0"),
    ], ids=["unknown", "riesz_gradient", "riesz_divergence", "ftc_kernel", "bessel",
            "exact_gradient"])
    def test_construction_refuses_what_its_kind_does_not_admit(self, kind, order, message):
        with pytest.raises(ValueError) as info:
            Multiplier(kind, order)
        assert str(info.value) == message

    @pytest.mark.parametrize("order", [None, [0.5], "0.5", True, np.bool_(True)],
                             ids=["none", "list", "str", "bool", "numpy-bool"])
    def test_order_that_is_not_a_real_number_is_refused(self, order):
        for kind in ("bessel", "riesz_gradient"):
            with pytest.raises(ValueError) as info:
                Multiplier(kind, order)
            assert str(info.value) == f"multiplier order must be a real number, got {order!r}"

    def test_order_is_stored_as_a_float(self):
        # one cache entry per operator, whatever number type named its order
        assert type(Multiplier("bessel", 2).param) is float
        for order in (np.float32(0.5), np.float64(0.5), np.int64(2)):
            assert type(Multiplier("bessel", order).param) is float
        assert Multiplier("exact_gradient", 0) == Multiplier("exact_gradient")

    def test_each_kind_is_named_only_in_the_table_and_its_wrapper(self):
        # a kind is declared by its _KINDS row and built by its one public
        # operator; _half_grid_tables shares exact_gradient's cached tables
        wrappers = {"bessel": "bessel_potential", "exact_gradient": "exact_gradient",
                    "riesz_gradient": "riesz_gradient_spectral",
                    "riesz_divergence": "riesz_divergence_spectral",
                    "ftc_kernel": "ftc_kernel_apply"}
        assert set(wrappers) == set(spectral._KINDS)
        homes = {kind: set() for kind in wrappers}
        for top in ast.parse(Path(spectral.__file__).read_text()).body:
            targets = getattr(top, "targets", None)
            name = targets[0].id if targets else getattr(top, "name", None)
            if name == "__all__":  # names functions, one of them exact_gradient
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Constant) and node.value in homes:
                    homes[node.value].add(name)
        for kind, wrapper in wrappers.items():
            extra = {"_half_grid_tables"} if kind == "exact_gradient" else set()
            assert homes[kind] == {"_KINDS", wrapper} | extra, kind


_HALF_SPECTRUM_CORPORA = {1: sample_corpus(make_grid(1, 256, 16.0), 7),
                          2: sample_corpus(make_grid(2, 64, 16.0), 7)}
_EVERY_KIND = ([Multiplier("bessel", a) for a in (-0.75, 0.3, 2.0)]
               + [Multiplier(kind, s) for kind in ("riesz_gradient", "riesz_divergence",
                                                   "ftc_kernel") for s in S_VALUES]
               + [Multiplier("exact_gradient")])


class TestHalfSpectrum:
    """apply_multiplier transforms only the columns 0..N/2 of the last axis;
    the full complex route is the reference."""

    @pytest.mark.parametrize("m", _EVERY_KIND, ids=lambda m: f"{m.kind}({m.param})")
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_the_full_grid_route(self, dim, m):
        corpus = _HALF_SPECTRUM_CORPORA[dim]
        full = spectral._KINDS[m.kind].tables(corpus[0].field.grid, m.param)
        for i, e in enumerate(corpus):
            u = e.field
            if spectral._KINDS[m.kind].input_rank == "scalar":
                want = np.stack([apply_symbol(u, t).samples for t in full])
            else:
                # a vector input from this entry and the next
                u = Field.vector(u.grid, np.stack(
                    [c.field.samples for c in (corpus + corpus)[i:i + dim]]))
                want = sum(apply_symbol(Field.scalar(u.grid, c), t).samples
                           for c, t in zip(u.samples, full))
            got = apply_multiplier(u, m).samples
            assert rel_l2(got.reshape(want.shape), want) <= 1e-13, e.label

    @pytest.mark.parametrize("m, inputs, outputs", [
        (Multiplier("bessel", 0.5), 1, 1),
        (Multiplier("riesz_gradient", 0.5), 1, 2),
        (Multiplier("riesz_divergence", 0.5), 2, 1),
        (Multiplier("ftc_kernel", 0.5), 2, 1),
        (Multiplier("exact_gradient"), 1, 2),
    ], ids=lambda v: getattr(v, "kind", None))
    def test_one_transform_per_component(self, monkeypatch, m, inputs, outputs):
        u = _HALF_SPECTRUM_CORPORA[2][0].field
        if inputs == 2:
            u = exact_gradient(u)
        calls = _count_transforms(monkeypatch)
        apply_multiplier(u, m)
        assert calls == {"rfftn": inputs, "irfftn": outputs}

    def test_one_forward_transform_per_translation_sweep(self, monkeypatch):
        u = _HALF_SPECTRUM_CORPORA[2][0].field
        v = exact_gradient(u)
        shifts = [(0.3, 0.0), (0.0, -1.1), (0.5, 0.5)]
        calls = _count_transforms(monkeypatch)
        translation_modulus(u, 2.0, shifts)
        translation_modulus(v, 2.0, shifts)
        assert calls == {"rfftn": 2}


def _count_transforms(monkeypatch) -> dict:
    """Count the numpy transforms made from now on, by name."""
    calls = {}
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        def counting(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    return calls
