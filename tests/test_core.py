"""Grid geometry, field containers, norms, translation, corpus, file I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_entry, rel_l2
from fracgrid.core import (
    Field,
    FieldFileError,
    Region,
    lacunary_field,
    lp_norm,
    make_grid,
    read_field,
    remove_mean,
    sample_corpus,
    translate,
    write_field,
)
from fracgrid.direct import _kernel_tables, constants, lattice_zeta
from fracgrid.norms import _periodized_weight
from fracgrid.spectral import Multiplier, _symbol_tables


class TestGrid:
    def test_geometry(self, grid1):
        assert grid1.spacing == 16.0 / 512
        assert grid1.node_count == 512
        x = grid1.axis()
        assert x[512 // 2] == 0.0
        assert x[0] == -8.0
        np.testing.assert_allclose(np.diff(x), grid1.spacing)

    def test_freq_axes_match_numpy(self, grid2):
        f = grid2.freq_axes()[0]
        np.testing.assert_array_equal(f, np.fft.fftfreq(128, d=grid2.spacing))

    @pytest.mark.parametrize("dim,n,extent", [
        (3, 64, 1.0),      # unsupported dimension
        (1, 100, 1.0),     # not a power of two
        (1, 8, 1.0),       # too coarse
        (2, 64, 0.0),      # empty period
        (2, 64, -2.0),
    ])
    def test_validation(self, dim, n, extent):
        with pytest.raises(ValueError):
            make_grid(dim, n, extent)


class TestField:
    def test_shape_checks(self, grid1):
        with pytest.raises(ValueError):
            Field.scalar(grid1, np.zeros(100))
        with pytest.raises(ValueError):
            Field.vector(grid1, np.zeros((2, 512)))  # 1-d has one component
        with pytest.raises(ValueError):
            Field.scalar(grid1, np.full(512, np.nan))

    def test_samples_are_read_only(self, grid1):
        u = Field.scalar(grid1, np.zeros(512))
        with pytest.raises(ValueError):
            u.samples[0] = 1.0

    def test_algebra(self, grid1):
        rng = np.random.default_rng(3)
        u = Field.scalar(grid1, rng.standard_normal(512))
        v = Field.scalar(grid1, rng.standard_normal(512))
        np.testing.assert_array_equal((2.0 * u).samples, 2.0 * u.samples)
        np.testing.assert_array_equal((u + v).samples, u.samples + v.samples)
        np.testing.assert_array_equal((u - v).samples, u.samples - v.samples)

    def test_remove_mean(self, grid1):
        u = Field.scalar(grid1, np.full(512, 3.7))
        v = remove_mean(u)
        assert np.max(np.abs(v.samples)) < 1e-14


class TestLpNorm:
    def test_constant_field(self, grid1):
        # midpoint rule is exact on constants: ||c||_p = |c| L^(1/p)
        u = Field.scalar(grid1, np.full(512, 2.0))
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(u, p) == pytest.approx(2.0 * 16.0 ** (1.0 / p), rel=1e-13)

    def test_gaussian_l2_fixture(self, grid1, corpus1):
        # continuum value pi^(1/4); support window perturbs below 1e-6
        u = corpus_entry(corpus1, "gaussian").field
        assert lp_norm(u, 2.0) == pytest.approx(math.pi ** 0.25, rel=1e-6)

    def test_gaussian_l2_fixture_2d(self, corpus2):
        u = corpus_entry(corpus2, "gaussian").field
        assert lp_norm(u, 2.0) == pytest.approx(math.sqrt(math.pi), rel=1e-5)

    @given(st.floats(-8.0, 8.0), st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, a, p):
        grid = make_grid(1, 64, 4.0)
        u = Field.scalar(grid, np.cos(2 * np.pi * grid.axis() / 4.0))
        # including amplitudes whose p-th-power sum underflows, which the
        # norm recomputes scaled by the max
        assert lp_norm(a * u, p) == pytest.approx(abs(a) * lp_norm(u, p), abs=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_triangle_inequality(self, seed):
        grid = make_grid(1, 64, 4.0)
        rng = np.random.default_rng(seed)
        u = Field.scalar(grid, rng.standard_normal(64))
        v = Field.scalar(grid, rng.standard_normal(64))
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(u + v, p) <= lp_norm(u, p) + lp_norm(v, p) + 1e-12

    def test_rejects_bad_exponent(self, grid1):
        u = Field.scalar(grid1, np.ones(512))
        with pytest.raises(ValueError):
            lp_norm(u, 0.5)
        with pytest.raises(ValueError):
            lp_norm(u, float("inf"))

    def test_unrepresentable_power_sum_is_scaled(self, corpus1):
        # |u|^p at p = 1100 underflows below max|u| = 1 and overflows above;
        # those sums are recomputed scaled by the max, exactly homogeneous
        u = corpus_entry(corpus1, "gaussian").field
        norm = lp_norm(u, 1100)
        assert norm == pytest.approx(1.0, rel=1e-2)
        assert lp_norm(0.5 * u, 1100) == 0.5 * norm
        assert lp_norm(2.0 * u, 1100) == 2.0 * norm
        assert lp_norm(1e-300 * u, 2.0) == pytest.approx(1e-300 * lp_norm(u, 2.0), rel=1e-14)
        assert lp_norm(0.0 * u, 1100) == 0.0
        # a representable sum keeps the bits of the plain midpoint rule
        h = u.grid.spacing
        assert lp_norm(u, 3.0) == (h * np.sum(np.abs(u.samples) ** 3.0)) ** (1.0 / 3.0)

    def test_region_restriction(self, grid1, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        ball = Region.centered_ball(2.0)
        assert lp_norm(u, 2.0, ball) < lp_norm(u, 2.0)
        # nearly all gaussian mass lies inside radius 3 of a width-1 profile
        wide = Region.centered_ball(3.0)
        assert lp_norm(u, 2.0, wide) == pytest.approx(lp_norm(u, 2.0), rel=1e-3)

    def test_region_validation(self, grid1):
        u = Field.scalar(grid1, np.ones(512))
        with pytest.raises(ValueError):
            lp_norm(u, 2.0, Region.centered_ball(9.0))  # pokes out of the cell


class TestTranslate:
    def test_lattice_shift_is_exact(self, grid1, corpus1):
        u = corpus_entry(corpus1, "oscillatory").field
        v = translate(u, 3 * grid1.spacing)
        np.testing.assert_array_equal(v.samples, np.roll(u.samples, -3))

    def test_fractional_shifts_compose(self, grid1, corpus1):
        # exact on band-limited content; fields with energy at the Nyquist
        # mode compose only to within that energy, since a real-output
        # phase shift can act there by a cosine factor alone
        h = grid1.spacing
        u = corpus_entry(corpus1, "bandlimited_low").field
        one = translate(translate(u, 0.3 * h), 0.3 * h)
        two = translate(u, 0.6 * h)
        assert rel_l2(one.samples, two.samples) < 1e-12
        g = corpus_entry(corpus1, "gaussian").field
        one = translate(translate(g, 0.3 * h), 0.3 * h)
        two = translate(g, 0.6 * h)
        assert rel_l2(one.samples, two.samples) < 1e-7

    def test_shift_preserves_norm(self, grid1, corpus1):
        u = corpus_entry(corpus1, "bandlimited_low").field
        v = translate(u, 0.37)
        assert lp_norm(v, 2.0) == pytest.approx(lp_norm(u, 2.0), rel=1e-12)

    def test_rejects_large_offsets(self, grid1):
        u = Field.scalar(grid1, np.ones(512))
        with pytest.raises(ValueError):
            translate(u, 8.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_shift(self, grid1, h):
        u = Field.scalar(grid1, np.ones(512))
        with pytest.raises(ValueError, match="shift must be finite"):
            translate(u, [h])

    def test_2d_vector_offset(self, grid2, corpus2):
        u = corpus_entry(corpus2, "gaussian").field
        v = translate(u, (grid2.spacing, 2 * grid2.spacing))
        np.testing.assert_array_equal(
            v.samples, np.roll(u.samples, (-1, -2), axis=(0, 1)))


class TestTableCache:
    @pytest.mark.parametrize("cached, tables", [
        (_symbol_tables, lambda grid, s: _symbol_tables(Multiplier.riesz_gradient(s), grid)),
        (_kernel_tables, lambda grid, s: _kernel_tables(grid, 1.0 + s)),
        (_periodized_weight, lambda grid, s: [_periodized_weight(grid, 1.0 + 2.0 * s)]),
        (constants, lambda grid, s: [constants(grid.dim, s)][:0]),
        (lattice_zeta, lambda grid, s: [lattice_zeta(grid.dim, s)][:0]),
    ], ids=["spectral", "direct", "norms", "constants", "lattice_zeta"])
    def test_seventy_orders_stay_within_the_bound(self, cached, tables):
        # one bounded LRU policy; the arrays it hands out are shared by every
        # caller, so they must be read-only (the scalar caches hand out none)
        grid = make_grid(1, 16, 16.0)
        for s in np.linspace(0.05, 0.95, 70):
            for t in tables(grid, float(s)):
                assert not t.flags.writeable
        assert cached.cache_info().currsize <= 64


class TestCorpus:
    def test_composition(self, corpus1):
        labels = [e.label for e in corpus1]
        assert len(labels) == len(set(labels)) == 8
        assert sum(e.smooth for e in corpus1) == 6
        assert {e.label for e in corpus1 if not e.smooth} == {
            "powertail_mild", "powertail_steep"}

    def test_support_confinement(self, grid1, corpus1):
        # all members except the band-limited pair live in the central box
        half = grid1.extent / 4.0
        outside = np.abs(grid1.axis()) >= half
        for e in corpus1:
            if e.family.startswith("random_bandlimited"):
                continue
            peak = np.max(np.abs(e.field.samples))
            assert np.max(np.abs(e.field.samples[outside])) <= 1e-12 * peak

    def test_deterministic(self, grid1):
        a = sample_corpus(grid1, seed=7)
        b = sample_corpus(grid1, seed=7)
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.field.samples, eb.field.samples)

    def test_2d_corpus(self, corpus2):
        assert len(corpus2) == 8
        for e in corpus2:
            assert e.field.grid.dim == 2
            assert np.all(np.isfinite(e.field.samples))


class TestLacunary:
    def test_spectrum_is_dyadic(self):
        grid = make_grid(1, 1024, 16.0)
        u = lacunary_field(grid, s=0.5, seed=0)
        spec = np.abs(np.fft.fft(u.samples))
        live = {int(k) for k in np.nonzero(spec > 1e-9 * spec.max())[0]}
        allowed = set()
        j = 0
        while 2 ** j <= 1024 // 4:
            allowed |= {2 ** j, 1024 - 2 ** j}
            j += 1
        assert live <= allowed

    def test_amplitudes_follow_order(self):
        grid = make_grid(1, 1024, 16.0)
        for s in (0.25, 0.75):
            u = lacunary_field(grid, s=s, seed=1)
            spec = np.abs(np.fft.fft(u.samples)) / 1024
            # mode 2^j carries amplitude 2^(-js)/2 in each half-spectrum
            assert spec[2] == pytest.approx(2.0 ** (-s) / 2.0, rel=1e-9)
            assert spec[8] == pytest.approx(2.0 ** (-3 * s) / 2.0, rel=1e-9)


class TestFieldIO:
    def test_round_trip(self, tmp_path, grid2, corpus2):
        u = corpus_entry(corpus2, "bandlimited_mid").field
        base = tmp_path / "field"
        write_field(u, base)
        v = read_field(base)
        assert v.grid == u.grid
        assert v.rank == u.rank
        np.testing.assert_array_equal(v.samples, u.samples)

    def test_header_is_json(self, tmp_path, grid1):
        u = Field.scalar(grid1, np.zeros(512))
        base = tmp_path / "f"
        write_field(u, base)
        header = json.loads((tmp_path / "f.json").read_text())
        assert header["points_per_axis"] == 512
        assert header["extent"] == 16.0

    @pytest.mark.parametrize("header, payload", [
        ('{"dim": 1, "points_per_axis": 64, "extent": 8.0}', None),
        ('{"dim": true, "points_per_axis": 64, "extent": 8.0, "rank": "scalar"}', None),
        ('{"dim": 1, "points_per_axis": 64, "extent": "8", "rank": "scalar"}', None),
        ('{"dim": 1, "points_per_axis": 64, "extent": Infinity, "rank": "scalar"}', None),
        ('{"dim": 3, "points_per_axis": 64, "extent": 8.0, "rank": "scalar"}', None),
        ('{"dim": 1, "points_per_axis": 64, "extent": 8.0, "rank": "tensor"}', None),
        ('[1, 64, 8.0, "scalar"]', None),
        ('{"dim": 1, "points_per_axis"', None),
        ("[" * 100_000, None),
        (None, np.ones(64).tobytes() + b"\0\0\0"),
        (None, np.full(64, np.nan).tobytes()),
    ])
    def test_corrupt_file_raises_field_file_error(self, tmp_path, header, payload):
        base = tmp_path / "f"
        write_field(Field.scalar(make_grid(1, 64, 8.0), np.ones(64)), base)
        if header is not None:
            (tmp_path / "f.json").write_text(header)
        if payload is not None:
            (tmp_path / "f.bin").write_bytes(payload)
        with pytest.raises(FieldFileError):
            read_field(base)

    def test_truncated_payload_rejected(self, tmp_path, grid1):
        u = Field.scalar(grid1, np.ones(512))
        base = tmp_path / "f"
        write_field(u, base)
        raw = (tmp_path / "f.bin").read_bytes()
        (tmp_path / "f.bin").write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            read_field(base)
