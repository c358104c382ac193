"""K-functional and interpolation-norm tests.

k_curve's p = 2 route, K2, has closed forms on constants and single modes;
the p = 2 mollifier family (interp._mollifier_values_p2, no route of
k_curve) must sandwich it within sqrt(2) plus scale-grid slack. Those two
are computed by disjoint code paths, so their agreement is the main oracle
here.
"""

import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (apply_symbol, corpus_entry, parseval_weights, serial_mollifier_lp,
                      unclassed_hilbert_values)

import fracgrid.core
import fracgrid.interp
from fracgrid.core import Field, lp_norm, make_grid, sample_corpus
from fracgrid.interp import (_SIGMA_COUNT, _THETA_GRID, KCurve, _exact_hilbert_values,
                             _magnitude_classes, _mollifier_values_lp, _mollifier_values_p2,
                             _sigma_grid, default_t_grid, interpolation_norm, k_curve)
from fracgrid.spectral import _half_grid_tables, exact_gradient

SANDWICH_HI = math.sqrt(2.0) * 1.05


def curve_cap(u, p):
    """Pointwise bound K(t) <= min(||u||_E0, t ||u||_E1) for the E1 norm at p."""
    e0 = lp_norm(u, p)
    if p == 2.0:
        w, mags = parseval_weights(u)
        e1 = math.sqrt(float(np.sum((1.0 + mags ** 2) * w)))
    else:
        e1 = lp_norm(u, p) + lp_norm(exact_gradient(u), p)
    return e0, e1


def mollifier_values(u, p, ts):
    """The mollifier family's upper bound on K at every p, p = 2 included."""
    ts = np.asarray(ts, dtype=float)
    return _mollifier_values_p2(u, ts) if p == 2.0 else _mollifier_values_lp(u, p, ts)


def mollifier_p2_curve(u):
    """The p = 2 mollifier family as a KCurve, which checks its invariants."""
    ts = default_t_grid()
    return KCurve(t_grid=ts, values=_mollifier_values_p2(u, ts), method="mollifier_family")


def full_parseval_k2(u, ts):
    """K2(t) = sqrt(sum_k w_k t^2 beta_k / (1 + t^2 beta_k)) from the full
    fftn spectrum, beta = 1 + |2 pi xi|^2."""
    grid = u.grid
    spec = np.fft.fftn(u.samples)
    w = (grid.spacing ** grid.dim / grid.node_count) * np.abs(spec) ** 2
    f = 2.0 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    beta = 1.0 + sum(c ** 2 for c in np.meshgrid(*([f] * grid.dim), indexing="ij"))
    tb = ts[:, None] ** 2 * beta.ravel()[None, :]
    return np.sqrt(np.sum(w.ravel()[None, :] * tb / (1.0 + tb), axis=1))


def per_sigma_reference(u, p, ts):
    """The mollifier family at p != 2 one field operation at a time: per
    sigma an apply_symbol and an exact_gradient, per theta an lp_norm."""
    norm_u = lp_norm(u, p)
    lines_a = [norm_u, 0.0]
    lines_c = [0.0, norm_u + lp_norm(exact_gradient(u), p)]
    _, mags = parseval_weights(u)
    for sigma in _sigma_grid(u.grid):
        b = apply_symbol(u, np.exp(-0.5 * sigma ** 2 * mags ** 2))
        w_part = lp_norm(b, p) + lp_norm(exact_gradient(b), p)
        for theta in _THETA_GRID[1:]:
            lines_a.append(lp_norm(u - theta * b, p))
            lines_c.append(theta * w_part)
    a, c = np.array(lines_a), np.array(lines_c)
    return np.min(a[None, :] + ts[:, None] * c[None, :], axis=1)


def no_line_bounds(a_probe, probe_thetas, norm_u, norm_b, thetas):
    """interp._line_lower_bounds at -inf: the p != 2 route then evaluates
    every line of the family."""
    return np.full((len(norm_b), thetas.size), -np.inf)


def checkerboard(dim, n):
    """(-1)^(j0 + ... ): all of the field's mass on the Nyquist mode."""
    grid = make_grid(dim, n, 16.0)
    j = np.indices(grid.shape).sum(axis=0)
    return Field.scalar(grid, np.where(j % 2 == 0, 1.0, -1.0))


class TestKCurveInvariants:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_corpus_invariants_and_caps(self, corpus1, p):
        for entry in corpus1:
            curves = [k_curve(entry.field, p)]
            if p == 2.0:
                curves.append(mollifier_p2_curve(entry.field))
            for curve in curves:
                t, v = curve.t_grid, curve.values
                slack = 1e-9 * max(1.0, v[-1])
                # constructor re-checks these; assert explicitly anyway
                assert np.all(v >= -slack)
                assert np.all(np.diff(v) >= -slack)
                assert np.all(np.diff(v / t) <= slack / t[:-1])
                e0, e1 = curve_cap(entry.field, p)
                assert np.all(v <= np.minimum(e0, t * e1) + slack), (entry.label, curve.method)

    def test_2d_entry(self, corpus2):
        u = corpus_entry(corpus2, "gaussian").field
        for p, curve in [(2.0, k_curve(u, 2.0)), (2.0, mollifier_p2_curve(u)),
                         (3.0, k_curve(u, 3.0))]:
            e0, e1 = curve_cap(u, p)
            slack = 1e-9 * max(1.0, curve.values[-1])
            assert np.all(curve.values <= np.minimum(e0, curve.t_grid * e1) + slack)

    def test_default_grid(self):
        t = default_t_grid()
        assert t.size == 200
        assert t[0] == pytest.approx(1e-6) and t[-1] == pytest.approx(1e6)

    def test_malformed_curves_rejected(self):
        t = np.geomspace(1e-2, 1e2, 16)
        good = np.minimum(1.0, t)
        with pytest.raises(ValueError, match="nondecreasing"):
            KCurve(t_grid=t, values=good[::-1], method="mollifier_family")
        with pytest.raises(ValueError, match="nonnegative"):
            KCurve(t_grid=t, values=-good, method="mollifier_family")
        with pytest.raises(ValueError, match="nonincreasing"):
            # convex growth: K/t increases
            KCurve(t_grid=t, values=t ** 2, method="mollifier_family")
        with pytest.raises(ValueError, match="increasing"):
            KCurve(t_grid=t[::-1], values=good, method="mollifier_family")
        with pytest.raises(ValueError, match="method"):
            KCurve(t_grid=t, values=good, method="bisection")


class TestKFunctional:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_constant_splits_all_or_nothing(self, grid1, p):
        # gradient-free field: E0 and E1 norms coincide, so the infimum is
        # attained at b = 0 or b = u and K = min(1, t) ||u||_p
        u = Field.scalar(grid1, np.full(grid1.shape, 2.5))
        ts = (0.03, 0.8, 1.0, 4.0, 50.0)
        for t, got in zip(ts, mollifier_values(u, p, ts)):
            want = min(1.0, t) * lp_norm(u, p)
            assert abs(got - want) <= 1e-12 * want

    def test_constant_exact_closed_form(self, grid1):
        u = Field.scalar(grid1, np.full(grid1.shape, 2.5))
        norm = lp_norm(u, 2.0)
        ts = (0.1, 1.0, 9.0)
        for t, got in zip(ts, _exact_hilbert_values(u, np.array(ts))):
            want = norm * t / math.sqrt(1.0 + t * t)
            assert abs(got - want) <= 1e-12 * want

    def test_single_mode_exact_closed_form(self, grid1):
        x = grid1.axis()
        k = 3.0
        u = Field.scalar(grid1, np.cos(2.0 * np.pi * k * x / grid1.extent))
        beta = 1.0 + (2.0 * np.pi * k / grid1.extent) ** 2
        norm = lp_norm(u, 2.0)
        ts = (0.05, 0.3, 2.0)
        for t, got in zip(ts, _exact_hilbert_values(u, np.array(ts))):
            want = norm * math.sqrt(t * t * beta / (1.0 + t * t * beta))
            assert abs(got - want) <= 1e-12 * want

    def test_exact_route_matches_raw_fft(self, corpus1, corpus2):
        # the half-spectrum route against the full-grid Parseval sum, over
        # the whole t grid in 1-d and 2-d
        ts = default_t_grid()
        for corpus in (corpus1, corpus2):
            u = corpus_entry(corpus, "gaussian").field
            want = full_parseval_k2(u, ts)
            got = k_curve(u, 2.0).values
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_mollifier_sandwich(self, corpus1):
        for label in ("gaussian", "bandlimited_mid", "powertail_mild"):
            u = corpus_entry(corpus1, label).field
            exact = k_curve(u, 2.0)
            upper = mollifier_p2_curve(u)
            ratio = upper.values / exact.values
            assert ratio.min() >= 1.0 - 1e-9, label
            assert ratio.max() <= SANDWICH_HI, (label, ratio.max())

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_large_t_recovers_lp_norm(self, corpus1, p):
        for entry in corpus1:
            curve = k_curve(entry.field, p)
            norm = lp_norm(entry.field, p)
            assert abs(curve.values[-1] - norm) <= 1e-9 * norm, entry.label

    def test_small_t_slope_is_w_norm(self, corpus1):
        u = corpus_entry(corpus1, "oscillatory").field
        exact = k_curve(u, 2.0)
        _, e1_hilbert = curve_cap(u, 2.0)
        assert exact.values[0] / exact.t_grid[0] == pytest.approx(e1_hilbert, rel=1e-9)
        moll = k_curve(u, 3.0)
        _, e1_sum = curve_cap(u, 3.0)
        assert moll.values[0] / moll.t_grid[0] == pytest.approx(e1_sum, rel=1e-12)

    def test_frequency_domination_monotonicity(self, corpus1):
        u = corpus_entry(corpus1, "bump").field
        _, mags = parseval_weights(u)
        gain = 1.0 + mags ** 2 / (1.0 + mags.max() ** 2)
        v = apply_symbol(u, gain)
        ku = k_curve(u, 2.0).values
        kv = k_curve(v, 2.0).values
        assert np.all(kv >= ku - 1e-12 * kv[-1])

    def test_zero_field(self, grid1):
        u = Field.scalar(grid1, np.zeros(grid1.shape))
        assert not np.any(k_curve(u, 2.0).values)
        assert not np.any(k_curve(u, 1.5).values)

    def test_validation(self, grid1, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        with pytest.raises(ValueError, match="p must"):
            k_curve(u, 0.5)
        grad = exact_gradient(u)
        with pytest.raises(ValueError, match="scalar"):
            k_curve(grad, 2.0)

    def test_route_follows_p_alone(self, corpus1):
        # the ladder benchmark's worker and the kfunctional CSV read
        # curve.method; p = 2 given as an int takes the p = 2 route
        u = corpus_entry(corpus1, "gaussian").field
        ts = default_t_grid()
        for p in (2, 2.0):
            curve = k_curve(u, p)
            assert curve.method == "exact_hilbert_p2"
            assert np.array_equal(curve.values, _exact_hilbert_values(u, ts))
        for p in (1.0, 1.5, 2.0 + 1e-9, 3.0):
            curve = k_curve(u, p)
            assert curve.method == "mollifier_family", p
            assert np.array_equal(curve.values, _mollifier_values_lp(u, p, ts)), p

    def test_public_functions_take_no_method(self):
        assert fracgrid.interp.__all__ == ["KCurve", "default_t_grid", "k_curve",
                                           "interpolation_norm"]
        assert list(inspect.signature(k_curve).parameters) == ["u", "p"]
        for name in fracgrid.interp.__all__:
            obj = getattr(fracgrid.interp, name)
            if inspect.isfunction(obj):
                assert "method" not in inspect.signature(obj).parameters, name


class TestHalfSpectrumRoute:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_mollifier_lp_matches_per_sigma_route(self, corpus1, corpus2, p):
        ts = default_t_grid()
        entries = list(corpus1) + [corpus_entry(corpus2, "gaussian")]
        for entry in entries:
            want = per_sigma_reference(entry.field, p, ts)
            got = k_curve(entry.field, p).values
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=entry.label)

    def test_exact_p2_sum_per_magnitude_class(self, corpus1, corpus2):
        # the Parseval weights summed per class of equal |xi| first move the
        # curve by round-off alone
        ts = default_t_grid()
        for corpus in (corpus1, corpus2):
            for entry in corpus:
                want = unclassed_hilbert_values(entry.field, ts)
                got = _exact_hilbert_values(entry.field, ts)
                assert np.all(np.abs(got - want) <= 1e-15 * want), entry.label

    @pytest.mark.parametrize("dim,n", [(1, 512), (2, 128)])
    def test_magnitude_classes_are_cached_and_read_only(self, dim, n):
        grid = make_grid(dim, n, 16.0)
        classes, inverse = _magnitude_classes(grid)
        assert _magnitude_classes(grid)[0] is classes
        assert not (classes.flags.writeable or inverse.flags.writeable)
        assert np.all(np.diff(classes) > 0.0)
        assert np.array_equal(classes[inverse], _half_grid_tables(grid)[0].ravel())

    def test_exact_p2_peak_memory_is_linear_in_nodes(self):
        grid = make_grid(2, 256, 16.0)
        u = corpus_entry(sample_corpus(grid, seed=7), "gaussian").field
        tracemalloc.start()
        try:
            k_curve(u, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, peak / 2 ** 20

    @pytest.mark.parametrize("p,method", [(2.0, "exact_hilbert_p2"), (2.0, "mollifier_family"),
                                          (1.5, "mollifier_family"), (3.0, "mollifier_family")])
    def test_one_forward_transform_per_curve(self, monkeypatch, corpus1, corpus2, p, method):
        # k_curve at p, or the p = 2 mollifier family that is no route of it
        curve = mollifier_p2_curve if method == "mollifier_family" and p == 2.0 else (
            lambda u: k_curve(u, p))
        calls = []
        for name in ("fft", "fft2", "fftn", "rfft", "rfft2", "rfftn"):
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        for corpus in (corpus1, corpus2):
            calls.clear()
            curve(corpus_entry(corpus, "gaussian").field)
            assert len(calls) == 1

    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (2, 32)])
    def test_checkerboard_mollifier_p2_curve(self, dim, n):
        # the smoothed part underflows to 0 at the coarse scales; the
        # minimizer over theta must then keep b = 0, not divide by zero
        u = checkerboard(dim, n)
        upper = mollifier_p2_curve(u)  # KCurve checks the invariants
        exact = k_curve(u, 2.0)
        assert np.all(np.isfinite(upper.values))
        assert np.all(upper.values >= exact.values * (1.0 - 1e-12))
        assert np.all(np.isfinite(_mollifier_values_p2(u, np.array([1.0]))))


@pytest.fixture(scope="module")
def gaussian_256():
    return corpus_entry(sample_corpus(make_grid(2, 256, 16.0), seed=7), "gaussian").field


class TestSigmaGroupPool:
    """The p != 2 curve from sigma groups on a thread pool, byte for byte
    against the serial route it replaced (conftest.serial_mollifier_lp)."""

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 3.0, 6.0])
    def test_matches_serial_route_bitwise(self, gaussian_256, p):
        # 1-d N=256 holds all 33 sigmas in one group; 2-d N=32 and 64 hold 32
        # and 8; 2-d N=256 one, with one theta row per block. A single t
        # prunes far more lines than the whole grid
        ts = default_t_grid()
        fields = [e.field for e in sample_corpus(make_grid(1, 256, 16.0), seed=7)]
        fields += [e.field for e in sample_corpus(make_grid(2, 64, 16.0), seed=7)]
        for seed in range(4):
            fields += [e.field for e in sample_corpus(make_grid(2, 32, 16.0), seed=seed)]
        for u in fields + [gaussian_256]:
            got = k_curve(u, p).values
            assert np.array_equal(got, serial_mollifier_lp(u, p, ts)), u.grid
        for u in fields[::4]:
            for t in (1e-3, 1.0, 30.0):
                want = serial_mollifier_lp(u, p, np.array([t]))
                assert np.array_equal(_mollifier_values_lp(u, p, np.array([t])), want), (u.grid, t)

    @pytest.mark.parametrize("p", [2.5, 50.0])
    def test_pruning_keeps_the_bytes_at_extreme_range(self, monkeypatch, p):
        # fields of amplitude 1e150 overflow every power sum, and at p = 50
        # lines of the unit fields underflow, so conftest.serial_lp_rows is no
        # oracle here: the same route with every line kept is
        units = [e.field for e in sample_corpus(make_grid(1, 256, 16.0), seed=3)]
        units.append(corpus_entry(sample_corpus(make_grid(2, 32, 16.0), seed=3), "gaussian").field)
        fields = units + [u.with_samples(1e150 * u.samples) for u in units]
        one = np.array([1.0])
        pruned = [(k_curve(u, p).values, _mollifier_values_lp(u, p, one)) for u in fields]
        monkeypatch.setattr(fracgrid.interp, "_line_lower_bounds", no_line_bounds)
        for u, (curve, single) in zip(fields, pruned):
            assert np.array_equal(curve, k_curve(u, p).values), u.grid
            assert np.array_equal(single, _mollifier_values_lp(u, p, one)), u.grid

    @pytest.mark.parametrize("dim,n", [(1, 512), (2, 64)])
    def test_evaluates_at_most_a_third_of_the_lines(self, monkeypatch, dim, n):
        # every _lp_rows row but the theta lines is the same in both routes:
        # ||u||_p, ||grad u||_p, and ||b||_p and ||grad b||_p per sigma
        u = corpus_entry(sample_corpus(make_grid(dim, n, 16.0), seed=7), "gaussian").field
        rows = []
        lp_rows = fracgrid.interp._lp_rows

        def counted(values, *args, **kwargs):
            rows.append(len(values))
            return lp_rows(values, *args, **kwargs)

        monkeypatch.setattr(fracgrid.interp, "_lp_rows", counted)
        pruned = k_curve(u, 3.0).values
        pruned_rows, rows[:] = sum(rows), []
        monkeypatch.setattr(fracgrid.interp, "_line_lower_bounds", no_line_bounds)
        assert np.array_equal(k_curve(u, 3.0).values, pruned)
        family = _SIGMA_COUNT * (_THETA_GRID.size - 1)
        lines = family - (sum(rows) - pruned_rows)
        assert lines <= family // 3, lines
        # a NaN bound keeps its line
        all_rows, rows[:] = sum(rows), []
        monkeypatch.setattr(fracgrid.interp, "_line_lower_bounds",
                            lambda *args: np.full_like(no_line_bounds(*args), np.nan))
        assert np.array_equal(k_curve(u, 3.0).values, pruned)
        assert sum(rows) == all_rows

    def test_bytes_do_not_depend_on_worker_count(self, monkeypatch):
        fields = [corpus_entry(sample_corpus(make_grid(dim, n, 16.0), seed=3), "gaussian").field
                  for dim, n in ((1, 256), (2, 128))]
        want = [k_curve(u, 3.0).values for u in fields]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads as often as possible
        try:
            for workers in (1, 3, 8):
                monkeypatch.setattr(fracgrid.core, "_worker_count", lambda: workers)
                for u, values in zip(fields, want):
                    assert np.array_equal(k_curve(u, 3.0).values, values), (workers, u.grid)
        finally:
            sys.setswitchinterval(interval)

    def test_peak_memory_of_a_two_worker_curve(self, monkeypatch, gaussian_256):
        # each worker holds one group's transforms and two row blocks, about
        # 4 MiB here; the serial route's (20, N^2) block alone took 10 MiB
        monkeypatch.setattr(fracgrid.core, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            k_curve(gaussian_256, 3.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20, peak / 2 ** 20

    def test_unrepresentable_power_sums_give_a_curve(self):
        # at p = 50 one u - theta b line of max 3e-10 underflows, and at
        # p = 1e4 every line does; those norms are recomputed scaled by the max
        u = corpus_entry(sample_corpus(make_grid(1, 512, 16.0), seed=7), "gaussian").field
        assert k_curve(u, 50.0).values.max() == pytest.approx(0.97947, abs=1e-5)
        # the curve tops out at ||u||_p, the line of b = 0
        assert k_curve(u, 1e4).values[-1] == pytest.approx(lp_norm(u, 1e4), rel=1e-12)

    def test_import_leaves_the_pool_unloaded(self):
        # so that a fresh `fracgrid verify` process does not pay for it
        code = ("import sys, fracgrid.cli; "
                "assert 'concurrent.futures' not in sys.modules, 'loaded'")
        env = dict(os.environ, PYTHONPATH=str(Path(fracgrid.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


class TestInterpolationNorm:
    def test_zero_field(self, grid1):
        u = Field.scalar(grid1, np.zeros(grid1.shape))
        assert interpolation_norm(u, 0.5, 2.0, 2.0) == 0.0

    @pytest.mark.parametrize("theta,q,p", [(0.5, 2.0, 2.0), (0.3, 1.5, 1.5)])
    def test_homogeneity(self, corpus1, theta, q, p):
        u = corpus_entry(corpus1, "gaussian").field
        base = interpolation_norm(u, theta, q, p)
        scaled = interpolation_norm(3.7 * u, theta, q, p)
        assert abs(scaled - 3.7 * base) <= 1e-10 * scaled

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_p2_ratio_band_against_frequency_seminorm(self, corpus1, s):
        for entry in corpus1:
            value = interpolation_norm(entry.field, s, 2.0, 2.0)
            w, mags = parseval_weights(entry.field)
            ref = lp_norm(entry.field, 2.0) + math.sqrt(float(np.sum(w * mags ** (2 * s))))
            assert 1.0 / 8.0 <= value / ref <= 8.0, (entry.label, value / ref)

    def test_monotone_under_frequency_domination(self, corpus1):
        u = corpus_entry(corpus1, "bump").field
        _, mags = parseval_weights(u)
        gain = 1.0 + mags ** 2 / (1.0 + mags.max() ** 2)
        v = apply_symbol(u, gain)
        assert interpolation_norm(v, 0.5, 2.0, 2.0) >= interpolation_norm(u, 0.5, 2.0, 2.0)

    def test_validation(self, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        for theta in (0.0, 1.0, 1.2, -0.1):
            with pytest.raises(ValueError, match="theta"):
                interpolation_norm(u, theta, 2.0, 2.0)
        with pytest.raises(ValueError, match="q must"):
            interpolation_norm(u, 0.5, 0.8, 2.0)
