"""Exponent arithmetic and the check harness.

The exponent identities have closed forms, so those tests pin exact values.
The checks are exercised on the shared corpus: conventions (zero fields,
regime mismatches, roughness rejection) are asserted alongside the honest
pass/fail behavior on fields designed to land on either side.
"""

import ast
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import corpus_entry, zero_padded_upsample

import fracgrid
import fracgrid.norms
from fracgrid import verify
from fracgrid.config import CHECK_IDS, ConfigError, RunConfig, default_run_config
from fracgrid.core import Field, lp_norm, make_grid, sample_corpus
from fracgrid.norms import dsp_norm, translation_modulus
from fracgrid.spectral import riesz_gradient_spectral
from fracgrid.verify import (CheckReport, Exponents, bandlimited_family,
                             check_blowup_family, check_contiguity_p2,
                             check_embedding, check_frechet_kolmogorov,
                             check_ftc_roundtrip, check_holder_ladder,
                             check_integration_by_parts, check_lyapunov,
                             check_s_limit, check_translation_estimate,
                             exponents, frechet_kolmogorov_probe, run_suite,
                             scaled_bump_family)
from fracgrid.verify import _median, _refine, _upsample_axis


class TestExponents:
    def test_subcritical(self):
        e = exponents(2, 0.5, 2.0)
        assert e.regime == "subcritical"
        assert e.p_star == pytest.approx(4.0, abs=1e-14)
        assert e.mu_star is None

    def test_critical(self):
        e = exponents(1, 0.5, 2.0)
        assert e.regime == "critical"
        assert e.p_star is None and e.mu_star is None

    def test_supercritical(self):
        e = exponents(1, 0.75, 2.0)
        assert e.regime == "supercritical"
        assert e.p_star is None
        assert e.mu_star == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("n, s, p, parameter, admitted, refused, need", [
        (1, 0.25, 2.0, "q", 3.0, 4.0, "subcritical needs q in [1, p_star = 4)"),
        (1, 0.25, 2.0, "q", 1.0, 0.5, "subcritical needs q in [1, p_star = 4)"),
        (2, 0.25, 2.0, "q", 2.0, 3.0, "subcritical needs q in [1, p_star = 2.66667)"),
        (1, 0.5, 2.0, "q", 12.0, np.inf, "critical needs finite q >= 1"),
        (1, 0.5, 2.0, "q", 1.0, 0.5, "critical needs finite q >= 1"),
        (1, 0.75, 2.0, "mu", 0.2, 0.25, "supercritical needs mu in (0, mu_star = 0.25)"),
    ])
    def test_parameter_and_mismatch(self, n, s, p, parameter, admitted, refused, need):
        # q = p*, q < 1, critical q = inf and mu = mu* are each refused
        e = exponents(n, s, p)
        assert e.parameter == parameter
        assert e.mismatch(admitted) == ""
        assert e.mismatch(refused) == f"regime/parameter mismatch: {need}, got {refused}"

    def test_r_s_fixed_point(self):
        # q = p must reproduce p for every s
        for s in (0.1, 0.5, 0.9):
            e = exponents(1, s, 2.0)
            assert e.r_s(2.0) == pytest.approx(2.0, rel=1e-14)

    def test_r_s_monotone_in_q(self):
        e = exponents(2, 0.5, 1.5)
        qs = np.linspace(1.5, 20.0, 30)
        rs = [e.r_s(q) for q in qs]
        assert all(b > a for a, b in zip(rs, rs[1:]))

    def test_r_s_limit_hits_fractional_critical(self):
        # as q approaches the classical Sobolev exponent np/(n-p), the
        # interpolated integrability approaches the fractional one
        n, p, s = 2, 1.5, 0.5
        q_classical = n * p / (n - p)  # 6
        e = exponents(n, s, p)
        assert e.r_s(q_classical) == pytest.approx(e.p_star, rel=1e-12)

    def test_r_s_at_infinity(self):
        e = exponents(1, 0.25, 2.0)
        assert e.r_s(np.inf) == pytest.approx(2.0 / 0.75, rel=1e-14)

    def test_alpha_endpoints(self):
        e = exponents(2, 0.5, 2.0)
        assert e.alpha(2.0) == pytest.approx(0.0, abs=1e-14)
        assert e.alpha(4.0) == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(ValueError):
            e.alpha(5.0)
        with pytest.raises(ValueError, match="subcritical"):
            exponents(1, 0.75, 2.0).alpha(3.0)

    def test_alpha_high_endpoints(self):
        # needs p > n with sp < n: n=1, p=2, s=0.25 gives p* = 4, lo = 8/3
        e = exponents(1, 0.25, 2.0)
        lo = 2.0 / 0.75
        assert e.alpha_high(lo) == pytest.approx(0.0, abs=1e-12)
        assert e.alpha_high(4.0) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError, match="p > n"):
            exponents(2, 0.25, 2.0).alpha_high(3.0)

    def test_beta_worked_example(self):
        assert Exponents.beta(2.0, 3.0, 6.0) == pytest.approx(0.5, abs=1e-14)
        assert Exponents.beta(2.0, 2.0 + 1e-9, 6.0) == pytest.approx(0.0, abs=1e-8)
        with pytest.raises(ValueError):
            Exponents.beta(2.0, 6.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must"):
            exponents(3, 0.5, 2.0)
        with pytest.raises(ValueError, match="s must"):
            exponents(1, 1.0, 2.0)
        with pytest.raises(ValueError, match="p must"):
            exponents(1, 0.5, 0.5)


class TestRefine:
    def test_matches_at_original_nodes(self, grid1, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        fine = _refine(u)
        assert fine.grid.points_per_axis == 2 * grid1.points_per_axis
        assert np.max(np.abs(fine.samples[::2] - u.samples)) < 1e-13

    def test_2d(self, corpus2):
        u = corpus_entry(corpus2, "bump").field
        fine = _refine(u)
        assert np.max(np.abs(fine.samples[::2, ::2] - u.samples)) < 1e-13

    def test_bandlimited_exact_everywhere(self, grid1):
        # a pure mode below Nyquist refines to the same mode
        x = grid1.axis()
        u = Field.scalar(grid1, np.cos(2.0 * np.pi * 3.0 * x / grid1.extent))
        fine = _refine(u)
        xf = fine.grid.axis()
        expected = np.cos(2.0 * np.pi * 3.0 * xf / grid1.extent)
        assert np.max(np.abs(fine.samples - expected)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("dim, n", [(1, 16), (1, 256), (1, 4096),
                                        (2, 16), (2, 64), (2, 128)])
    def test_irfft_padding_is_the_explicit_padding_bitwise(self, dim, n, seed):
        for entry in sample_corpus(make_grid(dim, n, 16.0), seed):
            for axis in range(dim):
                arr = entry.field.samples
                assert np.array_equal(_upsample_axis(arr, axis),
                                      zero_padded_upsample(arr, axis)), (entry.label, axis)


class TestFtcRoundtrip:
    def test_spectral_machine_precision(self, corpus1):
        for label in ("gaussian", "oscillatory", "powertail_mild"):
            rep = check_ftc_roundtrip(corpus_entry(corpus1, label).field, 0.5)
            assert rep.passed and rep.measured <= 1e-10

    def test_quadrature_loose(self, corpus1):
        rep = check_ftc_roundtrip(corpus_entry(corpus1, "gaussian").field,
                                  0.5, "quadrature")
        assert rep.passed and rep.measured <= 1e-2

    def test_zero_field_passes(self, grid1):
        rep = check_ftc_roundtrip(Field.scalar(grid1, np.zeros(grid1.shape)), 0.5)
        assert rep.passed and rep.measured == 0.0

    def test_bad_path(self, corpus1):
        with pytest.raises(ValueError, match="path"):
            check_ftc_roundtrip(corpus_entry(corpus1, "gaussian").field, 0.5, "exact")


class TestTranslationEstimate:
    def test_smooth_corpus_stable(self, corpus1):
        fields = [e.field for e in corpus1 if e.smooth]
        rep = check_translation_estimate(fields, 0.5, 2.0, (0.5, 0.25, 0.125))
        assert rep.passed
        assert rep.bound == "none (existential)"
        assert np.isfinite(rep.measured) and rep.measured > 0.0

    def test_scale_invariant(self, corpus1):
        u = corpus_entry(corpus1, "gaussian").field
        r1 = check_translation_estimate([u], 0.5, 2.0, (0.5, 0.25))
        r2 = check_translation_estimate([1e6 * u], 0.5, 2.0, (0.5, 0.25))
        assert r2.measured == pytest.approx(r1.measured, rel=1e-12)

    def test_constant_field_zero_gradient(self, grid1):
        u = Field.scalar(grid1, np.full(grid1.shape, 2.5))
        rep = check_translation_estimate([u], 0.5, 2.0, (0.5, 0.25))
        assert rep.passed is False  # sup over the family is 0, not a ratio
        assert rep.measured == 0.0 and rep.notes == ""

    def test_hard_failure_detected(self, grid1):
        # mean-free part zero but field translates nontrivially is impossible;
        # fabricate it by lying: a pure high mode has D^s != 0, so instead a
        # constant plus nothing stays honest and the zero-sup case above covers
        # the convention. Here assert empty corpus is rejected.
        with pytest.raises(ValueError, match="nonempty"):
            check_translation_estimate([], 0.5, 2.0, (0.5,))

    def test_one_sweep_per_grid(self, corpus1, monkeypatch):
        # the base sweep is the head of the extended one, so each field is
        # swept once on its own grid and once refined
        calls = []

        def counting(u, p, h_list):
            calls.append(len(h_list))
            return translation_modulus(u, p, h_list)

        monkeypatch.setattr(verify, "translation_modulus", counting)
        fields = [e.field for e in corpus1 if e.smooth][:3]
        check_translation_estimate(fields, 0.5, 2.0, (0.5, 0.25, 0.125))
        assert sorted(calls) == [3] * 3 + [4] * 3


class TestEmbedding:
    def test_subcritical(self, corpus1):
        fields = [e.field for e in corpus1 if e.smooth]
        rep = check_embedding(fields, 1, 0.25, 2.0, 3.0)
        assert rep.passed and rep.params["regime"] == "subcritical"

    def test_critical_any_finite_q(self, corpus1):
        fields = [e.field for e in corpus1 if e.smooth]
        rep = check_embedding(fields, 1, 0.5, 2.0, 12.0)
        assert rep.passed and rep.params["regime"] == "critical"

    def test_supercritical_holder(self, corpus1):
        fields = [e.field for e in corpus1 if e.smooth]
        rep = check_embedding(fields, 1, 0.75, 2.0, 0.2)
        assert rep.passed and rep.params["kind"] == "holder_ratio"

    def test_regime_mismatch_rejected(self, corpus1):
        fields = [e.field for e in corpus1 if e.smooth]
        with pytest.raises(ValueError, match="mismatch"):
            check_embedding(fields, 1, 0.25, 2.0, 5.0)  # q > p* = 4
        with pytest.raises(ValueError, match="mismatch"):
            check_embedding(fields, 1, 0.75, 2.0, 0.3)  # mu > mu* = 0.25

    def test_q_equals_p_ratio_below_one(self, corpus1):
        # restriction to a subdomain cannot exceed the full norm
        fields = [e.field for e in corpus1 if e.smooth]
        rep = check_embedding(fields, 1, 0.25, 2.0, 2.0)
        assert rep.measured <= 1.0 + 1e-12

    def test_dimension_mismatch(self, corpus2):
        with pytest.raises(ValueError, match="dimension"):
            check_embedding([corpus2[0].field], 1, 0.25, 2.0, 3.0)


class TestBlowupFamily:
    @pytest.mark.parametrize("q", [3.0, 4.0, 4.0 * (1.0 + 1e-13)])
    def test_q_at_or_below_critical_rejected(self, grid1, q):
        # p* = 4; below it the ratio stays bounded, so there is no blow-up to probe
        with pytest.raises(ValueError, match=r"blow-up probe needs q > p_star = 4, got "):
            check_blowup_family(1, 0.25, 2.0, q, grid1)

    def test_dimension_mismatch(self, grid1):
        # n = 2 has p* = 8/3; 1-d fields would be measured against it
        with pytest.raises(ValueError, match="grid dimension 1 does not match n = 2"):
            check_blowup_family(2, 0.25, 2.0, 12.0, make_grid(1, 256, 16.0))

    def test_supercritical_rejected(self, grid1):
        with pytest.raises(ValueError, match="mismatch"):
            check_blowup_family(1, 0.75, 2.0, 6.0, grid1)

    def test_above_critical_growth_measured(self, grid1):
        rep = check_blowup_family(1, 0.25, 2.0, 6.0, grid1)
        ratios = rep.params["family_ratios"]
        # the ratio must at least grow monotonically along the family
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert rep.measured == pytest.approx(ratios[-1] / ratios[0], rel=1e-12)
        assert rep.bound == 10.0


class TestContiguity:
    def test_corpus_spread(self, corpus1):
        rep = check_contiguity_p2([e.field for e in corpus1], 0.5)
        assert rep.passed and rep.measured <= 10.0
        assert len(rep.params["ratios"]) == len(corpus1)


class TestIntegrationByParts:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_duality_machine_precision(self, corpus1, s):
        u = corpus_entry(corpus1, "bandlimited_low").field
        psi = riesz_gradient_spectral(corpus_entry(corpus1, "bandlimited_mid").field, s)
        rep = check_integration_by_parts(u, psi, s)
        assert rep.passed and rep.measured <= 1e-10

    def test_zero_pair(self, grid1):
        z = Field.scalar(grid1, np.zeros(grid1.shape))
        psi = Field.vector(grid1, np.zeros((1,) + grid1.shape))
        rep = check_integration_by_parts(z, psi, 0.5)
        assert rep.passed and rep.measured == 0.0


class TestSLimit:
    def test_gaussian_converges(self, corpus1):
        rep = check_s_limit(corpus_entry(corpus1, "gaussian").field, 2.0)
        assert rep.passed
        errs = rep.measured
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.1 * rep.params["grad_norm"]

    def test_rough_field_rejected(self, corpus1):
        with pytest.raises(ValueError, match="not smooth"):
            check_s_limit(corpus_entry(corpus1, "powertail_steep").field, 2.0)

    def test_guard_and_limit_share_one_gradient_transform(self, monkeypatch, corpus1):
        calls = []
        gradient = verify.exact_gradient

        def counted(f):
            calls.append(f)
            return gradient(f)
        monkeypatch.setattr(verify, "exact_gradient", counted)
        monkeypatch.setattr(fracgrid.norms, "exact_gradient", counted)
        assert check_s_limit(corpus_entry(corpus1, "gaussian").field, 2.0).passed
        assert len(calls) == 1


class TestFrechetKolmogorov:
    def test_clustered_family_compact(self, grid1):
        family = bandlimited_family(grid1, 64, seed=7)
        rep = check_frechet_kolmogorov(partial(frechet_kolmogorov_probe, family, 2.0), eps=0.1)
        delta, covering = rep.measured
        assert rep.passed
        assert delta > 0.0
        assert covering <= 32

    def test_unbounded_family_rejected(self, grid1):
        family = bandlimited_family(grid1, 8, seed=7)
        family[3] = 1e6 * family[3]
        with pytest.raises(ValueError, match="bounded"):
            frechet_kolmogorov_probe(family, 2.0)

    def test_tiny_family_rejected(self, grid1):
        with pytest.raises(ValueError, match="two members"):
            frechet_kolmogorov_probe(bandlimited_family(grid1, 1, seed=7), 2.0)

    def test_one_sweep_per_member(self, monkeypatch):
        # every shift of a member comes from one call, shared by the sups
        grid = make_grid(1, 64, 16.0)
        family = bandlimited_family(grid, 16, seed=3)
        calls = []

        def counting(u, p, h_list):
            calls.append((id(u), len(h_list)))
            return translation_modulus(u, p, h_list)

        monkeypatch.setattr(verify, "translation_modulus", counting)
        probe = frechet_kolmogorov_probe(family, 2.0)
        check_frechet_kolmogorov(lambda: probe, eps=0.1)
        assert sorted(calls) == sorted((id(u), 12) for u in probe[0])

    @pytest.mark.parametrize("dim, n", [(1, 256), (2, 64)])
    @pytest.mark.parametrize("p", [1.25, 3.0, 6.0])
    def test_family_normalized_at_the_probes_p(self, dim, n, p):
        # at the p the probe measures, not at p = 2: a family scaled at p = 2
        # reads delta(0.05) = 0 at 2-d p = 1.25
        grid = make_grid(dim, n, 16.0)
        family = bandlimited_family(grid, 64, seed=7)
        probe = frechet_kolmogorov_probe(family, p)
        assert all(abs(dsp_norm(u, 0.5, p) - 1.0) <= 1e-12 for u in probe[0])
        delta, _ = check_frechet_kolmogorov(lambda: probe, eps=0.05).measured
        assert 0.0 < delta < probe[2][-1]
        family[5] = 0.0 * family[5]
        with pytest.raises(ValueError, match="family member 5 has fractional norm 0.0"):
            frechet_kolmogorov_probe(family, p)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_covering_matches_the_centre_loop(self, dim):
        grid = make_grid(dim, 64, 16.0)
        probe = frechet_kolmogorov_probe(bandlimited_family(grid, 64, seed=5), 2.0)
        region = verify._default_region(grid)
        for eps in (0.05, 0.1, 0.2):
            centers = []
            for u in probe[0]:
                if all(lp_norm(u - c, 2.0, region) > eps for c in centers):
                    centers.append(u)
            rep = check_frechet_kolmogorov(lambda: probe, eps=eps)
            assert rep.measured[1] == len(centers)

    def test_one_probe_for_every_eps(self, monkeypatch):
        # the expansion and the three eps cases together normalize the family
        # once: 64 dsp_norm calls, and one translation sweep for every eps
        calls = []

        def counting(u, s, p):
            calls.append((s, p))
            return dsp_norm(u, s, p)

        monkeypatch.setattr(verify, "dsp_norm", counting)
        cfg = RunConfig(grid=make_grid(1, 64, 16.0), checks=("frechet_kolmogorov",))
        reports = [thunk() for _, thunk in verify._frechet_kolmogorov_cases(cfg, {})]
        assert len(calls) == 64
        assert [r.params["eps"] for r in reports] == [0.05, 0.1, 0.2]
        family = bandlimited_family(cfg.grid, 64, seed=cfg.seed)
        alone = [check_frechet_kolmogorov(partial(frechet_kolmogorov_probe, family, 2.0), eps=eps)
                 for eps in (0.05, 0.1, 0.2)]
        assert [r.measured for r in reports] == [r.measured for r in alone]
        assert [r.params for r in reports] == [r.params for r in alone]

    def test_the_probe_runs_inside_the_first_check(self, monkeypatch):
        # so the first case's runtime_ms, and its traced span, include the
        # family build and the probe, and either one that raises does so
        # inside a check
        checking, seen = [], []
        check = verify.check_frechet_kolmogorov
        probe, build = verify.frechet_kolmogorov_probe, verify.bandlimited_family

        def checking_check(probe, eps):
            checking.append(eps)
            try:
                return check(probe, eps=eps)
            finally:
                checking.pop()

        def recording_probe(family, p):
            seen.append(("probe", list(checking)))
            return probe(family, p)

        def recording_build(grid, count, seed):
            seen.append(("build", list(checking)))
            return build(grid, count, seed=seed)

        monkeypatch.setattr(verify, "check_frechet_kolmogorov", checking_check)
        monkeypatch.setattr(verify, "frechet_kolmogorov_probe", recording_probe)
        monkeypatch.setattr(verify, "bandlimited_family", recording_build)
        cfg = RunConfig(grid=make_grid(1, 64, 16.0), checks=("frechet_kolmogorov",))
        for _, thunk in verify._frechet_kolmogorov_cases(cfg, {}):
            thunk()
        assert seen == [("build", [0.05]), ("probe", [0.05])]

    def test_a_probe_that_raises_errors_every_eps(self, monkeypatch):
        monkeypatch.setattr(verify, "bandlimited_family", lambda grid, count, seed: [
            Field.scalar(grid, np.zeros(grid.shape))])
        reports = run_suite(RunConfig(grid=make_grid(1, 64, 16.0),
                                      checks=("frechet_kolmogorov",)))
        assert [r.params for r in reports] == [{"eps": eps} for eps in (0.05, 0.1, 0.2)]
        assert all(r.notes == "error: family must have at least two members" for r in reports)


class TestLyapunov:
    def test_corpus(self, corpus1):
        for e in corpus1:
            rep = check_lyapunov(e.field, 2.0, 3.0, 6.0)
            assert rep.passed, e.label

    def test_fuzz_never_fails(self, grid1):
        # log-convexity of L^p norms is an identity-level inequality on a
        # finite measure space; hammer it with arbitrary fields
        rng = np.random.default_rng(42)
        for _ in range(1000):
            u = Field.scalar(grid1, rng.standard_normal(grid1.shape)
                             * np.exp(rng.uniform(-3, 3)))
            rep = check_lyapunov(u, 1.5, 2.5, 6.0)
            assert rep.passed

    def test_zero_field(self, grid1):
        rep = check_lyapunov(Field.scalar(grid1, np.zeros(grid1.shape)), 2.0, 3.0, 6.0)
        assert rep.passed and rep.measured == 0.0

    def test_ordering_enforced(self, corpus1):
        with pytest.raises(ValueError, match="p < q < r"):
            check_lyapunov(corpus_entry(corpus1, "bump").field, 3.0, 2.0, 6.0)


class TestHolderLadder:
    def test_scaled_bumps(self, grid1):
        rep = check_holder_ladder(scaled_bump_family(grid1, 16), 0.6, 0.3)
        ratio, covering = rep.measured
        assert rep.passed
        assert ratio <= 1.0 + 1e-9
        assert covering <= 8

    def test_2d(self, grid2):
        rep = check_holder_ladder(scaled_bump_family(grid2, 16), 0.6, 0.3)
        assert rep.passed

    def test_identical_members_make_a_net_of_one(self, grid1):
        # eps_net is 0 here, and a zero distance still covers
        fam = [Field.scalar(grid1, np.zeros(grid1.shape))] * 4
        rep = check_holder_ladder(fam, 0.6, 0.3)
        assert rep.params["eps_net"] == 0.0
        assert rep.measured == [0.0, 1] and rep.passed

    def test_greedy_net_takes_uncovered_members_in_order(self):
        # 0.0 covers 0.1 (at exactly eps) and 0.05; 0.25 is the second
        # centre and covers 0.3; at eps = 0 every distinct member is a centre
        rows = np.array([[0.0], [0.1], [0.25], [0.3], [0.05]])

        def distance(rows, row):
            return np.abs(rows - row)[:, 0]
        assert verify._greedy_net(rows, 0.1, distance) == 2
        assert verify._greedy_net(rows, 0.0, distance) == 5

    def test_exponent_order_enforced(self, grid1):
        fam = scaled_bump_family(grid1, 4)
        with pytest.raises(ValueError, match="alpha < beta"):
            check_holder_ladder(fam, 0.3, 0.6)

    def test_unbounded_rejected(self, grid1):
        fam = scaled_bump_family(grid1, 8)
        fam[0] = 1e6 * fam[0]
        with pytest.raises(ValueError, match="bounded"):
            check_holder_ladder(fam, 0.6, 0.3)


_S = (0.25, 0.5, 0.75)
_LABELS = ("gaussian", "gaussian_narrow", "bump", "oscillatory", "bandlimited_low",
           "bandlimited_mid", "powertail_mild", "powertail_steep")


def _default_cases(embedding_values):
    return ([("ftc_roundtrip", {"s": s, "path": path})
             for s in _S for path in ("spectral", "quadrature")]
            + [("translation_estimate", {"s": s, "p": 2.0}) for s in _S]
            + [("embedding", {"s": s, "p": 2.0, "value": v})
               for s, v in zip(_S, embedding_values)]
            + [("contiguity_p2", {"s": s}) for s in _S]
            + [("integration_by_parts", {"s": s}) for s in _S]
            + [("s_limit", {"p": 2.0})]
            + [("frechet_kolmogorov", {"eps": eps}) for eps in (0.05, 0.1, 0.2)]
            + [("lyapunov", {"label": label}) for label in _LABELS]
            + [("holder_ladder", {})])


class TestSuiteRegistry:
    def test_registry_covers_check_ids_in_order(self):
        assert tuple(verify._CASES) == CHECK_IDS

    @pytest.mark.parametrize("dim, n, embedding_values", [
        (1, 256, (3.0, 3.0, 0.2)),  # sub-, critical, supercritical
        (2, 64, (3.0, 3.0, 3.0)),   # all subcritical; q = 3 > p* = 8/3 at s = 0.25 errors
    ])
    def test_default_expansion_pinned(self, dim, n, embedding_values):
        cfg = RunConfig(grid=make_grid(dim, n, 16.0))
        corpus = {e.label: e for e in sample_corpus(cfg.grid, cfg.seed)}
        cases = [(cid, params) for cid in cfg.checks
                 for params, _ in verify._CASES[cid](cfg, corpus)]
        assert len(cases) == 31
        assert cases == _default_cases(embedding_values)

    @pytest.mark.parametrize("dim, n", [(1, 256), (2, 64)])
    def test_expansions_only_bind_thunks(self, monkeypatch, dim, n):
        # every input a check builds is built inside its case's clock
        calls = []
        for name in ("dsp_norm", "bandlimited_family", "scaled_bump_family",
                     "riesz_gradient_spectral", "translation_modulus"):
            monkeypatch.setattr(verify, name, lambda *a, name=name, **k: calls.append(name))
        cfg = RunConfig(grid=make_grid(dim, n, 16.0))
        corpus = {e.label: e for e in sample_corpus(cfg.grid, cfg.seed)}
        cases = [case for cid in cfg.checks for case in verify._CASES[cid](cfg, corpus)]
        assert len(cases) == 31
        assert calls == []

    def test_suite_calls_checks_through_module_globals(self, monkeypatch):
        # the benchmark tracer wraps module attributes; a registry holding
        # the check functions themselves would bypass the wrapper
        calls = []
        original = verify.check_lyapunov

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "check_lyapunov", counting)
        cfg = RunConfig(grid=make_grid(1, 128, 16.0), checks=("lyapunov",))
        reports = run_suite(cfg)
        assert len(calls) == len(reports) == len(sample_corpus(cfg.grid, cfg.seed))


class TestRunSuite:
    def test_default_config_all_pass(self):
        reports = run_suite(default_run_config())
        assert len(reports) > 0
        assert all(r.passed for r in reports)

    def test_suite_leaves_numpy_ma_unloaded(self):
        # np.median imports numpy.ma, 10-18 ms of a fresh `fracgrid verify` process
        code = ("import sys; from dataclasses import replace; "
                "from fracgrid.config import default_run_config; "
                "from fracgrid.core import make_grid; from fracgrid.verify import run_suite; "
                "run_suite(replace(default_run_config(), grid=make_grid(2, 32, 16.0))); "
                "assert 'numpy.ma' not in sys.modules, 'loaded'")
        env = dict(os.environ, PYTHONPATH=str(Path(fracgrid.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120, env=env)

    @pytest.mark.parametrize("size", [1, 2, 5, 64])
    def test_median_is_numpys(self, size):
        values = np.random.default_rng(size).lognormal(size=size)
        assert _median(values) == np.median(values)

    def test_report_order_follows_config(self):
        cfg = RunConfig(grid=make_grid(1, 128, 16.0),
                        checks=("lyapunov", "ftc_roundtrip"))
        reports = run_suite(cfg)
        ids = [r.check_id for r in reports]
        assert ids == sorted(ids, key=("lyapunov", "ftc_roundtrip").index)
        assert ids[0] == "lyapunov" and ids[-1] == "ftc_roundtrip"

    def test_empty_checks(self):
        # an empty suite would report 0/0 passed and exit 0
        with pytest.raises(ConfigError, match="checks: must not be empty"):
            RunConfig(grid=make_grid(1, 128, 16.0), checks=())

    def test_deterministic_given_seed(self):
        cfg = RunConfig(grid=make_grid(1, 128, 16.0), seed=3,
                        checks=("frechet_kolmogorov", "holder_ladder"))
        def strip(reports):
            out = []
            for r in reports:
                d = r.as_dict()
                d.pop("runtime_ms")
                out.append(d)
            return json.dumps(out, sort_keys=True)
        assert strip(run_suite(cfg)) == strip(run_suite(cfg))

    def test_check_errors_become_failed_reports(self):
        # q beyond p* at s = 0.25 is a regime mismatch inside check_embedding;
        # the suite must capture it rather than abort
        cfg = RunConfig(grid=make_grid(1, 128, 16.0),
                        s_list=(0.25,), q_list=(10.0,), checks=("embedding",))
        reports = run_suite(cfg)
        assert len(reports) == 1
        assert reports[0].passed is False
        assert "error" in reports[0].notes

    @pytest.mark.parametrize("outcome", ["pass", "fail", "raise"])
    def test_runtime_spans_the_whole_case(self, monkeypatch, outcome):
        # run_suite is the one clock: a check that sleeps 30 ms is timed the
        # same whether it passes, fails or raises
        original = verify.check_lyapunov

        def slow(*args, **kwargs):
            rep = original(*args, **kwargs)
            time.sleep(0.03)
            if outcome == "raise":
                raise ValueError("slow failure")
            return replace(rep, passed=outcome == "pass")

        monkeypatch.setattr(verify, "check_lyapunov", slow)
        reports = run_suite(RunConfig(grid=make_grid(1, 64, 16.0), checks=("lyapunov",)))
        assert reports and all(r.passed == (outcome == "pass") for r in reports)
        assert all(r.runtime_ms >= 30 for r in reports), [r.runtime_ms for r in reports]

    def test_only_run_suite_reads_the_clock(self):
        # no check function times itself: run_suite reads perf_counter and
        # _elapsed_ms, which reads it once more, and nothing else does
        readers = {}
        for stmt in ast.parse(Path(verify.__file__).read_text()).body:
            names = {n.attr if isinstance(n, ast.Attribute) else n.id
                     for n in ast.walk(stmt) if isinstance(n, (ast.Attribute, ast.Name))}
            if names & {"perf_counter", "_elapsed_ms"}:
                owner = getattr(stmt, "name", "<module>")
                readers[owner] = names & {"perf_counter", "_elapsed_ms"}
        assert readers == {
            "_elapsed_ms": {"perf_counter"},
            "run_suite": {"perf_counter", "_elapsed_ms"},
        }

    def test_reports_json_safe(self):
        reports = run_suite(RunConfig(grid=make_grid(1, 128, 16.0),
                                      checks=("translation_estimate", "s_limit")))
        text = json.dumps([r.as_dict() for r in reports], allow_nan=False)
        assert "translation_estimate" in text
