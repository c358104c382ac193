"""Acceptance gate: the eleven shipping criteria, one test each.

Every test prints a single [PASS]/[FAIL] line (routed past pytest's capture
so the lines always appear in the run log) and then asserts. Criteria 4 and
5 state bounds that the measured operators genuinely do not meet at desk
scale; they are implemented exactly as stated and are expected to stay red:

* criterion 4: the kernel translation integral times s(1-s) spans a 19x
  range over s in [0.05, 0.95] in one dimension (the product behaves like
  4(1-s), so the band across the s sweep is ~4/0.2), far outside a factor-4
  band. The (1, 0.5) self-convergence fixture itself reproduces to 1%.
* criterion 5: the restriction ratio along the power-tail family grows like
  h^(n/q - a_max) as the grid resolves the singularity, and a_max is pinned
  below (n - sp)/p so the fractional norm stays finite. At q = 1.5 p* that
  exponent is ~0.07, giving ~1.7x growth at reachable grids, not 10x.
"""

import csv
import json
import math
import sys
import time
from functools import partial

import numpy as np

from fracgrid.cli import main as cli_main
from fracgrid.core import (Field, lacunary_field, lp_norm, make_grid,
                           remove_mean, sample_corpus)
from fracgrid.direct import (ftc_convolution_quadrature, kernel_translation_l1,
                             riesz_gradient_quadrature)
from fracgrid.interp import KCurve, _mollifier_values_p2, k_curve
from fracgrid.norms import gagliardo_seminorm, translation_modulus
from fracgrid.spectral import exact_gradient, riesz_gradient_spectral
from fracgrid.verify import (bandlimited_family, check_blowup_family,
                             check_contiguity_p2, check_embedding,
                             check_frechet_kolmogorov, check_ftc_roundtrip,
                             check_holder_ladder, check_integration_by_parts,
                             frechet_kolmogorov_probe, scaled_bump_family)

from conftest import parseval_weights

S_TRIPLE = (0.25, 0.5, 0.75)

_grid1 = make_grid(1, 512, 16.0)
_corpus1 = sample_corpus(_grid1, 7)
_grid2 = make_grid(2, 128, 16.0)
_corpus2 = sample_corpus(_grid2, 7)


# one line per criterion; conftest replays these after capture ends so the
# verdicts appear in every run log, not only on failures
CRITERION_LINES: list = []


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d}: {name} ({detail})"
    CRITERION_LINES.append(line)
    print(line, flush=True)
    assert passed, line


def _entry(corpus, label):
    return next(e for e in corpus if e.label == label)


def _quad_roundtrip(u, s):
    rec = ftc_convolution_quadrature(riesz_gradient_quadrature(u, s), s)
    return lp_norm(rec - remove_mean(u), 2.0) / lp_norm(u, 2.0)


def test_criterion_01_ftc_roundtrip():
    t0 = time.perf_counter()
    worst_spectral = 0.0
    for e in _corpus1:
        for s in S_TRIPLE:
            worst_spectral = max(worst_spectral,
                                 check_ftc_roundtrip(e.field, s).measured)
    gaussian = _entry(_corpus1, "gaussian").field
    worst_quad = max(_quad_roundtrip(gaussian, s) for s in S_TRIPLE)
    coarse = _quad_roundtrip(gaussian, 0.5)
    fine_grid = make_grid(1, 1024, 16.0)
    fine = _entry(sample_corpus(fine_grid, 7), "gaussian").field
    halving = _quad_roundtrip(fine, 0.5) / coarse
    elapsed = time.perf_counter() - t0
    passed = (worst_spectral <= 1e-10 and worst_quad <= 1e-2
              and halving <= 0.6 and elapsed < 10.0)
    _report(1, "FTC round-trip", passed,
            f"spectral max {worst_spectral:.1e}, quadrature max {worst_quad:.1e}, "
            f"halving x{halving:.2f}, {elapsed:.1f}s")


def test_criterion_02_operator_cross_validation():
    t0 = time.perf_counter()
    worst = 0.0
    corpus2_fine = sample_corpus(make_grid(2, 256, 16.0), 7)
    for corpus in (_corpus1, corpus2_fine):
        for e in corpus:
            if not e.smooth:
                continue
            gs = riesz_gradient_spectral(e.field, 0.5)
            gq = riesz_gradient_quadrature(e.field, 0.5)
            worst = max(worst, lp_norm(gs - gq, 2.0) / lp_norm(gs, 2.0))

    def ladder(dim, sizes):
        dists = []
        for n in sizes:
            u = _entry(sample_corpus(make_grid(dim, n, 16.0), 7), "gaussian").field
            gs = riesz_gradient_spectral(u, 0.5)
            gq = riesz_gradient_quadrature(u, 0.5)
            dists.append(lp_norm(gs - gq, 2.0) / lp_norm(gs, 2.0))
        return min(math.log2(a / b) for a, b in zip(dists, dists[1:]))

    order1 = ladder(1, (128, 256, 512))
    order2 = ladder(2, (64, 128, 256))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-3 and order1 >= 1.5 and order2 >= 1.5 and elapsed < 60.0
    _report(2, "operator cross-validation", passed,
            f"max distance {worst:.1e}, orders 1d {order1:.2f} / 2d {order2:.2f}, "
            f"{elapsed:.1f}s")


def test_criterion_03_translation_estimate():
    grid = make_grid(1, 8192, 16.0)
    shifts = [2.0 ** -k for k in range(1, 8)]
    worst_var = 0.0
    worst_scale_dev = 0.0
    finite = True
    for s in S_TRIPLE:
        u = lacunary_field(grid, s, seed=11)
        for p in (1.0, 2.0, 3.0):
            denom = lp_norm(riesz_gradient_spectral(u, s), p)
            mods = translation_modulus(u, p, shifts)
            ratios = [s * (1.0 - s) * v / (h ** s * denom)
                      for h, (_, v) in zip(shifts, mods)]
            finite = finite and all(np.isfinite(r) and r > 0.0 for r in ratios)
            worst_var = max(worst_var, max(ratios) / min(ratios))
            scaled = 3.7e3 * u
            denom_sc = lp_norm(riesz_gradient_spectral(scaled, s), p)
            mod_sc = translation_modulus(scaled, p, [0.25])[0][1]
            r_sc = s * (1.0 - s) * mod_sc / (0.25 ** s * denom_sc)
            r_base = ratios[1]
            worst_scale_dev = max(worst_scale_dev, abs(r_sc - r_base) / r_base)
    passed = finite and worst_var < 2.0 and worst_scale_dev <= 1e-12
    _report(3, "translation estimate", passed,
            f"variation x{worst_var:.3f} across h, scale deviation "
            f"{worst_scale_dev:.1e}")


def test_criterion_04_kernel_l1_band():
    # the 1-d unit-offset mass is 4/s in closed form, so T(1, 0.5) is 8 exactly
    fixture_t_1_half = 8.0
    values = {}
    for n in (1, 2):
        for s in np.arange(0.05, 0.951, 0.1):
            values[(n, round(float(s), 2))] = (kernel_translation_l1(n, float(s))
                                               * s * (1.0 - s))
    band = max(values.values()) / min(values.values())
    t_mid = kernel_translation_l1(1, 0.5)
    fixture_ok = abs(t_mid - fixture_t_1_half) <= 0.01 * fixture_t_1_half
    passed = band <= 4.0 and fixture_ok
    one_d = [v for (n, _), v in values.items() if n == 1]
    _report(4, "kernel translation L1 band", passed,
            f"joint band x{band:.1f} (1-d alone x{max(one_d)/min(one_d):.1f}, "
            f"product tracks 4(1-s)), fixture T(1,0.5)={t_mid:.4f} "
            f"{'ok' if fixture_ok else 'off'}")


def test_criterion_05_embedding_and_blowup():
    t0 = time.perf_counter()
    smooth = [e.field for e in _corpus1 if e.smooth]
    regimes = [
        check_embedding(smooth, 1, 0.25, 2.0, 3.0),   # subcritical, q < 4
        check_embedding(smooth, 1, 0.5, 2.0, 3.0),    # critical
        check_embedding(smooth, 1, 0.75, 2.0, 0.2),   # supercritical Holder
    ]
    regimes_ok = all(r.passed for r in regimes)
    blow = check_blowup_family(1, 0.25, 2.0, 6.0, grid=make_grid(1, 4096, 16.0))
    elapsed = time.perf_counter() - t0
    passed = regimes_ok and blow.passed and elapsed < 120.0
    _report(5, "embedding ratios and blow-up converse", passed,
            f"regime ratios {'stable' if regimes_ok else 'UNSTABLE'}, "
            f"blow-up growth x{blow.measured:.2f} of required x10, {elapsed:.1f}s")


def test_criterion_06_p2_contiguity():
    worst_spread = 0.0
    worst_cv = 0.0
    for s in S_TRIPLE:
        rep = check_contiguity_p2([e.field for e in _corpus1], s)
        worst_spread = max(worst_spread, rep.measured)
        ratios = []
        for e in _corpus1:
            if not e.smooth:
                continue
            gag = gagliardo_seminorm(e.field, s, 2.0)
            w, mags = parseval_weights(e.field)
            freq = float(np.sum(w * mags ** (2.0 * s)))
            ratios.append(gag ** 2 / freq)
        ratios = np.array(ratios)
        worst_cv = max(worst_cv, float(ratios.std() / ratios.mean()))
    passed = worst_spread <= 10.0 and worst_cv <= 0.02
    _report(6, "p=2 contiguity", passed,
            f"spread {worst_spread:.2f} of allowed 10, proportionality CV "
            f"{worst_cv:.2e} of allowed 2e-2")


def test_criterion_07_k_functional():
    worst_ratio = 0.0
    invariants_ok = True
    for e in _corpus1:
        exact = k_curve(e.field, 2.0)  # K2
        slack = 1e-9 * max(1.0, exact.values[-1])
        v, t = exact.values, exact.t_grid
        invariants_ok = invariants_ok and bool(
            np.all(v >= -slack) and np.all(np.diff(v) >= -slack)
            and np.all(np.diff(v / t) <= slack))
        # the p = 2 mollifier family; KCurve checks its invariants
        moll = KCurve(t, _mollifier_values_p2(e.field, t), "mollifier_family")
        worst_ratio = max(worst_ratio, float(np.max(moll.values / v)))
    upper = math.sqrt(2.0) * 1.05
    passed = invariants_ok and 1.0 - 1e-9 <= worst_ratio <= upper
    _report(7, "K-functional curves", passed,
            f"invariants {'hold' if invariants_ok else 'VIOLATED'}, mollifier/exact "
            f"max {worst_ratio:.4f} of allowed {upper:.4f}")


def test_criterion_08_integration_by_parts():
    rng = np.random.default_rng(2026)
    grid = make_grid(1, 256, 16.0)
    worst = 0.0
    for s in S_TRIPLE:
        for _ in range(100):
            u = Field.scalar(grid, rng.standard_normal(grid.shape))
            psi = Field.vector(grid, rng.standard_normal((1,) + grid.shape))
            worst = max(worst, check_integration_by_parts(u, psi, s).measured)
    passed = worst <= 1e-10
    _report(8, "integration by parts duality", passed,
            f"max defect {worst:.1e} over 300 random pairs")


def test_criterion_09_s_limit():
    all_decreasing = True
    worst_label = ""
    for e in _corpus1:
        if not e.smooth:
            continue
        du = exact_gradient(e.field)
        errs = [lp_norm(riesz_gradient_spectral(e.field, s) - du, 2.0)
                for s in (0.9, 0.95, 0.99)]
        if not all(b < a for a, b in zip(errs, errs[1:])):
            all_decreasing = False
            worst_label = e.label
    _report(9, "s to 1 limit", all_decreasing,
            "strictly decreasing on every smooth entry" if all_decreasing
            else f"not decreasing on {worst_label}")


def test_criterion_10_compactness_probes():
    family = bandlimited_family(_grid1, 64, seed=7)
    fk = check_frechet_kolmogorov(partial(frechet_kolmogorov_probe, family, 2.0), eps=0.1)
    delta, covering = fk.measured
    ladder = check_holder_ladder(scaled_bump_family(_grid1, 16), 0.6, 0.3,
                                 pairs=10_000)
    passed = (fk.passed and delta > 0.0 and covering <= 32
              and ladder.passed and ladder.params["pairs"] >= 9_900)
    _report(10, "compactness probes", passed,
            f"delta(0.1)={delta:.3f}, covering {int(covering)}/64, ladder ratio "
            f"{ladder.measured[0]:.3f} on {ladder.params['pairs']} pairs")


def test_criterion_11_determinism(tmp_path):
    def run(out):
        code = cli_main(["verify", "--out", str(out), "--grid", "256x16",
                         "--seed", "5"])
        reports = json.loads((out / "report.json").read_text())
        for r in reports:
            r.pop("runtime_ms")
        with open(out / "report.csv", newline="") as fh:
            comment = fh.readline()
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[5] = "0"  # runtime_ms column
        return code, json.dumps(reports, sort_keys=True), (comment, rows)

    code_a, json_a, csv_a = run(tmp_path / "a")
    code_b, json_b, csv_b = run(tmp_path / "b")
    passed = code_a == code_b == 0 and json_a == json_b and csv_a == csv_b
    _report(11, "report determinism", passed,
            "byte-identical JSON and CSV modulo runtime_ms")
