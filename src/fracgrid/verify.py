"""Inequality harness: each quantitative claim about the fractional gradient
becomes a parameterized check emitting a CheckReport.

Existential constants cannot be pass/fail-bounded, so those checks assert
finiteness, scale invariance, and stability under grid refinement instead,
and archive the measured ratios. Compactness claims are probed through
translation moduli and greedy covering numbers of fixed 64-member families;
the reports say so. Every report carries enough of its inputs that the passed
flag can be recomputed from the recorded numbers alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .config import CHECK_IDS, RunConfig
from .core import (Field, Region, lp_norm, make_grid, remove_mean,
                   sample_corpus)
from .core import _power_tail, _support_window
from .direct import ftc_convolution_quadrature, riesz_gradient_quadrature
from .norms import (_resolution_defect, dsp_norm, gagliardo_report,
                    holder_seminorm, translation_modulus)
from .spectral import (bessel_norm, exact_gradient, ftc_kernel_apply,
                       riesz_divergence_spectral, riesz_gradient_spectral)

__all__ = [
    "Exponents",
    "CheckReport",
    "exponents",
    "embedding_cases",
    "check_ftc_roundtrip",
    "check_translation_estimate",
    "check_embedding",
    "check_blowup_family",
    "check_contiguity_p2",
    "check_integration_by_parts",
    "check_s_limit",
    "check_frechet_kolmogorov",
    "check_lyapunov",
    "check_holder_ladder",
    "run_suite",
    "bandlimited_family",
    "scaled_bump_family",
]

# default probe region: a ball well inside the box, so "bounded subdomain"
# semantics are honest on the torus
_REGION_FRACTION = 8.0

_STABILITY_FACTOR = 2.0

# the order s at which the compactness family is normalized and bounded
_FAMILY_ORDER = 0.5

_S_LIMIT_ORDERS = (0.9, 0.95, 0.99)


def _default_region(grid) -> Region:
    return Region.centered_ball(grid.extent / _REGION_FRACTION)


def _stable(a: float, b: float) -> bool:
    return max(a, b) <= _STABILITY_FACTOR * max(min(a, b), 1e-300)


# ---------------------------------------------------------------------------
# exponent arithmetic

@dataclass(frozen=True)
class Exponents:
    """Critical exponents attached to (n, s, p); absent members are None."""

    n: int
    s: float
    p: float
    regime: str
    p_star: float | None
    mu_star: float | None

    def r_s(self, q: float) -> float:
        """Interpolated integrability: 1/r = (1-s)/p + s/q; accepts q = inf."""
        if not (q >= 1.0):
            raise ValueError(f"q must be >= 1, got {q}")
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        return 1.0 / ((1.0 - self.s) / self.p + self.s * inv_q)

    def alpha(self, q: float) -> float:
        """Exponent placing L^q between L^p and L^{p_star}: alpha = n(q-p)/(sqp)."""
        if self.p_star is None:
            raise ValueError("alpha(q) requires the subcritical regime")
        if not (self.p <= q <= self.p_star):
            raise ValueError(f"q must lie in [p, p_star] = [{self.p}, {self.p_star}]")
        return self.n * (q - self.p) / (self.s * q * self.p)

    def alpha_high(self, q: float) -> float:
        """Exponent placing L^q between L^{p/(1-s)} and L^{p_star}; needs p > n."""
        if self.p_star is None or self.p <= self.n:
            raise ValueError("alpha_high(q) requires sp < n and p > n")
        lo = self.p / (1.0 - self.s)
        if not (lo <= q <= self.p_star):
            raise ValueError(f"q must lie in [p/(1-s), p_star] = [{lo}, {self.p_star}]")
        return self.n * (q * (1.0 - self.s) - self.p) / (self.s * q * (self.p - self.n))

    @staticmethod
    def beta(p: float, q: float, r: float) -> float:
        """Exponent with 1/q = (1-beta)/p + beta/r, for p < q < r."""
        if not p < q < r:
            raise ValueError(f"need p < q < r, got {(p, q, r)}")
        return r * (q - p) / (q * (r - p))


def exponents(n: int, s: float, p: float) -> Exponents:
    """Critical exponents for the fractional couple on R^n, n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0,1), got {s}")
    if not (np.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    sp = s * p
    if sp < n:
        return Exponents(n, s, p, "subcritical", n * p / (n - sp), None)
    if sp == n:
        return Exponents(n, s, p, "critical", None, None)
    return Exponents(n, s, p, "supercritical", None, s - n / p)


# ---------------------------------------------------------------------------
# report plumbing

@dataclass(frozen=True)
class CheckReport:
    check_id: str
    params: dict
    measured: object
    bound: object
    passed: bool
    notes: str = ""
    runtime_ms: int = 0

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": _json_safe(self.params),
            "measured": _json_safe(self.measured),
            "bound": _json_safe(self.bound),
            "passed": bool(self.passed),
            "notes": self.notes,
            "runtime_ms": int(self.runtime_ms),
        }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _elapsed_ms(t0: float) -> int:
    return int(round(1000.0 * (time.perf_counter() - t0)))


def _grid_tag(grid) -> str:
    return f"{grid.dim}d,N={grid.points_per_axis},L={grid.extent:g}"


# ---------------------------------------------------------------------------
# spectral refinement (exact trigonometric upsampling, factor 2 per axis)

def _upsample_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    n = arr.shape[axis]
    spec = np.fft.rfft(arr, axis=axis)
    edge = [slice(None)] * arr.ndim
    edge[axis] = slice(-1, None)
    spec[tuple(edge)] *= 0.5  # shared Nyquist bin becomes an interior pair
    shape = list(spec.shape)
    shape[axis] = n + 1
    padded = np.zeros(shape, dtype=np.complex128)
    keep = [slice(None)] * arr.ndim
    keep[axis] = slice(0, n // 2 + 1)
    padded[tuple(keep)] = spec
    return np.fft.irfft(padded, n=2 * n, axis=axis) * 2.0


def _refine(u: Field) -> Field:
    """Same scalar field sampled on the doubled grid; exact at the original nodes."""
    grid = u.grid
    fine = make_grid(grid.dim, 2 * grid.points_per_axis, grid.extent)
    arr = u.samples
    for axis in range(grid.dim):
        arr = _upsample_axis(arr, axis)
    return Field.scalar(fine, arr)


def _h_vector(grid, h: float):
    return float(h) if grid.dim == 1 else (float(h), 0.0)


# ---------------------------------------------------------------------------
# the checks

def check_ftc_roundtrip(u: Field, s: float, path: str = "spectral") -> CheckReport:
    """Gradient-then-kernel reconstruction must return u minus its mean."""
    t0 = time.perf_counter()
    if path not in ("spectral", "quadrature"):
        raise ValueError(f"path must be spectral or quadrature, got {path!r}")
    bound = 1e-10 if path == "spectral" else 1e-2
    norm_u = lp_norm(u, 2.0)
    if norm_u == 0.0:
        measured = 0.0
    else:
        if path == "spectral":
            grad = riesz_gradient_spectral(u, s)
            rec = ftc_kernel_apply(grad, s)
        else:
            grad = riesz_gradient_quadrature(u, s)
            rec = ftc_convolution_quadrature(grad, s)
        measured = lp_norm(rec - remove_mean(u), 2.0) / norm_u
    params = {"s": s, "path": path, "grid": _grid_tag(u.grid), "tolerance": bound}
    return CheckReport("ftc_roundtrip", params, measured, bound,
                       measured <= bound, "", _elapsed_ms(t0))


def _shift_ratios(u: Field, s: float, p: float, h_list) -> tuple:
    """(||D^s u||_p, [(h, ||u(.+h)-u||_p, ratio)]) with ratio
    s(1-s) ||u(.+h)-u||_p / (|h|^s ||D^s u||_p), or 0 where D^s u = 0."""
    denom = lp_norm(riesz_gradient_spectral(u, s), p)
    mods = translation_modulus(u, p, [_h_vector(u.grid, h) for h in h_list])
    return denom, [(h, v, s * (1.0 - s) * v / (float(h) ** s * denom) if denom > 0 else 0.0)
                   for h, (_, v) in zip(h_list, mods)]


def _translation_sweep(fields, s: float, p: float, h_list) -> list:
    """(||D^s u||_p, rows of _shift_ratios, max(||u||_p, 1)) per field."""
    return [(*_shift_ratios(u, s, p, h_list), max(lp_norm(u, p), 1.0)) for u in fields]


def _translation_ratios(sweep, count: int) -> tuple:
    """Per-field sup of s(1-s) ||u(.+h)-u||_p / (|h|^s ||D^s u||_p) over the
    first count shifts of a sweep, and a note on any hard failure."""
    per_field = []
    hard_failure = ""
    for i, (denom, rows, scale) in enumerate(sweep):
        rows = rows[:count]
        if denom <= 1e-14 * scale:
            worst = max(v for _, v, _ in rows)
            if worst > 1e-10 * scale:
                hard_failure = (f"field {i}: ||D^s u||_p = 0 but translation "
                                f"modulus {worst:.3e} > 0")
            per_field.append(0.0)
            continue
        per_field.append(max(ratio for _, _, ratio in rows))
    return per_field, hard_failure


def check_translation_estimate(fields, s: float, p: float, h_sweep) -> CheckReport:
    """Translation modulus controlled by |h|^s times the fractional gradient.

    The constant is existential, so the probe is stability: the measured sup
    must move by less than 2x under grid refinement and under extending the
    h sweep a decade downward.
    """
    t0 = time.perf_counter()
    fields = list(fields)
    if not fields:
        raise ValueError("corpus must be nonempty")
    h_list = [float(h) for h in h_sweep]
    count = len(h_list)
    # one sweep serves the base and the extended sup: the extension is one
    # shift a decade below the smallest, after the base shifts
    sweep = _translation_sweep(fields, s, p, h_list + [min(h_list) / 10.0])
    base_per, hard = _translation_ratios(sweep, count)
    base = max(base_per)
    refined_per, hard2 = _translation_ratios(
        _translation_sweep([_refine(u) for u in fields], s, p, h_list), count)
    refined = max(refined_per)
    extended_per, hard3 = _translation_ratios(sweep, count + 1)
    extended = max(extended_per)
    hard = hard or hard2 or hard3
    passed = (not hard and np.isfinite(base) and base > 0.0
              and _stable(base, refined) and _stable(base, extended))
    params = {"s": s, "p": p, "h_sweep": list(h_list),
              "stability_factor": _STABILITY_FACTOR,
              "refined_sup": refined, "extended_sup": extended,
              "per_field_sup": base_per, "grid": _grid_tag(fields[0].grid)}
    return CheckReport("translation_estimate", params, base, "none (existential)",
                       bool(passed), hard, _elapsed_ms(t0))


def embedding_cases(config: RunConfig) -> list:
    """(Exponents, value) for every configured embedding parameter, in config
    order over s, p and value: Holder exponents mu when sp > n, integrability
    exponents q otherwise, with n the grid dimension."""
    cases = []
    for s in config.s_list:
        for p in config.p_list:
            exps = exponents(config.grid.dim, s, p)
            values = config.mu_list if exps.regime == "supercritical" else config.q_list
            cases += [(exps, v) for v in values]
    return cases


def _embedding_mismatch(exps: Exponents, q_or_mu: float) -> str:
    """Why check_embedding rejects q_or_mu in this regime; empty if it does not."""
    if exps.regime == "subcritical" and not 1.0 <= q_or_mu < exps.p_star:
        need = f"subcritical needs q in [1, p_star = {exps.p_star:.6g})"
    elif exps.regime == "critical" and not (1.0 <= q_or_mu and np.isfinite(q_or_mu)):
        need = "critical needs finite q >= 1"
    elif exps.regime == "supercritical" and not 0.0 < q_or_mu < exps.mu_star:
        need = f"supercritical needs mu in (0, mu_star = {exps.mu_star:.6g})"
    else:
        return ""
    return f"regime/parameter mismatch: {need}, got {q_or_mu}"


def _worst_ratio(fields, s: float, p: float, q_or_mu: float, holder: bool) -> float:
    """Largest restriction-to-fractional norm ratio over the fields: the Holder
    seminorm of order q_or_mu if holder, else the L^q_or_mu norm, on the
    default region."""
    norm = holder_seminorm if holder else lp_norm
    region = _default_region(fields[0].grid)
    best = 0.0
    for u in fields:
        denom = dsp_norm(u, s, p)
        if denom > 0.0:
            best = max(best, norm(u, q_or_mu, region) / denom)
    return best


def check_embedding(fields, n: int, s: float, p: float, q_or_mu: float) -> CheckReport:
    """Restriction norm controlled by the fractional norm, per regime.

    Subcritical and critical regimes measure ||u||_{L^q(Omega)} / dsp_norm(u);
    the supercritical regime measures the Holder seminorm instead. Existential
    constant, so the pass condition is refinement stability.
    """
    t0 = time.perf_counter()
    fields = list(fields)
    if not fields:
        raise ValueError("corpus must be nonempty")
    grid = fields[0].grid
    if grid.dim != n:
        raise ValueError(f"corpus dimension {grid.dim} does not match n = {n}")
    exps = exponents(n, s, p)
    if mismatch := _embedding_mismatch(exps, q_or_mu):
        raise ValueError(mismatch)
    holder = exps.regime == "supercritical"
    kind = "holder_ratio" if holder else "lq_ratio"
    base = _worst_ratio(fields, s, p, q_or_mu, holder)
    refined = _worst_ratio([_refine(u) for u in fields], s, p, q_or_mu, holder)
    passed = np.isfinite(base) and _stable(base, refined)
    params = {"n": n, "s": s, "p": p, "regime": exps.regime, "kind": kind,
              ("q" if kind == "lq_ratio" else "mu"): q_or_mu,
              "region_radius": grid.extent / _REGION_FRACTION,
              "stability_factor": _STABILITY_FACTOR, "refined_sup": refined,
              "grid": _grid_tag(grid)}
    return CheckReport("embedding", params, base, "none (existential)",
                       bool(passed), "", _elapsed_ms(t0))


def blowup_family_fields(grid, n: int, s: float, p: float, q: float):
    """Six windowed power tails |x|^-a with a sweeping into the L^q-divergent window."""
    a_lo = 0.4 * n / q
    a_hi = 0.95 * (n - s * p) / p
    a_values = np.linspace(a_lo, a_hi, 6)
    cutoff = grid.extent / 4.0
    return [(float(a), Field.scalar(grid, _power_tail(grid, float(a), cutoff)))
            for a in a_values]


def check_blowup_family(n: int, s: float, p: float, q: float, grid) -> CheckReport:
    """Converse probe: beyond the critical integrability the restriction ratio
    must grow along a power-tail family (>= 10x across the sweep)."""
    t0 = time.perf_counter()
    exps = exponents(n, s, p)
    if exps.regime != "subcritical":
        raise ValueError(f"regime/parameter mismatch: blow-up probe needs sp < n, "
                         f"got regime {exps.regime}")
    if abs(q - exps.p_star) <= 1e-12 * exps.p_star:
        raise ValueError("q = p_star exactly: boundary not probed")
    if q < exps.p_star:
        fields = [u for _, u in blowup_family_fields(grid, n, s, p, q)]
        rep = check_embedding(fields, n, s, p, q)
        return replace(rep, check_id="blowup_family",
                       notes="q < p_star: delegated to the embedding stability check",
                       runtime_ms=_elapsed_ms(t0))
    region = _default_region(grid)
    ratios = []
    skipped = []
    for a, u in blowup_family_fields(grid, n, s, p, q):
        denom = dsp_norm(u, s, p)
        if not np.isfinite(denom) or denom <= 0.0:
            skipped.append(a)
            continue
        ratios.append((a, lp_norm(u, q, region) / denom))
    growth = ratios[-1][1] / ratios[0][1] if len(ratios) >= 2 else float("nan")
    required = 10.0
    passed = np.isfinite(growth) and growth >= required
    notes = ""
    if skipped:
        notes = f"skipped a = {skipped}: non-finite dsp_norm at this grid"
    params = {"n": n, "s": s, "p": p, "q": q, "p_star": exps.p_star,
              "required_growth": required,
              "family_a": [a for a, _ in ratios],
              "family_ratios": [r for _, r in ratios], "grid": _grid_tag(grid)}
    return CheckReport("blowup_family", params, growth, required,
                       bool(passed), notes, _elapsed_ms(t0))


def check_contiguity_p2(fields, s: float) -> CheckReport:
    """Difference-quotient and Bessel norms must agree up to a moderate
    constant at p = 2: corpus-wide spread of the ratio stays below 10.

    The Gagliardo double sum is exact in 1-d and 2-d alike: a real-space
    autocorrelation, with no FFT and no sampling error."""
    t0 = time.perf_counter()
    fields = list(fields)
    if not fields:
        raise ValueError("corpus must be nonempty")
    grid = fields[0].grid
    ratios = []
    for u in fields:
        rep = gagliardo_report(u, s, 2.0)
        ratios.append((lp_norm(u, 2.0) + rep.value) / bessel_norm(u, s, 2.0))
    spread = max(ratios) / min(ratios)
    bound = 10.0
    params = {"s": s, "p": 2.0, "method": rep.method, "ratios": ratios,
              "grid": _grid_tag(grid)}
    return CheckReport("contiguity_p2", params, spread, bound,
                       spread <= bound, "", _elapsed_ms(t0))


def _inner(a: Field, b: Field) -> float:
    hn = a.grid.spacing ** a.grid.dim
    return hn * float(np.sum(a.samples * b.samples))


def check_integration_by_parts(u: Field, psi: Field, s: float) -> CheckReport:
    """<D^s u, psi> = -<u, div^s psi> at machine precision."""
    t0 = time.perf_counter()
    denom = dsp_norm(u, s, 2.0) * lp_norm(psi, 2.0)
    if denom == 0.0:
        measured = 0.0
    else:
        lhs = _inner(riesz_gradient_spectral(u, s), psi)
        rhs = _inner(u, riesz_divergence_spectral(psi, s))
        measured = abs(lhs + rhs) / denom
    bound = 1e-10
    params = {"s": s, "tolerance": bound, "grid": _grid_tag(u.grid)}
    return CheckReport("integration_by_parts", params, measured, bound,
                       measured <= bound, "", _elapsed_ms(t0))


def check_s_limit(u: Field, p: float) -> CheckReport:
    """||D^s u - D u||_p must fall strictly as s climbs toward 1 through
    s = 0.9, 0.95, 0.99."""
    t0 = time.perf_counter()
    if _resolution_defect(u) > 0.05:
        raise ValueError("field is not smooth at this resolution; "
                         "the classical-gradient limit is not meaningful")
    du = exact_gradient(u)
    ref = lp_norm(du, p)
    errs = [lp_norm(riesz_gradient_spectral(u, s) - du, p) for s in _S_LIMIT_ORDERS]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    final_ok = ref == 0.0 or errs[-1] <= 0.1 * ref
    params = {"p": p, "s_list": list(_S_LIMIT_ORDERS), "grad_norm": ref,
              "final_fraction": 0.1, "grid": _grid_tag(u.grid)}
    return CheckReport("s_limit", params, errs, "strictly decreasing, final <= 0.1*||Du||",
                       bool(decreasing and final_ok), "", _elapsed_ms(t0))


def check_frechet_kolmogorov(family, p: float, eps: float = 0.1) -> CheckReport:
    """Compactness probe: the family must be bounded in the fractional norm of
    order 0.5, a uniform translation modulus threshold delta(eps) must exist,
    and a greedy eps-net of the family restricted to the default region must
    be small."""
    t0 = time.perf_counter()
    family = list(family)
    if len(family) < 2:
        raise ValueError("family must have at least two members")
    grid = family[0].grid
    norms = np.array([dsp_norm(u, _FAMILY_ORDER, p) for u in family])
    if not np.all(np.isfinite(norms)) or norms.max() > 50.0 * np.median(norms):
        raise ValueError("family is not bounded in the fractional norm")

    # fractional shifts are exact for the trigonometric interpolant, so the
    # sweep may start below the grid spacing
    h_sweep = np.geomspace(grid.spacing / 8.0, grid.extent / 8.0, 12)
    shifts = [_h_vector(grid, h) for h in h_sweep]
    sups = np.max([[v for _, v in translation_modulus(u, p, shifts)] for u in family], axis=0)
    delta = 0.0
    for h, sup in zip(h_sweep, sups):
        if sup <= eps:
            delta = float(h)
        else:
            break

    # greedy eps-net in L^p(region), on the members' samples stacked once: in
    # family order, a member no earlier centre covers becomes one and marks
    # every member within eps of it
    mask = _default_region(grid).mask(grid)
    stacked = np.stack([u.samples[mask] for u in family])
    weight = grid.spacing ** grid.dim
    covered = np.zeros(len(family), dtype=bool)
    covering = 0
    for i, row in enumerate(stacked):
        if not covered[i]:
            covering += 1
            covered |= (weight * np.sum(np.abs(stacked - row) ** p, axis=1)) ** (1.0 / p) <= eps
    covering_max = len(family) // 2
    passed = delta > 0.0 and covering <= covering_max
    params = {"p": p, "s": _FAMILY_ORDER, "eps": eps, "family_size": len(family),
              "covering_max": covering_max,
              "region_radius": grid.extent / _REGION_FRACTION,
              "h_sweep": list(map(float, h_sweep)),
              "modulus_sups": list(map(float, sups)), "grid": _grid_tag(grid)}
    return CheckReport("frechet_kolmogorov", params, [delta, covering],
                       "none (existential)", bool(passed),
                       f"delta({eps}) = {delta:.4g}, covering {covering}/{len(family)}",
                       _elapsed_ms(t0))


def check_lyapunov(u: Field, p: float, q: float, r: float) -> CheckReport:
    """Log-convexity of Lebesgue norms on the default region:
    ||u||_q <= ||u||_p^(1-b) ||u||_r^b."""
    t0 = time.perf_counter()
    beta = Exponents.beta(p, q, r)
    region = _default_region(u.grid)
    np_, nq, nr = lp_norm(u, p, region), lp_norm(u, q, region), lp_norm(u, r, region)
    if nq == 0.0:
        measured = 0.0
    else:
        measured = nq / (np_ ** (1.0 - beta) * nr ** beta)
    bound = 1.0 + 1e-9
    params = {"p": p, "q": q, "r": r, "beta": beta,
              "region_radius": u.grid.extent / _REGION_FRACTION, "grid": _grid_tag(u.grid)}
    return CheckReport("lyapunov", params, measured, bound,
                       measured <= bound, "", _elapsed_ms(t0))


def check_holder_ladder(family, beta_exp: float, alpha_exp: float,
                        pairs: int = 10_000, seed: int = 0) -> CheckReport:
    """Interpolated Holder bound on pairs sampled in the default region, plus
    net smallness.

    For alpha < beta, every pair obeys |u(x)-u(y)|/|x-y|^alpha
    <= 2 F^(1-alpha/beta) [u]_beta^(alpha/beta) with F the sup norm; the
    family must also collapse to a small net in the alpha-seminorm distance.
    """
    t0 = time.perf_counter()
    if not 0.0 < alpha_exp < beta_exp < 1.0:
        raise ValueError(f"need 0 < alpha < beta < 1, got ({alpha_exp}, {beta_exp})")
    family = list(family)
    if len(family) < 2:
        raise ValueError("family must have at least two members")
    grid = family[0].grid
    mask = _default_region(grid).mask(grid)
    idx = np.flatnonzero(mask.ravel())
    coords = np.stack([c.ravel()[idx] for c in grid.coords()])
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, idx.size, pairs)
    jj = rng.integers(0, idx.size, pairs)
    diffs = coords[:, ii] - coords[:, jj]
    diffs -= grid.extent * np.round(diffs / grid.extent)
    dist = np.sqrt(np.sum(diffs ** 2, axis=0))
    keep = dist > 0.0
    ii, jj, dist = ii[keep], jj[keep], dist[keep]

    deltas = []
    sups = []
    for u in family:
        vals = u.samples.ravel()[idx]
        deltas.append(vals[ii] - vals[jj])
        sups.append(float(np.max(np.abs(vals))))
    deltas = np.array(deltas)
    semi_beta = np.max(np.abs(deltas) / dist[None, :] ** beta_exp, axis=1)
    if semi_beta.max() > 50.0 * max(np.median(semi_beta), 1e-300):
        raise ValueError("family is not bounded in the beta-Holder seminorm")

    frac = alpha_exp / beta_exp
    ratio_max = 0.0
    alpha_rows = np.abs(deltas) / dist[None, :] ** alpha_exp
    for k in range(len(family)):
        rhs = 2.0 * max(sups[k], 0.0) ** (1.0 - frac) * semi_beta[k] ** frac
        if rhs > 0.0:
            ratio_max = max(ratio_max, float(alpha_rows[k].max() / rhs))

    semi_alpha = alpha_rows.max(axis=1)
    eps_net = 0.2 * float(semi_alpha.max())
    centers: list[int] = []
    if eps_net > 0.0:
        for k in range(len(family)):
            if all(float(np.max(np.abs(alpha_rows[k] - alpha_rows[c]))) > eps_net
                   for c in centers):
                centers.append(k)
    covering = max(len(centers), 1)
    covering_max = len(family) // 2
    bound = 1.0 + 1e-9
    passed = ratio_max <= bound and covering <= covering_max
    params = {"alpha": alpha_exp, "beta": beta_exp, "pairs": int(dist.size),
              "seed": seed, "family_size": len(family), "eps_net": eps_net,
              "covering_max": covering_max, "covering": covering,
              "region_radius": grid.extent / _REGION_FRACTION, "grid": _grid_tag(grid)}
    return CheckReport("holder_ladder", params, [ratio_max, covering], bound,
                       bool(passed), "", _elapsed_ms(t0))


# ---------------------------------------------------------------------------
# families

def bandlimited_family(grid, count: int, seed: int = 0) -> list:
    """Clustered normalized family: a circle through two band-limited mothers
    plus small jitter, each member scaled to unit fractional norm of order
    0.5 at p = 2."""
    from .core import _random_bandlimited
    rng = np.random.default_rng(seed)
    g1 = _random_bandlimited(grid, rng, 1, 6)
    g2 = _random_bandlimited(grid, rng, 1, 6)
    members = []
    for k in range(count):
        phi = 2.0 * math.pi * k / count
        jitter = 0.05 * _random_bandlimited(grid, rng, 1, 6)
        samples = math.cos(phi) * g1 + math.sin(phi) * g2 + jitter
        u = Field.scalar(grid, samples)
        members.append((1.0 / dsp_norm(u, _FAMILY_ORDER, 2.0)) * u)
    return members


def scaled_bump_family(grid, count: int) -> list:
    """Amplitude ladder over one gaussian profile; Holder-bounded by
    construction and genuinely varying on the default probe region."""
    r = grid.radius()
    sigma = grid.extent / 16.0
    profile = np.exp(-(r ** 2) / (2.0 * sigma ** 2)) \
        * _support_window(grid, grid.extent / 4.0)
    return [Field.scalar(grid, float(a) * profile)
            for a in np.linspace(0.5, 2.0, count)]


# ---------------------------------------------------------------------------
# suite runner

def _tag(rep: CheckReport, label: str) -> CheckReport:
    return replace(rep, params={**rep.params, "label": label})


# check id "x" expands the config and the corpus (label -> entry) into
# (params, thunk) cases by _x_cases; params are what an errored report
# records. The expansions look the check functions up as module globals when
# they run, so a wrapper installed on this module later still sees every call.

def _ftc_roundtrip_cases(config, corpus):
    return [({"s": s, "path": path},
             partial(check_ftc_roundtrip, corpus["gaussian"].field, s, path))
            for s in config.s_list for path in ("spectral", "quadrature")]


def _translation_estimate_cases(config, corpus):
    smooth = [e.field for e in corpus.values() if e.smooth]
    return [({"s": s, "p": p},
             partial(check_translation_estimate, smooth, s, p, config.h_sweep))
            for s in config.s_list for p in config.p_list]


def _embedding_cases(config, corpus):
    smooth = [e.field for e in corpus.values() if e.smooth]
    return [({"s": e.s, "p": e.p, "value": v},
             partial(check_embedding, smooth, e.n, e.s, e.p, v))
            for e, v in embedding_cases(config)]


def _blowup_family_cases(config, corpus):
    exps = [exponents(config.grid.dim, s, p) for s in config.s_list for p in config.p_list]
    return [({"s": e.s, "p": e.p, "q": 1.5 * e.p_star},
             partial(check_blowup_family, e.n, e.s, e.p, 1.5 * e.p_star, grid=config.grid))
            for e in exps if e.regime == "subcritical"]


def _contiguity_p2_cases(config, corpus):
    everything = [e.field for e in corpus.values()]
    return [({"s": s}, partial(check_contiguity_p2, everything, s)) for s in config.s_list]


def _integration_by_parts_cases(config, corpus):
    u, v = corpus["bandlimited_low"].field, corpus["bandlimited_mid"].field
    return [({"s": s}, lambda s=s: check_integration_by_parts(
                u, riesz_gradient_spectral(v, s), s)) for s in config.s_list]


def _s_limit_cases(config, corpus):
    return [({"p": p}, partial(check_s_limit, corpus["gaussian"].field, p))
            for p in config.p_list]


def _frechet_kolmogorov_cases(config, corpus):
    family = bandlimited_family(config.grid, 64, seed=config.seed)
    return [({"eps": eps}, partial(check_frechet_kolmogorov, family, config.p_list[0], eps=eps))
            for eps in (0.05, 0.1, 0.2)]


def _lyapunov_cases(config, corpus):
    p0 = config.p_list[0]
    return [({"label": label}, lambda u=e.field, label=label: _tag(
                check_lyapunov(u, p0, 1.5 * p0, 3.0 * p0), label))
            for label, e in corpus.items()]


def _holder_ladder_cases(config, corpus):
    family = scaled_bump_family(config.grid, 16)
    return [({}, partial(check_holder_ladder, family, 0.6, 0.3, seed=config.seed))]


_CASES = {cid: globals()[f"_{cid}_cases"] for cid in CHECK_IDS}


def run_suite(config: RunConfig) -> list:
    """Run the configured checks over the configured parameter grids.

    Per-check errors become failed reports; the suite never aborts mid-run.
    Report order follows config order.
    """
    corpus = {e.label: e for e in sample_corpus(config.grid, config.seed)}
    reports = []
    for cid in config.checks:
        for params, thunk in _CASES[cid](config, corpus):
            t0 = time.perf_counter()
            try:
                reports.append(thunk())
            except Exception as exc:  # captured, never aborts the suite
                reports.append(CheckReport(cid, params, 0.0, "none (check errored)",
                                           False, f"error: {exc}", _elapsed_ms(t0)))
    return reports
