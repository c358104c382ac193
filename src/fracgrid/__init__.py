"""Fractional gradients, norms, and interpolation diagnostics on periodic grids."""

__version__ = "0.1.0"

from .config import (
    CHECK_IDS,
    ConfigError,
    RunConfig,
    default_run_config,
    load_run_config,
    run_config_from_dict,
)
from .core import (
    CorpusEntry,
    Field,
    GridSpec,
    Region,
    lp_norm,
    make_grid,
    read_field,
    remove_mean,
    sample_corpus,
    translate,
    write_field,
)
from .direct import (
    GammaConstants,
    constants,
    ftc_convolution_quadrature,
    gamma_fn,
    kernel_translation_l1,
    lattice_zeta,
    riesz_gradient_quadrature,
)
from .interp import (
    KCurve,
    interpolation_norm,
    k_curve,
    k_functional,
)
from .norms import (
    NormReport,
    dsp_norm,
    gagliardo_report,
    gagliardo_seminorm,
    holder_seminorm,
    translation_modulus,
)
from .spectral import (
    Multiplier,
    apply_multiplier,
    bessel_norm,
    bessel_potential,
    exact_gradient,
    ftc_kernel_apply,
    riesz_divergence_spectral,
    riesz_gradient_spectral,
)
from .verify import (
    CheckReport,
    Exponents,
    check_blowup_family,
    check_contiguity_p2,
    check_embedding,
    check_frechet_kolmogorov,
    check_ftc_roundtrip,
    check_holder_ladder,
    check_integration_by_parts,
    check_lyapunov,
    check_s_limit,
    check_translation_estimate,
    exponents,
    run_suite,
)

__all__ = [
    "__version__",
    "CHECK_IDS", "ConfigError", "RunConfig", "default_run_config",
    "load_run_config", "run_config_from_dict",
    "CorpusEntry", "Field", "GridSpec", "Region",
    "lp_norm", "make_grid", "read_field", "remove_mean", "sample_corpus",
    "translate", "write_field",
    "GammaConstants", "constants", "gamma_fn",
    "lattice_zeta", "riesz_gradient_quadrature", "ftc_convolution_quadrature",
    "kernel_translation_l1",
    "KCurve", "interpolation_norm", "k_curve", "k_functional",
    "NormReport", "dsp_norm", "gagliardo_report", "gagliardo_seminorm",
    "holder_seminorm", "translation_modulus",
    "Multiplier", "apply_multiplier", "bessel_norm", "bessel_potential",
    "exact_gradient", "ftc_kernel_apply", "riesz_divergence_spectral",
    "riesz_gradient_spectral",
    "CheckReport", "Exponents", "exponents", "run_suite",
    "check_blowup_family", "check_contiguity_p2", "check_embedding",
    "check_frechet_kolmogorov", "check_ftc_roundtrip", "check_holder_ladder",
    "check_integration_by_parts", "check_lyapunov", "check_s_limit",
    "check_translation_estimate",
]
