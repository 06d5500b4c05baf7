"""Gibbs states of locally constant potentials on mixing shifts of finite
type, their projections under 1-block factor maps, and the Hölder regularity
of the projected g-function via Birkhoff contraction bounds."""

from .cone import (
    ContractionProfile,
    birkhoff_coefficient,
    contraction_check,
    contraction_profile,
    dual_formula_check,
    hilbert_alpha_beta,
    hilbert_distance,
    projective_diameter,
)
from .errors import (
    ConvergenceError,
    EnumerationLimitError,
    ExactModeError,
    NotMixingError,
    ValidationError,
)
from .factor import (
    FactorSystem,
    FwmReport,
    FwmSearchResult,
    ProjectionCheck,
    block_product,
    build_factor,
    enumerate_image_words,
    fwm_check,
    fwm_search,
    image_admissible,
    level_measures,
    projected_measure,
    projected_measure_bruteforce,
    route_error,
    verify_projection,
)
from .ganalysis import (
    DecayFit,
    EtaBound,
    GApproximant,
    GLimitResult,
    RateVerdict,
    VariationProfile,
    decay_fit,
    eta_full_shift,
    eta_general,
    eta_optimize,
    g_approx,
    g_limit,
    rate_compare,
    variation_profile,
)
from .potential import (
    HolderEnvelope,
    PerronData,
    Potential,
    TransferMatrix,
    birkhoff_sum,
    build_potential,
    cylinder_measure,
    gibbs_ratio_bounds,
    holder_envelope,
    level_log_measures,
    log_ln1_sup_norm,
    perron,
    perron_exact,
    transfer_matrix,
    variations,
)
from .sft import (
    Alphabet,
    Recoding,
    Sft,
    build_sft,
    enumerate_words,
    higher_block_recode,
    is_admissible,
    mixing_index,
)
from .sysio import (
    Pipeline,
    SystemDescription,
    build_pipeline,
    build_system,
    emit_system,
    parse_system,
    parse_system_dict,
    parse_word,
)

__version__ = "0.1.0"
