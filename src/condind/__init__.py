"""Exact conditional-indicator calculus on finite probability spaces."""

from .extreal import (
    NEG_INF,
    ONE,
    POS_INF,
    ZERO,
    ExtReal,
    ext,
    ext_add,
    ext_mul,
    ext_sub,
    parse_ext,
)
from .space import (
    Event,
    Filtration,
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    enumerate_events,
    expectation,
    is_measurable,
    is_refinement,
    patch,
    restrict,
)
from .indicators import (
    BUILTIN_NAMES,
    Flag,
    IndicatorSpec,
    builtin_indicator,
    condexp_ext_indicator,
    condexp_indicator,
    dual,
    essinf_cond,
    essinf_indicator,
    esssup_cond,
    esssup_indicator,
    ext_cond_expectation_closed_form,
    family_inf,
    family_sup,
    lower_extension,
    mix_self_dual,
    upper_extension,
)
from .checks import (
    CheckReport,
    Verdict,
    check_additive_implies_regular,
    check_axioms,
    check_convex_implies_regular,
    check_hplus_decomposition,
    check_regular,
    check_structural,
)
from .stochastic import (
    AdaptedProcess,
    StochasticIndicator,
    backward_envelope,
    check_esssup_shift_rigidity,
    check_projection,
    check_projection_uniqueness_premises,
    check_tower,
    is_indicator_martingale,
    projection_solve,
)
from .risk import (
    DEFAULT_TOL,
    RhoSide,
    RiskMeasureSpec,
    acceptance_contains,
    check_dom_closure,
    check_prop_rm,
    check_rho_correspondence,
    check_rm_axioms,
    check_rm_coherent,
    check_rm_convexity,
    check_rm_pos_hom,
    rho,
    rho_from_acceptance,
    rho_from_indicator,
)
from .expectation_ext import (
    DensityReport,
    additivity_set,
    check_additivity_on_F,
    check_contractive,
    check_lemm_cond_exp,
    cond_exp_extended,
    is_conditional_expectation,
    recover_density,
    weighted_expectation,
    weighted_indicator,
)
from .scenario import (
    Scenario,
    canonical_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)
from .battery import battery_failed, verify_all
from . import errors

__version__ = "0.1.0"
