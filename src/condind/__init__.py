"""Exact conditional-indicator calculus on finite probability spaces.

The package exports lazily (PEP 562): `import condind` loads no submodule,
and a public name imports its defining submodule on first access, so a
process pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> defining submodule
_EXPORTS = {
    name: module
    for module, names in (
        ("extreal", "NEG_INF ONE POS_INF ZERO ExtReal ext ext_add ext_mul ext_sub parse_ext"),
        ("space", "DEFAULT_TOL Event Filtration FiniteProbabilitySpace Partition RandomVariable "
                  "enumerate_events expectation is_measurable is_refinement patch restrict"),
        ("indicators", "BUILTIN_NAMES Flag IndicatorSpec builtin_indicator condexp_ext_indicator "
                       "condexp_indicator dual essinf_cond essinf_indicator esssup_cond "
                       "esssup_indicator ext_cond_expectation_closed_form family_inf family_sup "
                       "lower_extension mix_self_dual upper_extension"),
        ("checks", "CheckReport Verdict check_additive_implies_regular check_axioms "
                   "check_convex_implies_regular check_hplus_decomposition check_regular "
                   "check_structural"),
        ("stochastic", "AdaptedProcess StochasticIndicator backward_envelope "
                       "check_esssup_shift_rigidity check_projection "
                       "check_projection_uniqueness_premises check_tower "
                       "is_indicator_martingale projection_solve"),
        ("risk", "check_dom_closure check_prop_rm "
                 "check_rho_correspondence check_rm_axioms check_rm_coherent check_rm_convexity "
                 "check_rm_pos_hom rho rho_from_acceptance rho_from_indicator"),
        ("expectation_ext", "DensityReport additivity_set check_additivity_on_F check_contractive "
                            "check_lemm_cond_exp is_conditional_expectation "
                            "recover_density weighted_indicator"),
        ("scenario", "Scenario canonical_scenario dump_scenario load_scenario parse_scenario "
                     "scenario_to_dict"),
        ("battery", "verify_all"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset({*_EXPORTS.values(), "cli", "errors", "sampling"})
__all__ = [*_EXPORTS, "errors"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here too
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
