"""The package's public API: lazy exports that resolve to the same objects."""

import importlib
import os
import subprocess
import sys

import condind

# the public names `condind` exported when it imported every submodule eagerly
PUBLIC_NAMES = sorted("""
    AdaptedProcess BUILTIN_NAMES CheckReport DEFAULT_TOL DensityReport Event ExtReal
    Filtration FiniteProbabilitySpace Flag IndicatorSpec NEG_INF ONE POS_INF Partition
    RandomVariable RiskMeasureSpec Scenario StochasticIndicator Verdict ZERO
    acceptance_contains additivity_set backward_envelope battery_failed builtin_indicator
    canonical_scenario check_additive_implies_regular check_additivity_on_F check_axioms
    check_contractive check_convex_implies_regular check_dom_closure
    check_esssup_shift_rigidity check_hplus_decomposition check_lemm_cond_exp
    check_projection check_projection_uniqueness_premises check_prop_rm check_regular
    check_rho_correspondence check_rm_axioms check_rm_coherent check_rm_convexity
    check_rm_pos_hom check_structural check_tower condexp_ext_indicator
    condexp_indicator dual dump_scenario enumerate_events errors essinf_cond
    essinf_indicator esssup_cond esssup_indicator expectation ext ext_add
    ext_cond_expectation_closed_form ext_mul ext_sub family_inf family_sup
    is_conditional_expectation is_indicator_martingale is_measurable is_refinement
    load_scenario lower_extension mix_self_dual parse_ext parse_scenario patch
    projection_solve recover_density restrict rho rho_from_acceptance rho_from_indicator
    scenario_to_dict upper_extension verify_all weighted_expectation weighted_indicator
""".split())
SUBMODULES = ("battery", "checks", "cli", "errors", "expectation_ext", "extreal", "indicators",
              "risk", "sampling", "scenario", "space", "stochastic")


def test_all_is_the_public_api():
    assert len(PUBLIC_NAMES) == 86
    assert sorted(condind.__all__) == PUBLIC_NAMES


def test_each_name_is_its_defining_modules_object():
    for name in condind.__all__:
        if name == "errors":
            assert condind.errors is importlib.import_module("condind.errors")
            continue
        module = importlib.import_module(f"condind.{condind._EXPORTS[name]}")
        assert getattr(condind, name) is getattr(module, name), name
    assert condind.DEFAULT_TOL is importlib.import_module("condind.risk").DEFAULT_TOL


def test_unknown_name_raises_attribute_error():
    assert not hasattr(condind, "nope")


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from condind import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_bare_import_reaches_every_submodule():
    code = ("import condind, sys\n"
            f"for name in {SUBMODULES!r}:\n"
            "    assert getattr(condind, name) is sys.modules['condind.' + name], name\n"
            "print(sorted(set(dir(condind)) & set(condind.__all__)) == sorted(condind.__all__))")
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env, check=True)
    assert proc.stdout.split() == ["True"]
