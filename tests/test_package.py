"""The package's public API: lazy exports that resolve to the same objects."""

import ast
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
    additivity_set backward_envelope builtin_indicator
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
    scenario_to_dict upper_extension verify_all weighted_indicator
""".split())
SUBMODULES = ("battery", "checks", "cli", "errors", "expectation_ext", "extreal", "indicators",
              "risk", "sampling", "scenario", "space", "stochastic")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "condind")

# exports that nothing in the package calls, each kept for a reason
UNCALLED_EXPORTS = {
    "ext_add": "the acceptance gate imports it",
    "ext_sub": "the acceptance gate imports it",
    "ext_mul": "the acceptance gate imports it",
    "dump_scenario": "the scenario round trip the README promises",
    "check_contractive": "ROADMAP item 11: the characterization rows will call it",
    "is_conditional_expectation": "ROADMAP item 11: the characterization rows will call it",
}


def _references(node: ast.AST, defining: frozenset = frozenset()) -> set[str]:
    """Names a module's code reads: loaded names, attributes and the modules
    of relative imports, none counted inside the definition of that name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        defining = defining | {node.name}
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    elif isinstance(node, ast.ImportFrom) and node.level and node.module:
        found.add(node.module)
    for child in ast.iter_child_nodes(node):
        found |= _references(child, defining)
    return found - defining


def test_all_is_the_public_api():
    assert len(PUBLIC_NAMES) == 83
    assert sorted(condind.__all__) == PUBLIC_NAMES


def test_every_export_has_a_caller_or_a_recorded_reason():
    referenced = set()
    for file in os.listdir(SRC):
        if file.endswith(".py") and file != "__init__.py":
            with open(os.path.join(SRC, file)) as fh:
                referenced |= _references(ast.parse(fh.read()))
    assert set(condind.__all__) - referenced == set(UNCALLED_EXPORTS)


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
