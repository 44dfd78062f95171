import importlib
import pkgutil
from collections import Counter

import sepchoose

# the public surface; a change here is an API change
EXPORTS = {
    "Certificate", "cert_from_json_dict", "cert_to_json_dict", "claimed_sigma", "fig1_fixture", "gen_c3_family",
    "gen_flower", "gen_path_family", "gen_sep_odd_cycle", "gen_sep_small_ratio", "glue_path_to_cycle",
    "verify_certificate",
    "ColoringInputError", "ColoringPlan", "cactus_free_color", "cycle_color_precolored", "greedy_cycle",
    "lift_cycle", "outerplanar_color", "path_color_precolored",
    "CThreshold", "FormulaResult", "c_threshold", "fsep_cactus", "fsep_cycle", "fsep_min_with_triangle",
    "fsep_monotone_check", "fsep_outerplanar_bounds", "sep_cycle",
    "Graph", "block_decomposition", "build_cycle", "build_flower", "build_path", "graph_from_json_dict",
    "identify_vertices", "is_cactus",
    "ListAssignment", "TraceMultiset", "amplitude_condition", "amplitude_sigma", "amplitude_violation",
    "assignment_from_json_dict", "canonicalize", "is_valid_coloring", "realize", "separation",
    "BudgetExceeded", "SolveOutcome", "color_with_lists", "compute_sep", "decide_choosable", "decide_with_lists",
    "enumerate_canonical",
}


def _modules():
    return [importlib.import_module(f"sepchoose.{m.name}") for m in pkgutil.iter_modules(sepchoose.__path__)]


def test_every_export_resolves():
    # a stale name in an __all__ would break `from sepchoose import *`
    for mod in [sepchoose] + _modules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__} exports missing {name}"
    namespace = {}
    exec("from sepchoose import *", namespace)
    assert set(sepchoose.__all__) <= namespace.keys()
    assert len(EXPORTS) == 54
    assert set(sepchoose.__all__) == EXPORTS
    assert len(sepchoose.__all__) == len(EXPORTS), "a name is exported twice"


def test_each_export_has_one_owning_module():
    owners = Counter(name for mod in _modules() for name in getattr(mod, "__all__", ()))
    assert set(owners) == EXPORTS
    assert [name for name, k in owners.items() if k > 1] == []
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            assert getattr(mod, name).__module__ == mod.__name__, f"{mod.__name__} re-exports {name}"
