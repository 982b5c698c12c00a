"""The package's public surface: each module's `__all__`, re-exported once."""

import itertools

import noma_isac

MODULES = ("analytic", "channel", "config", "montecarlo", "region", "specfun")

PUBLIC = sorted([
    "ContainmentReport", "CorrelationMatrix", "EULER_GAMMA", "EstimateWithError", "ISAC",
    "Mode", "RatePoint", "ReferenceEntry", "RegionFrontier", "ResourceSplit", "SystemConfig",
    "Target", "TargetScene", "Thresholds", "baseline_config", "build_correlation",
    "comm_factors", "containment_check", "db_to_linear", "dual_function_signal",
    "ergodic_rates", "ergodic_rates_asymptotic", "estimate_ecr", "estimate_outage",
    "estimate_slope", "exp_int_ei", "fdsac", "fdsac_frontier", "gain_samples", "isac_corner",
    "log2_det_i_plus_scaled", "make_config", "orthogonal_streams", "outage_asymptotic",
    "outage_probability", "psi_term", "reference_table", "scene_eigenvalues",
    "sensing_mi_bruteforce", "sensing_mi_reduced", "sensing_rate", "sensing_rate_asymptotic",
    "split_ergodic_rates", "split_sensing_rate", "steering_vector", "sum_rate", "thresholds",
    "trial_uniforms", "validate_config",
])


def test_package_exports_the_public_names():
    assert len(PUBLIC) == 49
    assert sorted(noma_isac.__all__) == PUBLIC


def test_each_name_is_exported_by_one_module():
    lists = [getattr(noma_isac, m).__all__ for m in MODULES]
    names = list(itertools.chain.from_iterable(lists))
    assert len(names) == len(set(names))
    assert sorted(names) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from noma_isac import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for m in MODULES:
        module = getattr(noma_isac, m)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)
