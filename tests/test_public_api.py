"""The package's public names: each module declares its own in ``__all__``,
and ``rwkit`` re-exports exactly those, as the same objects."""

import importlib

import pytest

import rwkit

MODULES = [
    "certify",
    "classifier",
    "config",
    "data",
    "defect",
    "errors",
    "frames",
    "io",
    "reconstruct",
    "sensing",
]

PUBLIC_NAMES = {
    "__version__",
    # frames
    "FRAME_KINDS", "Frame", "as_signal", "analyze", "synthesize", "sparsity_norm",
    "soft_threshold",
    # sensing
    "SensingOperator", "RwpParameters", "make_partial_fourier", "apply", "adjoint",
    "derived_seed",
    # reconstruct
    "ReconstructionParams", "PurifiedSignal", "ista_reconstruct", "purify", "purify_many",
    "defend",
    # defect
    "DefectParams", "DefectResult", "ExpectedDefect", "coefficient_defect", "sparsity_defect",
    "expected_defect",
    # certify
    "Certificate", "kappa", "performance_bound", "defect_budget", "certify_probabilistic",
    "partial_fourier_rwp", "rip_from_rwp", "rwp_probability_exponent", "robustness_gain",
    # classifier
    "LinearClassifier", "RadiusMeasurement", "predict", "margin", "min_perturbation",
    "linear_certificate", "empirical_robust_radius",
    # data, io, config
    "Dataset", "gen_data", "write_dataset", "read_dataset", "read_signal", "write_signal",
    "ExperimentConfig", "parse_config", "serialize_config", "load_config", "config_hash",
    # errors
    "RwkitError", "ParameterError", "ShapeError", "NumericError", "InfeasibleError",
    "ConfigError",
}


def test_package_exports_the_recorded_names_once():
    assert len(PUBLIC_NAMES) == 59
    assert set(rwkit.__all__) == PUBLIC_NAMES
    assert len(rwkit.__all__) == len(set(rwkit.__all__))


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_are_the_package_exports(module_name):
    module = importlib.import_module(f"rwkit.{module_name}")
    assert len(module.__all__) == len(set(module.__all__))
    for name in module.__all__:
        assert name in rwkit.__all__
        assert getattr(rwkit, name) is getattr(module, name)


@pytest.mark.parametrize("module_name", ["frames", "errors"])
def test_star_import_binds_no_helper(module_name):
    namespace = {}
    exec(f"from rwkit.{module_name} import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(importlib.import_module(f"rwkit.{module_name}").__all__)
    assert not bound & {"np", "functools", "math", "numbers", "operator"}


def test_signal_magic_stays_in_io_only():
    assert rwkit.io.MAGIC == b"RWKSIG1\x00"
    assert "MAGIC" not in rwkit.__all__ and not hasattr(rwkit, "MAGIC")
