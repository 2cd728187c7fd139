"""rwkit: compressed-sensing purification and robustness certification.

The toolkit reconstructs approximately sparse signals from randomly
subsampled Fourier measurements, measures how far a signal is from exact
sparsity (its sparsity defect), and turns restricted-width bounds on the
sensing ensemble into certified adversarial-robustness radii for linear
sign classifiers defended by the reconstruction pipeline.
"""

from .certify import (
    Certificate,
    certify_probabilistic,
    defect_budget,
    kappa,
    partial_fourier_rwp,
    performance_bound,
    rip_from_rwp,
    robustness_gain,
    rwp_probability_exponent,
)
from .classifier import (
    LinearClassifier,
    RadiusMeasurement,
    empirical_robust_radius,
    linear_certificate,
    linear_certificate_approx,
    margin,
    min_perturbation,
    predict,
)
from .config import (
    ExperimentConfig,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
from .data import Dataset, gen_data, read_dataset, write_dataset
from .defect import (
    DefectParams,
    DefectResult,
    ExpectedDefect,
    brute_force_defect,
    coefficient_defect,
    expected_defect,
    sparsity_defect,
)
from .errors import (
    ConfigError,
    InfeasibleError,
    NumericError,
    ParameterError,
    RwkitError,
    ShapeError,
)
from .frames import FRAME_KINDS, Frame, analyze, as_signal, soft_threshold, sparsity_norm, synthesize
from .io import read_signal, write_signal
from .reconstruct import (
    PurifiedSignal,
    ReconstructionParams,
    defend,
    ista_reconstruct,
    purify,
    purify_many,
)
from .sensing import (
    RwpParameters,
    SensingOperator,
    adjoint,
    apply,
    derived_seed,
    make_partial_fourier,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # frames
    "FRAME_KINDS",
    "Frame",
    "as_signal",
    "analyze",
    "synthesize",
    "sparsity_norm",
    "soft_threshold",
    # sensing
    "SensingOperator",
    "RwpParameters",
    "make_partial_fourier",
    "apply",
    "adjoint",
    "derived_seed",
    # reconstruction
    "ReconstructionParams",
    "PurifiedSignal",
    "ista_reconstruct",
    "purify",
    "purify_many",
    "defend",
    # defect
    "DefectParams",
    "DefectResult",
    "ExpectedDefect",
    "coefficient_defect",
    "sparsity_defect",
    "brute_force_defect",
    "expected_defect",
    # certification
    "Certificate",
    "kappa",
    "performance_bound",
    "defect_budget",
    "certify_probabilistic",
    "partial_fourier_rwp",
    "rip_from_rwp",
    "rwp_probability_exponent",
    "robustness_gain",
    # classifier
    "LinearClassifier",
    "RadiusMeasurement",
    "predict",
    "margin",
    "min_perturbation",
    "linear_certificate",
    "linear_certificate_approx",
    "empirical_robust_radius",
    # data / io / config
    "Dataset",
    "gen_data",
    "write_dataset",
    "read_dataset",
    "read_signal",
    "write_signal",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "load_config",
    "config_hash",
    # errors
    "RwkitError",
    "ParameterError",
    "ShapeError",
    "NumericError",
    "InfeasibleError",
    "ConfigError",
]
