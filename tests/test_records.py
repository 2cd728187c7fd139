"""The record contract shared by rwkit's 13 public value types."""

import dataclasses

import numpy as np
import pytest

from rwkit import (
    Certificate,
    ConfigError,
    Dataset,
    DefectParams,
    DefectResult,
    ExpectedDefect,
    ExperimentConfig,
    Frame,
    LinearClassifier,
    ParameterError,
    PurifiedSignal,
    RadiusMeasurement,
    ReconstructionParams,
    RwpParameters,
)
from rwkit._record import _Record
from rwkit.sensing import SensingOperator

# (class, a full positional argument tuple, the trailing defaults).  The
# arguments come from a function so that each record gets fresh arrays.
RECORDS = [
    (Frame, lambda: ("haar-dwt", 2), {"levels": 0}),
    (SensingOperator, lambda: (np.array([1.0, 0.0, 1.0, 1.0]),), {}),
    (RwpParameters, lambda: (0.05, 4.0, 0.9), {"rwp_prob": 0.0}),
    (ReconstructionParams, lambda: (10, 0.1, 0.5, Frame("identity")), {}),
    (PurifiedSignal, lambda: (np.arange(3.0), 4, 1.5, 0.25), {"imag_residual": 0.0}),
    (DefectParams, lambda: (1.0,), {}),
    (DefectResult, lambda: (0.5, 1.0), {}),
    (ExpectedDefect, lambda: (0.25, 3), {}),
    (Certificate, lambda: (1.0, 0.5, 0.25, {"k": 1}, True), {"inputs": {}, "vacuous": False}),
    (LinearClassifier, lambda: (np.array([1.0, -2.0]),), {}),
    (RadiusMeasurement, lambda: (0.3, 5, "bisect", False), {"flip_found": True}),
    (Dataset, lambda: (np.ones(2), [np.zeros(2)], [1]), {}),
    (
        ExperimentConfig,
        lambda: (
            "identity", 0, 0.01, 20, 0.5, 2.0, 2, 4.0, 0.05, 0.5, 0.99,
            32, 4, 2, 1, 0.05, 3, (0.01, 0.05),
        ),
        {"master_seed": 0, "epsilon_grid": (0.01, 0.02, 0.05, 0.1)},
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
# Records whose fields are all hashable.
HASHABLE = [
    Frame, RwpParameters, ReconstructionParams, DefectParams, DefectResult,
    ExpectedDefect, RadiusMeasurement, ExperimentConfig,
]


def same_fields(a, b):
    assert type(a) is type(b)
    for name in type(a)._fields:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, (np.ndarray, list)):
            assert np.array_equal(x, y), name
        else:
            assert x == y, name


def test_every_public_record_is_covered():
    assert len(RECORDS) == 13
    assert [list(cls._fields) for cls, _, _ in RECORDS] == [
        list(cls.__annotations__) for cls, _, _ in RECORDS
    ]


def test_fields_come_from_the_annotations_attribute():
    # From Python 3.14 a class body's annotations are evaluated lazily, so
    # ``__annotations__`` is not in the class dict when the class is made.
    # A metaclass property stands in for that here.
    class LazyAnnotations(type):
        @property
        def __annotations__(cls):
            return {"a": int, "b": str}

    class Lazy(_Record, metaclass=LazyAnnotations):
        b = "x"

    assert "__annotations__" not in Lazy.__dict__
    assert list(Lazy._fields) == ["a", "b"]
    rec = Lazy(1)
    assert (rec.a, rec.b) == (1, "x")


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=IDS)
class TestRecordContract:
    def test_positional_and_keyword_construction_agree(self, cls, args, defaults):
        positional = cls(*args())
        keyword = cls(**dict(zip(cls._fields, args())))
        same_fields(positional, keyword)
        for name, value in zip(cls._fields, args()):
            if not isinstance(value, (np.ndarray, list)) and name != "epsilon_grid":
                assert getattr(positional, name) == value

    def test_defaults_fill_trailing_fields(self, cls, args, defaults):
        given = args()[: len(cls._fields) - len(defaults)]
        rec = cls(*given)
        for name, value in defaults.items():
            assert getattr(rec, name) == value

    def test_missing_unknown_duplicate_and_extra_arguments_raise(self, cls, args, defaults):
        if cls is not ExperimentConfig:  # every config key has a default
            with pytest.raises(TypeError, match="missing required argument"):
                cls()
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*args(), bogus=1)
        first = next(iter(cls._fields))
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(*args(), **{first: args()[0]})
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*args(), None)

    def test_frozen(self, cls, args, defaults):
        rec = cls(*args())
        for name in (*cls._fields, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, name)

    def test_equal_records_have_equal_hashes(self, cls, args, defaults):
        a, b = cls(*args()), cls(*args())
        assert a == b and not a != b
        if cls in HASHABLE:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        assert a != tuple(args())
        # A record with one array entry changed, v to 1 - v, is unequal:
        # an array field's, or that of an array in a list field.
        changed = 0
        given = args()
        for value in given:
            for arr in value if isinstance(value, list) else [value]:
                if isinstance(arr, np.ndarray):
                    arr.flat[0] = 1.0 - arr.flat[0]
                    other = cls(*given)
                    assert a != other and not a == other
                    arr.flat[0] = 1.0 - arr.flat[0]
                    assert a == cls(*given)
                    changed += 1
        assert changed == {SensingOperator: 1, PurifiedSignal: 1, LinearClassifier: 1, Dataset: 2}.get(cls, 0)

    def test_repr_lists_fields_in_order(self, cls, args, defaults):
        # The weight and mask arrays are left out.
        hidden = {LinearClassifier: "weights", SensingOperator: "mask"}.get(cls)
        shown = [name for name in cls._fields if name != hidden]
        rec = cls(*args())
        parts = ", ".join(f"{name}={getattr(rec, name)!r}" for name in shown)
        assert repr(rec) == f"{cls.__name__}({parts})"

    def test_is_not_a_dataclass(self, cls, args, defaults):
        assert not dataclasses.is_dataclass(cls)


def test_certificates_get_distinct_inputs_dicts():
    a, b = Certificate(1.0, 0.5, 0.25), Certificate(1.0, 0.5, 0.25)
    a.inputs["k"] = 1
    assert b.inputs == {} and a.inputs is not b.inputs


def test_post_init_may_set_fields_and_attributes():
    cfg = ExperimentConfig(epsilon_grid=[0.01, 1])
    assert cfg.epsilon_grid == (0.01, 1.0) and type(cfg.epsilon_grid[1]) is float
    assert cfg.recon_params == ReconstructionParams(49, 0.11, 0.7494, Frame("unitary-dft"))
    weights = LinearClassifier([1, 2]).weights
    assert weights.dtype == np.float64
    mask = SensingOperator(np.ones(4)).mask
    assert not mask.flags.writeable


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Frame("bogus"), ParameterError),
        (lambda: RwpParameters(0.05, 0.0), ParameterError),
        (lambda: ReconstructionParams(0, 0.1, 0.5, Frame("identity")), ParameterError),
        (lambda: DefectParams(0.0), ParameterError),
        (lambda: Certificate(-1.0, 0.5, 0.25), ParameterError),
        (lambda: LinearClassifier(np.zeros(2)), ParameterError),
        (lambda: RadiusMeasurement(-1.0, 1, "bisect"), ParameterError),
        (lambda: ExperimentConfig(tau=0.0), ConfigError),
        (lambda: ExperimentConfig(epsilon_grid=(0.1, 0.05)), ConfigError),
    ],
)
def test_post_init_validation_still_raises(build, error):
    with pytest.raises(error):
        build()
