"""Flat key=value experiment configuration.

The on-disk format is UTF-8 text (a leading byte-order mark is accepted)
with one ``key=value`` pair per line, ``#`` comments and blank lines
ignored; a key given twice is an error that names both lines.
``epsilon_grid`` is a comma-separated list of numbers; an empty value is
the empty grid, and an empty entry (``0.1,,0.2`` or ``0.1,``) is an error.
The keys of the retired iterative defect solver (``bregman_lambda``,
``defect_tolerance``, ``defect_max_iterations``) are accepted and ignored;
any other unknown key is an error.

Values follow the parameter rules of :mod:`rwkit.errors` (a float value
is a real number that is not a ``bool``, and NaN fails every range).  The
config owns only the rules that no library type does: every float value is
finite, ``epsilon_grid`` is a sequence (not a string) of numbers >= 0,
strictly increasing, ``defect_operators`` >= 1 and ``tau`` > 0.
``defect_operators`` is checked and enters the hash, but no command reads
it: ``eval`` takes each cell's defect under that cell's own mask.  The seeds
are checked by :func:`~rwkit.sensing.derived_seed`, and every other range
is checked by building the type that consumes the value:
:class:`~rwkit.reconstruct.ReconstructionParams` and its
:class:`~rwkit.frames.Frame` (frame, levels, threshold, iterations,
subsample_prob), :class:`~rwkit.defect.DefectParams` (defect_bound),
:class:`~rwkit.sensing.RwpParameters` (alpha, rho, rwp_prob) and the
dataset check of :func:`~rwkit.data.gen_data` (n, count, sparsity,
margin_floor).  Their ``ParameterError`` becomes a ``ConfigError`` that
names the key.  The built purifier parameters are ``cfg.recon_params``.
The signal length ``n`` may be any integer >= 1; whether a wavelet frame
supports it (``n`` divisible by ``2**levels``) is the frame's check, which
``eval`` runs before it starts.
Serialization is canonical (fixed key order, %.17g floats) so the config
hash is stable and parse(serialize(c)) == c.
"""

import hashlib
import math
from collections.abc import Iterable

from . import data, io
from ._record import _Record
from .defect import DefectParams
from .errors import ConfigError, ParameterError, _index, _real
from .frames import Frame
from .reconstruct import ReconstructionParams
from .sensing import RwpParameters, derived_seed

__all__ = ["ExperimentConfig", "parse_config", "serialize_config", "config_hash", "load_config"]

# Keys of the iterative defect solver, which the closed form replaced.
_RETIRED_KEYS = frozenset({"bregman_lambda", "defect_tolerance", "defect_max_iterations"})


class ExperimentConfig(_Record):
    # purifier (defaults from the shipped Fourier sample configuration)
    frame: str = "unitary-dft"
    levels: int = 0
    threshold: float = 0.11
    iterations: int = 49
    subsample_prob: float = 0.7494
    # sparsity defect
    defect_bound: float = 1.0
    defect_operators: int = 1
    # certificate inputs
    alpha: float = 4.0
    rho: float = 0.05
    tau: float = 0.5
    rwp_prob: float = 0.99
    # dataset
    n: int = 128
    count: int = 50
    sparsity: int = 4
    weights_seed: int = 0
    margin_floor: float = 1e-3
    # experiment
    master_seed: int = 0
    epsilon_grid: tuple = (0.01, 0.02, 0.05, 0.1)

    def __post_init__(self):
        grid = self.epsilon_grid
        if isinstance(grid, (str, bytes)) or not isinstance(grid, Iterable):
            raise ConfigError(f"epsilon_grid: must be a sequence of numbers, got {grid!r}")
        grid = tuple(grid)
        try:
            for name, kind in self._fields.items():
                if kind is float:
                    _real(getattr(self, name), f"{name}:", gt=-math.inf, lt=math.inf)
            for e in grid:
                _real(e, "epsilon_grid: entries", ge=0, lt=math.inf)
            _real(_index(self.defect_operators, "defect_operators:"), "defect_operators:", ge=1)
            # No type owns tau; with tau <= 0 no epsilon >= 0 can be certified.
            _real(self.tau, "tau:", gt=0)
            recon_params = ReconstructionParams(
                iterations=self.iterations,
                threshold=self.threshold,
                subsample_prob=self.subsample_prob,
                frame=Frame(kind=self.frame, levels=self.levels),
            )
            RwpParameters(rho=self.rho, alpha=self.alpha, rwp_prob=self.rwp_prob)
            data._check_params(self.n, self.count, self.sparsity, self.margin_floor)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from None
        grid = tuple(float(e) for e in grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("epsilon_grid: must be strictly increasing")
        object.__setattr__(self, "epsilon_grid", grid)
        for name in ("weights_seed", "master_seed"):
            try:
                derived_seed(getattr(self, name))
            except ParameterError as exc:
                raise ConfigError(f"{name}: {exc}") from None
        try:
            DefectParams(solution_bound=self.defect_bound)
        except ParameterError as exc:
            raise ConfigError(f"defect_bound: {exc}") from None
        object.__setattr__(self, "recon_params", recon_params)


def _fmt(v):
    # Every float rwkit writes as text is %.17g, which rereads bit-exact.
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def serialize_config(cfg):
    lines = []
    for name in ExperimentConfig._fields:
        v = getattr(cfg, name)
        if name == "epsilon_grid":
            v = ",".join(_fmt(e) for e in v)
        else:
            v = _fmt(v)
        lines.append(f"{name}={v}")
    return "\n".join(lines) + "\n"


def parse_config(text):
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: key {key!r} already given on line {raw[key][0]}")
        raw[key] = lineno, value
    known = ExperimentConfig._fields
    kwargs = {}
    for key, (_, value) in raw.items():
        if key in _RETIRED_KEYS:
            continue
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if key == "epsilon_grid":
                kwargs[key] = tuple(map(float, value.split(","))) if value else ()
            elif known[key] is int:
                kwargs[key] = int(value)
            elif known[key] is float:
                kwargs[key] = float(value)
            else:
                kwargs[key] = value
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def load_config(path):
    return parse_config(io._read(path, "config"))


def config_hash(cfg):
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
