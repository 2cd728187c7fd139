"""Flat key=value experiment configuration.

The on-disk format is one ``key=value`` pair per line with ``#`` comments
and blank lines ignored.  ``epsilon_grid`` is a comma-separated list.
The keys of the retired iterative defect solver (``bregman_lambda``,
``defect_tolerance``, ``defect_max_iterations``) are accepted and ignored;
any other unknown key is an error.
Serialization is canonical (fixed key order, %.17g floats) so the config
hash is stable and parse(serialize(c)) == c.
"""

import hashlib
from dataclasses import dataclass, fields

from .errors import ConfigError
from .frames import FRAME_KINDS

__all__ = ["ExperimentConfig", "parse_config", "serialize_config", "config_hash", "load_config"]

# Keys of the iterative defect solver, which the closed form replaced.
_RETIRED_KEYS = frozenset({"bregman_lambda", "defect_tolerance", "defect_max_iterations"})


@dataclass(frozen=True)
class ExperimentConfig:
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
        if self.frame not in FRAME_KINDS:
            raise ConfigError(f"frame: unknown kind {self.frame!r}")
        if self.levels < 0:
            raise ConfigError("levels: must be >= 0")
        if self.threshold < 0:
            raise ConfigError("threshold: must be >= 0")
        if self.iterations < 1:
            raise ConfigError("iterations: must be >= 1")
        if not 0.0 <= self.subsample_prob <= 1.0:
            raise ConfigError("subsample_prob: must lie in [0, 1]")
        if self.defect_bound <= 0:
            raise ConfigError("defect_bound: must be positive")
        if self.defect_operators < 1:
            raise ConfigError("defect_operators: must be >= 1")
        if not 0.0 <= self.rwp_prob <= 1.0:
            raise ConfigError("rwp_prob: must lie in [0, 1]")
        if self.n < 1 or (self.n & (self.n - 1)) != 0:
            raise ConfigError("n: must be a power of two")
        if self.count < 1:
            raise ConfigError("count: must be >= 1")
        if not 1 <= self.sparsity <= self.n:
            raise ConfigError("sparsity: must lie in [1, n]")
        if self.margin_floor <= 0:
            raise ConfigError("margin_floor: must be positive")
        grid = tuple(float(e) for e in self.epsilon_grid)
        if any(e < 0 for e in grid):
            raise ConfigError("epsilon_grid: entries must be >= 0")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("epsilon_grid: must be strictly increasing")
        object.__setattr__(self, "epsilon_grid", grid)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def serialize_config(cfg):
    lines = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if f.name == "epsilon_grid":
            v = ",".join(_fmt(e) for e in v)
        else:
            v = _fmt(v)
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def parse_config(text):
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        raw[key.strip()] = value.strip()
    known = {f.name: f for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key in _RETIRED_KEYS:
            continue
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if key == "epsilon_grid":
                kwargs[key] = tuple(float(e) for e in value.split(",") if e.strip())
            elif known[key].type in (int, "int"):
                kwargs[key] = int(value)
            elif known[key].type in (float, "float"):
                kwargs[key] = float(value)
            else:
                kwargs[key] = value
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def load_config(path):
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def config_hash(cfg):
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
