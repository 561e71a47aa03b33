"""Experiment configuration: a single strict JSON document.

The fields of ExperimentConfig are the table of top-level keys: a key's type,
its default, and in the field metadata an optional minimum and the check of
a key whose type does not say how to parse it. A nested object takes the
fields of its spec dataclass as keys. Unknown keys are rejected at every
level so that typos fail loudly instead of silently running a default. The
CLI's --dry-run echoes the resolved configuration as canonical JSON.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

from .ensembles import EnsembleSpec, PriorSpec
from .errors import ConfigError, RejectedInputError
from .experiments import COLUMNS
from .nonlinear import Denoiser, TestFunction
from .state_evolution import QuadratureSpec

EXPERIMENTS = tuple(COLUMNS)

_QUADRATURE = QuadratureSpec()


def _reject_unknown(d, allowed, where):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _as_int(value, name, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _as_number(value, name, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _as_list(value, name, entry=_as_number, minimum=None):
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(entry(v, f"{name} entry", minimum) for v in value)


def _parse(value, f):
    """The JSON value of field f, parsed by the check in its metadata or else by its type.

    null keeps a default of None. A dataclass default is a nested object; a
    list becomes a tuple of floats. A value outside the field's choices fails.
    """
    name, minimum, check = f.name, f.metadata.get("minimum"), f.metadata.get("check")
    if value is None and f.default is None:
        return None
    if check:
        value = check(value, f)
    elif is_dataclass(f.default):
        value = _nested(value, f)
    elif f.type is int:
        value = _as_int(value, name, minimum)
    elif f.type in (float, float | None):
        value = _as_number(value, name, minimum)
    elif f.type == str | None and not isinstance(value, str):
        raise ConfigError(f"{name} must be a string path")
    elif f.type is tuple or isinstance(value, list):
        value = _as_list(value, name)
    choices = f.metadata.get("choices")
    if choices and value not in choices:
        raise ConfigError(f"unknown {name} {value!r}; expected one of {choices}")
    return value


def _nested(value, f):
    """f's default spec with the keys of a JSON object replaced; its keys are the spec's fields."""
    if not isinstance(value, dict):
        raise ConfigError(f"{f.name} must be a JSON object, got {value!r}")
    spec_fields = fields(f.default)
    _reject_unknown(value, {g.name for g in spec_fields}, f.name)
    given = {g.name: _parse(value[g.name], g) for g in spec_fields if g.name in value}
    try:
        return replace(f.default, **given)
    except RejectedInputError as exc:
        raise ConfigError(str(exc)) from exc


# checks of the keys whose type does not say how to parse them: check(value, f)


def _n_grid(value, f):
    grid = _as_list(value, f.name, _as_int, f.metadata["minimum"])
    if not grid:
        raise ConfigError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("n_grid must be strictly ascending")
    return grid


def _distinct(grid, name):
    """A nonempty grid whose entries differ; a repeated entry would repeat its rows' keys."""
    if not grid:
        raise ConfigError(f"{name} must be nonempty")
    if len(set(grid)) < len(grid):
        raise ConfigError(f"{name} entries must be distinct, got {list(grid)}")
    return grid


def _gamma_grid(value, f):
    return _distinct(_as_list(value, f.name, minimum=f.metadata["minimum"]), f.name)


def _t_grid(value, f):
    grid = _distinct(_as_list(value, f.name), f.name)
    if any(not (0.0 <= t <= 1.0) for t in grid):
        raise ConfigError("t_grid values must lie in [0, 1]")
    return grid


def _denoiser(value, f):
    if isinstance(value, dict) and value.get("kind", "scaled_tanh") != "scaled_tanh":
        value = {"schedule": None, **value}  # only scaled_tanh defaults to the bayes schedule
    return _nested(value, f)


def _init(value, f):
    if isinstance(value, dict):
        _reject_unknown(value, {"kind"}, f.name)
        return value.get("kind")
    return value


def _power_depth(value, f):
    return value if value == "auto" else _as_int(value, f.name, f.metadata["minimum"])


def _key(default=MISSING, check=None, minimum=None, choices=None):
    return field(default=default, metadata={"check": check, "minimum": minimum, "choices": choices})


@dataclass(frozen=True)
class DenoiserSpec:
    """The configured denoiser family; the Denoiser itself is built by ``build``.

    ``schedule`` is a tuple, None, or "bayes": the scaled_tanh schedule
    a_k = gamma * mu_k / sigma_k^2 of the scalar recursion, resolved at run time.
    """

    kind: str = "scaled_tanh"
    schedule: object = "bayes"
    weights: tuple = ()
    offset: float = 0.0
    delta: float = 1e-2

    def __post_init__(self):
        if not isinstance(self.schedule, tuple) and self.schedule not in ("bayes", None):
            raise ConfigError(f"schedule must be a list or 'bayes', got {self.schedule!r}")
        self.build()  # a bad family fails when the config is parsed
        if self.schedule == "bayes" and self.kind != "scaled_tanh":
            raise ConfigError(f"the bayes schedule is scaled_tanh's; {self.kind} takes a list or null")

    def build(self):
        """The Denoiser, or the marker "bayes"."""
        if self.kind == "scaled_tanh" and self.schedule == "bayes":
            return "bayes"
        schedule = self.schedule if isinstance(self.schedule, tuple) else ()
        try:
            return Denoiser(self.kind, schedule, self.weights, self.offset, self.delta)
        except RejectedInputError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentConfig:
    """One run; the fields are the table of top-level keys."""

    experiment: str = _key(choices=EXPERIMENTS)
    n_grid: tuple = _key(check=_n_grid, minimum=1)
    trials: int = _key(50, minimum=1)
    master_seed: int = 0
    K: int = _key(5, minimum=0)
    gamma: float = _key(0.0, minimum=0)
    gamma_grid: tuple | None = _key(None, _gamma_grid, minimum=0)
    t_grid: tuple | None = _key(None, _t_grid)
    ensemble: EnsembleSpec = EnsembleSpec("gaussian")
    prior: PriorSpec = PriorSpec("rademacher")
    denoiser: DenoiserSpec = _key(DenoiserSpec(), _denoiser)
    phi: TestFunction = TestFunction("tanh_product")
    engine: str = _key("onsager", choices=("onsager", "generalized"))
    init: str = _key("independent", _init, choices=("independent", "spectral"))
    power_depth: object = _key("auto", _power_depth, minimum=1)
    diag_shift: float = 3.0
    gauss_hermite_nodes: int = _key(_QUADRATURE.gauss_hermite_nodes, minimum=2)
    gauss_legendre_nodes: int = _key(_QUADRATURE.gauss_legendre_nodes, minimum=2)
    records_csv: str | None = None
    summary_json: str | None = None
    threads: int = _key(1, minimum=1)

    def quadrature(self):
        return QuadratureSpec(self.gauss_hermite_nodes, self.gauss_legendre_nodes)

    def resolved_dict(self):
        """Full configuration with defaults applied, as plain JSON data."""
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        out["init"] = {"kind": self.init}
        return out

    def canonical_json(self):
        return json.dumps(self.resolved_dict(), sort_keys=True, indent=2)


def _plain(value):
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return list(value) if isinstance(value, tuple) else value


def parse_config(data):
    """Validate a decoded JSON document and build an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    keys = fields(ExperimentConfig)
    _reject_unknown(data, {f.name for f in keys}, "configuration")
    values = {}
    for f in keys:
        if f.name in data:
            values[f.name] = _parse(data[f.name], f)
        elif f.default is MISSING:
            raise ConfigError(f"missing required key '{f.name}'")
    cfg = ExperimentConfig(**values)
    _validate_experiment(cfg)
    return cfg


def _validate_experiment(cfg):
    denoiser = cfg.denoiser.build()
    if cfg.experiment == "bbp":
        if cfg.gamma_grid is None:
            raise ConfigError("bbp requires gamma_grid")
    if cfg.experiment == "interpolation":
        if cfg.t_grid is None:
            raise ConfigError("interpolation requires t_grid")
    if cfg.experiment == "concentration":
        if cfg.ensemble.kind != "gaussian":
            raise ConfigError("concentration measures the Gaussian orbit; ensemble must be gaussian")
    if cfg.experiment == "power_bound":
        if max(cfg.n_grid) > 256:
            raise ConfigError("power_bound runs at oracle scale; n_grid must stay <= 256")
    if cfg.experiment == "state_evolution":
        if cfg.init == "spectral" and cfg.gamma <= 1.0:
            raise ConfigError("spectral-init state evolution requires gamma > 1")
        if cfg.init == "independent" and cfg.prior.kind != "gaussian":
            raise ConfigError(
                "independent-init state evolution compares against the Gaussian "
                "covariance recursion; prior must be gaussian"
            )
        if cfg.init == "independent" and cfg.gamma != 0.0:
            raise ConfigError(
                "independent-init state evolution follows the covariance recursion, "
                "which has no spike term; gamma must be 0"
            )
        if cfg.engine == "generalized":
            raise ConfigError("state evolution predicts the memory-corrected orbit; engine must be onsager")
        if cfg.init == "spectral" and denoiser != "bayes" and not denoiser.newest_only():
            raise ConfigError(
                "spectral-init state evolution follows the scalar recursion; "
                "the denoiser must act on the newest iterate only"
            )
    if denoiser == "bayes":
        needs_se = cfg.experiment in ("universality", "state_evolution", "interpolation", "concentration")
        if needs_se and cfg.gamma <= 1.0:
            raise ConfigError("the bayes tanh schedule requires gamma > 1")
    if isinstance(cfg.denoiser.schedule, tuple) and len(cfg.denoiser.schedule) < cfg.K:
        raise ConfigError(
            f"schedule of length {len(cfg.denoiser.schedule)} does not cover K={cfg.K} iterations"
        )


def load_config(path, **overrides):
    """Parse a JSON config file, overrides replacing its top-level keys before the checks.

    Errors carry the offending path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = {**data, **overrides}
    return parse_config(data)
