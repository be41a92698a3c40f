"""Run configuration: flat key-value files with dotted section prefixes.

The format is one ``section.key = value`` pair per line with ``#`` comments,
chosen over positional flags so numerical experiments stay auditable. A
config says what is computed, and each key is set at most once; where the
results go and how the run is carried out are command-line flags. A config
serializes back to text and round-trips unchanged.

``build_problem`` is the one path from named data to a ``ProblemSpec``: the
``problem.*`` keys name the domain, the coefficients, S, u0 and f from a
fixed vocabulary, and a named preset (:mod:`ncparab.presets`) is a set of
those keys' values over a fresh ``RunConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import fields as coeff_fields
from .errors import ConfigError
from .presets import get_preset
from .problem import Interval, ProblemSpec, Rectangle, UnitDiskPolygon


@dataclass
class RunConfig:
    problem_preset: str = "heat1d"
    problem_domain: str = ""  # inline mode: interval(a,b) | rectangle(ax,bx,ay,by) | disk(segments)
    problem_principal: str = "identity"
    problem_first_order: str = ""  # comma-separated complex constants
    problem_a0: str = "0"
    problem_b0: str = "1"
    problem_b1: str = "1"
    problem_s: str = "none"
    problem_u0: str = "zero"
    problem_f: str = "zero"
    problem_T: float = 0.1
    mesh_resolution: int = 0  # 0 means preset default
    basis_k: int = 0  # 0 means preset default
    time_steps: int = 0  # 0 means preset default
    time_theta: float = 0.5
    checks_energy: bool = False
    checks_cauchy: bool = False
    convergence_levels: int = 4
    convergence_mode: str = "space_time"  # space_time | time | eigs
    sharpness_s: float = 0.75
    sharpness_epsilon: float = 0.0  # 0 means derive the witness from s
    sharpness_terms: int = 100_000

    _KEYMAP = None

    @classmethod
    def keymap(cls) -> dict:
        if cls._KEYMAP is None:
            cls._KEYMAP = {f.name.replace("_", ".", 1): f.name for f in dc_fields(cls)}
        return cls._KEYMAP

    def to_text(self) -> str:
        # a problem.* key at its default is left out: under a named preset
        # from_text refuses every problem.* key that the text sets
        default = RunConfig()
        lines = [
            f"{key} = {_format_value(getattr(self, attr))}"
            for key, attr in sorted(self.keymap().items())
            if not key.startswith("problem.") or getattr(self, attr) != getattr(default, attr)
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        cfg = cls()
        keymap = cls.keymap()
        lines = {}  # key -> the line that set it
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in keymap:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in lines:
                raise ConfigError(f"line {lineno}: {key} is already set on line {lines[key]}")
            lines[key] = lineno
            attr = keymap[key]
            try:
                setattr(cfg, attr, _parse_value(value, type(getattr(cfg, attr))))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
        cfg.validate()
        _refuse_problem_keys(cfg, lines)
        return cfg

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                return cls.from_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def validate(self) -> None:
        if not 0.0 < self.problem_T < np.inf:
            raise ConfigError("problem.T must be positive and finite")
        if not 0.0 <= self.time_theta <= 1.0:
            raise ConfigError("time.theta must lie in [0, 1]")
        for attr in ("mesh_resolution", "basis_k", "time_steps", "convergence_levels"):
            if getattr(self, attr) < 0:
                raise ConfigError(f"{attr.replace('_', '.', 1)} must be nonnegative")
        if not 0.0 <= self.sharpness_epsilon < np.inf:
            raise ConfigError("sharpness.epsilon must be nonnegative and finite")
        if self.sharpness_terms < 1:
            raise ConfigError("sharpness.terms must be at least 1")
        if self.convergence_mode not in ("space_time", "time", "eigs"):
            raise ConfigError(f"unknown convergence.mode {self.convergence_mode!r}")


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _parse_value(text: str, kind: type):
    if kind is bool:
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(text)
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    return text


def parse_domain(text: str):
    """Domain from ``interval(a,b)``, ``rectangle(ax,bx,ay,by)`` or
    ``disk(segments)``; bounds must be finite and increasing, and a disk
    polygon needs at least 3 segments."""
    token = text.strip().lower().replace(" ", "")
    try:
        if token.startswith("interval(") and token.endswith(")"):
            a, b = (float(v) for v in token[9:-1].split(","))
            _check_bounds(text, (a, b))
            return Interval(a, b)
        if token.startswith("rectangle(") and token.endswith(")"):
            ax, bx, ay, by = (float(v) for v in token[10:-1].split(","))
            _check_bounds(text, (ax, bx), (ay, by))
            return Rectangle(ax, bx, ay, by)
        if token.startswith("disk(") and token.endswith(")"):
            segments = int(token[5:-1])
            if segments < 3:
                raise ConfigError(f"domain {text!r} needs at least 3 segments")
            return UnitDiskPolygon(segments)
    except ValueError as exc:
        raise ConfigError(f"cannot parse domain {text!r}") from exc
    raise ConfigError(f"unknown domain {text!r}")


def _check_bounds(text: str, *bounds) -> None:
    # the element forms multiply up to three lengths or inverse lengths, which stay finite
    for lo, hi in bounds:
        if not (abs(lo) <= 1e100 and abs(hi) <= 1e100 and hi - lo >= 1e-100):
            raise ConfigError(f"domain {text!r} needs |bounds| <= 1e100, upper - lower >= 1e-100")


def _selector_from_name(name: str, domain):
    key = name.strip().lower()
    if key == "none":
        return None
    if key == "all":
        return lambda *c: np.ones(np.shape(c[0]), dtype=bool)
    if key in ("left", "right"):
        if not isinstance(domain, Interval):
            raise ConfigError(f"S selector {name!r} requires an interval domain")
        # an interval's facets are its end nodes, which the mesh places
        # exactly at a and b
        target = domain.a if key == "left" else domain.b
        return lambda x: x == target
    raise ConfigError(f"unknown S selector {name!r}")


# Named initial data by (name, domain dimension).
_INITIAL = {
    ("sine", 1): lambda x: np.sin(np.pi * x).astype(complex),
    ("sine", 2): lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y)).astype(complex),
    ("cosine", 2): lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y) + 0.0j,
    ("z2", 2): lambda x, y: (x + 1j * y) ** 2,
}


def _initial_from_name(name: str, dim: int):
    key = name.strip().lower()
    if key == "zero":
        return coeff_fields.constant_scalar(0.0)
    if key.startswith("csv:"):
        return coeff_fields.tabulated_scalar(name.strip()[4:], dim)
    if (key, dim) in _INITIAL:
        return _INITIAL[key, dim]
    if any(key == known for known, _ in _INITIAL):
        raise ConfigError(f"u0 preset {name!r} requires a {3 - dim}D domain")
    raise ConfigError(f"unknown initial data preset {name!r}")


def _source_from_name(name: str, dim: int):
    key = name.strip().lower()
    if key == "zero":
        return None
    if key == "sine_cos":
        if dim != 1:
            raise ConfigError("source preset 'sine_cos' requires a 1D domain")
        return lambda x, t: np.sin(np.pi * x) * np.cos(4.0 * t)
    raise ConfigError(f"unknown source preset {name!r}")


def _refuse_problem_keys(cfg: RunConfig, keys) -> None:
    """A named preset would ignore the other ``problem.*`` keys, so any of
    ``keys`` among them is a ``ConfigError``."""
    ignored = [key for key in keys if key.startswith("problem.") and key != "problem.preset"]
    if ignored and cfg.problem_preset not in ("", "inline"):
        raise ConfigError(
            f"{', '.join(ignored)} only apply with problem.preset = inline, "
            f"not with the named preset {cfg.problem_preset!r}"
        )


def named_preset(cfg: RunConfig):
    """The preset a config names. A config file may set no other
    ``problem.*`` key (``RunConfig.from_text``), and a config built in code
    may not set one away from its default: either is a ``ConfigError``."""
    preset = get_preset(cfg.problem_preset)
    default = RunConfig()
    changed = [k for k, a in RunConfig.keymap().items() if getattr(cfg, a) != getattr(default, a)]
    _refuse_problem_keys(cfg, changed)
    return preset


def build_problem(cfg: RunConfig) -> tuple[ProblemSpec, int, int, int]:
    """Resolve a config to a problem plus mesh/basis/step counts.

    A named preset is its ``problem`` values over a fresh ``RunConfig``,
    built as an inline problem. Returns (spec, resolution, basis size, time
    steps) with the preset's (or the inline) defaults filled in where the
    config left zeros.
    """
    if cfg.problem_preset and cfg.problem_preset != "inline":
        preset = named_preset(cfg)
        spec = _inline_problem(RunConfig(**preset.problem))
        defaults = preset.default_resolution, preset.default_k, preset.default_steps
    else:
        spec = _inline_problem(cfg)
        defaults = 32, 16, 100
    resolution = cfg.mesh_resolution or defaults[0]
    k = cfg.basis_k or defaults[1]
    steps = cfg.time_steps or defaults[2]
    return spec, resolution, k, steps


def preset_problem(name: str) -> ProblemSpec:
    """The problem of the named preset."""
    return build_problem(RunConfig(problem_preset=name))[0]


def _inline_problem(cfg: RunConfig) -> ProblemSpec:
    """The problem of the ``problem.*`` keys other than ``problem.preset``."""
    domain = parse_domain(cfg.problem_domain)
    dim = domain.dim
    principal = coeff_fields.matrix_field_from_name(cfg.problem_principal, dim)
    first_order = []
    if cfg.problem_first_order.strip():
        for token in cfg.problem_first_order.split(","):
            value = coeff_fields.parse_constant(token, "problem.first_order entry")
            first_order.append(coeff_fields.constant_scalar(value))
    if len(first_order) > dim:
        raise ConfigError(
            f"problem.first_order has {len(first_order)} entries, "
            f"more than the {dim} dimension(s) of the domain"
        )
    return ProblemSpec(
        domain=domain,
        final_time=cfg.problem_T,
        principal=principal,
        first_order=first_order,
        zero_order=coeff_fields.scalar_field_from_spec(cfg.problem_a0, dim),
        boundary_b0=coeff_fields.scalar_field_from_spec(cfg.problem_b0, dim),
        boundary_b1=coeff_fields.scalar_field_from_spec(cfg.problem_b1, dim),
        dirichlet_selector=_selector_from_name(cfg.problem_s, domain),
        source=_source_from_name(cfg.problem_f, dim),
        initial=_initial_from_name(cfg.problem_u0, dim),
    )
