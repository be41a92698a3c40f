"""Named problem presets used by the CLI and the verification suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fields
from .errors import ConfigError
from .problem import Interval, ProblemSpec, Rectangle, UnitDiskPolygon


@dataclass
class Preset:
    name: str
    build: Callable[[], ProblemSpec]
    default_resolution: int
    default_k: int
    default_steps: int
    description: str
    oracle: Optional[Callable] = None  # exact solution (coords..., t) -> complex
    spectrum: Optional[Callable] = None  # n -> first n exact pencil eigenvalues


def _sine(x):
    return np.sin(np.pi * x).astype(complex)


def _heat_oracle(x, t):
    return np.exp(-np.pi**2 * t) * np.sin(np.pi * x)


def _heat_spectrum(n):
    return (np.pi * np.arange(1, n + 1)) ** 2


def _sine2d(x, y):
    return (np.sin(np.pi * x) * np.sin(np.pi * y)).astype(complex)


def _heat2d_oracle(x, y, t):
    return np.exp(-2.0 * np.pi**2 * t) * np.sin(np.pi * x) * np.sin(np.pi * y)


def _heat2d_spectrum(n):
    # pi^2 (i^2 + j^2) over i, j >= 1; i, j <= n covers the n smallest
    i = np.arange(1, n + 1)
    return np.sort(np.pi**2 * (i[:, None] ** 2 + i[None, :] ** 2), axis=None)[:n]


def _all_boundary(*coords):
    return np.ones(np.shape(coords[0]), dtype=bool)


def _dirichlet_problem(**overrides) -> ProblemSpec:
    kwargs = dict(
        domain=Interval(0.0, 1.0),
        final_time=0.1,
        principal=fields.constant_matrix([[1.0]]),
        first_order=[],
        zero_order=fields.constant_scalar(0.0),
        dirichlet_selector=_all_boundary,
        source=None,
        initial=_sine,
    )
    kwargs.update(overrides)
    return ProblemSpec(**kwargs)


def build_heat1d() -> ProblemSpec:
    return _dirichlet_problem()


def build_zero1d() -> ProblemSpec:
    return _dirichlet_problem(initial=fields.constant_scalar(0.0))


def build_growth1d() -> ProblemSpec:
    # a0 = -5: the nonnegative part vanishes and the remainder drives growth.
    return _dirichlet_problem(zero_order=fields.constant_scalar(-5.0), final_time=0.2)


def build_drift1d() -> ProblemSpec:
    return _dirichlet_problem(
        first_order=[fields.constant_scalar(0.5)],
        zero_order=fields.constant_scalar(-0.2j),
        final_time=0.2,
    )


def _forcing(x, t):
    return np.sin(np.pi * x) * np.cos(4.0 * t)


def build_forced1d() -> ProblemSpec:
    return _dirichlet_problem(source=_forcing, final_time=0.5)


def build_heat2d() -> ProblemSpec:
    return _dirichlet_problem(
        domain=Rectangle(0.0, 1.0, 0.0, 1.0),
        final_time=0.05,
        principal=fields.constant_matrix(np.eye(2)),
        initial=_sine2d,
    )


def build_disk() -> ProblemSpec:
    def u0(x, y):
        return (x + 1j * y) ** 2

    return ProblemSpec(
        domain=UnitDiskPolygon(48),
        final_time=0.5,
        principal=fields.constant_matrix(fields.DEGENERATE_DISK_MATRIX),
        first_order=[],
        zero_order=fields.constant_scalar(0.0),
        boundary_b0=fields.constant_scalar(1.0),
        boundary_b1=fields.constant_scalar(1.0),
        dirichlet_selector=None,
        source=None,
        initial=u0,
    )


def build_robin_rect() -> ProblemSpec:
    def u0(x, y):
        return np.cos(np.pi * x) * np.cos(np.pi * y) + 0.0j

    return ProblemSpec(
        domain=Rectangle(0.0, 1.0, 0.0, 1.0),
        final_time=0.1,
        principal=fields.constant_matrix(np.eye(2)),
        first_order=[],
        zero_order=fields.constant_scalar(1.0),
        boundary_b0=fields.constant_scalar(1.0),
        boundary_b1=fields.constant_scalar(1.0),
        dirichlet_selector=None,
        source=None,
        initial=u0,
    )


PRESETS: dict[str, Preset] = {
    "heat1d": Preset(
        "heat1d",
        build_heat1d,
        default_resolution=100,
        default_k=40,
        default_steps=100,
        description="1D heat equation, fully constrained boundary, sine initial data",
        oracle=_heat_oracle,
        spectrum=_heat_spectrum,
    ),
    "heat2d": Preset(
        "heat2d",
        build_heat2d,
        default_resolution=16,
        default_k=10,
        default_steps=50,
        description="2D heat equation on the unit square, fully constrained boundary",
        oracle=_heat2d_oracle,
        spectrum=_heat2d_spectrum,
    ),
    "zero1d": Preset(
        "zero1d",
        build_zero1d,
        default_resolution=32,
        default_k=16,
        default_steps=50,
        description="zero data on the interval; trajectory must vanish",
    ),
    "growth1d": Preset(
        "growth1d",
        build_growth1d,
        default_resolution=50,
        default_k=20,
        default_steps=100,
        description="strong negative zero-order remainder (a0 = -5)",
    ),
    "drift1d": Preset(
        "drift1d",
        build_drift1d,
        default_resolution=50,
        default_k=20,
        default_steps=100,
        description="constant drift plus imaginary zero-order remainder",
    ),
    "forced1d": Preset(
        "forced1d",
        build_forced1d,
        default_resolution=50,
        default_k=25,
        default_steps=200,
        description="heat problem with time-periodic forcing",
    ),
    "disk": Preset(
        "disk",
        build_disk,
        default_resolution=6,
        default_k=30,
        default_steps=100,
        description="degenerate principal matrix on the polygonal unit disk",
    ),
    "robin_rect": Preset(
        "robin_rect",
        build_robin_rect,
        default_resolution=12,
        default_k=25,
        default_steps=50,
        description="coercive Robin problem on the unit square",
    ),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
