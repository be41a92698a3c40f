"""Named problem presets used by the CLI and the verification suite.

A preset is a named inline problem: its ``problem`` maps ``RunConfig``
attributes to values, and every ``problem.*`` key it leaves out takes its
``RunConfig`` default. ``config.build_problem`` turns those values into a
``ProblemSpec`` exactly as it turns an inline config, so a preset and its
inline twin give the same bits. A preset also carries its default sizes and,
where known, the exact solution and pencil spectrum that the convergence
studies compare with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError


@dataclass
class Preset:
    name: str
    problem: dict  # RunConfig attribute -> value; absent keys take the default
    default_resolution: int
    default_k: int
    default_steps: int
    oracle: Optional[Callable] = None  # exact solution (coords..., t) -> complex
    spectrum: Optional[Callable] = None  # n -> first n exact pencil eigenvalues


def _heat_oracle(x, t):
    return np.exp(-np.pi**2 * t) * np.sin(np.pi * x)


def _heat_spectrum(n):
    return (np.pi * np.arange(1, n + 1)) ** 2


def _heat2d_oracle(x, y, t):
    return np.exp(-2.0 * np.pi**2 * t) * np.sin(np.pi * x) * np.sin(np.pi * y)


def _heat2d_spectrum(n):
    # pi^2 (i^2 + j^2) over i, j >= 1; i, j <= n covers the n smallest
    i = np.arange(1, n + 1)
    return np.sort(np.pi**2 * (i[:, None] ** 2 + i[None, :] ** 2), axis=None)[:n]


# the unit interval, fully constrained, with sine initial data
_DIRICHLET_1D = {"problem_domain": "interval(0,1)", "problem_s": "all", "problem_u0": "sine"}

PRESETS: dict[str, Preset] = {
    "heat1d": Preset(
        "heat1d",
        _DIRICHLET_1D,
        default_resolution=100,
        default_k=40,
        default_steps=100,
        oracle=_heat_oracle,
        spectrum=_heat_spectrum,
    ),
    "heat2d": Preset(
        "heat2d",
        {
            "problem_domain": "rectangle(0,1,0,1)",
            "problem_s": "all",
            "problem_u0": "sine",
            "problem_T": 0.05,
        },
        default_resolution=16,
        default_k=10,
        default_steps=50,
        oracle=_heat2d_oracle,
        spectrum=_heat2d_spectrum,
    ),
    # zero data: the trajectory must vanish
    "zero1d": Preset(
        "zero1d",
        {**_DIRICHLET_1D, "problem_u0": "zero"},
        default_resolution=32,
        default_k=16,
        default_steps=50,
    ),
    # a0 = -5: the nonnegative part vanishes and the remainder drives growth
    "growth1d": Preset(
        "growth1d",
        {**_DIRICHLET_1D, "problem_a0": "-5", "problem_T": 0.2},
        default_resolution=50,
        default_k=20,
        default_steps=100,
    ),
    "drift1d": Preset(
        "drift1d",
        {
            **_DIRICHLET_1D,
            "problem_first_order": "0.5",
            "problem_a0": "-0.2j",
            "problem_T": 0.2,
        },
        default_resolution=50,
        default_k=20,
        default_steps=100,
    ),
    "forced1d": Preset(
        "forced1d",
        {**_DIRICHLET_1D, "problem_f": "sine_cos", "problem_T": 0.5},
        default_resolution=50,
        default_k=25,
        default_steps=200,
    ),
    # the degenerate principal matrix on the polygonal unit disk
    "disk": Preset(
        "disk",
        {
            "problem_domain": "disk(48)",
            "problem_principal": "paper_disk",
            "problem_u0": "z2",
            "problem_T": 0.5,
        },
        default_resolution=6,
        default_k=30,
        default_steps=100,
    ),
    # a coercive Robin problem on the unit square
    "robin_rect": Preset(
        "robin_rect",
        {"problem_domain": "rectangle(0,1,0,1)", "problem_a0": "1", "problem_u0": "cosine"},
        default_resolution=12,
        default_k=25,
        default_steps=50,
    ),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
