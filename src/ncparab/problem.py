"""Continuous problem data: coefficients, their validation, and the
pointwise factor of the principal part.

The problem is a complex-valued second-order parabolic equation on a
cylinder ``domain x (0, T)`` with boundary conditions of Robin type that may
degenerate (b1 = 0) on a constrained subset S of the boundary. The principal
matrix is Hermitian, positive semidefinite over complex directions, and
uniformly elliptic over real directions; it need not be coercive over
complex directions, which is the regime this package is built to explore.
The principal matrix is validated at the quadrature points of a mesh, where
the discrete forms see it.

The zero-order data a0, b0 and b1 are kept as given. The forms split them
here, on their values at the quadrature points: a0 into its nonnegative
part a00 = max(Re a0, 0), which enters the energy product, and the
remainder a0 - a00, which enters the lower-order form
(``split_zero_order``); on the Robin part of the boundary (outside S) the
energy product takes the weight b0/b1, which must be real and nonnegative
there (``robin_weight``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConfigError,
    DivisionByZeroB1,
    NonHermitian,
    NotElliptic,
    NotPositiveSemidefinite,
)
from .fields import axes, constant_matrix

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10


@dataclass(frozen=True)
class Interval:
    a: float
    b: float
    dim: ClassVar[int] = 1


@dataclass(frozen=True)
class Rectangle:
    ax: float
    bx: float
    ay: float
    by: float
    dim: ClassVar[int] = 2


@dataclass(frozen=True)
class UnitDiskPolygon:
    """Unit disk approximated by an inscribed regular polygon."""

    segments: int
    dim: ClassVar[int] = 2


Domain = Union[Interval, Rectangle, UnitDiskPolygon]


@dataclass
class ProblemSpec:
    """All continuous data of one initial-boundary value problem.

    Coefficient fields follow the calling convention of :mod:`ncparab.fields`.
    ``zero_order`` is a0; ``boundary_b0`` and ``boundary_b1`` are the Robin
    data, read only outside the constrained set, and without b0 the
    boundary adds no term. None of them is split here: the forms split
    their values (``split_zero_order``, ``robin_weight``).
    """

    domain: Domain
    final_time: float
    principal: Callable
    first_order: Sequence[Callable] = field(default_factory=list)
    zero_order: Optional[Callable] = None
    boundary_b0: Optional[Callable] = None
    boundary_b1: Optional[Callable] = None
    dirichlet_selector: Optional[Callable] = None
    source: Optional[Callable] = None
    initial: Optional[Callable] = None


@dataclass
class ValidationReport:
    hermitian_residual: float
    ellipticity_m: float
    min_complex_eigenvalue: float
    coercive: bool


def validate_coefficients(spec: ProblemSpec, mesh) -> ValidationReport:
    """Check the principal matrix at the element quadrature points of
    ``mesh`` (``mesh.quadrature``), the only points where the discrete
    forms see it. A constant principal matrix (a field with a ``value``) is
    checked once.

    Raises :class:`NonHermitian`, :class:`NotElliptic` or
    :class:`NotPositiveSemidefinite`; the report keeps the constants and
    whether the complex form is coercive.
    """
    quad = mesh.quadrature
    coords = axes(quad.points)
    A = getattr(spec.principal, "value", None)
    A = np.asarray(spec.principal(*coords) if A is None else A, dtype=complex)

    herm_residual = float(np.max(np.abs(A - A.conj().swapaxes(-1, -2))))
    if herm_residual > HERMITIAN_TOL:
        raise NonHermitian(f"max |A - A*| = {herm_residual:.3e} exceeds {HERMITIAN_TOL}")

    # Over real directions the Hermitian form reduces to the symmetric real
    # part, so the ellipticity constant is its smallest eigenvalue.
    real_part = np.real(A)
    m = float(np.min(np.linalg.eigvalsh(0.5 * (real_part + real_part.swapaxes(-1, -2)))))
    if m <= 0.0:
        raise NotElliptic(f"real-form lower bound m = {m:.3e} is not positive")

    min_complex = float(np.min(np.linalg.eigvalsh(A)))
    if min_complex < -PSD_TOL:
        raise NotPositiveSemidefinite(
            f"complex form eigenvalue {min_complex:.3e} below -{PSD_TOL}"
        )

    return ValidationReport(
        hermitian_residual=herm_residual,
        ellipticity_m=m,
        min_complex_eigenvalue=min_complex,
        coercive=min_complex > PSD_TOL,
    )


def split_zero_order(a0) -> tuple[np.ndarray, np.ndarray]:
    """Values of a0 split into the nonnegative part ``a00 = max(Re a0, 0)``
    (real) and the remainder ``a0 - a00`` (complex), so that the two add up
    to a0 exactly."""
    a0 = np.asarray(a0, dtype=complex)
    a00 = np.maximum(a0.real, 0.0)
    return a00, a0 - a00


def robin_weight(b0, b1) -> np.ndarray:
    """The Robin weight b0/b1 from values at points outside the constrained
    set, where the energy product takes b0/b1 as it is: b1 must be real and
    nonzero, and b0/b1 finite, real and nonnegative. Anything else raises
    :class:`ConfigError`, since no form would represent it exactly, except
    b1 = 0, which raises :class:`DivisionByZeroB1`."""
    b0 = np.asarray(b0, dtype=complex)
    b1 = np.asarray(b1, dtype=complex)
    if np.any(b1.imag != 0.0):
        bad = b1[b1.imag != 0.0].flat[0]
        raise ConfigError(f"b1 = {bad} is not real at a Robin boundary point (outside S)")
    b1 = b1.real
    if np.any(b1 == 0.0):
        raise DivisionByZeroB1("b1 vanishes at a Robin boundary point (outside S)")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        ratio = b0 / b1
    bad = ~np.isfinite(ratio)
    if np.any(bad):
        b0, b1 = np.broadcast_arrays(b0, b1)
        raise ConfigError(
            f"b0/b1 = {b0[bad].flat[0]}/{b1[bad].flat[0]} at a Robin boundary point "
            "(outside S) is not finite"
        )
    wrong = (ratio.imag != 0.0) | ~(ratio.real >= 0.0)
    if np.any(wrong):
        raise ConfigError(
            f"b0/b1 = {ratio[wrong].flat[0]} at a Robin boundary point (outside S); "
            "it must be real and >= 0"
        )
    # b1 (b0/b1) / b1, not b0/b1: the rounding the result files were made
    # with; the two can differ in the last bit where b1 is not 1
    return b1 * ratio.real / b1


def hermitian_sqrt_psd(mats: np.ndarray) -> np.ndarray:
    """Batched Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-PSD_TOL, 0) are clipped to zero; anything lower raises
    :class:`NotPositiveSemidefinite`.
    """
    mats = np.asarray(mats, dtype=complex)
    w, V = np.linalg.eigh(mats)
    low = float(np.min(w))
    if low < -PSD_TOL:
        raise NotPositiveSemidefinite(f"eigenvalue {low:.3e} below -{PSD_TOL}")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def factorize_principal(spec: ProblemSpec) -> Callable:
    """The field D(*coords) = sqrt(A(*coords)), the Hermitian PSD square root
    of the principal matrix, so D* D = A up to eigh roundoff (eigenvalues in
    [-PSD_TOL, 0) are clipped to zero). A constant principal matrix (a field
    with a ``value``) is factored here, once, into a constant field whose
    ``value`` is D."""
    principal = spec.principal
    value = getattr(principal, "value", None)
    if value is not None:
        return constant_matrix(hermitian_sqrt_psd(value))

    def factor(*coords):
        return hermitian_sqrt_psd(np.asarray(principal(*coords), dtype=complex))

    return factor
