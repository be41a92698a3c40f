"""Continuous problem data: coefficients, their validation, and the
pointwise factor of the principal part.

The problem is a complex-valued second-order parabolic equation on a
cylinder ``domain x (0, T)`` with boundary conditions of Robin type that may
degenerate (b1 = 0) on a constrained subset S of the boundary. The principal
matrix is Hermitian, positive semidefinite over complex directions, and
uniformly elliptic over real directions; it need not be coercive over
complex directions, which is the regime this package is built to explore.
The coefficients are validated at the quadrature points of a mesh, where
the discrete forms see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
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
    dim: int = 1


@dataclass(frozen=True)
class Rectangle:
    ax: float
    bx: float
    ay: float
    by: float
    dim: int = 2


@dataclass(frozen=True)
class UnitDiskPolygon:
    """Unit disk approximated by an inscribed regular polygon."""

    segments: int
    dim: int = 2


Domain = Union[Interval, Rectangle, UnitDiskPolygon]


@dataclass
class ProblemSpec:
    """All continuous data of one initial-boundary value problem.

    Coefficient fields follow the calling convention of :mod:`ncparab.fields`.
    The zero-order coefficients are stored pre-split: ``a0 = a00 + delta_a0``
    with ``a00 >= 0``, and ``b0 = b00 + delta_b0`` with ``b00/b1 >= 0`` away
    from the constrained set. ``delta_b0`` never enters any form; it is kept
    only so the splitting remains invertible.
    """

    domain: Domain
    final_time: float
    principal: Callable
    first_order: Sequence[Callable] = field(default_factory=list)
    zero_order_a00: Callable = None
    zero_order_delta_a0: Callable = None
    boundary_b1: Callable = None
    boundary_b00: Callable = None
    boundary_delta_b0: Callable = None
    dirichlet_selector: Optional[Callable] = None
    source: Optional[Callable] = None
    initial: Optional[Callable] = None

    @property
    def dim(self) -> int:
        return self.domain.dim


@dataclass
class ValidationReport:
    hermitian_residual: float
    ellipticity_m: float
    min_complex_eigenvalue: float
    coercive: bool
    a00_nonnegative: bool
    robin_ratio_nonnegative: bool
    final_time_positive: bool

    @property
    def passed(self) -> bool:
        # violations of the principal part raise instead of lowering a flag
        return self.a00_nonnegative and self.robin_ratio_nonnegative and self.final_time_positive


def validate_coefficients(spec: ProblemSpec, mesh) -> ValidationReport:
    """Check the structural assumptions on the coefficients at the
    quadrature points of ``mesh`` (``mesh.quadrature``), the only points
    where the discrete forms see them: the principal matrix and a00 at the
    element points, b1 and b00 at the points of the Robin facets. A constant
    principal matrix (a field with a ``value``) is checked once.

    Raises :class:`NonHermitian`, :class:`NotElliptic` or
    :class:`NotPositiveSemidefinite` on hard violations of the principal
    part; softer sign conditions only lower flags in the report.
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

    a00_ok = True
    if spec.zero_order_a00 is not None:
        a00_ok = bool(np.min(np.real(spec.zero_order_a00(*coords))) >= -1e-12)

    robin_ok = True
    robin = quad.facet_points[~mesh.facet_dirichlet]
    if len(robin) and spec.boundary_b1 is not None and spec.boundary_b00 is not None:
        bcoords = axes(robin)
        b1v = np.real(spec.boundary_b1(*bcoords))
        if np.any(b1v == 0.0):
            robin_ok = False
        else:
            robin_ok = bool(np.min(np.real(spec.boundary_b00(*bcoords)) / b1v) >= -1e-12)

    return ValidationReport(
        hermitian_residual=herm_residual,
        ellipticity_m=m,
        min_complex_eigenvalue=min_complex,
        coercive=min_complex > PSD_TOL,
        a00_nonnegative=a00_ok,
        robin_ratio_nonnegative=robin_ok,
        final_time_positive=spec.final_time > 0.0,
    )


def split_zero_order(a0: Callable, b0: Callable, b1: Callable):
    """Split a0 and b0 into nonnegative parts plus remainders.

    Returns field callables (a00, delta_a0, b00, delta_b0) with
    ``a00 = max(Re a0, 0)`` and, away from the degenerate set,
    ``b00 = b1 * max(Re(b0/b1), 0)``. Evaluating the boundary split where b1
    vanishes raises :class:`DivisionByZeroB1`; on the constrained set the
    split is never needed because the solution is pinned to zero there.
    """

    def a00(*coords):
        return np.maximum(np.real(np.asarray(a0(*coords))), 0.0)

    def delta_a0(*coords):
        return np.asarray(a0(*coords), dtype=complex) - a00(*coords)

    def b00(*coords):
        b1v = np.real(np.asarray(b1(*coords), dtype=complex))
        b0v = np.asarray(b0(*coords), dtype=complex)
        if np.any(b1v == 0.0):
            raise DivisionByZeroB1("b1 vanishes at an evaluated boundary point")
        return b1v * np.maximum(np.real(b0v / b1v), 0.0)

    def delta_b0(*coords):
        return np.asarray(b0(*coords), dtype=complex) - b00(*coords)

    return a00, delta_a0, b00, delta_b0


def hermitian_sqrt_psd(mats: np.ndarray, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Batched Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-psd_tol, 0) are clipped to zero; anything lower raises
    :class:`NotPositiveSemidefinite`.
    """
    mats = np.asarray(mats, dtype=complex)
    w, V = np.linalg.eigh(mats)
    low = float(np.min(w))
    if low < -psd_tol:
        raise NotPositiveSemidefinite(f"eigenvalue {low:.3e} below -{psd_tol}")
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
