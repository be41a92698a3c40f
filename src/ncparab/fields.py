"""Coefficient fields: vectorized callables over spatial coordinates.

Conventions used throughout the package:

* a scalar field is called as ``f(x)`` in 1D or ``f(x, y)`` in 2D, where the
  coordinates are numpy arrays of a common shape, and returns an array of
  that shape (complex or real);
* a matrix field returns shape ``coords + (n, n)``;
* a source term takes a trailing time argument, ``f(x, t)`` or
  ``f(x, y, t)``, where ``t`` is an array that broadcasts against the
  coordinates: the loads of a block of times come from one call with the
  points as a column and the times as a row, and the result must broadcast
  to their common shape. Its values may be real or complex, but of the same
  kind at every time: real values keep the loads, and with real forms the
  whole time stepping, in real arithmetic.

Named presets cover the configurations used by the shipped experiments;
tabulated fields can be loaded from CSV for anything else. A CSV field must
match the domain dimension: ``x,re,im`` on an interval, ``x,y,re,im`` on a
2D domain; a table of the other dimension is a :class:`ConfigError` that
names the file.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import ConfigError

# Matrix with real ellipticity constant 1 whose complex Hermitian form is
# degenerate (eigenvalues 0 and 2): annihilates holomorphic directions.
DEGENERATE_DISK_MATRIX = np.array([[1.0, 1.0j], [-1.0j, 1.0]], dtype=complex)
# Query points per block of a 2D table's nearest-sample search, which bounds
# its (points, samples) distance array whatever the number of points.
TABLE_BLOCK = 4096
# Leading columns of a CSV field table, by domain dimension.
TABLE_COLUMNS = {1: ["x", "re", "im"], 2: ["x", "y", "re", "im"]}


def constant_scalar(value):
    """Constant scalar field of any arity. Its ``value`` is the constant, so
    a consumer can tell a field that vanishes identically without
    evaluating it."""
    value = complex(value)

    def field(*coords):
        return np.full(np.shape(coords[0]), value)

    field.value = value
    return field


def constant_matrix(mat):
    """Constant n-by-n matrix field of any arity. Its ``value`` is the
    matrix, so a consumer can check or factor it once instead of at every
    point."""
    mat = np.asarray(mat, dtype=complex)

    def field(*coords):
        shape = np.shape(coords[0])
        return np.broadcast_to(mat, shape + mat.shape)

    field.value = mat
    return field


def axes(points):
    """The per-axis coordinate arrays of points of shape (..., dim): the
    arguments of a field at those points."""
    return tuple(points[..., i] for i in range(points.shape[-1]))


def tabulated_scalar(path, dim):
    """Scalar field on a ``dim``-dimensional domain from a CSV table with
    columns x,re,im (dim 1) or x,y,re,im (dim 2).

    1D tables are interpolated linearly in x; 2D tables use the nearest
    sample point. Rows may be in any order.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [c.strip().lower() for c in next(reader)]
            rows = [[float(v) for v in row] for row in reader if row]
    except OSError as exc:
        raise ConfigError(f"cannot read CSV field {path}: {exc}") from exc
    except StopIteration:
        raise ConfigError(f"CSV field {path} is empty") from None
    except ValueError as exc:
        raise ConfigError(f"CSV field {path} has a non-numeric cell: {exc}") from exc
    if not rows or any(len(row) != len(header) for row in rows):
        raise ConfigError(f"CSV field {path} needs data rows as wide as its header")
    if not np.all(np.isfinite(rows)):
        raise ConfigError(f"CSV field {path} has a non-finite cell")
    table_dim = next((n for n, cols in TABLE_COLUMNS.items() if header[: len(cols)] == cols), None)
    if table_dim is None:
        raise ConfigError(f"unsupported CSV field header {header!r} in {path}")
    if table_dim != dim:
        raise ConfigError(f"CSV field {path} is a {table_dim}D table on a {dim}D domain")
    if dim == 1:
        data = np.array(sorted(rows))
        xs, re, im = data[:, 0], data[:, 1], data[:, 2]

        def field(x):
            return np.interp(x, xs, re) + 1j * np.interp(x, xs, im)

        return field
    data = np.array(rows)
    pts, vals = data[:, :2], data[:, 2] + 1j * data[:, 3]

    def field(x, y):
        x = np.asarray(x, dtype=float)
        q = np.stack([np.ravel(x), np.ravel(y)], axis=1)
        blocks = np.array_split(q, len(q) // TABLE_BLOCK + 1)  # of TABLE_BLOCK points at most
        nearest = [np.argmin(((b[:, None] - pts) ** 2).sum(axis=2), axis=1) for b in blocks]
        return vals[np.concatenate(nearest)].reshape(x.shape)

    return field


def matrix_field_from_name(name, dim):
    """Resolve a named principal-matrix preset.

    Recognized names: ``identity``, ``paper_disk`` (alias ``degenerate_disk``,
    the matrix [[1, i], [-i, 1]]), and ``diag(d1,d2)`` with real entries.
    """
    key = name.strip().lower()
    if key == "identity":
        return constant_matrix(np.eye(dim))
    if key in ("paper_disk", "degenerate_disk"):
        if dim != 2:
            raise ConfigError("disk principal matrix requires a 2D domain")
        return constant_matrix(DEGENERATE_DISK_MATRIX)
    if key.startswith("diag(") and key.endswith(")"):
        try:
            entries = [float(v) for v in key[5:-1].split(",")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse principal matrix {name!r}") from exc
        if not np.all(np.isfinite(entries)):
            raise ConfigError(f"principal matrix {name!r} has non-finite entries")
        if len(entries) != dim:
            raise ConfigError(f"diag(...) needs {dim} entries, got {len(entries)}")
        return constant_matrix(np.diag(entries))
    raise ConfigError(f"unknown principal-matrix preset {name!r}")


def parse_constant(text, what="scalar field"):
    """Finite complex value of a config literal such as ``-2+1j``."""
    try:
        value = complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{what} {text!r} is not finite")
    return value


def scalar_field_from_spec(text, dim):
    """Scalar field on a ``dim``-dimensional domain from a config token:
    complex literal or ``csv:PATH``, the prefix in any case and the path as
    given."""
    token = text.strip()
    if token[:4].lower() == "csv:":
        return tabulated_scalar(token[4:], dim)
    return constant_scalar(parse_constant(token))
