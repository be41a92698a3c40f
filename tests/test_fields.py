import numpy as np
import pytest

from ncparab import fields
from ncparab.errors import ConfigError, NoConvergence
from ncparab.spectral import generalized_eigenbasis


def test_constant_fields_broadcast():
    f = fields.constant_scalar(2.0 - 1.0j)
    assert f(np.zeros(5)).shape == (5,)
    assert np.all(f(np.zeros((2, 3))) == 2.0 - 1.0j)
    A = fields.constant_matrix(np.eye(2))
    vals = A(np.zeros(4), np.zeros(4))
    assert vals.shape == (4, 2, 2)


def test_matrix_presets():
    ident = fields.matrix_field_from_name("identity", 2)(np.zeros(1), np.zeros(1))
    assert np.allclose(ident[0], np.eye(2))
    disk = fields.matrix_field_from_name("paper_disk", 2)(np.zeros(1), np.zeros(1))
    assert np.allclose(disk[0], [[1.0, 1.0j], [-1.0j, 1.0]])
    alias = fields.matrix_field_from_name("degenerate_disk", 2)(np.zeros(1), np.zeros(1))
    assert np.allclose(alias[0], disk[0])
    diag = fields.matrix_field_from_name("diag(2, 3)", 2)(np.zeros(1), np.zeros(1))
    assert np.allclose(diag[0], np.diag([2.0, 3.0]))
    one_d = fields.matrix_field_from_name("diag(4)", 1)(np.zeros(1))
    assert np.allclose(one_d[0], [[4.0]])


def test_matrix_preset_errors():
    with pytest.raises(ConfigError):
        fields.matrix_field_from_name("paper_disk", 1)
    with pytest.raises(ConfigError):
        fields.matrix_field_from_name("diag(1,2,3)", 2)
    with pytest.raises(ConfigError):
        fields.matrix_field_from_name("mystery", 2)


def test_tabulated_scalar_1d_interpolates(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("x,re,im\n0.0,1.0,0.0\n1.0,3.0,2.0\n")
    f = fields.tabulated_scalar(str(path), 1)
    vals = f(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(vals, [1.0, 2.0 + 1.0j, 3.0 + 2.0j])


def test_tabulated_scalar_2d_nearest(tmp_path):
    path = tmp_path / "field2.csv"
    path.write_text("x,y,re,im\n0.0,0.0,1.0,0.0\n1.0,1.0,5.0,-1.0\n")
    f = fields.tabulated_scalar(str(path), 2)
    vals = f(np.array([0.1, 0.9]), np.array([0.0, 1.0]))
    assert np.allclose(vals, [1.0, 5.0 - 1.0j])
    # more points than one search block, in any shape, and no points at all
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-1.0, 2.0, (2, 3, fields.TABLE_BLOCK))
    expected = np.where(x + y < 1.0, 1.0 + 0j, 5.0 - 1.0j)  # nearer to (0, 0)
    assert np.array_equal(f(x, y), expected)
    assert f(np.zeros(0), np.zeros(0)).shape == (0,)


def test_tabulated_scalar_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        fields.tabulated_scalar(str(path), 1)


def test_tabulated_scalar_rejects_a_table_of_the_other_dimension(tmp_path):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    one.write_text("x,re,im\n0.0,1.0,0.0\n")
    two.write_text("x,y,re,im\n0.0,0.0,1.0,0.0\n")
    for path, dim in ((one, 2), (two, 1)):
        with pytest.raises(ConfigError, match=f"{path}.* on a {dim}D domain"):
            fields.tabulated_scalar(str(path), dim)


def test_scalar_field_from_spec():
    f = fields.scalar_field_from_spec("-2+1j", 1)
    assert f(np.zeros(1))[0] == -2.0 + 1.0j
    with pytest.raises(ConfigError):
        fields.scalar_field_from_spec("not-a-number", 1)


def test_eigen_kernel_no_convergence_on_invalid_input():
    for n, count in ((2, 2), (40, 2)):  # dense and sparse kernels
        K = np.eye(n, dtype=complex)
        K[0, 0] = np.nan
        with pytest.raises(NoConvergence):
            generalized_eigenbasis(K, np.eye(n), count)
