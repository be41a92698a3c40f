import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from ncparab.assembly import assemble_forms
from ncparab.config import preset_problem
from ncparab.errors import SOutOfRange
from ncparab.meshing import build_mesh
from ncparab.problem import UnitDiskPolygon
from ncparab.sharpness import series_hs_lower_bound, series_plus_norm, witness_epsilon
from tests.test_acceptance import discrete_series_energy


def test_plus_norm_single_term():
    partial, _ = series_plus_norm(0.7, 0)
    assert partial == pytest.approx(2.0 * np.pi)


def test_plus_norm_brackets_zeta_two():
    # A(1) converges to 2 pi zeta(2) = 2 pi * pi^2 / 6
    limit = 2.0 * np.pi * np.pi**2 / 6.0
    partial, tail = series_plus_norm(1.0, 100_000)
    assert partial <= limit <= partial + tail


def test_plus_norm_brackets_zeta_three_halves():
    # high-N partial sum and the zeta function as two independent references
    limit = 2.0 * np.pi * zeta(1.5)
    partial, tail = series_plus_norm(0.5, 1_000_000)
    assert partial <= limit <= partial + tail
    reference, _ = series_plus_norm(0.5, 10_000_000)
    assert partial <= reference <= partial + tail


@pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.0, 2.0])
def test_tail_bound_brackets_high_n_reference(epsilon):
    reference, _ = series_plus_norm(epsilon, 10_000_000)
    partial, tail = series_plus_norm(epsilon, 100_000)
    assert partial <= reference <= partial + tail
    assert abs(reference - 2.0 * np.pi * zeta(1.0 + epsilon)) <= tail + 1e-6


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.integers(min_value=1, max_value=2000),
)
def test_partial_sums_strictly_increase(epsilon, terms):
    a_small, _ = series_plus_norm(epsilon, terms)
    a_large, _ = series_plus_norm(epsilon, terms + 17)
    assert a_large > a_small
    b_small = series_hs_lower_bound(0.8, epsilon, terms).partial_sum
    b_large = series_hs_lower_bound(0.8, epsilon, terms + 17).partial_sum
    assert b_large > b_small


def test_lower_bound_divergent_case_grows():
    # s = 0.8, eps = 0.1: exponent 2s - 2 - eps = -0.5, so partial sums grow
    # like sqrt(N); a factor > 5 between N = 1e3 and N = 1e6
    small = series_hs_lower_bound(0.8, 0.1, 1_000)
    large = series_hs_lower_bound(0.8, 0.1, 1_000_000)
    assert small.diverges and large.diverges
    assert large.partial_sum > 5.0 * small.partial_sum
    assert large.growth_observed


def test_lower_bound_boundary_s_half_converges():
    result = series_hs_lower_bound(0.5, 0.3, 10_000)
    assert not result.diverges
    # literal reading of the k = 0 term: 0^0 = 1 at s = 1/2
    assert series_hs_lower_bound(0.5, 1.0, 0).partial_sum == pytest.approx(np.pi)


def test_lower_bound_s_one_large_epsilon_converges():
    # summand ~ k / (k+1)^3, dominated by sum k^-2
    result = series_hs_lower_bound(1.0, 2.0, 100_000)
    assert not result.diverges
    # comparison series: sum k^-2 = zeta(2), shifted by the k = 0 term
    assert result.partial_sum < np.pi * zeta(2.0) + np.pi


def test_witness_epsilon_midpoint_formula():
    for s, expected in ((0.75, 0.25), (0.6, 0.1), (0.9, 0.4)):
        epsilon = witness_epsilon(s)
        assert epsilon == pytest.approx(expected)
        partial, tail = series_plus_norm(epsilon, 50_000)
        lower = series_hs_lower_bound(s, epsilon, 50_000)
        assert lower.diverges
        assert np.isfinite(partial + tail)
        assert lower.growth_observed


def test_witness_epsilon_rejects_out_of_range():
    for s in (0.4, 0.5, 1.0, 1.2):
        with pytest.raises(SOutOfRange):
            witness_epsilon(s)
    with pytest.raises(SOutOfRange):
        series_hs_lower_bound(1.1, 0.5, 100)


def test_time_weight_matrix_values():
    # G[j, k] = ((j + k)/2 + 1)^-1 ((j+1)(k+1))^(-eps/2), written out at
    # eps = 1 and K = 2, contracts the Gram matrix of 1, z, z^2 in K+
    G = np.array(
        [
            [1.0, (2.0 / 3.0) * 2.0 ** (-0.5), (1.0 / 2.0) * 3.0 ** (-0.5)],
            [(2.0 / 3.0) * 2.0 ** (-0.5), 0.25, (2.0 / 5.0) * 6.0 ** (-0.5)],
            [(1.0 / 2.0) * 3.0 ** (-0.5), (2.0 / 5.0) * 6.0 ** (-0.5), 1.0 / 9.0],
        ]
    )
    spec = preset_problem("disk")
    spec.domain = UnitDiskPolygon(16)
    mesh = build_mesh(spec.domain, 4, spec.dirichlet_selector)
    forms = assemble_forms(mesh, spec)
    z = forms.dofmap.reduce(mesh.nodes[:, 0] + 1j * mesh.nodes[:, 1])
    W = np.stack([np.ones_like(z), z, z**2], axis=1)
    gram = W.conj().T @ (forms.k_plus @ W)
    expected = float(np.real(np.sum(G * gram)))
    assert discrete_series_energy(mesh, spec, 1.0, 2) == pytest.approx(expected, rel=1e-12)


def test_discrete_energy_matches_series_within_tolerance():
    # interpolated truncated series on the polygon mesh: the assembled
    # energy approaches the analytic sum as the mesh refines
    eps, K = 0.5, 8
    analytic = 2.0 * np.pi * float(np.sum((np.arange(K + 1) + 1.0) ** (-1.0 - eps)))
    rels = []
    for segments, rings in ((64, 16), (128, 32)):
        spec = preset_problem("disk")
        spec.domain = UnitDiskPolygon(segments)
        mesh = build_mesh(spec.domain, rings, spec.dirichlet_selector)
        value = discrete_series_energy(mesh, spec, eps, K)
        rels.append(abs(value - analytic) / analytic)
    assert all(rel < 0.05 for rel in rels)
    assert rels[1] < rels[0] + 0.01
