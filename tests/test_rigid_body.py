import numpy as np
import pytest

from spoisson.alpha_gf import AlphaSchemeConfig
from spoisson.canonical import alpha_scheme, alpha_scheme_map, verify_chart
from spoisson.experiments import paths_experiment
from spoisson.noise import TimeGrid, TruncationPolicy, sample_increments, truncate_increments
from spoisson.poisson import (
    ScalarField,
    check_casimir,
    check_jacobi,
    check_skew,
    drift_and_diffusions,
    variational_jacobian,
)
from spoisson.sde import DomainError, fd_vector_jacobian, integrate, midpoint_step
from spoisson.models import rigid_body as rb

from oracles import bracket


def _domain_points(n=100, seed=0, casimir_value=0.5):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(8 * n, 3))
    pts = pts[rb.chart(casimir_value).domain(pts)]
    return pts[:n]


def test_structure_validators():
    sysm = rb.system(rb.REFERENCE_PARAMS)
    pts = _domain_points()
    assert check_skew(sysm, pts).max() == 0.0
    assert check_jacobi(sysm, pts).max() < 1e-8
    assert check_casimir(rb.CASIMIR, sysm, pts).max() < 1e-13


@pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3)])
def test_structure_matches_textbook_matrix_bitwise(shape):
    ys = np.random.default_rng(1).uniform(-2.0, 2.0, size=shape)
    oracle = np.array(
        [
            [[0.0, -y3, y2], [y3, 0.0, -y1], [-y2, y1, 0.0]]
            for y1, y2, y3 in ys.reshape(-1, 3).tolist()
        ]
    ).reshape(shape + (3,))
    assert np.array_equal(rb.system(rb.REFERENCE_PARAMS).structure(ys), oracle)


def test_kinetic_energy_single_term():
    params = rb.RigidBodyParams(i1=2.0, i2=1.0, i3=1.0, c1=0.0)
    assert rb.kinetic_energy(params).value(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.25)


def test_params_validated():
    with pytest.raises(ValueError):
        rb.RigidBodyParams(i1=-1.0, i2=1.0, i3=1.0, c1=0.1)


def test_chart_round_trip():
    chart = rb.chart(0.5)
    y = rb.REFERENCE_Y0
    assert np.max(np.abs(chart.inverse(chart.forward(y)) - y)) < 1e-14
    # round trip holds on the whole domain (third coordinate is C(y))
    for y in _domain_points(20, seed=1):
        assert np.max(np.abs(chart.inverse(chart.forward(y)) - y)) < 1e-12


def test_chart_residual():
    report = verify_chart(rb.chart(0.5), rb.system(rb.REFERENCE_PARAMS), _domain_points())
    assert report.max() < 1e-8


def test_chart_bracket_relation():
    # {Q, P} = 1 for P = y2, Q = atan2(y3, y1).
    sysm = rb.system(rb.REFERENCE_PARAMS)
    P = ScalarField(
        value=lambda y: y[..., 1],
        grad=lambda y: np.broadcast_to([0.0, 1.0, 0.0], np.shape(y)),
    )

    def qgrad(y):
        rho2 = y[..., 0] ** 2 + y[..., 2] ** 2
        return np.stack(
            [-y[..., 2] / rho2, np.zeros_like(rho2), y[..., 0] / rho2], axis=-1
        )

    Q = ScalarField(value=lambda y: np.arctan2(y[..., 2], y[..., 0]), grad=qgrad)
    for y in _domain_points(20, seed=2):
        assert bracket(Q, P, sysm, y) == pytest.approx(1.0, abs=1e-12)


def test_chart_inverse_rejects_p_out_of_range():
    chart = rb.chart(0.5)
    with pytest.raises(DomainError):
        chart.inverse(np.array([1.5, 0.0, 0.5]))  # P^2 > 2C


def test_transformed_hamiltonian_matches_energy_at_start():
    shs = rb.transformed_shs(rb.REFERENCE_PARAMS, 0.5)
    chart = rb.chart(0.5)
    K = rb.kinetic_energy(rb.REFERENCE_PARAMS)
    z = chart.forward(rb.REFERENCE_Y0)[:2]
    assert shs.hamiltonians[0].value(z) == pytest.approx(float(K.value(rb.REFERENCE_Y0)), rel=1e-14)


def test_transformed_hamiltonian_angle_symmetry():
    shs = rb.transformed_shs(rb.REFERENCE_PARAMS, 0.5)
    g = shs.hamiltonians[0].grad(np.array([0.3, 0.0]))
    assert g[1] == pytest.approx(0.0, abs=1e-15)  # sin(2Q) factor


def test_transformed_derivatives_match_finite_differences():
    shs = rb.transformed_shs(rb.REFERENCE_PARAMS, 0.5)
    H = shs.hamiltonians[0]
    rng = np.random.default_rng(3)
    zs = np.stack([rng.uniform(-0.8, 0.8, size=50), rng.uniform(-3, 3, size=50)], axis=-1)
    g_fd = fd_vector_jacobian(H.value, zs)
    scale = np.maximum(np.abs(g_fd), 1.0)
    assert np.max(np.abs(H.grad(zs) - g_fd) / scale) < 1e-6
    h_fd = fd_vector_jacobian(H.grad, zs)
    hscale = np.maximum(np.abs(h_fd), 1.0)
    assert np.max(np.abs(H.hess(zs)[1] - h_fd) / hscale) < 1e-6


def test_alpha_scheme_preserves_casimir():
    grid = TimeGrid(0.0, 5.0, 500)
    noise = sample_increments(grid, 1, 21)
    for alpha in (0.0, 0.5, 1.0):
        step = alpha_scheme(
            rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0),
            rb.REFERENCE_Y0,
            AlphaSchemeConfig(alpha=alpha),
        )
        states = integrate(step, rb.REFERENCE_Y0, grid, noise)
        assert np.max(np.abs(rb.CASIMIR.value(states) - 0.5)) < 1e-10


def test_alpha_scheme_tracks_reference_path():
    # Coupled endpoint comparison against the fine midpoint reference.
    grid = TimeGrid(0.0, 10.0, 1000)
    scheme = alpha_scheme(
        rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0),
        rb.REFERENCE_Y0,
        AlphaSchemeConfig(alpha=0.5),
    )
    result = paths_experiment(
        rb.system(rb.REFERENCE_PARAMS), scheme, rb.REFERENCE_Y0, grid, seed=4, ref_factor=50
    )
    assert np.max(np.abs(result.states[-1] - result.reference[-1])) < 5e-2


def test_alpha_scheme_noise_free_limit_is_deterministic():
    # c1 = 0: the increments enter only through the noise Hamiltonian, so
    # different seeds give identical trajectories.
    params = rb.RigidBodyParams(i1=rb.REFERENCE_PARAMS.i1, i2=rb.REFERENCE_PARAMS.i2,
                                i3=rb.REFERENCE_PARAMS.i3, c1=0.0)
    grid = TimeGrid(0.0, 2.0, 200)
    step = alpha_scheme(
        rb.model(params, rb.REFERENCE_Y0),
        rb.REFERENCE_Y0,
        AlphaSchemeConfig(alpha=0.5),
    )
    t1 = integrate(step, rb.REFERENCE_Y0, grid, sample_increments(grid, 1, 1))
    t2 = integrate(step, rb.REFERENCE_Y0, grid, sample_increments(grid, 1, 2))
    assert np.array_equal(t1, t2)


def test_spherical_system_symmetric_body_is_stationary():
    params = rb.RigidBodyParams(i1=1.3, i2=1.3, i3=1.3, c1=0.2)
    sph = rb.spherical_system(params, 1.0)
    th = np.array([0.4, -1.1])
    assert np.allclose(sph.drift(th), 0.0, atol=1e-15)


def test_spherical_system_equator_fixes_second_angle():
    sph = rb.spherical_system(rb.REFERENCE_PARAMS, 1.0)
    th = np.array([0.0, 0.7])
    assert sph.drift(th)[1] == pytest.approx(0.0, abs=1e-15)


def test_angles_of_reference_start():
    th = rb.to_angles(rb.REFERENCE_Y0, 1.0)
    assert np.allclose(th, [0.0, np.pi / 4], atol=1e-14)
    assert np.allclose(rb.from_angles(th, 1.0), rb.REFERENCE_Y0, atol=1e-15)


def test_spherical_scheme_casimir_exact_by_construction():
    step = rb.spherical_scheme(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0)
    grid = TimeGrid(0.0, 5.0, 500)
    noise = sample_increments(grid, 1, 31)
    states = integrate(step, rb.REFERENCE_Y0, grid, noise)
    assert np.max(np.abs(rb.CASIMIR.value(states) - 0.5)) < 1e-14


def test_spherical_pushforward_consistency():
    # A fine midpoint run in angles, mapped back, matches a fine midpoint run
    # in the original coordinates.
    grid = TimeGrid(0.0, 1.0, 5_000)
    noise = sample_increments(grid, 1, 11)
    R = float(np.linalg.norm(rb.REFERENCE_Y0))
    sph = rb.spherical_system(rb.REFERENCE_PARAMS, R)
    sde = drift_and_diffusions(rb.system(rb.REFERENCE_PARAMS))
    th0 = rb.to_angles(rb.REFERENCE_Y0, R)
    sph_states = integrate(lambda th, h, dw: midpoint_step(sph, th, h, dw), th0, grid, noise)
    org_states = integrate(lambda y, h, dw: midpoint_step(sde, y, h, dw), rb.REFERENCE_Y0, grid, noise)
    diff = rb.from_angles(sph_states[-1], R) - org_states[-1]
    assert np.max(np.abs(diff)) < 1e-3


def test_one_step_jacobian_matches_variational():
    h = 1e-4
    grid = TimeGrid(0.0, h, 1)
    noise = sample_increments(grid, 1, 9)
    sysm = rb.system(rb.REFERENCE_PARAMS)
    Z = variational_jacobian(sysm, rb.REFERENCE_Y0, grid, noise)
    # The draw is inside the truncation band, so the scheme steps it unclamped.
    dw = noise.values[0]
    assert np.array_equal(truncate_increments(dw, h, TruncationPolicy()), dw)
    step = alpha_scheme_map(
        rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0), AlphaSchemeConfig(alpha=0.5)
    )
    M = fd_vector_jacobian(lambda y: step(y, h, dw), rb.REFERENCE_Y0, eps=1e-5)
    assert np.max(np.abs(Z - M)) < 1e-5


def test_scheme_rejects_start_outside_chart_domain():
    y0 = np.array([0.0, 1.0, 0.0])
    step = alpha_scheme(
        rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0), y0, AlphaSchemeConfig(alpha=0.5)
    )
    with pytest.raises(DomainError) as err:
        step(y0, 0.01, np.zeros(1))
    assert err.value.mask.shape == () and err.value.mask
    with pytest.raises(DomainError) as err:
        step(np.stack([rb.REFERENCE_Y0, y0]), 0.01, np.zeros((2, 1)))
    assert err.value.mask.tolist() == [False, True]


def test_spherical_midpoint_evaluates_the_angle_field_once_per_iteration(monkeypatch):
    from collections import Counter
    from dataclasses import replace

    from spoisson import sde

    sph = rb.spherical_system(rb.REFERENCE_PARAMS, 1.0)
    counts, iterations = Counter(), Counter()

    def counted_field(th):
        counts["field"] += 1
        return sph.drift(th)

    solve = sde.fixed_point

    def counted_fixed_point(update, x0, tol, max_iter):
        def counted(x):
            iterations["n"] += 1
            return update(x)

        return solve(counted, x0, tol, max_iter)

    monkeypatch.setattr(sde, "fixed_point", counted_fixed_point)
    midpoint_step(replace(sph, drift=counted_field), np.array([0.3, 0.8]), 0.01, np.array([0.05]))
    assert iterations["n"] > 1
    assert counts["field"] == iterations["n"]


def test_spherical_midpoint_equals_the_two_field_form():
    from spoisson.sde import SDE

    sph = rb.spherical_system(rb.REFERENCE_PARAMS, 1.0)
    two = SDE(drift=sph.drift, diffusions=sph.diffusions)  # c1 f evaluated as its own field
    rng = np.random.default_rng(12)
    ths, dws = rng.uniform(-1.0, 1.0, size=(9, 2)), 0.1 * rng.standard_normal((9, 1))
    for th, dw in ((ths[0], dws[0]), (ths, dws)):
        assert np.array_equal(sph.increment_map(0.01, dw)(th), two.increment_map(0.01, dw)(th))
        assert np.array_equal(midpoint_step(sph, th, 0.01, dw), midpoint_step(two, th, 0.01, dw))
