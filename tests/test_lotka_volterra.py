import math

import numpy as np
import pytest

from spoisson.alpha_gf import AlphaSchemeConfig
from spoisson.canonical import alpha_scheme, verify_chart
from spoisson.experiments import em_stepper, iem_stepper
from spoisson.noise import TimeGrid, sample_increments, sample_seed
from spoisson.poisson import check_casimir, check_jacobi, check_skew
from spoisson.sde import DivergenceError, DomainError, fd_vector_jacobian, integrate
from spoisson.models import lotka_volterra as lv

from transcriptions import mixed_point_update, slv_update

# Casimir of the reference initial data: -2 ln 2 + ln 0.9 + ln 0.5, frozen.
C2_REFERENCE = -2.1848020573377624


def _points(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 2.5, size=(n, 3))


def test_structure_validators():
    sysm = lv.system(lv.REFERENCE_PARAMS)
    pts = _points()
    assert check_skew(sysm, pts).max() == 0.0
    assert check_jacobi(sysm, pts).max() < 1e-8
    assert check_casimir(lv.casimir(lv.REFERENCE_PARAMS), sysm, pts).max() < 1e-13


@pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3)])
def test_structure_matches_textbook_matrix_bitwise(shape):
    b, r = lv.REFERENCE_PARAMS.b, lv.REFERENCE_PARAMS.r
    ys = np.random.default_rng(1).uniform(0.2, 2.5, size=shape)
    oracle = np.array(
        [
            [
                [0.0, r * y1 * y2, b * r * y1 * y3],
                [-r * y1 * y2, 0.0, y2 * y3],
                [-b * r * y1 * y3, -y2 * y3, 0.0],
            ]
            for y1, y2, y3 in ys.reshape(-1, 3).tolist()
        ]
    ).reshape(shape + (3,))
    assert np.array_equal(lv.system(lv.REFERENCE_PARAMS).structure(ys), oracle)


def test_hamiltonian_direct_evaluation():
    # K(1,1,1) = ab + 1 - a with the logarithm terms vanishing.
    params = lv.LVParams(a=-2.0, b=-1.0, r=-0.5, nu=1.0, mu=2.0, c2=0.2)
    assert lv.hamiltonian(params).value(np.array([1.0, 1.0, 1.0])) == pytest.approx(5.0)


def test_casimir_reference_value():
    cv = float(lv.casimir(lv.REFERENCE_PARAMS).value(lv.REFERENCE_Y0))
    oracle = (1 / -0.5) * math.log(2.0) - (-1.0) * math.log(0.9) + math.log(0.5)
    assert cv == pytest.approx(oracle, abs=1e-13)
    assert cv == pytest.approx(C2_REFERENCE, abs=1e-12)


def test_params_validated():
    with pytest.raises(ValueError):
        lv.LVParams(a=1.0, b=1.0, r=0.0, nu=1.0, mu=1.0, c2=0.1)


def test_evaluation_rejects_nonpositive_states():
    with pytest.raises(DomainError):
        lv.hamiltonian(lv.REFERENCE_PARAMS).value(np.array([1.0, -0.1, 1.0]))
    with pytest.raises(DomainError):
        lv.casimir(lv.REFERENCE_PARAMS).grad(np.array([0.0, 1.0, 1.0]))


def test_chart_round_trip_and_casimir_coordinate():
    params = lv.REFERENCE_PARAMS
    chart = lv.chart(params)
    y = lv.REFERENCE_Y0
    assert np.max(np.abs(chart.inverse(chart.forward(y)) - y)) < 1e-14
    assert chart.forward(y)[2] == pytest.approx(C2_REFERENCE, abs=1e-12)
    for y in _points(20, seed=1):
        assert np.max(np.abs(chart.inverse(chart.forward(y)) - y)) < 1e-12


def test_chart_residual():
    params = lv.REFERENCE_PARAMS
    report = verify_chart(lv.chart(params), lv.system(params), _points())
    assert report.max() < 1e-8


def test_transformed_hamiltonian_is_negated_pullback():
    # The chart block is +J = -J^-1; the canonical-form Hamiltonian flips sign.
    params = lv.REFERENCE_PARAMS
    chart = lv.chart(params)
    shs = lv.transformed_shs(params, C2_REFERENCE)
    K = lv.hamiltonian(params)
    rng = np.random.default_rng(2)
    for _ in range(20):
        zbar = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), C2_REFERENCE])
        y = chart.inverse(zbar)
        assert shs.hamiltonians[0].value(zbar[:2]) == pytest.approx(
            -float(K.value(y)), rel=1e-12
        )


def test_transformed_hamiltonian_term_dropout():
    # a = 0 leaves H = -exp(-Q) + nu Q + mu P with gradient (mu, exp(-Q) + nu).
    params = lv.LVParams(a=0.0, b=-1.0, r=-0.5, nu=1.0, mu=2.0, c2=0.2)
    shs = lv.transformed_shs(params, 0.7)
    z = np.array([0.3, -0.4])
    assert shs.hamiltonians[0].value(z) == pytest.approx(
        -math.exp(0.4) + 1.0 * (-0.4) + 2.0 * 0.3, abs=1e-14
    )
    assert np.allclose(shs.hamiltonians[0].grad(z), [2.0, math.exp(0.4) + 1.0], atol=1e-14)


def test_transformed_derivatives_match_finite_differences():
    shs = lv.transformed_shs(lv.REFERENCE_PARAMS, C2_REFERENCE)
    H = shs.hamiltonians[0]
    rng = np.random.default_rng(3)
    zs = rng.uniform(-1.0, 1.0, size=(50, 2))
    g_fd = fd_vector_jacobian(H.value, zs)
    scale = np.maximum(np.abs(g_fd), 1.0)
    assert np.max(np.abs(H.grad(zs) - g_fd) / scale) < 1e-6
    h_fd = fd_vector_jacobian(H.grad, zs)
    hscale = np.maximum(np.abs(h_fd), 1.0)
    assert np.max(np.abs(H.hess(zs)[1] - h_fd) / hscale) < 1e-6


def test_generic_update_matches_transcription():
    params = lv.REFERENCE_PARAMS
    shs = lv.transformed_shs(params, C2_REFERENCE)
    rng = np.random.default_rng(4)
    for alpha in (0.0, 0.3, 0.5, 1.0):
        for _ in range(5):
            pbar, qbar = rng.uniform(-1, 1), rng.uniform(-1, 1)
            pn, qn = rng.uniform(-1, 1), rng.uniform(-1, 1)
            dw = 0.05
            p_g, q_g = mixed_point_update(shs, alpha, pbar, qbar, pn, qn, 0.01, dw)
            p_t, q_t = slv_update(params, C2_REFERENCE, alpha, pbar, qbar, pn, qn, 0.01, dw)
            assert abs(p_g - p_t) < 1e-12
            assert abs(q_g - q_t) < 1e-12


def test_alpha_scheme_reference_run():
    grid = TimeGrid(0.0, 5.0, 500)
    noise = sample_increments(grid, 1, 5)
    cas = lv.casimir(lv.REFERENCE_PARAMS)
    for alpha in (0.0, 0.5, 1.0):
        step = alpha_scheme(
            lv.model(lv.REFERENCE_PARAMS, lv.REFERENCE_Y0),
            lv.REFERENCE_Y0,
            AlphaSchemeConfig(alpha=alpha),
        )
        states = integrate(step, lv.REFERENCE_Y0, noise)
        assert np.max(np.abs(cas.value(states) - C2_REFERENCE)) < 1e-10
        assert np.min(states) > 0.0


def test_positivity_across_seeds():
    step = alpha_scheme(
        lv.model(lv.REFERENCE_PARAMS, lv.REFERENCE_Y0),
        lv.REFERENCE_Y0,
        AlphaSchemeConfig(alpha=0.5),
    )
    grid = TimeGrid(0.0, 10.0, 250)  # h = 0.04
    for i in range(10):
        noise = sample_increments(grid, 1, sample_seed(99, i))
        states = integrate(step, lv.REFERENCE_Y0, noise)
        assert np.min(states) > 0.0


def test_euler_maruyama_variants_leak_casimir():
    sysm = lv.system(lv.REFERENCE_PARAMS)
    cas = lv.casimir(lv.REFERENCE_PARAMS)
    grid = TimeGrid(0.0, 10.0, 1000)
    noise = sample_increments(grid, 1, 42)
    for stepper in (em_stepper(sysm), iem_stepper(sysm)):
        states = integrate(stepper, lv.REFERENCE_Y0, noise)
        assert np.max(np.abs(cas.value(states) - C2_REFERENCE)) > 1e-3


def test_exponential_guard_raises_range_error():
    shs = lv.transformed_shs(lv.REFERENCE_PARAMS, C2_REFERENCE)
    with pytest.raises(DivergenceError):
        shs.hamiltonians[0].value(np.array([2000.0, 0.0]))


def test_scheme_rejects_nonpositive_start():
    with pytest.raises(DomainError):
        alpha_scheme(
            lv.model(lv.REFERENCE_PARAMS, lv.REFERENCE_Y0),
            np.array([1.0, 0.0, 1.0]),
            AlphaSchemeConfig(alpha=0.5),
        )
