import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spoisson import canonical as canonical_module
from spoisson import sde as sde_module
from spoisson.alpha_gf import AlphaSchemeConfig
from spoisson.canonical import (
    CanonicalSHS,
    Chart,
    alpha_path,
    alpha_scheme,
    alpha_scheme_map,
    j_inverse,
    make_alpha_stepper,
    poisson_integrator,
    transform_system,
    verify_chart,
)
from spoisson.custom import load_custom_system
from spoisson.noise import TimeGrid, TruncationPolicy, WienerIncrements, sample_increments, truncation_bound
from spoisson.poisson import PoissonSystem, ScalarField
from spoisson.sde import DomainError, IntegrationError, StepError, integrate
from spoisson.models import lotka_volterra as lv
from spoisson.models import rigid_body as rb

from test_properties import SLV_PARAMS, SRB_PARAMS


def _identity_chart(n):
    d = 2 * n
    b0 = np.zeros((d, d))
    b0[:d, :d] = j_inverse(n)
    return Chart(
        n=n,
        forward=lambda y: np.asarray(y, dtype=float),
        inverse=lambda y: np.asarray(y, dtype=float),
        b0=b0,
        jacobian=lambda y: np.broadcast_to(np.eye(d), np.shape(y)[:-1] + (d, d)),
    )


def _canonical_system():
    H = ScalarField(
        value=lambda y: 0.5 * np.sum(np.asarray(y) ** 2, axis=-1),
        grad=lambda y: np.asarray(y, dtype=float),
        hess=lambda y: (np.asarray(y, dtype=float), np.broadcast_to(np.eye(2), np.shape(y) + (2,))),
    )
    return PoissonSystem(
        dim=2,
        structure=lambda y: np.broadcast_to(j_inverse(1), np.shape(y)[:-1] + (2, 2)),
        hamiltonians=(H, H),
        rank=2,
        structure_derivative=lambda y: np.zeros(np.shape(y)[:-1] + (2, 2, 2)),
    )


def _srb_domain_points(n=100, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(6 * n, 3))
    ch = rb.chart()
    return pts[ch.domain(pts)][:n]


def test_verify_chart_identity_on_canonical_system():
    report = verify_chart(_identity_chart(1), _canonical_system(), np.zeros((5, 2)))
    assert report.max() == 0.0


def test_verify_chart_builtin_models():
    sysm = rb.system(rb.REFERENCE_PARAMS)
    report = verify_chart(rb.chart(), sysm, _srb_domain_points())
    assert report.max() < 1e-8

    params = lv.REFERENCE_PARAMS
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.2, 2.5, size=(100, 3))
    report = verify_chart(lv.chart(params), lv.system(params), pts)
    assert report.max() < 1e-8


def test_verify_chart_rejects_singular_jacobian():
    chart = Chart(
        n=1,
        forward=lambda y: np.stack([y[..., 0], y[..., 0]], axis=-1),
        inverse=lambda y: y,
        b0=j_inverse(1),
        jacobian=lambda y: np.broadcast_to([[1.0, 0.0], [1.0, 0.0]], np.shape(y)[:-1] + (2, 2)),
    )
    with pytest.raises(ValueError):
        verify_chart(chart, _canonical_system(), np.ones((3, 2)))


def test_transform_system_rigid_body_matches_kinetic_energy():
    sysm = rb.system(rb.REFERENCE_PARAMS)
    chart = rb.chart()
    shs = transform_system(sysm, chart, rb.REFERENCE_Y0)

    # H(theta(y)) = K(y) on the frozen Casimir level set C(y) = 1/2.
    K = rb.kinetic_energy(rb.REFERENCE_PARAMS)
    assert shs.hamiltonians[0].value(
        chart.forward(rb.REFERENCE_Y0)[..., :2]
    ) == pytest.approx(float(K.value(rb.REFERENCE_Y0)), rel=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(20):
        zbar = np.array([rng.uniform(-0.9, 0.9), rng.uniform(-np.pi, np.pi), 0.5])
        y = chart.inverse(zbar)
        assert shs.hamiltonians[0].value(zbar[:2]) == pytest.approx(
            float(K.value(y)), rel=1e-12
        )


def test_transform_system_slv_flips_sign():
    # The SLV chart block is +J = -J^-1, so H = -K o theta^-1.
    params = lv.REFERENCE_PARAMS
    sysm = lv.system(params)
    cv = float(lv.casimir(params).value(lv.REFERENCE_Y0))
    assert cv == pytest.approx(-2.1848020573376, abs=1e-9)
    chart = lv.chart(params)
    shs = transform_system(sysm, chart, lv.REFERENCE_Y0)
    K = lv.hamiltonian(params)
    rng = np.random.default_rng(3)
    for _ in range(20):
        # states on the frozen level set C(y) = cv
        zbar = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), cv])
        y = chart.inverse(zbar)
        assert shs.hamiltonians[0].value(zbar[:2]) == pytest.approx(
            -float(K.value(y)), rel=1e-10
        )


def test_transform_system_gradients_match_analytic():
    sysm = rb.system(rb.REFERENCE_PARAMS)
    chart = rb.chart()
    generic = transform_system(sysm, chart, rb.REFERENCE_Y0)
    analytic = rb.transformed_shs(rb.REFERENCE_PARAMS, 0.5)
    rng = np.random.default_rng(4)
    zs = np.stack([rng.uniform(-0.6, 0.6, size=20), rng.uniform(-2, 2, size=20)], axis=-1)
    G, A = generic.hamiltonians[0], analytic.hamiltonians[0]
    assert np.allclose(G.grad(zs), A.grad(zs), atol=1e-9)
    assert np.allclose(G.hess(zs)[1], A.hess(zs)[1], atol=1e-5)

    paramsl = lv.REFERENCE_PARAMS
    cv = float(lv.casimir(paramsl).value(lv.REFERENCE_Y0))
    genericl = transform_system(lv.system(paramsl), lv.chart(paramsl), lv.REFERENCE_Y0)
    analyticl = lv.transformed_shs(paramsl, cv)
    zs = rng.uniform(-0.8, 0.8, size=(20, 2))
    assert np.allclose(genericl.hamiltonians[0].grad(zs), analyticl.hamiltonians[0].grad(zs), atol=1e-9)


def test_transform_system_rejects_bad_block():
    bad = Chart(
        n=1,
        forward=lambda y: y,
        inverse=lambda y: y,
        b0=np.array([[0.0, 2.0], [-2.0, 0.0]]),
        jacobian=lambda y: np.broadcast_to(np.eye(2), np.shape(y)[:-1] + (2, 2)),
    )
    with pytest.raises(ValueError):
        transform_system(_canonical_system(), bad, np.array([0.1, 0.2]))


def test_transform_system_rejects_out_of_domain_start():
    params = lv.REFERENCE_PARAMS
    chart = lv.chart(params)
    with pytest.raises(DomainError):
        transform_system(lv.system(params), chart, np.array([1.0, -1.0, 1.0]))


def test_poisson_integrator_identity_stepper_fixes_level_set():
    chart = rb.chart()
    step = poisson_integrator(chart, lambda z, h, dw: z, [0.5])
    rng = np.random.default_rng(5)
    for _ in range(10):
        # states on the level set C = 1/2
        zbar = np.array([rng.uniform(-0.9, 0.9), rng.uniform(-np.pi, np.pi), 0.5])
        y = chart.inverse(zbar)
        out = step(y, 0.01, np.zeros(1))
        assert np.allclose(out, y, atol=1e-12)


def test_poisson_integrator_conjugacy_and_casimir_exactness():
    params = rb.REFERENCE_PARAMS
    cv = 0.5
    chart = rb.chart()
    shs = rb.transformed_shs(params, cv)
    stepper = make_alpha_stepper(shs, AlphaSchemeConfig(alpha=0.3))
    composed = poisson_integrator(chart, stepper, [cv])
    rng = np.random.default_rng(6)
    y = rb.REFERENCE_Y0
    for _ in range(50):
        dw = np.sqrt(0.01) * rng.standard_normal(1)
        y_new = composed(y, 0.01, dw)
        # conjugacy: theta(composed(y)) = stepper(theta(y)) with the same dw
        lhs = chart.forward(y_new)[..., :2]
        rhs = stepper(chart.forward(y)[..., :2], 0.01, dw)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1 + np.linalg.norm(y))
        # Casimir reattached exactly
        assert abs(float(rb.CASIMIR.value(y_new)) - cv) < 1e-14
        y = y_new


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_alpha_stepper_steps_at_the_clipped_increment(alpha):
    stepper = make_alpha_stepper(rb.transformed_shs(rb.REFERENCE_PARAMS, 0.5), AlphaSchemeConfig(alpha))
    h = 0.01
    a = truncation_bound(h, TruncationPolicy().k) * math.sqrt(h)  # 0.607 at k = 4
    z = np.array([[0.3, 0.5], [0.3, 0.5]])
    clipped = stepper(z, h, np.array([[a], [-a]]))
    assert np.array_equal(stepper(z, h, np.array([[1.0], [-1.0]])), clipped)
    assert not np.array_equal(clipped[0], clipped[1])


def test_poisson_integrator_rejects_out_of_domain_state():
    chart = rb.chart()
    step = poisson_integrator(chart, lambda z, h, dw: z, [0.5])
    with pytest.raises(DomainError):
        step(np.array([0.0, 2.0, 0.0]), 0.01, np.zeros(1))  # y2^2 > 2C


def test_poisson_integrator_reports_domain_exit():
    chart = rb.chart()
    runaway = lambda z, h, dw: z + np.array([10.0, 0.0])  # pushes P out of range
    step = poisson_integrator(chart, runaway, [0.5])
    with pytest.raises(DomainError):
        step(rb.REFERENCE_Y0, 0.01, np.zeros(1))


def test_generic_alpha_scheme_tracks_analytic_model():
    params = rb.REFERENCE_PARAMS
    config = AlphaSchemeConfig(alpha=0.5)
    model = rb.model(params, rb.REFERENCE_Y0)
    chart = model.chart  # the oracle's frozen level c is that of the state theta^-1(0, 0, c)
    generic = alpha_scheme(
        replace(model, shs=lambda c: transform_system(model.system, chart, chart.inverse(np.r_[0.0, 0.0, c]))),
        rb.REFERENCE_Y0,
        config,
    )
    analytic = alpha_scheme(model, rb.REFERENCE_Y0, config)
    grid = TimeGrid(0.0, 0.5, 50)
    noise = sample_increments(grid, 1, 7)
    t1 = integrate(generic, rb.REFERENCE_Y0, noise)
    t2 = integrate(analytic, rb.REFERENCE_Y0, noise)
    assert np.max(np.abs(t1 - t2)) < 1e-8


SRB_CUSTOM = Path(__file__).resolve().parents[1] / "bench" / "srb_custom.txt"
BATCH_MODELS = {  # each from the srb and slv constants drawn (custom has its own)
    "srb": lambda srb, slv: rb.model(srb, rb.REFERENCE_Y0),
    "slv": lambda srb, slv: lv.model(slv, lv.REFERENCE_Y0),
    "custom": lambda srb, slv: replace(load_custom_system(str(SRB_CUSTOM)), y0=np.array([0.7, 0.3, 0.2])),
}
REFERENCE = {"srb": rb.REFERENCE_PARAMS, "slv": lv.REFERENCE_PARAMS}


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", sorted(BATCH_MODELS))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), srb=SRB_PARAMS, slv=SLV_PARAMS)
@example(seed=2679746384, **REFERENCE)  # srb, alpha = 1/2: a single state's cos(q) ** 2 missed by an ulp
@example(seed=3934851, **REFERENCE)  # custom, alpha = 1: likewise for a compiled ** 2
def test_batched_rows_equal_single_rows_bit_for_bit(name, alpha, seed, srb, slv):
    # the scheme frozen at y0, and the self-starting map, whose rows lie on
    # different Casimir levels
    model = BATCH_MODELS[name](srb, slv)
    config = AlphaSchemeConfig(alpha=alpha)
    rng = np.random.default_rng(seed)
    ys = model.y0 + 0.05 * rng.standard_normal((16, 3))
    dws = 0.2 * rng.standard_normal((3, 16, 1))
    for step in (alpha_scheme(model, model.y0, config), alpha_scheme_map(model, config)):
        _assert_batch_steps_row_by_row(step, ys, dws)


def _assert_batch_steps_row_by_row(step, ys, dws):
    for dw in dws:
        try:
            batched = step(ys, 0.04, dw)
        except StepError as exc:  # drawn constants past the solve's limit: each row it names fails alone
            assert exc.mask.any()
            for i in np.flatnonzero(exc.mask):
                with pytest.raises(StepError):
                    step(ys[i], 0.04, dw[i])
            return
        single = np.stack([step(y, 0.04, d) for y, d in zip(ys, dw)])
        assert np.array_equal(batched, single)
        ys = batched


_ROOT = Path(__file__).resolve().parents[1]
_PATH_MODELS = {
    "srb": lambda: rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0),
    "slv": lambda: lv.model(lv.REFERENCE_PARAMS, lv.REFERENCE_Y0),
    "srb_custom": lambda: replace(load_custom_system(str(_ROOT / "bench" / "srb_custom.txt")),
                                  y0=np.array([0.7, 0.3, 0.2])),
    "two_rigid_bodies": lambda: replace(load_custom_system(str(_ROOT / "tests" / "two_rigid_bodies.txt")),
                                        y0=np.array([0.7, 0.3, 0.2, 0.4, 0.5, 0.6])),
}


@pytest.mark.parametrize("name", sorted(_PATH_MODELS))
@pytest.mark.parametrize("h, n", [(0.01, 50), (0.001, 300)])
def test_alpha_path_agrees_with_stepping(name, h, n):
    model = _PATH_MODELS[name]()
    noise = sample_increments(TimeGrid(0.0, h * n, n), 1, 2024)
    for alpha in (0.0, 0.5, 1.0):
        config = AlphaSchemeConfig(alpha)
        path = alpha_path(model, model.y0, config)
        states = path(model.y0, noise)
        assert states.shape == (n + 1, len(model.y0))
        stepped = integrate(alpha_scheme(model, model.y0, config), model.y0, noise)
        assert np.max(np.abs(states - stepped)) < 1e-11
        assert np.array_equal(states, path(model.y0, noise))  # reruns repeat every bit


@pytest.mark.parametrize("name", sorted(_PATH_MODELS))
def test_stacked_alpha_path_blocks_equal_single_alpha_paths(name):
    model = _PATH_MODELS[name]()
    noise = sample_increments(TimeGrid(0.0, 0.5, 50), 1, 7)
    alphas = (0.0, 0.5, 1.0)
    start = np.broadcast_to(model.y0, (len(alphas),) + model.y0.shape)
    stacked = alpha_path(model, model.y0, AlphaSchemeConfig(alphas))(start, noise)
    for i, alpha in enumerate(alphas):
        assert np.array_equal(stacked[:, i], alpha_path(model, model.y0, AlphaSchemeConfig(alpha))(model.y0, noise))


def test_alpha_path_solves_windows_without_stepping(monkeypatch):
    # 300 steps at h = 0.001 are three windows of 100, each one fixed_point
    # call on the window's (P, Q) coordinates.
    calls = []
    solve = sde_module.fixed_point
    monkeypatch.setattr(sde_module, "fixed_point", lambda *args: calls.append(args[1].shape) or solve(*args))
    monkeypatch.setattr(canonical_module, "alpha_step", None)
    model = rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0)
    alpha_path(model, model.y0, AlphaSchemeConfig(0.0))(model.y0, sample_increments(TimeGrid(0.0, 0.3, 300), 1, 3))
    assert calls == [(200,)] * 3


def test_alpha_path_needs_a_single_noise_channel_and_builds_no_stepper(monkeypatch):
    monkeypatch.setattr(canonical_module, "make_alpha_stepper", None)
    monkeypatch.setattr(canonical_module, "poisson_integrator", None)
    model = rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0)
    alpha_path(model, model.y0, AlphaSchemeConfig(0.5))
    two = replace(model, shs=lambda c: CanonicalSHS(model.shs(c).hamiltonians * 2))  # H0, H1, H0, H1
    with pytest.raises(ValueError, match="alpha-generating schemes need a single noise channel, got 3"):
        alpha_path(two, model.y0, AlphaSchemeConfig(0.5))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, (0.0, 0.5, 1.0)])
def test_alpha_path_failure_is_the_stepping_failure(alpha):
    # With the truncation out of reach, the increment 50 of step 37 (inside
    # the window of steps 30-39) makes that step's solve fail.
    model = rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0)
    config = AlphaSchemeConfig(alpha, truncation=TruncationPolicy(k=1e6))
    values = np.full((100, 1), 0.01)
    values[37] = 50.0
    noise = WienerIncrements(TimeGrid(0.0, 1.0, 100), values)
    y0 = np.broadcast_to(model.y0, (3, 3)) if isinstance(alpha, tuple) else model.y0
    with np.errstate(all="ignore"):
        with pytest.raises(IntegrationError) as stepped:
            integrate(alpha_scheme(model, model.y0, config), y0, noise)
        with pytest.raises(IntegrationError) as windowed:
            alpha_path(model, model.y0, config)(y0, noise)
    assert windowed.value.step_index == stepped.value.step_index == 37
    cause, expected = windowed.value.__cause__, stepped.value.__cause__
    assert type(cause) is type(expected) and isinstance(cause, StepError)
    assert np.array_equal(cause.mask, expected.mask)
    assert str(windowed.value) == str(stepped.value)


@pytest.mark.parametrize("name, T, n", [("srb", 100.0, 10_000), ("slv", 10.0, 10_000)])
def test_alpha_path_conserves_casimir_over_many_steps(name, T, n):
    model = _PATH_MODELS[name]()
    noise = sample_increments(TimeGrid(0.0, T, n), 1, 11)
    start = np.broadcast_to(model.y0, (3,) + model.y0.shape)
    states = alpha_path(model, model.y0, AlphaSchemeConfig((0.0, 0.5, 1.0)))(start, noise)
    C = model.system.casimirs[0].value(states)
    assert np.max(np.abs(C - C[0])) < 1e-10
