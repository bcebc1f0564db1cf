import functools
import math

import numpy as np
import pytest

from spoisson.noise import TimeGrid, sample_increments
from spoisson.poisson import drift_and_diffusions
from spoisson.sde import (
    DivergenceError,
    IntegrationError,
    SDE,
    NonConvergenceError,
    euler_maruyama_step,
    fd_vector_jacobian,
    fit_order,
    fixed_point,
    implicit_euler_maruyama_step,
    integrate,
    midpoint_step,
    milstein_step,
    ms_error_many,
    strat_to_ito_drift,
)
from spoisson.models import lotka_volterra as lv
from spoisson.models import rigid_body as rb


def _zero_sde():
    zero = lambda y: np.zeros_like(np.asarray(y, dtype=float))
    return SDE(drift=zero, diffusions=(zero,))


def test_integrate_zero_dynamics_is_constant():
    grid = TimeGrid(0.0, 1.0, 20)
    noise = sample_increments(grid, 1, 0)
    step = lambda y, h, dw: euler_maruyama_step(
        SDE(lambda y: np.zeros_like(y), (lambda y: np.zeros_like(y),)), y, h, dw
    )
    traj = integrate(step, np.array([1.0, -2.0]), grid, noise)
    assert np.array_equal(traj.states, np.tile([1.0, -2.0], (21, 1)))


def test_integrate_additive_noise_telescopes_exactly():
    # dy = 1 o dW: the endpoint is the left-to-right sum of increments.
    grid = TimeGrid(0.0, 1.0, 100)
    noise = sample_increments(grid, 1, 3)
    sde = SDE(lambda y: np.zeros_like(y), (lambda y: np.ones_like(y),))
    step = lambda y, h, dw: euler_maruyama_step(sde, y, h, dw)
    traj = integrate(step, np.array([0.25]), grid, noise)
    expected = functools.reduce(lambda acc, v: acc + v[0], noise.values, 0.25)
    assert traj.states[-1][0] == expected


def test_integrate_rejects_foreign_noise():
    grid = TimeGrid(0.0, 1.0, 10)
    other = sample_increments(TimeGrid(0.0, 1.0, 20), 1, 0)
    with pytest.raises(ValueError):
        integrate(lambda y, h, dw: y, np.zeros(1), grid, other)


def test_integrate_wraps_stepper_failure_with_step_index():
    grid = TimeGrid(0.0, 1.0, 10)
    noise = sample_increments(grid, 1, 0)

    def bad_step(y, h, dw):
        if y[0] > 2:
            raise ValueError("boom")
        return y + 1.0

    with pytest.raises(IntegrationError) as err:
        integrate(bad_step, np.array([0.0]), grid, noise)
    assert err.value.step_index == 3


def test_ito_drift_constant_diffusion_has_no_correction():
    sde = SDE(
        drift=lambda y: np.stack([y[..., 1], -y[..., 0]], axis=-1),
        diffusions=(lambda y: np.ones(np.shape(y)),),
        diffusion_jacobians=(lambda y: np.zeros(np.shape(y) + (2,)),),
    )
    y = np.array([0.3, -1.2])
    assert np.allclose(strat_to_ito_drift(sde, y), sde.drift(y), atol=1e-9)


def test_ito_drift_scalar_multiplicative():
    # dy = y o dW has Ito drift y/2.
    sde = SDE(
        drift=lambda y: np.zeros_like(y),
        diffusions=(lambda y: y,),
        diffusion_jacobians=(lambda y: np.ones(np.shape(y) + (1,)),),
    )
    y = np.array([1.7])
    assert np.allclose(strat_to_ito_drift(sde, y), 0.5 * y, atol=1e-14)


def test_ito_drift_rigid_body_analytic_vs_fd():
    sde = drift_and_diffusions(rb.system(rb.REFERENCE_PARAMS))
    assert sde.diffusion_jacobians is not None
    y = rb.REFERENCE_Y0
    analytic = strat_to_ito_drift(sde, y)
    b = sde.diffusions[0]
    fd = sde.drift(y) + 0.5 * fd_vector_jacobian(b, y) @ b(y)
    assert np.allclose(analytic, fd, atol=1e-8)


def test_euler_maruyama_identity_without_forcing():
    sde = SDE(lambda y: np.zeros_like(y), (lambda y: y,))
    y = np.array([2.0])
    out = euler_maruyama_step(sde, y, 0.1, np.zeros(1))
    assert np.array_equal(out, y)


def test_euler_maruyama_linear_deterministic():
    lam = -0.7
    sde = SDE(lambda y: lam * y, (lambda y: np.zeros_like(y),))
    y = np.array([1.3])
    out = euler_maruyama_step(sde, y, 0.05, np.zeros(1))
    assert out[0] == pytest.approx((1 + lam * 0.05) * 1.3, abs=1e-15)


def test_midpoint_zero_field_is_identity():
    sde = _zero_sde()
    y = np.array([1.0, 2.0, 3.0])
    out = midpoint_step(sde, y, 0.1, np.zeros(1))
    assert np.array_equal(out, y)


def test_midpoint_conserves_quadratic_invariants_per_step():
    # Both flows conserve Q(y) = |y|^2; midpoint inherits this up to the
    # iteration tolerance.
    tol = 1e-12
    cases = []
    rot = SDE(
        drift=lambda y: np.stack([-y[..., 1], y[..., 0]], axis=-1),
        diffusions=(lambda y: 0.5 * np.stack([-y[..., 1], y[..., 0]], axis=-1),),
    )
    cases.append((rot, np.array([0.8, -0.6])))
    cases.append((drift_and_diffusions(rb.system(rb.REFERENCE_PARAMS)), rb.REFERENCE_Y0))
    rng = np.random.default_rng(1)
    for sde, y in cases:
        q0 = float(np.sum(y**2))
        for _ in range(25):
            dw = math.sqrt(0.01) * rng.standard_normal(1)
            y_new = midpoint_step(sde, y, 0.01, dw, tol=tol)
            q1 = float(np.sum(y_new**2))
            assert abs(q1 - q0) <= 10 * tol * (1 + abs(q0))
            y, q0 = y_new, q1


def test_midpoint_rigid_body_fine_run_conserves_casimir():
    # Reference-solver sanity: h = 1e-5 over [0, 1].
    sde = drift_and_diffusions(rb.system(rb.REFERENCE_PARAMS))
    grid = TimeGrid(0.0, 1.0, 100_000)
    noise = sample_increments(grid, 1, 11)
    step = lambda y, h, dw: midpoint_step(sde, y, h, dw)
    traj = integrate(step, rb.REFERENCE_Y0, grid, noise, record={"C": rb.CASIMIR.value})
    assert np.max(np.abs(traj.functionals["C"] - 0.5)) < 1e-10


def test_midpoint_reports_nonconvergence():
    sde = SDE(lambda y: 2.4 * y, (lambda y: np.zeros_like(y),))
    with pytest.raises(NonConvergenceError) as err:
        midpoint_step(sde, np.array([1.0]), 1.0, np.zeros(1))
    assert err.value.residual > 0


def test_midpoint_reports_divergence():
    sde = SDE(lambda y: 1e10 * y, (lambda y: np.zeros_like(y),))
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        midpoint_step(sde, np.array([1.0]), 1.0, np.zeros(1))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("step", [midpoint_step, implicit_euler_maruyama_step])
def test_implicit_steppers_reject_bad_tol(step, tol):
    # tol = inf would accept the first iterate; tol = nan would never converge
    sde = SDE(lambda y: -y, (lambda y: np.zeros_like(y),))
    with pytest.raises(ValueError, match="tol"):
        step(sde, np.array([1.0]), 0.1, np.zeros(1), tol=tol)


def test_implicit_em_zero_field_is_identity():
    sde = SDE(lambda y: np.zeros_like(y), (lambda y: np.zeros_like(y),))
    y = np.array([4.0])
    assert np.array_equal(implicit_euler_maruyama_step(sde, y, 0.1, np.zeros(1)), y)


def test_milstein_constant_diffusion_reduces_to_em():
    sde = SDE(
        lambda y: 0.3 * y,
        (lambda y: np.ones_like(y),),
        diffusion_jacobians=(lambda y: np.zeros(np.shape(y) + (1,)),),
    )
    y = np.array([1.1])
    dw = np.array([0.23])
    assert np.allclose(
        milstein_step(sde, y, 0.1, dw), euler_maruyama_step(sde, y, 0.1, dw), atol=1e-16
    )


def test_milstein_scalar_closed_form():
    # dy = y dW (Ito): y' = y + y dW + y (dW^2 - h) / 2.
    sde = SDE(
        lambda y: np.zeros_like(y),
        (lambda y: y,),
        diffusion_jacobians=(lambda y: np.ones(np.shape(y) + (1,)),),
    )
    y, h, dw = np.array([1.4]), 0.1, np.array([0.3])
    expected = 1.4 + 1.4 * 0.3 + 0.5 * 1.4 * (0.3**2 - 0.1)
    assert milstein_step(sde, y, h, dw)[0] == pytest.approx(expected, abs=1e-15)


def test_milstein_rejects_multiple_noises():
    z = lambda y: np.zeros_like(y)
    sde = SDE(z, (z, z))
    with pytest.raises(ValueError):
        milstein_step(sde, np.zeros(1), 0.1, np.zeros(2))


def test_ito_correction_and_milstein_need_the_diffusion_jacobians():
    sde = SDE(lambda y: np.zeros_like(y), (lambda y: y,))
    with pytest.raises(ValueError, match="Jacobian"):
        strat_to_ito_drift(sde, np.array([1.0]))
    with pytest.raises(ValueError, match="Jacobian"):
        milstein_step(sde, np.array([1.0]), 0.1, np.array([0.3]))


def test_milstein_strong_order_one_on_geometric_sde():
    # Ito dy = lam y dt + sig y dW against the exact solution
    # y(T) = y0 exp((lam - sig^2/2) T + sig W_T), coupled through W_T.
    lam, sig, y0, T = 1.0, 1.0, 1.0, 1.0
    sde = SDE(
        lambda y: lam * y,
        (lambda y: sig * y,),
        diffusion_jacobians=(lambda y: sig * np.ones(np.shape(y) + (1,)),),
    )
    n_fine, n_samples = 1024, 400
    fine_grid = TimeGrid(0.0, T, n_fine)
    values = np.stack(
        [sample_increments(fine_grid, 1, (55, i)).values for i in range(n_samples)],
        axis=1,
    )
    w_T = values.sum(axis=0)[:, 0]
    exact = y0 * np.exp((lam - 0.5 * sig**2) * T + sig * w_T)
    errors, hs = [], []
    for factor in (8, 16, 32, 64):
        h = T * factor / n_fine
        dw = values.reshape(n_fine // factor, factor, n_samples, 1).sum(axis=1)
        y = np.full((n_samples, 1), y0)
        for j in range(dw.shape[0]):
            y = milstein_step(sde, y, h, dw[j])
        errors.append(np.sqrt(np.mean((y[:, 0] - exact) ** 2)))
        hs.append(h)
    slope = fit_order(hs, errors)
    assert 0.85 <= slope <= 1.15


def test_ms_error_self_comparison_is_exactly_zero():
    sde = drift_and_diffusions(rb.system(rb.REFERENCE_PARAMS))
    step = lambda y, h, dw: midpoint_step(sde, y, h, dw)
    est = ms_error_many(
        {"scheme": step}, step, 1, rb.REFERENCE_Y0, 0.5, [0.05], 8, 99, ref_factor=1
    )["scheme"]
    assert est.errors[0] == 0.0
    assert math.isnan(est.slope)


def test_fit_order_exact_on_synthetic_log_linear_data():
    hs = np.array([0.04, 0.02, 0.01, 0.005])
    assert abs(fit_order(hs, 3.7 * hs) - 1.0) < 1e-12
    assert abs(fit_order(hs, 0.2 * hs**1.5) - 1.5) < 1e-12


def test_ms_error_orders_steps_and_validates():
    sde = drift_and_diffusions(rb.system(rb.REFERENCE_PARAMS))
    step = lambda y, h, dw: midpoint_step(sde, y, h, dw)
    est = ms_error_many(
        {"scheme": step}, step, 1, rb.REFERENCE_Y0, 0.4, [0.01, 0.04, 0.02], 4, 1, ref_factor=4
    )["scheme"]
    assert np.all(np.diff(est.step_sizes) < 0)
    with pytest.raises(ValueError):
        ms_error_many(
            {"scheme": step}, step, 1, rb.REFERENCE_Y0, 0.4, [0.03, 0.04], 4, 1, ref_factor=4
        )["scheme"]


def test_ms_error_sample_failure_policies():
    sde = drift_and_diffusions(rb.system(rb.REFERENCE_PARAMS))
    ref = lambda y, h, dw: midpoint_step(sde, y, h, dw)

    def flaky(y, h, dw):
        # Pure in (y, dw): fails on samples whose first increment is positive,
        # so retries after exclusion behave consistently.
        bad = (y[..., 1] == rb.REFERENCE_Y0[1]) & (dw[..., 0] > 0)
        if np.any(bad):
            raise NonConvergenceError("synthetic failure", 1.0, mask=bad)
        return midpoint_step(sde, y, h, dw)

    with pytest.raises(NonConvergenceError):
        ms_error_many(
            {"scheme": flaky}, ref, 1, rb.REFERENCE_Y0, 0.2, [0.02], 6, 5, ref_factor=2
        )["scheme"]
    est = ms_error_many(
        {"scheme": flaky}, ref, 1, rb.REFERENCE_Y0, 0.2, [0.02], 6, 5, ref_factor=2,
        on_sample_error="drop",
    )["scheme"]
    assert 1 <= est.n_dropped <= 5
    assert est.n_dropped == 6 - est.n_samples
    assert est.errors[0] > 0


@pytest.mark.parametrize(
    "system, low, high",
    [(rb.system(rb.REFERENCE_PARAMS), -1.0, 1.0), (lv.system(lv.REFERENCE_PARAMS), 0.5, 2.0)],
    ids=["srb", "slv"],
)
def test_batched_states_match_individual_runs(system, low, high):
    # One-step maps are pure per sample; batching must not change results.
    sde = drift_and_diffusions(system)
    rng = np.random.default_rng(8)
    ys = rng.uniform(low, high, size=(5, 3))
    dws = math.sqrt(0.01) * rng.standard_normal((5, 1))
    batch = midpoint_step(sde, ys, 0.01, dws)
    for i in range(5):
        single = midpoint_step(sde, ys[i], 0.01, dws[i])
        assert np.array_equal(batch[i], single)


def test_fixed_point_keeps_converged_rows_frozen():
    # Row 0 is a fixed point at once; afterwards its updates turn NaN.
    calls = 0

    def update(x):
        nonlocal calls
        calls += 1
        out = 0.5 * x
        out[0] = x[0] if calls == 1 else np.nan
        return out

    x = fixed_point(update, np.array([[1.0, 2.0], [1.0, -1.0]]), 1e-12, 100)
    assert calls > 2
    assert np.array_equal(x[0], [1.0, 2.0])
    assert np.max(np.abs(x[1])) < 1e-11


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fixed_point_non_finite_active_row_raises_with_its_mask(bad):
    # Row 0 converges at once and turns NaN afterwards; row 1 turns bad later.
    calls = 0

    def update(x):
        nonlocal calls
        calls += 1
        out = 0.5 * x
        out[0] = x[0] if calls == 1 else np.nan
        if calls == 3:
            out[1, 0] = bad
        return out

    with pytest.raises(DivergenceError) as info:
        fixed_point(update, np.ones((3, 2)), 1e-12, 100)
    assert np.array_equal(info.value.mask, [False, True, False])


def test_fixed_point_non_convergence_reports_unconverged_rows_only():
    # Row 0 converges at once, then its updates jump by 100; rows 1 and 2
    # move by 1 and 0.25 on every iteration.
    calls = 0

    def update(x):
        nonlocal calls
        calls += 1
        out = x + np.array([[0.0], [1.0], [0.25]])
        if calls > 1:
            out[0] += 100.0
        return out

    with pytest.raises(NonConvergenceError) as info:
        fixed_point(update, np.zeros((3, 2)), 1e-12, 5)
    assert calls == 5
    assert info.value.residual == 1.0
    assert np.array_equal(info.value.mask, [False, True, True])


def test_fixed_point_unbatched_state():
    x = fixed_point(lambda x: 0.5 * x + np.array([1.0, -2.0, 0.5]), np.zeros(3), 1e-12, 100)
    assert x.shape == (3,)
    np.testing.assert_allclose(x, [2.0, -4.0, 1.0], rtol=0, atol=1e-11)
    with pytest.raises(DivergenceError):
        fixed_point(lambda x: x + np.inf, np.ones(3), 1e-12, 100)
