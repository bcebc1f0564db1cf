import functools
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spoisson.alpha_gf import AlphaSchemeConfig
from spoisson.canonical import alpha_path, alpha_scheme, j_inverse
from spoisson import sde as sde_module
from spoisson.custom import load_custom_system
from spoisson.experiments import iem_path, iem_stepper, reference_stepper
from spoisson.noise import TimeGrid, WienerIncrements, sample_increments
from spoisson.poisson import PoissonSystem, ScalarField, drift_and_diffusions
from spoisson.sde import (
    DivergenceError,
    DomainError,
    IntegrationError,
    SDE,
    NonConvergenceError,
    StepError,
    euler_maruyama_step,
    fit_order,
    fixed_point,
    implicit_euler_maruyama_path,
    implicit_euler_maruyama_step,
    integrate,
    midpoint_path,
    midpoint_step,
    ms_error_many,
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
    states = integrate(step, np.array([1.0, -2.0]), noise)
    assert np.array_equal(states, np.tile([1.0, -2.0], (21, 1)))


def test_integrate_additive_noise_telescopes_exactly():
    # dy = 1 o dW: the endpoint is the left-to-right sum of increments.
    grid = TimeGrid(0.0, 1.0, 100)
    noise = sample_increments(grid, 1, 3)
    sde = SDE(lambda y: np.zeros_like(y), (lambda y: np.ones_like(y),))
    step = lambda y, h, dw: euler_maruyama_step(sde, y, h, dw)
    states = integrate(step, np.array([0.25]), noise)
    expected = functools.reduce(lambda acc, v: acc + v[0], noise.values, 0.25)
    assert states[-1][0] == expected


def test_integrate_wraps_stepper_failure_with_step_index():
    grid = TimeGrid(0.0, 1.0, 10)
    noise = sample_increments(grid, 1, 0)

    def bad_step(y, h, dw):
        if y[0] > 2:
            raise ValueError("boom")
        return y + 1.0

    with pytest.raises(IntegrationError) as err:
        integrate(bad_step, np.array([0.0]), noise)
    assert err.value.step_index == 3


def _canonical_system(K1):
    """dz = J^-1 (grad K_0 dt + grad K_1 o dW) on R^2 with K_0 = z1 z2, so
    B = J^-1 is constant and dB = 0."""
    swap = lambda z: z[..., ::-1].copy()
    K0 = ScalarField(
        value=lambda z: z[..., 0] * z[..., 1],
        grad=swap,
        hess=lambda z: (swap(z), np.broadcast_to([[0.0, 1.0], [1.0, 0.0]], np.shape(z) + (2,))),
    )
    Jinv = j_inverse(1)
    return PoissonSystem(
        dim=2,
        structure=lambda z: np.broadcast_to(Jinv, np.shape(z)[:-1] + (2, 2)),
        hamiltonians=(K0, K1),
        rank=2,
        structure_derivative=lambda z: np.zeros(np.shape(z)[:-1] + (2, 2, 2)),
    )


def test_ito_drift_constant_diffusion_has_no_correction():
    # b = J^-1 grad K_1 is constant, so the Stratonovich drift is the Ito one.
    K1 = ScalarField(
        value=lambda z: 0.4 * z[..., 0] - 1.3 * z[..., 1],
        grad=lambda z: np.broadcast_to([0.4, -1.3], np.shape(z)),
        hess=lambda z: (np.broadcast_to([0.4, -1.3], np.shape(z)), np.zeros(np.shape(z) + (2,))),
    )
    system = _canonical_system(K1)
    z = np.array([0.3, -1.2])
    assert np.array_equal(system.ito_drift(z), drift_and_diffusions(system).drift(z))


def test_ito_drift_multiplicative_closed_form():
    # K_1 = |z|^2 / 2: b = J^-1 z, b' = J^-1 and b' b = J^-2 z = -z.
    K1 = ScalarField(
        value=lambda z: 0.5 * np.sum(z**2, axis=-1),
        grad=lambda z: z,
        hess=lambda z: (z, np.broadcast_to(np.eye(2), np.shape(z) + (2,))),
    )
    system = _canonical_system(K1)
    z = np.array([0.3, -1.2])
    a = drift_and_diffusions(system).drift(z)
    assert np.array_equal(system.ito_drift(z), a - 0.5 * z)


def test_ito_drift_needs_the_noise_hessian():
    K1 = ScalarField(value=lambda z: z[..., 0], grad=lambda z: np.broadcast_to([1.0, 0.0], np.shape(z)))
    with pytest.raises(ValueError, match="Hessian"):
        _canonical_system(K1).ito_drift(np.array([1.0, 0.5]))


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
    states = integrate(step, rb.REFERENCE_Y0, noise)
    assert np.max(np.abs(rb.CASIMIR.value(states) - 0.5)) < 1e-10


def test_midpoint_path_rigid_body_fine_run_conserves_casimir():
    # The windowed reference keeps the step-by-step bound of the test above.
    system = rb.system(rb.REFERENCE_PARAMS)
    noise = sample_increments(TimeGrid(0.0, 1.0, 100_000), 1, 11)
    states = midpoint_path(system, rb.REFERENCE_Y0, noise)
    assert np.max(np.abs(rb.CASIMIR.value(states) - 0.5)) < 1e-10


_ROOT = Path(__file__).resolve().parents[1]
_PATH_SYSTEMS = {
    "srb": lambda: (rb.system(rb.REFERENCE_PARAMS), rb.REFERENCE_Y0),
    "slv": lambda: (lv.system(lv.REFERENCE_PARAMS), lv.REFERENCE_Y0),
    "srb_custom": lambda: (load_custom_system(str(_ROOT / "bench" / "srb_custom.txt")).system,
                           np.array([0.7, 0.3, 0.2])),
    "two_rigid_bodies": lambda: (load_custom_system(str(_ROOT / "tests" / "two_rigid_bodies.txt")).system,
                                 np.array([0.7, 0.3, 0.2, 0.4, 0.5, 0.6])),
}


@pytest.mark.parametrize("name", sorted(_PATH_SYSTEMS))
@pytest.mark.parametrize("h, n", [(0.01, 50), (0.001, 300)])
def test_midpoint_path_agrees_with_stepping(name, h, n):
    system, y0 = _PATH_SYSTEMS[name]()
    noise = sample_increments(TimeGrid(0.0, h * n, n), system.n_noise, 2024)
    path = midpoint_path(system, y0, noise)
    assert path.shape == (n + 1, len(y0))
    assert np.max(np.abs(path - integrate(reference_stepper(system), y0, noise))) < 1e-11
    assert np.array_equal(path, midpoint_path(system, y0, noise))  # reruns repeat every bit


def test_midpoint_path_solves_windows_without_stepping(monkeypatch):
    # 300 steps at h = 0.001 are three windows of 100, each one fixed_point call.
    calls = []
    solve = sde_module.fixed_point
    monkeypatch.setattr(sde_module, "fixed_point", lambda *args: calls.append(args[1].shape) or solve(*args))
    monkeypatch.setattr(sde_module, "midpoint_step", None)
    system = rb.system(rb.REFERENCE_PARAMS)
    midpoint_path(system, rb.REFERENCE_Y0, sample_increments(TimeGrid(0.0, 0.3, 300), 1, 3))
    assert calls == [(300,)] * 3


_ALPHAS = {"alpha=0": 0.0, "alpha=0.5": 0.5, "alpha=1": 1.0, "alpha=stack": (0.0, 0.5, 1.0)}
_SCHEMES = ["midpoint", "iem", *_ALPHAS]


def _path_and_step(scheme, name):
    """(path solver, one-step map, start, size of the iterated coordinates)
    of a scheme on the srb or slv model; the stack starts from (3, d)."""
    mod = {"srb": rb, "slv": lv}[name]
    model = mod.model(mod.REFERENCE_PARAMS, mod.REFERENCE_Y0)
    system, y0 = model.system, model.y0
    if scheme == "midpoint":
        return (lambda y, noise: midpoint_path(system, y, noise)), reference_stepper(system), y0, 3
    if scheme == "iem":
        return iem_path(system), iem_stepper(system), y0, 3
    config = AlphaSchemeConfig(_ALPHAS[scheme])
    start = np.broadcast_to(y0, (3, 3)) if scheme == "alpha=stack" else y0
    return alpha_path(model, y0, config), alpha_scheme(model, y0, config), start, 2


@pytest.mark.parametrize("name", ["srb", "slv"])
@pytest.mark.parametrize("scheme", _SCHEMES)
def test_one_step_window_is_the_step(scheme, name):
    path, step, y0, _ = _path_and_step(scheme, name)
    for seed in range(20):
        noise = sample_increments(TimeGrid(0.0, 0.01, 1), 1, seed)
        assert np.array_equal(path(y0, noise)[1], step(y0, 0.01, noise.values[0]))


@pytest.mark.parametrize("name", ["srb", "slv"])
@pytest.mark.parametrize("scheme", _SCHEMES)
def test_path_whose_long_windows_all_fail_is_the_stepped_path(scheme, name, monkeypatch):
    # Every window longer than one step raises, so each of the five windows
    # of 10 steps is solved again one step per window.
    path, step, y0, d = _path_and_step(scheme, name)
    solve, failed = sde_module.fixed_point, []

    def long_windows_fail(update, x0, tol, max_iter):
        if x0.shape[-1] > d:
            failed.append(x0.shape)
            raise NonConvergenceError("window refused", 1.0)
        return solve(update, x0, tol, max_iter)

    monkeypatch.setattr(sde_module, "fixed_point", long_windows_fail)
    noise = sample_increments(TimeGrid(0.0, 0.5, 50), 1, 7)
    assert np.array_equal(path(y0, noise), integrate(step, y0, noise))
    assert len(failed) == 5


@pytest.mark.parametrize("path, step, index", [
    (midpoint_path, midpoint_step, 37),
    (implicit_euler_maruyama_path, implicit_euler_maruyama_step, 38),
], ids=["midpoint", "iem"])
def test_rerun_step_that_raises_any_error_is_an_integration_error_at_that_step(path, step, index):
    # y' = sqrt(y) dW: the increment -5 of step 37 (inside the window of
    # steps 30-39) takes the midpoint below 0, and implicit EM's next state.
    # The window's sweep turns NaN, a DivergenceError, and the step that
    # takes a square root of a negative number then raises a
    # FloatingPointError under the caller's settings.
    sde = SDE(lambda y: np.zeros_like(y), (np.sqrt,))
    values = np.full((100, 1), 0.01)
    values[37] = -5.0
    noise = WienerIncrements(TimeGrid(0.0, 1.0, 100), values)
    y0 = np.array([1.0])
    with np.errstate(invalid="raise"):
        with pytest.raises(IntegrationError) as stepped:
            integrate(lambda y, h, dw: step(sde, y, h, dw), y0, noise)
        with pytest.raises(IntegrationError) as windowed:
            path(sde, y0, noise)
    assert windowed.value.step_index == stepped.value.step_index == index
    assert type(windowed.value.__cause__) is FloatingPointError
    assert str(windowed.value) == str(stepped.value)


def test_midpoint_path_failure_is_the_stepping_failure():
    # y' = y o dW: the step's Picard map contracts by |dW| / 2, so the 5.0
    # at step 37 (inside the window of steps 30-39) never converges.
    sde = SDE(lambda y: np.zeros_like(y), (lambda y: y,))
    values = np.full((100, 1), 0.01)
    values[37] = 5.0
    noise = WienerIncrements(TimeGrid(0.0, 1.0, 100), values)
    y0 = np.array([1.0, 2.0])
    with pytest.raises(IntegrationError) as stepped:
        integrate(reference_stepper(sde), y0, noise)
    with pytest.raises(IntegrationError) as windowed:
        midpoint_path(sde, y0, noise)
    assert windowed.value.step_index == stepped.value.step_index == 37
    cause, expected = windowed.value.__cause__, stepped.value.__cause__
    assert type(cause) is type(expected) and isinstance(cause, StepError)
    assert np.array_equal(cause.mask, expected.mask)
    assert str(windowed.value) == str(stepped.value)


def test_midpoint_path_reruns_a_window_that_leaves_the_domain(monkeypatch):
    # Windows of 250 steps at h = 0.001: the sweeps leave the positive
    # octant, which the converged steps never do.
    monkeypatch.setattr(sde_module, "WINDOW_SPAN", 0.25)
    failures = []
    solve = sde_module.fixed_point

    def recorded(*args):
        try:
            return solve(*args)
        except StepError as exc:
            failures.append(type(exc))
            raise

    monkeypatch.setattr(sde_module, "fixed_point", recorded)
    system = lv.system(lv.REFERENCE_PARAMS)
    noise = sample_increments(TimeGrid(0.0, 0.5, 500), 1, 0)
    path = midpoint_path(system, lv.REFERENCE_Y0, noise)
    assert DomainError in failures
    assert np.array_equal(path, integrate(reference_stepper(system), lv.REFERENCE_Y0, noise))


def test_midpoint_path_keeps_a_failed_sweep_quiet():
    # dy = -3000 sinh(y) dt: each step contracts, but the sweeps over a window
    # of 1000 steps overshoot until sinh overflows, and the window is rerun.
    sde = SDE(lambda y: -3000.0 * np.sinh(y), (lambda y: np.zeros_like(y),))
    noise = sample_increments(TimeGrid(0.0, 0.1, 1000), 1, 0)
    y0 = np.array([0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = midpoint_path(sde, y0, noise)
    assert np.array_equal(path, integrate(reference_stepper(sde), y0, noise))


@pytest.mark.parametrize("name", sorted(_PATH_SYSTEMS))
@pytest.mark.parametrize("h, n", [(0.01, 50), (0.001, 300)])
def test_implicit_euler_maruyama_path_agrees_with_stepping(name, h, n):
    system, y0 = _PATH_SYSTEMS[name]()
    noise = sample_increments(TimeGrid(0.0, h * n, n), system.n_noise, 2024)
    path = iem_path(system)(y0, noise)
    assert path.shape == (n + 1, len(y0))
    assert np.max(np.abs(path - integrate(iem_stepper(system), y0, noise))) < 1e-11
    assert np.array_equal(path, iem_path(system)(y0, noise))  # reruns repeat every bit


def test_implicit_euler_maruyama_path_failure_is_the_stepping_failure():
    # dy = -300 y^3 dt + dW: the increment 5 of step 37 (inside the window of
    # steps 30-39) takes the state where h |a'(y)| is about 200, and that
    # step's solve fails.
    sde = SDE(lambda y: -300.0 * y**3, (lambda y: np.ones_like(y),))
    values = np.full((100, 1), 0.001)
    values[37] = 5.0
    noise = WienerIncrements(TimeGrid(0.0, 1.0, 100), values)
    y0 = np.array([0.0])
    with np.errstate(all="ignore"):
        with pytest.raises(IntegrationError) as stepped:
            integrate(lambda y, h, dw: implicit_euler_maruyama_step(sde, y, h, dw), y0, noise)
        with pytest.raises(IntegrationError) as windowed:
            implicit_euler_maruyama_path(sde, y0, noise)
    assert windowed.value.step_index == stepped.value.step_index == 37
    cause, expected = windowed.value.__cause__, stepped.value.__cause__
    assert type(cause) is type(expected) and isinstance(cause, StepError)
    assert np.array_equal(cause.mask, expected.mask)
    assert str(windowed.value) == str(stepped.value)


def test_implicit_euler_maruyama_path_reruns_a_window_that_leaves_the_domain(monkeypatch):
    # One window of 500 steps at h = 0.001: its sweeps leave the positive
    # octant, which the converged steps never do.
    monkeypatch.setattr(sde_module, "WINDOW_SPAN", 0.5)
    failures = []
    solve = sde_module.fixed_point

    def recorded(*args):
        try:
            return solve(*args)
        except StepError as exc:
            failures.append(type(exc))
            raise

    monkeypatch.setattr(sde_module, "fixed_point", recorded)
    system = lv.system(lv.REFERENCE_PARAMS)
    noise = sample_increments(TimeGrid(0.0, 0.5, 500), 1, 0)
    path = iem_path(system)(lv.REFERENCE_Y0, noise)
    assert DomainError in failures
    assert np.array_equal(path, integrate(iem_stepper(system), lv.REFERENCE_Y0, noise))


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


# A NaN/Inf in each column of a 3-column row, alone or beside a larger finite
# delta in the next column of the same row.
_BAD_COLUMN_CASES = [
    pytest.param(
        bad, col, jump, id=f"{bad}" + (f"-col{col}" if col else "") + ("-beside_larger_finite" if jump else "")
    )
    for bad in (np.nan, np.inf, -np.inf)
    for col in range(3)
    for jump in (0.0, 1e3)
]


@pytest.mark.parametrize("bad, col, jump", _BAD_COLUMN_CASES)
def test_fixed_point_keeps_converged_rows_frozen(bad, col, jump):
    # Row 0 is a fixed point at once; afterwards its update puts ``bad`` in
    # column ``col`` and moves the next column by ``jump``.
    calls = 0

    def update(x):
        nonlocal calls
        calls += 1
        out = 0.5 * x
        out[0] = x[0]
        if calls > 1:
            out[0, col] = bad
            out[0, (col + 1) % 3] += jump
        return out

    x = fixed_point(update, np.array([[1.0, 2.0, 3.0], [1.0, -1.0, 0.5]]), 1e-12, 100)
    assert calls > 2
    assert np.array_equal(x[0], [1.0, 2.0, 3.0])
    assert np.max(np.abs(x[1])) < 1e-11


@pytest.mark.parametrize("bad, col, jump", _BAD_COLUMN_CASES)
def test_fixed_point_non_finite_active_row_raises_with_its_mask(bad, col, jump):
    # Row 0 converges at once and turns NaN afterwards; row 1 turns bad later,
    # in column ``col``, while the next column moves by ``jump``.
    calls = 0

    def update(x):
        nonlocal calls
        calls += 1
        out = 0.5 * x
        out[0] = x[0] if calls == 1 else np.nan
        if calls == 3:
            out[1, col] = bad
            out[1, (col + 1) % 3] += jump
        return out

    with pytest.raises(DivergenceError) as info:
        fixed_point(update, np.ones((3, 3)), 1e-12, 100)
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


def _contraction(a, b):
    """x -> b + a x / (1 + x^2), entrywise; only correctly rounded operations,
    so a row's iterates do not depend on the batch it runs in."""
    return lambda x: b + a * x / (1.0 + x * x)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("lead", [(), (4,), (2, 3)], ids=["unbatched", "4", "2x3"])
def test_fixed_point_batch_equals_each_row_alone(lead, n):
    # Contraction rates from 0.01 to 0.9 make the rows converge at different
    # iterations, so the batch freezes rows while others still move.
    rng = np.random.default_rng(13)
    a = rng.uniform(0.01, 0.9, lead + (n,))
    b = rng.uniform(-1.0, 1.0, lead + (n,))
    x0 = rng.uniform(-2.0, 2.0, lead + (n,))
    batch = fixed_point(_contraction(a, b), x0, 1e-12, 100)
    iters = set()
    for idx in np.ndindex(lead):
        calls = 0

        def counted(x, f=_contraction(a[idx], b[idx])):
            nonlocal calls
            calls += 1
            return f(x)

        alone = fixed_point(counted, x0[idx], 1e-12, 100)
        assert alone.shape == (n,)
        assert batch[idx].tobytes() == alone.tobytes()
        iters.add(calls)
    if lead:
        assert len(iters) > 1


@pytest.mark.parametrize("max_iter", [0, -1])
def test_fixed_point_rejects_max_iter_below_one(max_iter):
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        fixed_point(lambda x: x, np.ones(3), 1e-12, max_iter)


@pytest.mark.parametrize("x0", [np.float64(1.0), np.ones((4, 0))], ids=["0-d", "empty_state"])
def test_fixed_point_needs_a_state_axis(x0):
    with pytest.raises(ValueError, match="x0 needs a last axis holding the state"):
        fixed_point(lambda x: x, x0, 1e-12, 100)


def _srb_alpha_scheme(alpha):
    from spoisson.alpha_gf import AlphaSchemeConfig
    from spoisson.canonical import alpha_scheme

    model = rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0)
    return alpha_scheme(model, model.y0, AlphaSchemeConfig(alpha))


def _same_estimates(a, b):
    assert list(a) == list(b)
    for name in a:
        assert np.array_equal(a[name].step_sizes, b[name].step_sizes)
        assert np.array_equal(a[name].errors, b[name].errors)
        assert (a[name].slope, a[name].n_samples, a[name].n_dropped) == (
            b[name].slope, b[name].n_samples, b[name].n_dropped)


def test_ms_error_many_stacked_entry_equals_separate_entries():
    sys = rb.system(rb.REFERENCE_PARAMS)
    ref = lambda y, h, dw: midpoint_step(sys, y, h, dw)
    alphas, names = (0.0, 0.5, 1.0), ("a0", "a05", "a1")
    args = (ref, 1, rb.REFERENCE_Y0, 0.16, [0.02, 0.04], 9, 3)
    separate = ms_error_many({n: _srb_alpha_scheme(a) for n, a in zip(names, alphas)}, *args)
    stacked = ms_error_many({names: _srb_alpha_scheme(alphas)}, *args)
    _same_estimates(stacked, separate)


def test_ms_error_many_drop_in_one_block_drops_the_sample_from_every_column():
    sys = rb.system(rb.REFERENCE_PARAMS)
    ref = lambda y, h, dw: midpoint_step(sys, y, h, dw)

    def failing(y, h, dw):
        # fails on the samples whose first increment is positive (pure in (y, dw))
        bad = (y[..., 1] == rb.REFERENCE_Y0[1]) & (dw[..., 0] > 0)
        if np.any(bad):
            raise NonConvergenceError("synthetic failure", 1.0, mask=bad)
        return midpoint_step(sys, y, h, dw)

    def stacked(y, h, dw):  # block 0 never fails, block 1 fails as `failing`
        out = np.stack([midpoint_step(sys, y[0], h, dw), y[1]])
        try:
            out[1] = failing(y[1], h, dw)
        except NonConvergenceError as exc:
            mask = np.stack([np.zeros_like(exc.mask), exc.mask])
            raise NonConvergenceError("block 1", 1.0, mask=mask) from exc
        return out

    plain = lambda y, h, dw: midpoint_step(sys, y, h, dw)
    args = (ref, 1, rb.REFERENCE_Y0, 0.2, [0.02, 0.04], 8, 5)
    kw = dict(ref_factor=2, on_sample_error="drop")
    got = ms_error_many({("plain", "failing"): stacked}, *args, **kw)
    want = ms_error_many({"plain": plain, "failing": failing}, *args, **kw)
    assert 1 <= got["plain"].n_dropped < 8
    _same_estimates(got, want)
    with pytest.raises(NonConvergenceError):
        ms_error_many({("plain", "failing"): stacked}, *args, ref_factor=2)


@pytest.mark.parametrize("name", ["srb", "slv"])
def test_recorded_functional_is_called_once_on_all_states(name):
    # casimir_experiment calls the Casimir once per scheme, on all its states.
    from spoisson.experiments import casimir_experiment, em_stepper

    mod = {"srb": rb, "slv": lv}[name]
    sys = mod.system(mod.REFERENCE_PARAMS)
    grid = TimeGrid(0.0, 0.5, 50)
    calls = []
    C = sys.casimirs[0]
    counted = replace(C, value=lambda ys: calls.append(ys.shape) or C.value(ys))
    em = em_stepper(sys)
    stacked = lambda y, h, dw: np.stack([em(y[0], h, dw), em(y[1], h, dw)])
    schemes = {"em": functools.partial(integrate, em), ("a", "b"): functools.partial(integrate, stacked)}
    result = casimir_experiment(replace(sys, casimirs=(counted,)), schemes, mod.REFERENCE_Y0, grid, 4)
    assert calls == [(51, 3), (51, 2, 3)]
    states = integrate(em, mod.REFERENCE_Y0, sample_increments(grid, 1, 4))
    for column in ("em", "a", "b"):
        assert np.array_equal(result.columns[column][:, 0], np.stack([C.value(y) for y in states]))


@pytest.mark.parametrize("ref_factor", [0, -3])
def test_reference_runs_reject_ref_factor_below_one(ref_factor):
    from spoisson.experiments import paths_experiment

    sys = rb.system(rb.REFERENCE_PARAMS)
    step = lambda y, h, dw: midpoint_step(sys, y, h, dw)
    match = f"ref_factor must be >= 1, got {ref_factor}"
    with pytest.raises(ValueError, match=match):
        ms_error_many({"s": step}, step, 1, rb.REFERENCE_Y0, 0.08, [0.01], 2, 0, ref_factor=ref_factor)
    with pytest.raises(ValueError, match=match):
        paths_experiment(sys, {"s": step}, rb.REFERENCE_Y0, TimeGrid(0.0, 0.08, 8), 0, ref_factor=ref_factor)
