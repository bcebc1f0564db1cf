"""Acceptance suite: the headline behaviors of the integrators, one test per
criterion, each printing a PASS line with the measured numbers.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import math
import time

import numpy as np
import pytest

from spoisson.alpha_gf import AlphaSchemeConfig, j_inverse
from spoisson.canonical import alpha_scheme, alpha_scheme_map, make_alpha_stepper, verify_chart
from spoisson.experiments import em_stepper, iem_stepper, order_experiment
from spoisson.noise import TimeGrid, sample_increments, sample_seed
from spoisson.poisson import (
    ScalarField,
    check_jacobi,
    poisson_map_residual,
    variational_jacobian,
)
from spoisson.sde import fd_vector_jacobian, integrate, midpoint_step
from spoisson.poisson import drift_and_diffusions
from spoisson.models import lotka_volterra as lv
from spoisson.models import rigid_body as rb

from oracles import bracket
from transcriptions import mixed_point_update, slv_update, srb_update

SEED = 20240801
STEP_SIZES = (0.005, 0.01, 0.02, 0.04)
SLV_C2 = -2.1848020573377624


def _ok(name, detail):
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def srb_order_estimates():
    schemes = {
        alpha: alpha_scheme(
            rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0),
            rb.REFERENCE_Y0,
            AlphaSchemeConfig(alpha=alpha),
        )
        for alpha in (0.0, 0.5, 1.0)
    }
    schemes["spherical"] = rb.spherical_scheme(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0)
    return order_experiment(
        rb.system(rb.REFERENCE_PARAMS), schemes, rb.REFERENCE_Y0,
        10.0, STEP_SIZES, 500, SEED, ref_factor=8,
    )


@pytest.fixture(scope="module")
def slv_order_estimates():
    schemes = {
        alpha: alpha_scheme(
            lv.model(lv.REFERENCE_PARAMS, lv.REFERENCE_Y0),
            lv.REFERENCE_Y0,
            AlphaSchemeConfig(alpha=alpha),
        )
        for alpha in (0.0, 0.5, 1.0)
    }
    return order_experiment(
        lv.system(lv.REFERENCE_PARAMS), schemes, lv.REFERENCE_Y0,
        2.0, STEP_SIZES, 500, SEED, ref_factor=8,
    )


def test_criterion_1_casimir_preservation():
    # SRB, reference constants, alpha in {0, 1/2, 1}, h = 0.01, T = 100:
    # max |C - 1/2| < 1e-10, under 10 s per run.
    grid = TimeGrid(0.0, 100.0, 10_000)
    noise = sample_increments(grid, 1, SEED)
    drifts, times = [], []
    for alpha in (0.0, 0.5, 1.0):
        step = alpha_scheme(
            rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0),
            rb.REFERENCE_Y0,
            AlphaSchemeConfig(alpha=alpha),
        )
        start = time.perf_counter()
        states = integrate(step, rb.REFERENCE_Y0, grid, noise)
        elapsed = time.perf_counter() - start
        drift = float(np.max(np.abs(rb.CASIMIR.value(states) - 0.5)))
        assert drift < 1e-10
        assert elapsed < 10.0
        drifts.append(drift)
        times.append(elapsed)
    _ok(
        "criterion 1 (Casimir preservation)",
        f"max drift {max(drifts):.2e} < 1e-10, slowest run {max(times):.1f}s < 10s",
    )


def test_criterion_2_euler_maruyama_drifts():
    # Non-preservation controls: explicit EM on SRB by T = 500, explicit and
    # implicit EM on SLV by T = 10, all with h = 0.01.
    sys_rb = rb.system(rb.REFERENCE_PARAMS)
    grid = TimeGrid(0.0, 500.0, 50_000)
    noise = sample_increments(grid, 1, SEED)
    states = integrate(em_stepper(sys_rb), rb.REFERENCE_Y0, grid, noise)
    rb_drift = float(np.max(np.abs(rb.CASIMIR.value(states) - 0.5)))
    assert rb_drift > 1e-3

    sys_lv = lv.system(lv.REFERENCE_PARAMS)
    cas = lv.casimir(lv.REFERENCE_PARAMS)
    grid = TimeGrid(0.0, 10.0, 1_000)
    noise = sample_increments(grid, 1, SEED)
    lv_drifts = []
    for stepper in (em_stepper(sys_lv), iem_stepper(sys_lv)):
        states = integrate(stepper, lv.REFERENCE_Y0, grid, noise)
        lv_drifts.append(float(np.max(np.abs(cas.value(states) - SLV_C2))))
    assert min(lv_drifts) > 1e-3
    _ok(
        "criterion 2 (EM Casimir drift)",
        f"SRB EM drift {rb_drift:.2e}, SLV EM/IEM drifts "
        f"{lv_drifts[0]:.2e}/{lv_drifts[1]:.2e}, all > 1e-3",
    )


def test_criterion_3_mean_square_order(srb_order_estimates, slv_order_estimates):
    slopes = {}
    for name, est in srb_order_estimates.items():
        slopes[f"srb {name}"] = est.slope
    for name, est in slv_order_estimates.items():
        slopes[f"slv {name}"] = est.slope
    for name, slope in slopes.items():
        assert 0.85 <= slope <= 1.15, f"{name}: slope {slope}"
    detail = ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
    _ok("criterion 3 (mean-square order 1)", detail)


def test_criterion_4_alpha_ordering(srb_order_estimates, slv_order_estimates):
    for label, ests in (("srb", srb_order_estimates), ("slv", slv_order_estimates)):
        e0, e5, e1 = ests[0.0].errors, ests[0.5].errors, ests[1.0].errors
        assert np.all(e5 <= e0), f"{label}: alpha=1/2 not best vs alpha=0"
        assert np.all(e5 <= e1), f"{label}: alpha=1/2 not best vs alpha=1"
    e0, e1 = srb_order_estimates[0.0].errors, srb_order_estimates[1.0].errors
    ratio = e0 / e1
    assert np.all(ratio > 0.9) and np.all(ratio < 1 / 0.9)
    _ok(
        "criterion 4 (alpha ordering)",
        f"alpha=1/2 smallest at every h; srb alpha=0 vs alpha=1 ratios "
        f"{np.min(ratio):.3f}..{np.max(ratio):.3f} within 10%",
    )


def _random_srb_states(rng, n=20):
    states = []
    while len(states) < n:
        y = rng.uniform(-2.5, 2.5, size=3)
        if y[0] ** 2 + y[2] ** 2 > 0.1:
            states.append(y)
    return states


def test_criterion_5_poisson_map_property():
    h, eps = 0.01, 1e-6
    rng = np.random.default_rng(SEED)

    sys_rb = rb.system(rb.REFERENCE_PARAMS)
    scheme_rb = alpha_scheme_map(
        rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0),
        AlphaSchemeConfig(alpha=0.5),
    )
    em_rb = em_stepper(sys_rb)
    worst_scheme, worst_em = 0.0, 0.0
    for y in _random_srb_states(rng):
        dw = math.sqrt(h) * rng.standard_normal(1)
        worst_scheme = max(worst_scheme, poisson_map_residual(scheme_rb, sys_rb.structure, y, h, dw, eps=eps))
        worst_em = max(worst_em, poisson_map_residual(em_rb, sys_rb.structure, y, h, dw, eps=eps))
    assert worst_scheme < 1e-6
    assert worst_em > 1e-3
    srb_detail = f"srb scheme {worst_scheme:.1e} < 1e-6, EM control {worst_em:.1e} > 1e-3"

    sys_lv = lv.system(lv.REFERENCE_PARAMS)
    scheme_lv = alpha_scheme_map(
        lv.model(lv.REFERENCE_PARAMS, lv.REFERENCE_Y0),
        AlphaSchemeConfig(alpha=0.5),
    )
    em_lv = em_stepper(sys_lv)
    worst_scheme, worst_em = 0.0, 0.0
    for _ in range(20):
        y = rng.uniform(0.3, 2.5, size=3)
        dw = math.sqrt(h) * rng.standard_normal(1)
        worst_scheme = max(worst_scheme, poisson_map_residual(scheme_lv, sys_lv.structure, y, h, dw, eps=eps))
        worst_em = max(worst_em, poisson_map_residual(em_lv, sys_lv.structure, y, h, dw, eps=eps))
    assert worst_scheme < 1e-6
    assert worst_em > 1e-3
    _ok(
        "criterion 5 (Poisson-map property)",
        srb_detail + f"; slv scheme {worst_scheme:.1e} < 1e-6, EM control {worst_em:.1e} > 1e-3",
    )


def test_criterion_6_symplecticity_of_canonical_schemes():
    h, eps = 0.01, 1e-6
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    cases = (
        ("srb", rb.transformed_shs(rb.REFERENCE_PARAMS, 0.5),
         lambda: np.array([rng.uniform(-0.9, 0.9), rng.uniform(-np.pi, np.pi)])),
        ("slv", lv.transformed_shs(lv.REFERENCE_PARAMS, SLV_C2),
         lambda: rng.uniform(-1.0, 1.0, size=2)),
    )
    for name, shs, draw in cases:
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            stepper = make_alpha_stepper(shs, AlphaSchemeConfig(alpha=alpha))
            for _ in range(20):
                z = draw()
                dw = math.sqrt(h) * rng.standard_normal(1)
                res = poisson_map_residual(stepper, lambda z: j_inverse(shs.n), z, h, dw, eps=eps)
                assert res < 1e-6, f"{name} alpha={alpha}: residual {res}"
                worst = max(worst, res)
    _ok("criterion 6 (symplecticity)", f"worst residual {worst:.1e} < 1e-6 over all alpha")


def test_criterion_7_structural_validators():
    rng = np.random.default_rng(SEED + 2)
    pts_rb = rng.uniform(-1.5, 1.5, size=(400, 3))
    pts_rb = pts_rb[pts_rb[:, 0] ** 2 + pts_rb[:, 2] ** 2 > 0.05][:100]
    pts_lv = rng.uniform(0.2, 2.5, size=(100, 3))

    sys_rb = rb.system(rb.REFERENCE_PARAMS)
    sys_lv = lv.system(lv.REFERENCE_PARAMS)
    j_rb = check_jacobi(sys_rb, pts_rb).max()
    j_lv = check_jacobi(sys_lv, pts_lv).max()
    assert j_rb < 1e-8 and j_lv < 1e-8

    chart_pts = pts_rb[rb.chart(0.5).domain(pts_rb)]
    c_rb = verify_chart(rb.chart(0.5), sys_rb, chart_pts).max()
    c_lv = verify_chart(lv.chart(lv.REFERENCE_PARAMS), sys_lv, pts_lv).max()
    assert c_rb < 1e-8 and c_lv < 1e-8

    # bracket antisymmetry and the Leibniz rule on B1
    S = rng.normal(size=(3, 3))
    F = ScalarField(
        value=lambda y: np.einsum("...i,ij,...j->...", y, S + S.T, y),
        grad=lambda y: 2 * np.einsum("ij,...j->...i", S + S.T, y),
    )
    G = rb.kinetic_energy(rb.REFERENCE_PARAMS)
    FG = ScalarField(
        value=lambda y: F.value(y) * G.value(y),
        grad=lambda y: F.value(y)[..., None] * G.grad(y) + G.value(y)[..., None] * F.grad(y),
    )
    H = rb.CASIMIR
    worst_anti, worst_leibniz = 0.0, 0.0
    for y in pts_rb[:20]:
        worst_anti = max(worst_anti, abs(bracket(F, G, sys_rb, y) + bracket(G, F, sys_rb, y)))
        worst_leibniz = max(
            worst_leibniz,
            abs(
                bracket(FG, H, sys_rb, y)
                - F.value(y) * bracket(G, H, sys_rb, y)
                + G.value(y) * bracket(H, F, sys_rb, y)
            ),
        )
    assert worst_anti < 1e-10 and worst_leibniz < 1e-10
    _ok(
        "criterion 7 (structural validators)",
        f"jacobi {max(j_rb, j_lv):.1e}, charts {max(c_rb, c_lv):.1e}, "
        f"antisymmetry {worst_anti:.1e}, Leibniz {worst_leibniz:.1e}",
    )


def test_criterion_8_positivity():
    # 100 seeds, h = 0.04, T = 10: every iterate of every run positive.
    step = alpha_scheme(
        lv.model(lv.REFERENCE_PARAMS, lv.REFERENCE_Y0),
        lv.REFERENCE_Y0,
        AlphaSchemeConfig(alpha=0.5),
    )
    grid = TimeGrid(0.0, 10.0, 250)
    values = np.stack(
        [sample_increments(grid, 1, sample_seed(SEED + 3, i)).values for i in range(100)],
        axis=1,
    )
    y = np.broadcast_to(lv.REFERENCE_Y0, (100, 3)).copy()
    minimum = float(np.min(y))
    for j in range(grid.n_steps):
        y = step(y, grid.h, values[j])
        minimum = min(minimum, float(np.min(y)))
    assert minimum > 0.0
    _ok("criterion 8 (positivity)", f"smallest component over 100 runs {minimum:.3e} > 0")


def test_criterion_9_oracle_equivalences():
    # (a) generic update vs hand-transcribed model displays
    rng = np.random.default_rng(SEED + 4)
    shs_rb = rb.transformed_shs(rb.REFERENCE_PARAMS, 0.5)
    shs_lv = lv.transformed_shs(lv.REFERENCE_PARAMS, SLV_C2)
    worst = 0.0
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for _ in range(10):
            pbar, qbar = rng.uniform(-0.6, 0.6), rng.uniform(-2, 2)
            pn, qn = rng.uniform(-0.6, 0.6), rng.uniform(-2, 2)
            dw = math.sqrt(0.01) * rng.standard_normal()
            pg, qg = mixed_point_update(shs_rb, alpha, pbar, qbar, pn, qn, 0.01, dw)
            pt, qt = srb_update(rb.REFERENCE_PARAMS, 0.5, alpha, pbar, qbar, pn, qn, 0.01, dw)
            worst = max(worst, abs(pg - pt), abs(qg - qt))

            pbar, qbar, pn, qn = rng.uniform(-1, 1, size=4)
            pg, qg = mixed_point_update(shs_lv, alpha, pbar, qbar, pn, qn, 0.01, dw)
            pt, qt = slv_update(lv.REFERENCE_PARAMS, SLV_C2, alpha, pbar, qbar, pn, qn, 0.01, dw)
            worst = max(worst, abs(pg - pt), abs(qg - qt))
    assert worst < 1e-10

    # (b) variational Jacobian vs fd Jacobian of the composed fine flow
    sys_rb = rb.system(rb.REFERENCE_PARAMS)
    sde = drift_and_diffusions(sys_rb)
    grid = TimeGrid(0.0, 0.1, 1000)
    noise = sample_increments(grid, 1, SEED + 5)
    Z = variational_jacobian(sys_rb, rb.REFERENCE_Y0, grid, noise)

    def flow(y, h, dw):
        y = np.asarray(y, dtype=float)
        for j in range(grid.n_steps):
            step_dw = np.broadcast_to(noise.values[j], y.shape[:-1] + (1,))
            y = midpoint_step(sde, y, grid.h, step_dw)
        return y

    M = fd_vector_jacobian(lambda y: flow(y, grid.h, np.zeros(1)), rb.REFERENCE_Y0, eps=1e-5)
    var_diff = float(np.max(np.abs(Z - M)))
    assert var_diff < 1e-4

    # (c) alpha = 1/2 equals the midpoint rule on the canonical system
    from spoisson.alpha_gf import alpha_step
    from spoisson.canonical import j_inverse
    from spoisson.sde import SDE

    tol = 1e-12
    Jinv = j_inverse(1)
    canon = SDE(
        drift=lambda z: np.einsum("ij,...j->...i", Jinv, shs_rb.hamiltonians[0].grad(z)),
        diffusions=(lambda z: np.einsum("ij,...j->...i", Jinv, shs_rb.hamiltonians[1].grad(z)),),
    )
    worst_mid = 0.0
    for _ in range(20):
        z = np.array([rng.uniform(-0.6, 0.6), rng.uniform(-2, 2)])
        dw = math.sqrt(0.01) * rng.standard_normal()
        za = alpha_step(shs_rb, z, 0.01, dw, AlphaSchemeConfig(alpha=0.5, tol=tol))
        zm = midpoint_step(canon, z, 0.01, np.array([dw]), tol=tol)
        worst_mid = max(worst_mid, float(np.max(np.abs(za - zm))))
    assert worst_mid < 10 * tol
    _ok(
        "criterion 9 (oracle equivalences)",
        f"transcriptions {worst:.1e} < 1e-10, variational vs fd {var_diff:.1e} < 1e-4, "
        f"alpha=1/2 vs midpoint {worst_mid:.1e} < 10*tol",
    )
