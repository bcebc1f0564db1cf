import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spoisson import alpha_gf
from spoisson.alpha_gf import (
    AlphaSchemeConfig,
    alpha_step,
    sbar_gradient,
)
from spoisson.canonical import CanonicalSHS, j_inverse, make_alpha_stepper
from spoisson.custom import load_custom_system
from spoisson.noise import TruncationPolicy
from spoisson.experiments import em_stepper
from spoisson.poisson import PoissonSystem, ScalarField, poisson_map_residual
from spoisson.sde import (
    DivergenceError,
    NonConvergenceError,
    SDE,
    midpoint_step,
)
from spoisson.models import lotka_volterra as lv
from spoisson.models import rigid_body as rb

from transcriptions import mixed_point_update, srb_update


def _shs(h0, h1):
    return CanonicalSHS((h0, h1))


def _zero_field():
    return ScalarField(
        value=lambda z: np.zeros(np.shape(z)[:-1]),
        grad=lambda z: np.zeros(np.shape(z)),
        hess=lambda z: (np.zeros(np.shape(z)), np.zeros(np.shape(z) + (2,))),
    )


def _poly_field():
    # H(P, Q) = P Q^2; hand-coded derivatives
    def grad(z):
        p, q = z[..., 0], z[..., 1]
        return np.stack([q**2, 2 * p * q], axis=-1)

    def hess(z):
        p, q = z[..., 0], z[..., 1]
        zero = np.zeros_like(p)
        return grad(z), np.stack(
            [
                np.stack([zero, 2 * q], axis=-1),
                np.stack([2 * q, 2 * p], axis=-1),
            ],
            axis=-2,
        )

    return ScalarField(value=lambda z: z[..., 0] * z[..., 1] ** 2, grad=grad, hess=hess)


def _quad_field():
    # H(P, Q) = P^2 Q
    def grad(z):
        p, q = z[..., 0], z[..., 1]
        return np.stack([2 * p * q, p**2], axis=-1)

    def hess(z):
        p, q = z[..., 0], z[..., 1]
        return grad(z), np.stack(
            [
                np.stack([2 * q, 2 * p], axis=-1),
                np.stack([2 * p, np.zeros_like(p)], axis=-1),
            ],
            axis=-2,
        )

    return ScalarField(value=lambda z: z[..., 0] ** 2 * z[..., 1], grad=grad, hess=hess)


def test_config_validation():
    with pytest.raises(ValueError):
        AlphaSchemeConfig(alpha=1.5)
    with pytest.raises(ValueError):
        AlphaSchemeConfig(alpha=0.5, tol=0.0)


def test_sbar_gradient_alpha_half_skips_hessian():
    h0 = _quad_field()
    h1 = ScalarField(value=h0.value, grad=h0.grad, hess=None)
    g = sbar_gradient(_shs(h0, h1), np.array([0.4, 0.8]), 0.01, 0.05, 0.5)
    # plain H0 h + H1 dW gradient
    grad = h0.grad(np.array([0.4, 0.8]))
    assert np.allclose(g[:1], grad[:1] * 0.01 + grad[:1] * 0.05, atol=1e-15)
    assert np.allclose(g[1:], grad[1:] * 0.01 + grad[1:] * 0.05, atol=1e-15)


def test_sbar_gradient_requires_hessian_off_center():
    h0 = _quad_field()
    h1 = ScalarField(value=h0.value, grad=h0.grad, hess=None)
    with pytest.raises(ValueError):
        sbar_gradient(_shs(h0, h1), np.array([0.4, 0.8]), 0.01, 0.05, 0.3)


def test_sbar_gradient_zero_noise_hamiltonian_reduces_to_theta_scheme():
    h0 = _quad_field()
    g = sbar_gradient(_shs(h0, _zero_field()), np.array([0.4, 0.8]), 0.02, 0.3, 0.1)
    grad = h0.grad(np.array([0.4, 0.8]))
    assert np.allclose(g[:1], grad[:1] * 0.02, atol=1e-15)
    assert np.allclose(g[1:], grad[1:] * 0.02, atol=1e-15)


def test_sbar_gradient_hand_expanded_polynomial_oracle():
    # H0 = P^2 Q, H1 = P Q^2:
    #   G = (dH1/dQ)(dH1/dP) = 2 P Q * Q^2 = 2 P Q^3
    #   dSbar/dP = 2 P Q h + Q^2 dW + (2a-1)(dW^2/2) 2 Q^3
    #   dSbar/dQ = P^2 h + 2 P Q dW + (2a-1)(dW^2/2) 6 P Q^2
    h, dw = 0.01, 0.07
    rng = np.random.default_rng(0)
    shs = _shs(_quad_field(), _poly_field())
    for alpha in (0.0, 0.25, 0.8, 1.0):
        p, q = rng.uniform(-1, 1), rng.uniform(-1, 1)
        g = sbar_gradient(shs, np.array([p, q]), h, dw, alpha)
        c = (2 * alpha - 1) * 0.5 * dw**2
        assert g[0] == pytest.approx(2 * p * q * h + q**2 * dw + c * 2 * q**3, abs=1e-14)
        assert g[1] == pytest.approx(p**2 * h + 2 * p * q * dw + c * 6 * p * q**2, abs=1e-14)


def test_alpha_step_zero_hamiltonians_is_identity():
    shs = _shs(_zero_field(), _zero_field())
    z = np.array([0.3, -0.4])
    out = alpha_step(shs, z, 0.1, 0.2, AlphaSchemeConfig(alpha=0.7))
    assert np.array_equal(out, z)


def _linear_shs():
    H = ScalarField(
        value=lambda z: 0.5 * np.sum(np.asarray(z) ** 2, axis=-1),
        grad=lambda z: np.asarray(z, dtype=float),
        hess=lambda z: (np.asarray(z, dtype=float), np.broadcast_to(np.eye(2), np.shape(z) + (2,))),
    )
    return _shs(H, _zero_field())


def test_alpha_half_linear_is_cayley_rotation():
    # Midpoint on dZ = J^-1 Z dt is the Cayley map
    # (I - h A / 2)^-1 (I + h A / 2) with A = J^-1.
    shs = _linear_shs()
    h = 0.05
    A = j_inverse(1)
    M = np.linalg.solve(np.eye(2) - 0.5 * h * A, np.eye(2) + 0.5 * h * A)
    z = np.array([0.8, -0.3])
    out = alpha_step(shs, z, h, 0.0, AlphaSchemeConfig(alpha=0.5))
    assert np.allclose(out, M @ z, atol=1e-11)
    # the Cayley matrix is exactly symplectic
    Jinv = j_inverse(1)
    assert np.max(np.abs(M @ Jinv @ M.T - Jinv)) < 1e-12


def test_alpha_step_divergence_error():
    # H = exp(5 (P + Q)) with alpha = 0 feeds the update back into the mixed
    # point, so iterates blow up past the float range.
    def grad(z):
        g = 5 * np.exp(5 * (z[..., 0] + z[..., 1]))
        return np.stack([g, g], axis=-1)

    H = ScalarField(
        value=lambda z: np.exp(5 * (z[..., 0] + z[..., 1])),
        grad=grad,
        hess=lambda z: (grad(z), np.zeros(np.shape(z) + (2,))),
    )
    shs = _shs(H, _zero_field())
    with np.errstate(over="ignore"), pytest.raises((DivergenceError, NonConvergenceError)):
        alpha_step(shs, np.array([1.0, 1.0]), 1.0, 0.0, AlphaSchemeConfig(alpha=0.0))


def test_alpha_step_nonconvergence_error():
    shs = _linear_shs()
    with pytest.raises(NonConvergenceError) as err:
        alpha_step(shs, np.array([1.0, 0.5]), 2.4, 0.0, AlphaSchemeConfig(alpha=0.5))
    assert err.value.residual > 0


def test_alpha_duality_adjoint_pairs():
    # step_alpha(h, dW) followed by step_{1-alpha}(-h, -dW) returns the start.
    shs = rb.transformed_shs(rb.REFERENCE_PARAMS, 0.5)
    tol = 1e-12
    rng = np.random.default_rng(11)
    for alpha in (0.0, 0.3, 0.5, 0.9):
        cfg_a = AlphaSchemeConfig(alpha=alpha, tol=tol)
        cfg_b = AlphaSchemeConfig(alpha=1.0 - alpha, tol=tol)
        for _ in range(5):
            z = np.array([rng.uniform(-0.6, 0.6), rng.uniform(-2, 2)])
            dw = math.sqrt(0.01) * rng.standard_normal()
            z1 = alpha_step(shs, z, 0.01, dw, cfg_a)
            z2 = alpha_step(shs, z1, -0.01, -dw, cfg_b)
            assert np.max(np.abs(z2 - z)) < 10 * tol


def test_alpha_half_matches_midpoint_on_canonical_system():
    shs = rb.transformed_shs(rb.REFERENCE_PARAMS, 0.5)
    Jinv = j_inverse(1)
    sde = SDE(
        drift=lambda z: np.einsum("ij,...j->...i", Jinv, shs.hamiltonians[0].grad(z)),
        diffusions=(lambda z: np.einsum("ij,...j->...i", Jinv, shs.hamiltonians[1].grad(z)),),
    )
    tol = 1e-12
    rng = np.random.default_rng(13)
    for _ in range(10):
        z = np.array([rng.uniform(-0.6, 0.6), rng.uniform(-2, 2)])
        dw = math.sqrt(0.01) * rng.standard_normal()
        za = alpha_step(shs, z, 0.01, dw, AlphaSchemeConfig(alpha=0.5, tol=tol))
        zm = midpoint_step(sde, z, 0.01, np.array([dw]), tol=tol)
        assert np.max(np.abs(za - zm)) < 10 * tol


def test_symplectic_residual_identity_map():
    assert poisson_map_residual(lambda z, h, dw: z, lambda z: j_inverse(1), np.array([0.1, 0.2]), 0.01, np.zeros(1)) < 1e-10


def test_symplectic_residual_alpha_vs_em():
    shs = rb.transformed_shs(rb.REFERENCE_PARAMS, 0.5)
    stepper = make_alpha_stepper(shs, AlphaSchemeConfig(alpha=0.25))
    Jinv = j_inverse(1)
    canonical = PoissonSystem(
        dim=2,
        structure=lambda z: np.broadcast_to(Jinv, np.shape(z)[:-1] + (2, 2)),
        hamiltonians=shs.hamiltonians,
        rank=2,
        structure_derivative=lambda z: np.zeros(np.shape(z)[:-1] + (2, 2, 2)),
    )
    em = em_stepper(canonical)
    rng = np.random.default_rng(17)
    h = 0.04  # largest experiment step: makes the EM defect clearly visible
    worst_alpha, worst_em = 0.0, 0.0
    for _ in range(20):
        z = np.array([rng.uniform(-0.6, 0.6), rng.uniform(-2, 2)])
        dw = math.sqrt(h) * rng.standard_normal(1)
        worst_alpha = max(worst_alpha, poisson_map_residual(stepper, lambda z: Jinv, z, h, dw, eps=1e-6))
        worst_em = max(worst_em, poisson_map_residual(em, lambda z: Jinv, z, h, dw, eps=1e-6))
    assert worst_alpha < 1e-6
    assert worst_em > 1e-3


def test_generic_update_matches_rigid_body_transcription():
    # Hand-expanded mixed-point update, written independently of sbar_gradient.
    params = rb.REFERENCE_PARAMS
    cas = 0.5
    shs = rb.transformed_shs(params, cas)
    rng = np.random.default_rng(19)
    for alpha in (0.0, 0.3, 0.5, 1.0):
        for _ in range(5):
            pbar, qbar = rng.uniform(-0.6, 0.6), rng.uniform(-2, 2)
            pn, qn = rng.uniform(-0.6, 0.6), rng.uniform(-2, 2)
            dw = 0.05
            p_g, q_g = mixed_point_update(shs, alpha, pbar, qbar, pn, qn, 0.01, dw)
            p_t, q_t = srb_update(params, cas, alpha, pbar, qbar, pn, qn, 0.01, dw)
            assert abs(p_g - p_t) < 1e-12
            assert abs(q_g - q_t) < 1e-12


def test_truncation_policy_travels_with_config():
    cfg = AlphaSchemeConfig(alpha=0.5, truncation=TruncationPolicy(k=2.0))
    assert cfg.truncation == TruncationPolicy(k=2.0)


SRB_CUSTOM = Path(__file__).resolve().parents[1] / "bench" / "srb_custom.txt"
# name -> (model factory, number of distinct fields among H_0, H_1)
FOLD_MODELS = {
    "srb": (lambda: rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0), 1),
    "slv": (lambda: lv.model(lv.REFERENCE_PARAMS, lv.REFERENCE_Y0), 1),
    "custom": (
        lambda: replace(load_custom_system(str(SRB_CUSTOM)), y0=np.array([0.7, 0.3, 0.2])), 2
    ),
}


def _counting(counts, name, fn):
    def wrapper(z):
        counts[name] += 1
        return fn(z)

    return wrapper


def _traced_shs(shs, counts):
    """The SHS with counted derivatives swapped in through dataclasses.replace,
    as a tracing wrapper does."""
    fields = tuple(
        replace(H, grad=_counting(counts, "grad", H.grad), hess=_counting(counts, "hess", H.hess))
        for H in shs.hamiltonians
    )
    return replace(shs, hamiltonians=fields)


def _chart_states(model, seed, n=16):
    rng = np.random.default_rng(seed)
    z0 = model.chart.forward(model.y0)[:2]
    return z0 + 0.05 * rng.standard_normal((n, 2)), 0.1 * rng.standard_normal(n)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", sorted(FOLD_MODELS))
def test_alpha_iteration_evaluates_each_field_once(name, alpha, monkeypatch):
    make, n_fields = FOLD_MODELS[name]
    model = make()
    counts, iterations = Counter(), Counter()
    solve = alpha_gf.fixed_point

    def counted_fixed_point(update, x0, tol, max_iter):
        return solve(_counting(iterations, "n", update), x0, tol, max_iter)

    monkeypatch.setattr(alpha_gf, "fixed_point", counted_fixed_point)
    zs, dws = _chart_states(model, 1, n=1)
    alpha_step(_traced_shs(model.shs(model.chart.levels(model.y0)), counts), zs[0], 0.01, dws[0], AlphaSchemeConfig(alpha))
    n = iterations["n"]
    assert n > 1
    # alpha != 1/2: one jet of the noise field, which also gives its gradient
    if alpha == 0.5:
        expected = {"grad": n_fields * n}
    else:
        expected = {"grad": (n_fields - 1) * n, "hess": n}
    assert dict(counts) == {key: count for key, count in expected.items() if count}


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", sorted(FOLD_MODELS))
def test_traced_shs_steps_bit_for_bit(name, alpha):
    model = FOLD_MODELS[name][0]()
    shs = model.shs(model.chart.levels(model.y0))
    zs, dws = _chart_states(model, 2)
    config = AlphaSchemeConfig(alpha)
    traced = alpha_step(_traced_shs(shs, Counter()), zs, 0.01, dws, config)
    assert np.array_equal(traced, alpha_step(shs, zs, 0.01, dws, config))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", sorted(FOLD_MODELS))
def test_folded_alpha_step_matches_unfolded_formula(name, alpha):
    model = FOLD_MODELS[name][0]()
    shs = model.shs(model.chart.levels(model.y0))
    # without the base link every Hamiltonian is a field of its own: h grad H_0 + dW grad H_1
    unfolded = replace(shs, hamiltonians=tuple(replace(H, base=None) for H in shs.hamiltonians))
    assert len(unfolded.fold[0]) == 2
    zs, dws = _chart_states(model, 3)
    config = AlphaSchemeConfig(alpha)
    a, b = alpha_step(shs, zs, 0.01, dws, config), alpha_step(unfolded, zs, 0.01, dws, config)
    assert np.all(np.linalg.norm(a - b, axis=-1) <= 1e-14 * np.linalg.norm(b, axis=-1))


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("alphas", [(0.0, 0.5, 1.0), (0.25, 1.0)])
@pytest.mark.parametrize("name", sorted(FOLD_MODELS))
def test_stacked_alpha_step_blocks_equal_single_alpha_runs(name, alphas, n):
    model = FOLD_MODELS[name][0]()
    shs = model.shs(model.chart.levels(model.y0))
    zs, dws = _chart_states(model, 4, n=n)
    stacked = np.broadcast_to(zs, (len(alphas),) + zs.shape)  # (k, n, 2); the noise is shared
    blocks = alpha_step(shs, stacked, 0.01, dws, AlphaSchemeConfig(alphas))
    assert blocks.shape == stacked.shape
    for alpha, block in zip(alphas, blocks):
        assert np.array_equal(block, alpha_step(shs, zs, 0.01, dws, AlphaSchemeConfig(alpha)))


def test_stacked_alpha_of_one_value_is_that_alpha():
    # all blocks alpha = 1/2: no Hessian, as for the float
    model = FOLD_MODELS["srb"][0]()
    counts = Counter()
    shs = _traced_shs(model.shs(model.chart.levels(model.y0)), counts)
    zs, dws = _chart_states(model, 5, n=3)
    blocks = alpha_step(shs, np.stack([zs, zs]), 0.01, dws, AlphaSchemeConfig((0.5, 0.5)))
    assert "hess" not in counts
    single = alpha_step(shs, zs, 0.01, dws, AlphaSchemeConfig(0.5))
    assert np.array_equal(blocks[0], single) and np.array_equal(blocks[1], single)


def test_stacked_config_validation():
    AlphaSchemeConfig((0.0, 0.5, 1.0))
    for bad in ((), (0.0, 1.5), (-0.1,)):
        with pytest.raises(ValueError):
            AlphaSchemeConfig(bad)
