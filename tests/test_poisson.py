import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoisson import sde
from spoisson.canonical import j_inverse
from spoisson.custom import load_custom_system
from spoisson.noise import TimeGrid, sample_increments
from spoisson.poisson import (
    PoissonSystem,
    ScalarField,
    check_casimir,
    check_jacobi,
    check_skew,
    drift_and_diffusions,
    fold_fields,
    poisson_map_residual,
    scale_field,
    variational_jacobian,
)
from spoisson.sde import euler_maruyama_step, fd_vector_jacobian, midpoint_step
from spoisson.models import lotka_volterra as lv
from spoisson.models import rigid_body as rb

from oracles import bracket


def _constant_structure(mat):
    mat = np.asarray(mat, dtype=float)

    def structure(y):
        return np.broadcast_to(mat, np.shape(y)[:-1] + mat.shape)

    return structure


def _quadratic_field(S):
    """f(y) = y^T S y / 2 for symmetric S."""
    S = np.asarray(S, dtype=float)
    grad = lambda y: np.einsum("ij,...j->...i", S, y)
    return ScalarField(
        value=lambda y: 0.5 * np.einsum("...i,ij,...j->...", y, S, y),
        grad=grad,
        hess=lambda y: (grad(y), np.broadcast_to(S, np.shape(y)[:-1] + S.shape)),
    )


def _oscillator_system():
    H = _quadratic_field(np.eye(2))
    return PoissonSystem(
        dim=2,
        structure=_constant_structure(j_inverse(1)),
        hamiltonians=(H, _quadratic_field(0.5 * np.eye(2))),
        rank=2,
        structure_derivative=lambda y: np.zeros(np.shape(y)[:-1] + (2, 2, 2)),
    )


def _srb_points(n=100, seed=0, box=1.5):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(4 * n, 3))
    pts = pts[pts[:, 0] ** 2 + pts[:, 2] ** 2 > 0.05]
    return pts[:n]


def _slv_points(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 2.5, size=(n, 3))


def test_drift_harmonic_oscillator():
    sys = _oscillator_system()
    sde = drift_and_diffusions(sys)
    y = np.array([0.7, -0.2])  # (p, q)
    # B = [[0, -1], [1, 0]], grad K = y: a = (-q, p)
    assert np.allclose(sde.drift(y), [0.2, 0.7], atol=1e-15)


def test_drift_rigid_body_closed_form():
    # Independent oracle: a = (y2 y3 (1/i3 - 1/i2), y1 y3 (1/i1 - 1/i3),
    #                          y1 y2 (1/i2 - 1/i1)).
    params = rb.REFERENCE_PARAMS
    sde = drift_and_diffusions(rb.system(params))
    assert np.allclose(sde.drift(np.array([1.0, 0.0, 0.0])), np.zeros(3), atol=1e-16)
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = rng.uniform(-1, 1, size=3)
        oracle = np.array(
            [
                y[1] * y[2] * (1 / params.i3 - 1 / params.i2),
                y[0] * y[2] * (1 / params.i1 - 1 / params.i3),
                y[0] * y[1] * (1 / params.i2 - 1 / params.i1),
            ]
        )
        assert np.allclose(sde.drift(y), oracle, atol=1e-14)


def test_slv_noise_field_proportional_to_drift():
    params = lv.REFERENCE_PARAMS
    sde = drift_and_diffusions(lv.system(params))
    y = np.array([1.2, 0.8, 0.5])
    assert np.allclose(sde.diffusions[0](y), params.c2 * sde.drift(y), atol=1e-14)


def test_bracket_self_is_zero():
    sys = rb.system(rb.REFERENCE_PARAMS)
    F = rb.kinetic_energy(rb.REFERENCE_PARAMS)
    for y in _srb_points(10, seed=3):
        assert abs(bracket(F, F, sys, y)) < 1e-15


def test_bracket_canonical_pair():
    sys = _oscillator_system()
    P1 = ScalarField(value=lambda y: y[..., 0], grad=lambda y: np.broadcast_to([1.0, 0.0], np.shape(y)))
    Q1 = ScalarField(value=lambda y: y[..., 1], grad=lambda y: np.broadcast_to([0.0, 1.0], np.shape(y)))
    assert bracket(P1, Q1, sys, np.array([0.3, 0.4])) == pytest.approx(-1.0, abs=1e-15)


def test_bracket_bilinear_and_antisymmetric():
    sys = rb.system(rb.REFERENCE_PARAMS)
    rng = np.random.default_rng(5)
    S1 = rng.normal(size=(3, 3))
    S2 = rng.normal(size=(3, 3))
    F = _quadratic_field(S1 + S1.T)
    G = _quadratic_field(S2 + S2.T)
    H = rb.CASIMIR
    a, b = 0.7, -1.3

    combo = ScalarField(
        value=lambda y: a * F.value(y) + b * G.value(y),
        grad=lambda y: a * F.grad(y) + b * G.grad(y),
    )
    for y in _srb_points(20, seed=6):
        lhs = bracket(combo, H, sys, y)
        rhs = a * bracket(F, H, sys, y) + b * bracket(G, H, sys, y)
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))
        assert abs(bracket(F, G, sys, y) + bracket(G, F, sys, y)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=9, max_size=9),
    st.lists(st.floats(-3, 3), min_size=9, max_size=9),
    st.floats(0.3, 2.0),
    st.floats(-2.5, 2.5),
)
def test_bracket_antisymmetry_property(c1, c2, y1, y2):
    sys = rb.system(rb.REFERENCE_PARAMS)
    S1 = np.asarray(c1).reshape(3, 3)
    S2 = np.asarray(c2).reshape(3, 3)
    F = _quadratic_field(S1 + S1.T)
    G = _quadratic_field(S2 + S2.T)
    y = np.array([y1, y2, 0.4])
    lhs = bracket(F, G, sys, y)
    assert abs(lhs + bracket(G, F, sys, y)) < 1e-10 * (1 + abs(lhs))


def test_bracket_leibniz_rule():
    # {F G, H} = F {G, H} + G {F, H}  (= F {G, H} - G {H, F}).
    sys = rb.system(rb.REFERENCE_PARAMS)
    rng = np.random.default_rng(7)
    S1, S2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    F = _quadratic_field(S1 + S1.T)
    G = _quadratic_field(S2 + S2.T)
    H = rb.kinetic_energy(rb.REFERENCE_PARAMS)
    FG = ScalarField(
        value=lambda y: F.value(y) * G.value(y),
        grad=lambda y: F.value(y)[..., None] * G.grad(y) + G.value(y)[..., None] * F.grad(y),
    )
    for y in _srb_points(20, seed=8):
        resid = (
            bracket(FG, H, sys, y)
            - F.value(y) * bracket(G, H, sys, y)
            + G.value(y) * bracket(H, F, sys, y)
        )
        assert abs(resid) < 1e-10


def test_bracket_jacobi_identity_via_fd_gradients():
    sys = rb.system(rb.REFERENCE_PARAMS)
    rng = np.random.default_rng(9)
    S1, S2, S3 = (rng.normal(size=(3, 3)) for _ in range(3))
    F = _quadratic_field(S1 + S1.T)
    G = _quadratic_field(S2 + S2.T)
    H = _quadratic_field(S3 + S3.T)

    def nested(F1, F2):
        value = lambda y: bracket(F1, F2, sys, y)
        return ScalarField(value=value, grad=lambda y: fd_vector_jacobian(value, y))

    for y in _srb_points(10, seed=10):
        total = (
            bracket(nested(F, G), H, sys, y)
            + bracket(nested(G, H), F, sys, y)
            + bracket(nested(H, F), G, sys, y)
        )
        assert abs(total) < 1e-6


def test_check_skew_zero_for_valid_structures():
    assert check_skew(rb.system(rb.REFERENCE_PARAMS), _srb_points()).max() == 0.0
    assert check_skew(_oscillator_system(), np.zeros((5, 2))).max() == 0.0


def test_check_skew_detects_corruption():
    sysm = rb.system(rb.REFERENCE_PARAMS)
    corrupted = PoissonSystem(
        dim=3,
        structure=lambda y: sysm.structure(y) + np.eye(3),
        hamiltonians=sysm.hamiltonians,
        rank=2,
        structure_derivative=sysm.structure_derivative,
    )
    report = check_skew(corrupted, _srb_points(20))
    assert report.max() >= 2.0


def test_check_jacobi_constant_structure():
    assert check_jacobi(_oscillator_system(), np.zeros((5, 2))).max() == 0.0


def test_check_jacobi_builtin_models():
    assert check_jacobi(rb.system(rb.REFERENCE_PARAMS), _srb_points()).max() < 1e-8
    assert check_jacobi(lv.system(lv.REFERENCE_PARAMS), _slv_points()).max() < 1e-8


def test_check_jacobi_detects_violation():
    # b12 = y1^2 with the rigid-body pattern elsewhere breaks the cyclic sum.
    def structure(y):
        B = rb._structure(y)
        out = np.array(B, dtype=float, copy=True)
        out[..., 0, 1] = y[..., 0] ** 2
        out[..., 1, 0] = -(y[..., 0] ** 2)
        return out

    def structure_derivative(y):
        dB = np.array(rb._structure_derivative(y), dtype=float, copy=True)
        dB[..., 0, 1, :] = 0.0
        dB[..., 1, 0, :] = 0.0
        dB[..., 0, 1, 0] = 2.0 * y[..., 0]
        dB[..., 1, 0, 0] = -2.0 * y[..., 0]
        return dB

    sysm = PoissonSystem(
        dim=3,
        structure=structure,
        hamiltonians=rb.system(rb.REFERENCE_PARAMS).hamiltonians,
        rank=2,
        structure_derivative=structure_derivative,
    )
    report = check_jacobi(sysm, _srb_points(50, seed=12))
    assert report.max() > 0.1


def test_check_casimir_builtin_models():
    assert check_casimir(rb.CASIMIR, rb.system(rb.REFERENCE_PARAMS), _srb_points()).max() < 1e-13
    params = lv.REFERENCE_PARAMS
    assert check_casimir(lv.casimir(params), lv.system(params), _slv_points()).max() < 1e-13


def test_hamiltonian_is_not_a_casimir():
    sysm = rb.system(rb.REFERENCE_PARAMS)
    report = check_casimir(rb.kinetic_energy(rb.REFERENCE_PARAMS), sysm, np.array([[1.0, 2.0, 3.0]]))
    assert report.max() > 0.1


def test_fd_step_jacobian_identity_and_linear_maps():
    identity = lambda y, h, dw: y
    J = fd_vector_jacobian(lambda y: identity(y, 0.1, np.zeros(1)), np.array([0.3, -0.7]), eps=1e-6)
    assert np.allclose(J, np.eye(2), atol=1e-12)

    M = np.array([[1.0, 2.0], [-0.5, 0.25]])
    linear = lambda y, h, dw: np.einsum("ij,...j->...i", M, y)
    J = fd_vector_jacobian(lambda y: linear(y, 0.1, np.zeros(1)), np.array([0.3, -0.7]), eps=1e-6)
    assert np.allclose(J, M, atol=1e-9)


def test_variational_jacobian_zero_hamiltonians_is_identity():
    zero = ScalarField(
        value=lambda y: np.zeros(np.shape(y)[:-1]),
        grad=lambda y: np.zeros(np.shape(y)),
        hess=lambda y: (np.zeros(np.shape(y)), np.zeros(np.shape(y) + (3,))),
    )
    sysm = PoissonSystem(
        dim=3,
        structure=rb._structure,
        hamiltonians=(zero, zero),
        rank=2,
        structure_derivative=rb._structure_derivative,
    )
    grid = TimeGrid(0.0, 1.0, 10)
    noise = sample_increments(grid, 1, 0)
    Z = variational_jacobian(sysm, np.array([1.0, 0.5, -0.5]), grid, noise)
    assert np.allclose(Z, np.eye(3), atol=1e-14)


def test_variational_jacobian_linear_shs_is_symplectic():
    sysm = _oscillator_system()
    grid = TimeGrid(0.0, 1.0, 200)
    noise = sample_increments(grid, 1, 21)
    M = variational_jacobian(sysm, np.array([0.4, -0.9]), grid, noise)
    Jinv = j_inverse(1)
    assert np.max(np.abs(M @ Jinv @ M.T - Jinv)) < 1e-8
    assert abs(np.linalg.det(M) - 1.0) < 1e-8


def test_variational_jacobian_matches_fd_of_composed_flow():
    sysm = rb.system(rb.REFERENCE_PARAMS)
    sde = drift_and_diffusions(sysm)
    grid = TimeGrid(0.0, 0.1, 1000)
    noise = sample_increments(grid, 1, 5)
    Z = variational_jacobian(sysm, rb.REFERENCE_Y0, grid, noise)

    def flow(y, h, dw):
        y = np.asarray(y, dtype=float)
        for j in range(grid.n_steps):
            step_dw = np.broadcast_to(noise.values[j], y.shape[:-1] + (1,))
            y = midpoint_step(sde, y, grid.h, step_dw)
        return y

    M = fd_vector_jacobian(lambda y: flow(y, grid.h, np.zeros(1)), rb.REFERENCE_Y0, eps=1e-5)
    assert np.max(np.abs(Z - M)) < 1e-4


def test_variational_jacobian_requires_derivative_data():
    no_hessian = tuple(
        ScalarField(value=K.value, grad=K.grad) for K in rb.system(rb.REFERENCE_PARAMS).hamiltonians
    )
    sysm = PoissonSystem(
        dim=3,
        structure=rb._structure,
        hamiltonians=no_hessian,
        rank=2,
        structure_derivative=rb._structure_derivative,
    )
    grid = TimeGrid(0.0, 0.1, 10)
    noise = sample_increments(grid, 1, 0)
    with pytest.raises(ValueError):
        variational_jacobian(sysm, rb.REFERENCE_Y0, grid, noise)


def test_poisson_map_residual_exact_rotation():
    # The oscillator flow is a rotation; with B = J^-1 it is symplectic,
    # hence a Poisson map.
    sysm = _oscillator_system()

    def rotation(y, h, dw):
        th = h + 0.5 * dw[..., 0]
        c, s = np.cos(th), np.sin(th)
        return np.stack(
            [c * y[..., 0] - s * y[..., 1], s * y[..., 0] + c * y[..., 1]], axis=-1
        )

    res = poisson_map_residual(rotation, sysm.structure, np.array([0.3, 0.9]), 0.1, np.array([0.05]), eps=1e-6)
    assert res < 1e-9


def test_poisson_map_residual_alpha_scheme_vs_em():
    from spoisson.alpha_gf import AlphaSchemeConfig
    from spoisson.canonical import alpha_scheme_map
    from spoisson.experiments import em_stepper

    sysm = rb.system(rb.REFERENCE_PARAMS)
    scheme = alpha_scheme_map(
        rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0),
        AlphaSchemeConfig(alpha=0.5),
    )
    em = em_stepper(sysm)
    rng = np.random.default_rng(7)
    worst_scheme, worst_em = 0.0, 0.0
    for _ in range(5):
        y = rng.uniform(-2.5, 2.5, size=3)
        while y[0] ** 2 + y[2] ** 2 < 0.1:
            y = rng.uniform(-2.5, 2.5, size=3)
        dw = math.sqrt(0.01) * rng.standard_normal(1)
        worst_scheme = max(worst_scheme, poisson_map_residual(scheme, sysm.structure, y, 0.01, dw, eps=1e-6))
        worst_em = max(worst_em, poisson_map_residual(em, sysm.structure, y, 0.01, dw, eps=1e-6))
    assert worst_scheme < 1e-6
    assert worst_em > 1e-3


SRB_CUSTOM = Path(__file__).resolve().parents[1] / "bench" / "srb_custom.txt"
# name -> (system factory, a state, number of distinct fields among K_0, K_1)
FOLD_SYSTEMS = {
    "srb": (lambda: rb.system(rb.REFERENCE_PARAMS), rb.REFERENCE_Y0, 1),
    "slv": (lambda: lv.system(lv.REFERENCE_PARAMS), lv.REFERENCE_Y0, 1),
    "custom": (lambda: load_custom_system(str(SRB_CUSTOM)).system, np.array([0.7, 0.3, 0.2]), 2),
}


def _counting(counts, name, fn):
    def wrapper(y):
        counts[name] += 1
        return fn(y)

    return wrapper


def _traced_copy(system, counts):
    """The system with counted structure, structure derivative, gradients and
    Hessians swapped in through dataclasses.replace, as a tracing wrapper does."""
    fields = tuple(
        replace(K, grad=_counting(counts, "grad", K.grad), hess=_counting(counts, "hess", K.hess))
        for K in system.hamiltonians
    )
    return replace(
        system,
        structure=_counting(counts, "structure", system.structure),
        structure_derivative=_counting(counts, "structure_derivative", system.structure_derivative),
        hamiltonians=fields,
    )


def _batch(y0, seed, n=16):
    rng = np.random.default_rng(seed)
    return y0 + 0.05 * rng.standard_normal((n, 3)), 0.1 * rng.standard_normal((n, 1))


def test_fold_fields_merges_scaled_copies_only():
    K = rb.kinetic_energy(rb.REFERENCE_PARAMS)
    fields, index, scale = fold_fields((K, scale_field(K, 0.2), scale_field(scale_field(K, 2.0), 3.0)))
    assert len(fields) == 1 and fields[0] is K
    assert (index, scale) == ((0, 0, 0), (1.0, 0.2, 6.0))
    # the same value callable without a base is a field of its own
    fields, index, scale = fold_fields((K, ScalarField(K.value, K.grad)))
    assert len(fields) == 2 and (index, scale) == ((0, 1), (1.0, 1.0))
    # a copy with a swapped gradient is the field that a scaled copy of K joins
    wrapped = replace(K, grad=lambda y: K.grad(y))
    fields, index, scale = fold_fields((wrapped, scale_field(K, 0.2)))
    assert len(fields) == 1 and fields[0] is wrapped
    assert (index, scale) == ((0, 0), (1.0, 0.2))


def test_fold_is_derived_again_by_replace():
    system = rb.system(rb.REFERENCE_PARAMS)
    K = rb.kinetic_energy(rb.REFERENCE_PARAMS)
    other = replace(system, hamiltonians=(K, scale_field(K, 0.5)))
    assert other.fold[0][0] is K
    assert other.fold[1:] == ((0, 0), (1.0, 0.5))


@pytest.mark.parametrize("name", sorted(FOLD_SYSTEMS))
def test_midpoint_iteration_evaluates_structure_once_and_each_field_once(name, monkeypatch):
    make, y0, n_fields = FOLD_SYSTEMS[name]
    counts, per_iteration = Counter(), []
    solve = sde.fixed_point

    def counted_fixed_point(update, x0, tol, max_iter):
        def counted(x):
            counts.clear()
            out = update(x)
            per_iteration.append(dict(counts))
            return out

        return solve(counted, x0, tol, max_iter)

    monkeypatch.setattr(sde, "fixed_point", counted_fixed_point)
    system = _traced_copy(make(), counts)
    # the step's coefficients are built once, outside the iteration
    build = PoissonSystem.increment_map

    def counted_build(self, h, dw):
        per_iteration.append("increment_map")
        return build(self, h, dw)

    monkeypatch.setattr(PoissonSystem, "increment_map", counted_build)
    sde.midpoint_step(system, y0, 0.01, np.array([0.05]))
    assert len(per_iteration) > 2
    once = {"structure": 1, "grad": n_fields}
    assert per_iteration == ["increment_map"] + [once] * (len(per_iteration) - 1)


@pytest.mark.parametrize("name", sorted(FOLD_SYSTEMS))
def test_increment_map_applied_once_is_the_increment(name):
    # The Euler-Maruyama step adds the step's increment map applied once.
    make, y0, _ = FOLD_SYSTEMS[name]
    system = make()
    ys, dws = _batch(y0, 6)
    for y, dw in ((y0, np.array([0.05])), (ys, dws)):
        for fields in (system, drift_and_diffusions(system)):
            want = y + fields.increment_map(0.01, dw)(y)
            assert np.array_equal(euler_maruyama_step(fields, y, 0.01, dw), want)


@pytest.mark.parametrize("name", sorted(FOLD_SYSTEMS))
def test_traced_copy_steps_bit_for_bit(name):
    make, y0, _ = FOLD_SYSTEMS[name]
    system = make()
    ys, dws = _batch(y0, 3)
    traced = _traced_copy(system, Counter())
    assert np.array_equal(midpoint_step(traced, ys, 0.01, dws), midpoint_step(system, ys, 0.01, dws))


@pytest.mark.parametrize("name", sorted(FOLD_SYSTEMS))
def test_folded_midpoint_matches_unfolded_formula(name):
    make, y0, _ = FOLD_SYSTEMS[name]
    system = make()
    unfolded = drift_and_diffusions(system)  # B grad K_r per channel
    ys, dws = _batch(y0, 4)
    for a, b in (
        (ys + system.increment_map(0.01, dws)(ys), ys + unfolded.increment_map(0.01, dws)(ys)),
        (midpoint_step(system, ys, 0.01, dws), midpoint_step(unfolded, ys, 0.01, dws)),
    ):
        assert np.all(np.linalg.norm(a - b, axis=-1) <= 1e-14 * np.linalg.norm(b, axis=-1))


@pytest.mark.parametrize("name", sorted(FOLD_SYSTEMS))
def test_folded_midpoint_batch_rows_equal_single_rows(name):
    make, y0, _ = FOLD_SYSTEMS[name]
    system = make()
    ys, dws = _batch(y0, 5)
    batch = midpoint_step(system, ys, 0.01, dws)
    for y, dw, row in zip(ys, dws, batch):
        assert np.array_equal(midpoint_step(system, y, 0.01, dw), row)


def _unfolded_ito_drift(system, y):
    """B grad K_0 + 1/2 sum_r (dB . grad K_r + B Hess K_r) B grad K_r, each
    K_r of ``hamiltonians`` evaluated on its own."""
    B, dB = system.structure(y), system.structure_derivative(y)
    out = np.einsum("...ij,...j->...i", B, system.hamiltonians[0].grad(y))
    for K in system.hamiltonians[1:]:
        g = K.grad(y)
        jac = np.einsum("...acb,...c->...ab", dB, g) + B @ K.hess(y)[1]
        out = out + 0.5 * np.einsum("...ij,...j->...i", jac, np.einsum("...ij,...j->...i", B, g))
    return out


@pytest.mark.parametrize("name", sorted(FOLD_SYSTEMS))
def test_ito_drift_matches_unfolded_formula(name):
    make, y0, _ = FOLD_SYSTEMS[name]
    system = make()
    ys, _ = _batch(y0, 5)
    for y in (y0, ys):
        if name == "custom":
            assert np.allclose(system.ito_drift(y), _unfolded_ito_drift(system, y), rtol=1e-14, atol=0)
        else:
            assert np.array_equal(system.ito_drift(y), _unfolded_ito_drift(system, y))


@pytest.mark.parametrize("name", sorted(FOLD_SYSTEMS))
def test_ito_drift_analytic_vs_fd(name):
    make, y0, _ = FOLD_SYSTEMS[name]
    system = make()
    sde = drift_and_diffusions(system)
    (b,) = sde.diffusions
    fd = sde.drift(y0) + 0.5 * fd_vector_jacobian(b, y0) @ b(y0)
    assert np.allclose(system.ito_drift(y0), fd, rtol=0, atol=1e-8)


@pytest.mark.parametrize("name", sorted(FOLD_SYSTEMS))
def test_ito_drift_evaluates_structure_once_and_each_field_once(name, monkeypatch):
    from spoisson.experiments import iem_stepper

    make, y0, n_fields = FOLD_SYSTEMS[name]
    # one jet of the noise field, which also gives its gradient, and the
    # gradient of a field only the drift reads
    once = {"structure": 1, "structure_derivative": 1, "hess": 1}
    once |= {"grad": n_fields - 1} if n_fields > 1 else {}
    counts = Counter()
    system = _traced_copy(make(), counts)
    system.ito_drift(y0)
    assert dict(counts) == once

    per_iteration = []
    solve = sde.fixed_point

    def counted_fixed_point(update, x0, tol, max_iter):
        def counted(x):
            counts.clear()
            out = update(x)
            per_iteration.append(dict(counts))
            return out

        return solve(counted, x0, tol, max_iter)

    monkeypatch.setattr(sde, "fixed_point", counted_fixed_point)
    iem_stepper(system)(y0, 0.01, np.array([0.05]))
    assert len(per_iteration) > 1
    assert per_iteration == [once] * len(per_iteration)


@pytest.mark.parametrize("name", sorted(FOLD_SYSTEMS))
def test_em_steppers_batch_rows_equal_single_rows(name):
    from spoisson.experiments import em_stepper, iem_stepper

    make, y0, _ = FOLD_SYSTEMS[name]
    system = make()
    ys, dws = _batch(y0, 9)
    for step in (em_stepper(system), iem_stepper(system)):
        batch = step(ys, 0.01, dws)
        rows = np.stack([step(y, 0.01, dw) for y, dw in zip(ys, dws)])
        assert np.array_equal(batch, rows)
