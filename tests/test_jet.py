"""Every ScalarField that spoisson builds returns its second-order jet from
``hess``: (grad F, Hess F), the gradient bit for bit ``grad``, the Hessian
that of the separate Hessian the field had before its jet."""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spoisson.canonical import transform_system
from spoisson.custom import load_custom_system
from spoisson.poisson import scale_field
from spoisson.sde import fd_vector_jacobian
from spoisson.models import lotka_volterra as lv
from spoisson.models import rigid_body as rb

SRB, SLV = rb.REFERENCE_PARAMS, lv.REFERENCE_PARAMS
SRB_CUSTOM = Path(__file__).resolve().parents[1] / "bench" / "srb_custom.txt"
CUSTOM_Y0 = np.array([0.7, 0.3, 0.2])
SLV_C = float(lv.casimir(SLV).value(lv.REFERENCE_Y0))


def _diagonal(entries):
    """Hessian with the given diagonal, one entry per state component."""
    entries = [np.asarray(e, dtype=float) for e in entries]
    shape = np.broadcast_shapes(*(e.shape for e in entries))
    H = np.zeros(shape + (len(entries),) * 2)
    for i, e in enumerate(entries):
        H[..., i, i] = e
    return H


def _srb_chart_hessian(z, two_c=1.0):
    i1, i2, i3 = SRB.i1, SRB.i2, SRB.i3
    p, q = z[..., 0], z[..., 1]
    out = np.empty(z.shape[:-1] + (2, 2))
    out[..., 0, 0] = 1 / i2 - np.square(np.cos(q)) / i1 - np.square(np.sin(q)) / i3
    out[..., 1, 1] = (1 / i3 - 1 / i1) * (two_c - p**2) * np.cos(2 * q)
    out[..., 0, 1] = out[..., 1, 0] = (1 / i1 - 1 / i3) * p * np.sin(2 * q)
    return out


def _slv_chart_hessian(z):
    a, b, r = SLV.a, SLV.b, SLV.r
    p, q = z[..., 0], z[..., 1]
    E = np.exp(r * (SLV_C - p - b * q))
    out = np.empty(z.shape[:-1] + (2, 2))
    out[..., 0, 0] = -a * b * r**2 * E + a * np.exp(p)
    out[..., 1, 1] = -a * b**3 * r**2 * E - np.exp(-q)
    out[..., 0, 1] = out[..., 1, 0] = -a * b**2 * r**2 * E
    return out


def _srb_y(rng, n):
    return rng.uniform(-1.5, 1.5, size=(n, 3))


def _srb_z(rng, n, p_max=0.6):
    return np.stack([rng.uniform(-p_max, p_max, n), rng.uniform(-3, 3, n)], axis=-1)


def _slv_y(rng, n):
    return rng.uniform(0.2, 2.5, size=(n, 3))


def _slv_z(rng, n):
    return rng.uniform(-1.0, 1.0, size=(n, 2))


def _fd_hessian(F):
    return lambda z: fd_vector_jacobian(F.grad, z)


def _fields():
    """name -> (field, state sampler, reference Hessian, whether it is exact).

    A reference is exact where the Hessian before the jet is known in closed
    form (or, for transform_system, was the central difference of the
    gradient); a custom field is compared with central differences."""
    K, srb_shs = rb.kinetic_energy(SRB), rb.transformed_shs(SRB, 0.5)
    slv_shs = lv.transformed_shs(SLV, SLV_C)
    inv = 1.0 / np.array([SRB.i1, SRB.i2, SRB.i3])
    custom = replace(load_custom_system(str(SRB_CUSTOM)), y0=CUSTOM_Y0)
    custom_shs = custom.shs(CUSTOM_Y0)
    generic = transform_system(rb.system(SRB), rb.chart(0.5), rb.REFERENCE_Y0)
    b, r, nu, mu = SLV.b, SLV.r, SLV.nu, SLV.mu
    scaled = scale_field(srb_shs.hamiltonians[0], -1.7)
    fields = {
        "srb-K": (K, _srb_y, lambda y: _diagonal(np.broadcast_to(inv, y.shape).T), True),
        "srb-casimir": (rb.CASIMIR, _srb_y, lambda y: _diagonal(np.ones_like(y).T), True),
        "srb-chart-H": (srb_shs.hamiltonians[0], _srb_z, _srb_chart_hessian, True),
        "srb-chart-H1": (srb_shs.hamiltonians[1], _srb_z,
                         lambda z: SRB.c1 * _srb_chart_hessian(z), True),
        "slv-K": (lv.hamiltonian(SLV), _slv_y,
                  lambda y: _diagonal([0.0 * y[..., 0], -nu / y[..., 1] ** 2, mu / y[..., 2] ** 2]),
                  True),
        "slv-casimir": (lv.casimir(SLV), _slv_y, lambda y: _diagonal(
            [-1.0 / (r * y[..., 0] ** 2), b / y[..., 1] ** 2, -1.0 / y[..., 2] ** 2]), True),
        "slv-chart-H": (slv_shs.hamiltonians[0], _slv_z, _slv_chart_hessian, True),
        "scaled": (scaled, _srb_z, lambda z: -1.7 * _srb_chart_hessian(z), True),
    }
    for i, F in enumerate(custom.system.hamiltonians):
        fields[f"custom-K{i}"] = (F, _srb_y, _fd_hessian(F), False)
    C = custom.system.casimirs[0]
    fields["custom-casimir"] = (C, _srb_y, _fd_hessian(C), False)
    for i, F in enumerate(custom_shs.hamiltonians):
        fields[f"custom-H{i}"] = (F, lambda rng, n: _srb_z(rng, n, 0.7), _fd_hessian(F), False)
    for i, F in enumerate(generic.hamiltonians):
        fields[f"transform_system-H{i}"] = (F, _srb_z, _fd_hessian(F), True)
    return fields


FIELDS = _fields()


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_jet_gradient_is_grad_and_hessian_is_the_old_one(name, batch):
    F, sample, reference, exact = FIELDS[name]
    states = sample(np.random.default_rng(7), 9)
    y = states if batch else states[0]
    g, H = F.hess(y)
    assert np.array_equal(g, F.grad(y))
    assert g.shape == np.shape(y) and H.shape == np.shape(y) + (np.shape(y)[-1],)
    if exact:
        assert np.array_equal(H, reference(y))
    else:
        assert np.allclose(H, reference(y), rtol=1e-6, atol=1e-8)
        assert np.array_equal(H, np.swapaxes(H, -1, -2))
