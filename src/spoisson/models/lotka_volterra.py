"""A three-species stochastic Lotka-Volterra system in Stratonovich form.

dy = B(y) grad K(y) (dt + c2 o dW) with

    K(y)  = a b y1 + y2 - a y3 + nu ln y2 - mu ln y3,
    B(y)  = [[0, r y1 y2, b r y1 y3],
             [-r y1 y2, 0, y2 y3],
             [-b r y1 y3, -y2 y3, 0]],

on the positive octant.  C(y) = (1/r) ln y1 - b ln y2 + ln y3 is a Casimir.
The canonical chart (P, Q, C) = (ln y3, -ln y2, C(y)) has exponential
inverse, so the composed scheme keeps every iterate componentwise positive
by construction.

The chart's constant block is [[0, 1], [-1, 0]] = -J^-1; the transformed
Hamiltonian therefore carries a sign flip, H = -K o theta^-1:

    H(P, Q) = -a b E - exp(-Q) + nu Q + a exp(P) + mu P,
    E = exp(r (C - P - b Q)).

Exponentials are range-guarded: arguments beyond the representable range
raise instead of silently producing infinities (divergent implicit
iterations can push r (C - P - b Q) arbitrarily far).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..canonical import CanonicalSHS, Chart, Model
from ..poisson import PoissonSystem, ScalarField, scale_field
from ..sde import DivergenceError, DomainError


@dataclass(frozen=True)
class LVParams:
    a: float
    b: float
    r: float
    nu: float
    mu: float
    c2: float

    def __post_init__(self) -> None:
        if not np.isfinite(list(vars(self).values())).all():
            raise ValueError(f"constants must be finite, got {self}")
        if self.r == 0:
            raise ValueError("r must be nonzero (the Casimir carries 1/r)")


REFERENCE_PARAMS = LVParams(a=-2.0, b=-1.0, r=-0.5, nu=1.0, mu=2.0, c2=0.2)
REFERENCE_Y0 = np.array([2.0, 0.9, 0.5])

_EXP_CAP = 700.0  # np.exp overflows just above log(float max) ~ 709.8


def _exp(x):
    x = np.asarray(x, dtype=float)
    bad = x > _EXP_CAP
    if bad.any():
        raise DivergenceError("exponential argument out of range", mask=bad)
    return np.exp(x)


def _require_positive(y):
    y = np.asarray(y, dtype=float)
    if not (y > 0).all():
        bad = ~(y > 0).all(axis=-1)
        raise DomainError("state must be componentwise positive", state=y, mask=bad)
    return y


# (_I[k], _J[k]) runs over the strictly upper entries (0, 1), (0, 2), (1, 2).
_I = np.array([0, 0, 1])
_J = np.array([1, 2, 2])


def _structure_factory(params: LVParams) -> Callable:
    b, r = params.b, params.r

    def structure(y):
        y = np.asarray(y, dtype=float)
        y1, y2, y3 = y[..., 0], y[..., 1], y[..., 2]
        B = np.zeros(y.shape[:-1] + (3, 3))
        B[..., 0, 1] = r * y1 * y2
        B[..., 0, 2] = b * r * y1 * y3
        B[..., 1, 2] = y2 * y3
        B[..., _J, _I] = -B[..., _I, _J]
        return B

    return structure


def _structure_derivative_factory(params: LVParams) -> Callable:
    b, r = params.b, params.r

    def deriv(y):
        y = np.asarray(y, dtype=float)
        y1, y2, y3 = y[..., 0], y[..., 1], y[..., 2]
        dB = np.zeros(y.shape[:-1] + (3, 3, 3))
        dB[..., 0, 1, 0] = r * y2
        dB[..., 0, 1, 1] = r * y1
        dB[..., 0, 2, 0] = b * r * y3
        dB[..., 0, 2, 2] = b * r * y1
        dB[..., 1, 2, 1] = y3
        dB[..., 1, 2, 2] = y2
        dB[..., _J, _I, :] = -dB[..., _I, _J, :]
        return dB

    return deriv


def hamiltonian(params: LVParams) -> ScalarField:
    a, b, nu, mu = params.a, params.b, params.nu, params.mu

    def value(y):
        y = _require_positive(y)
        y1, y2, y3 = y[..., 0], y[..., 1], y[..., 2]
        return a * b * y1 + y2 - a * y3 + nu * np.log(y2) - mu * np.log(y3)

    def jet(y, hess=True):
        """(grad K, Hess K), or grad K alone, behind one positivity check."""
        y = _require_positive(y)
        out = np.empty_like(y)
        out[..., 0] = a * b
        out[..., 1] = 1.0 + nu / y[..., 1]
        out[..., 2] = -a - mu / y[..., 2]
        if not hess:
            return out
        H = np.zeros(y.shape[:-1] + (3, 3))
        H[..., 1, 1] = -nu / y[..., 1] ** 2
        H[..., 2, 2] = mu / y[..., 2] ** 2
        return out, H

    return ScalarField(value=value, grad=lambda y: jet(y, hess=False), hess=jet)


def casimir(params: LVParams) -> ScalarField:
    b, r = params.b, params.r

    def value(y):
        y = _require_positive(y)
        return (np.log(y[..., 0]) / r - b * np.log(y[..., 1]) + np.log(y[..., 2]))

    def jet(y, hess=True):
        """(grad C, Hess C), or grad C alone, behind one positivity check."""
        y = _require_positive(y)
        g = np.stack([1.0 / (r * y[..., 0]), -b / y[..., 1], 1.0 / y[..., 2]], axis=-1)
        if not hess:
            return g
        H = np.zeros(y.shape[:-1] + (3, 3))
        H[..., 0, 0] = -1.0 / (r * y[..., 0] ** 2)
        H[..., 1, 1] = b / y[..., 1] ** 2
        H[..., 2, 2] = -1.0 / y[..., 2] ** 2
        return g, H

    return ScalarField(value=value, grad=lambda y: jet(y, hess=False), hess=jet)


def _positive_domain(y):
    return np.all(np.asarray(y) > 0, axis=-1)


def system(params: LVParams) -> PoissonSystem:
    K = hamiltonian(params)
    return PoissonSystem(
        dim=3,
        structure=_structure_factory(params),
        hamiltonians=(K, scale_field(K, params.c2)),
        rank=2,
        structure_derivative=_structure_derivative_factory(params),
        casimirs=(casimir(params),),
        domain=_positive_domain,
    )


def chart(params: LVParams) -> Chart:
    """Canonical chart (P, Q, C) = (ln y3, -ln y2, C(y)); inverse exponential."""
    b, r = params.b, params.r
    cas = casimir(params)

    def forward(y):
        y = _require_positive(y)
        return np.stack(
            [np.log(y[..., 2]), -np.log(y[..., 1]), cas.value(y)], axis=-1
        )

    def inverse(ybar):
        ybar = np.asarray(ybar, dtype=float)
        p, q, c = ybar[..., 0], ybar[..., 1], ybar[..., 2]
        return np.stack(
            [_exp(r * (c - p - b * q)), _exp(-q), _exp(p)], axis=-1
        )

    def jacobian(y):
        y = _require_positive(y)
        A = np.zeros(y.shape + (3,))
        A[..., 0, 2] = 1.0 / y[..., 2]
        A[..., 1, 1] = -1.0 / y[..., 1]
        A[..., 2, :] = cas.grad(y)
        return A

    b0 = np.zeros((3, 3))
    b0[0, 1] = 1.0
    b0[1, 0] = -1.0
    return Chart(n=1, forward=forward, inverse=inverse, b0=b0, jacobian=jacobian,
                 domain=_positive_domain)


def transformed_shs(params: LVParams, casimir_value: float) -> CanonicalSHS:
    """Analytic canonical Hamiltonian H = -K o theta^-1 (sign from the chart
    block, see module docstring); the noise Hamiltonian is c2 H."""
    a, b, r, nu, mu = params.a, params.b, params.r, params.nu, params.mu
    c = casimir_value

    def _e(z):
        p, q = z[..., 0], z[..., 1]
        return _exp(r * (c - p - b * q))

    def value(z):
        z = np.asarray(z, dtype=float)
        p, q = z[..., 0], z[..., 1]
        return -a * b * _e(z) - _exp(-q) + nu * q + a * _exp(p) + mu * p

    def jet(z, hess=True):
        """(grad H, Hess H), or grad H alone, from one E, exp(P) and exp(-Q)."""
        z = np.asarray(z, dtype=float)
        E, ep, eq = _e(z), _exp(z[..., 0]), _exp(-z[..., 1])
        g = np.empty_like(z)
        g[..., 0] = a * b * r * E + a * ep + mu
        g[..., 1] = a * b**2 * r * E + eq + nu
        if not hess:
            return g
        out = np.empty(z.shape[:-1] + (2, 2))
        out[..., 0, 0] = -a * b * r**2 * E + a * ep
        out[..., 1, 1] = -a * b**3 * r**2 * E - eq
        out[..., 0, 1] = out[..., 1, 0] = -a * b**2 * r**2 * E
        return g, out

    H = ScalarField(value=value, grad=lambda z: jet(z, hess=False), hess=jet)
    return CanonicalSHS(
        n=1,
        casimir_values=np.array([casimir_value]),
        hamiltonians=(H, scale_field(H, params.c2)),
    )


def model(params: LVParams, y0) -> Model:
    """The Lotka-Volterra system with its analytic chart and transformed
    system; ``check`` samples the box [0.2, 2.5]^3."""
    return Model(
        name="slv",
        system=system(params),
        chart=lambda y: chart(params),
        shs=lambda y: transformed_shs(params, float(casimir(params).value(y))),
        y0=np.asarray(y0, dtype=float),
        default_T={"paths": 10.0, "casimir": 10.0, "order": 2.0},
        check_points=lambda rng: rng.uniform(0.2, 2.5, size=(100, 3)),
    )
