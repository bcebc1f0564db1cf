"""The stochastic rigid body: dy = B(y) grad K(y) (dt + c1 o dW).

State y = (y1, y2, y3) is the body angular momentum, K the kinetic energy
1/2 (y1^2/I1 + y2^2/I2 + y3^2/I3), and

    B(y) = [[0, -y3, y2], [y3, 0, -y1], [-y2, y1, 0]],

so B(y) w = y x w.  The squared radius C(y) = |y|^2 / 2 is a Casimir: motion
stays on the sphere of radius sqrt(2 C).

Two structure-preserving pipelines are provided: the canonical chart
(y2, atan2(y3, y1), C) composed with the alpha-generating scheme, and a
spherical-angle chart composed with the implicit midpoint rule.  atan2
extends the textbook arctan(y3/y1) branch to the whole punctured plane
(y1, y3) != (0, 0); the inverse formula and the bracket relations are
unchanged on the extension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..canonical import CanonicalSHS, Chart, Model
from ..noise import TruncationPolicy, truncate_increments
from ..poisson import PoissonSystem, ScalarField, scale_field
from ..sde import DomainError, SDE, midpoint_step


@dataclass(frozen=True)
class RigidBodyParams:
    i1: float
    i2: float
    i3: float
    c1: float

    def __post_init__(self) -> None:
        if not np.isfinite(list(vars(self).values())).all():
            raise ValueError(f"constants must be finite, got {self}")
        if min(self.i1, self.i2, self.i3) <= 0:
            raise ValueError("moments of inertia must be positive")


# Constants of the reference simulations.
REFERENCE_PARAMS = RigidBodyParams(
    i1=math.sqrt(2.0) + math.sqrt(2.0 / 1.51),
    i2=math.sqrt(2.0) - 0.51 * math.sqrt(2.0 / 1.51),
    i3=1.0,
    c1=0.2,
)
REFERENCE_Y0 = np.array([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0])


# B(y) w = y x w: y_k sits at (_ROWS[k], _COLS[k]) and -y_k at the transpose.
_ROWS = np.array([2, 0, 1])
_COLS = np.array([1, 2, 0])


def _structure(y):
    y = np.asarray(y, dtype=float)
    B = np.zeros(y.shape[:-1] + (3, 3))
    B[..., _ROWS, _COLS] = y
    B[..., _COLS, _ROWS] = -y
    return B


# dB[i, j, s] = dB_ij/dy_s; entries of B are linear in y.
_DB = np.zeros((3, 3, 3))
_DB[_ROWS, _COLS, [0, 1, 2]] = 1.0
_DB[_COLS, _ROWS, [0, 1, 2]] = -1.0


def _structure_derivative(y):
    y = np.asarray(y, dtype=float)
    return np.broadcast_to(_DB, y.shape[:-1] + (3, 3, 3))


def kinetic_energy(params: RigidBodyParams) -> ScalarField:
    inv = np.array([1.0 / params.i1, 1.0 / params.i2, 1.0 / params.i3])

    return ScalarField(
        value=lambda y: 0.5 * np.sum(inv * np.asarray(y) ** 2, axis=-1),
        grad=lambda y: inv * np.asarray(y),
        hess=lambda y: (inv * np.asarray(y), np.broadcast_to(np.diag(inv), np.shape(y) + (3,))),
    )


CASIMIR = ScalarField(
    value=lambda y: 0.5 * np.sum(np.asarray(y) ** 2, axis=-1),
    grad=lambda y: np.asarray(y, dtype=float),
    hess=lambda y: (np.asarray(y, dtype=float), np.broadcast_to(np.eye(3), np.shape(y) + (3,))),
)


def system(params: RigidBodyParams) -> PoissonSystem:
    K = kinetic_energy(params)
    return PoissonSystem(
        dim=3,
        structure=_structure,
        hamiltonians=(K, scale_field(K, params.c1)),
        rank=2,
        structure_derivative=_structure_derivative,
        casimirs=(CASIMIR,),
    )


def chart(casimir_value: float) -> Chart:
    """Canonical chart (P, Q, C) = (y2, atan2(y3, y1), |y|^2/2)."""
    if casimir_value <= 0:
        raise ValueError("Casimir value must be positive")
    two_c = 2.0 * casimir_value

    def forward(y):
        y = np.asarray(y, dtype=float)
        return np.stack(
            [y[..., 1], np.arctan2(y[..., 2], y[..., 0]), CASIMIR.value(y)],
            axis=-1,
        )

    def inverse(ybar):
        ybar = np.asarray(ybar, dtype=float)
        p, q, c = ybar[..., 0], ybar[..., 1], ybar[..., 2]
        rho2 = 2.0 * c - p**2
        bad = rho2 <= 0
        if np.any(bad):
            raise DomainError(
                "inverse chart undefined: P^2 >= 2C", state=ybar, mask=bad
            )
        rho = np.sqrt(rho2)
        return np.stack([rho * np.cos(q), p, rho * np.sin(q)], axis=-1)

    def jacobian(y):
        y = np.asarray(y, dtype=float)
        y1, y3 = y[..., 0], y[..., 2]
        rho2 = y1**2 + y3**2
        A = np.zeros(y.shape + (3,))
        A[..., 0, 1] = 1.0
        A[..., 1, 0] = -y3 / rho2
        A[..., 1, 2] = y1 / rho2
        A[..., 2, :] = y
        return A

    def domain(y):
        y = np.asarray(y, dtype=float)
        return (y[..., 0] ** 2 + y[..., 2] ** 2 > 0) & (y[..., 1] ** 2 < two_c)

    b0 = np.zeros((3, 3))
    b0[0, 1] = -1.0
    b0[1, 0] = 1.0
    return Chart(n=1, forward=forward, inverse=inverse, b0=b0, jacobian=jacobian, domain=domain)


def transformed_shs(params: RigidBodyParams, casimir_value: float) -> CanonicalSHS:
    """Analytic canonical Hamiltonian in chart coordinates (P, Q).

    H(P, Q) = (2C - P^2) cos^2(Q) / (2 I1) + P^2 / (2 I2)
              + (2C - P^2) sin^2(Q) / (2 I3); the noise Hamiltonian is c1 H.
    """
    i1, i2, i3 = params.i1, params.i2, params.i3
    two_c = 2.0 * casimir_value

    def value(z):
        z = np.asarray(z, dtype=float)
        p, q = z[..., 0], z[..., 1]
        cos2, sin2 = np.square(np.cos(q)), np.square(np.sin(q))
        return (two_c - p**2) * cos2 / (2 * i1) + p**2 / (2 * i2) + (
            two_c - p**2
        ) * sin2 / (2 * i3)

    def jet(z, hess=True):
        """(grad H, Hess H), or grad H alone, from one set of shared factors."""
        z = np.asarray(z, dtype=float)
        p, q = z[..., 0], z[..., 1]
        hpp = 1 / i2 - np.square(np.cos(q)) / i1 - np.square(np.sin(q)) / i3
        rho2, sin2q = two_c - p**2, np.sin(2 * q)
        g = np.empty_like(z)
        g[..., 0] = hpp * p
        g[..., 1] = (0.5 / i3 - 0.5 / i1) * rho2 * sin2q
        if not hess:
            return g
        out = np.empty(z.shape[:-1] + (2, 2))
        out[..., 0, 0] = hpp
        out[..., 1, 1] = (1 / i3 - 1 / i1) * rho2 * np.cos(2 * q)
        out[..., 0, 1] = out[..., 1, 0] = (1 / i1 - 1 / i3) * p * sin2q
        return g, out

    H = ScalarField(value=value, grad=lambda z: jet(z, hess=False), hess=jet)
    return CanonicalSHS(
        n=1,
        casimir_values=np.array([casimir_value]),
        hamiltonians=(H, scale_field(H, params.c1)),
    )


def _check_points(rng) -> np.ndarray:
    """States for ``check``, clear of the chart's (y1, y3) = (0, 0) axis."""
    points = rng.uniform(-1.5, 1.5, size=(400, 3))
    return points[points[:, 0] ** 2 + points[:, 2] ** 2 > 0.05][:100]


def model(params: RigidBodyParams, y0) -> Model:
    """The rigid body with its analytic chart and transformed system."""
    return Model(
        name="srb",
        system=system(params),
        chart=lambda y: chart(float(CASIMIR.value(y))),
        shs=lambda y: transformed_shs(params, float(CASIMIR.value(y))),
        y0=np.asarray(y0, dtype=float),
        default_T={"paths": 10.0, "casimir": 500.0, "order": 10.0},
        check_points=_check_points,
    )


@dataclass(frozen=True)
class ScaledNoiseSDE(SDE):
    """dy = f(y) (dt + c o dW), the one diffusion c f: an increment
    h f + (c f) dW evaluates f once."""

    c: float = 1.0

    def increment_map(self, h: float, dw):
        col = dw[..., 0, None]

        def increment(y):
            f = self.drift(y)
            return h * f + (self.c * f) * col

        return increment


def spherical_system(params: RigidBodyParams, radius: float) -> ScaledNoiseSDE:
    """Angle dynamics (theta1, theta2) of the sphere |y| = radius: the noise
    field is c1 times the drift field."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    i1, i2, i3 = params.i1, params.i2, params.i3

    def field(th):
        th = np.asarray(th, dtype=float)
        t1, t2 = th[..., 0], th[..., 1]
        f1 = radius * (1 / i2 - 1 / i1) * np.cos(t1) * np.sin(t2) * np.cos(t2)
        f2 = radius * np.sin(t1) * (
            (1 / i1 - 1 / i3) * np.square(np.cos(t2)) - (1 / i3 - 1 / i2) * np.square(np.sin(t2))
        )
        return np.stack([f1, f2], axis=-1)

    return ScaledNoiseSDE(drift=field, diffusions=(lambda th: params.c1 * field(th),), c=params.c1)


def to_angles(y, radius: float) -> np.ndarray:
    """Invert y = radius (cos t1 cos t2, cos t1 sin t2, sin t1)."""
    y = np.asarray(y, dtype=float)
    t1 = np.arcsin(np.clip(y[..., 2] / radius, -1.0, 1.0))
    t2 = np.arctan2(y[..., 1], y[..., 0])
    return np.stack([t1, t2], axis=-1)


def from_angles(th, radius: float) -> np.ndarray:
    th = np.asarray(th, dtype=float)
    t1, t2 = th[..., 0], th[..., 1]
    return radius * np.stack(
        [np.cos(t1) * np.cos(t2), np.cos(t1) * np.sin(t2), np.sin(t1)], axis=-1
    )


def spherical_scheme(
    params: RigidBodyParams,
    y0,
    tol: float = 1e-12,
    truncation: TruncationPolicy = TruncationPolicy(),
) -> Callable:
    """Midpoint rule in spherical angles, mapped back to y each step.

    The radius is fixed from y0, so |y|^2 = 2C holds exactly by construction.
    """
    y0 = np.asarray(y0, dtype=float)
    radius = float(np.linalg.norm(y0))
    if radius == 0:
        raise ValueError("y0 must be nonzero")
    sph = spherical_system(params, radius)

    def step(y, h, dw):
        th = to_angles(y, radius)
        dw_t = truncate_increments(dw, h, truncation)
        th_new = midpoint_step(sph, th, h, dw_t, tol=tol)
        return from_angles(th_new, radius)

    return step
