"""Canonical (Darboux-Lie) charts and the Poisson-integrator composition.

A chart theta maps states y to (P, Q, C) coordinates in which the structure
matrix becomes the constant block diag(J_block, 0), with the last l
coordinates the Casimir functions.  Charts are supplied per model (or by the
user) and validated numerically; solving the defining PDEs automatically is
out of scope.

The composed integrator realizes: transform, take one symplectic step in
(P, Q) with the Casimir parameters frozen at their initial values, reattach
the frozen parameters, invert.  Freezing is deliberate: recomputing C along
the way would mask Casimir drift.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .alpha_gf import AlphaSchemeConfig, alpha_step, j_inverse
from .noise import truncate_increments
from .poisson import PoissonSystem, ScalarField, fold_fields
from .sde import DomainError, fd_vector_jacobian


@dataclass(frozen=True)
class Chart:
    """Coordinate change y -> (P, Q, C) with target constant matrix b0.

    ``forward`` maps (..., d) -> (..., d) and its last d - 2n components are
    the Casimir functions; ``inverse`` undoes it.  ``jacobian`` is the exact
    A(y) = d theta / dy, mapping (..., d) -> (..., d, d), which chart
    validation and the generic transformed gradients read.  ``domain`` is a
    boolean predicate on y.
    """

    n: int
    forward: Callable
    inverse: Callable
    b0: np.ndarray
    jacobian: Callable
    domain: Callable | None = None

    def levels(self, y) -> np.ndarray:
        """The Casimir levels theta(y)[..., 2n:] of the states y, (..., l)."""
        return self.forward(y)[..., 2 * self.n:]


@dataclass(frozen=True)
class CanonicalSHS:
    """Canonical Hamiltonian system dZ = J^-1 grad H_r(Z) (dt, o dW_r) with the
    Casimir parameters frozen into the Hamiltonians; ``fold`` is derived, the
    :func:`~spoisson.poisson.fold_fields` of the Hamiltonians."""

    hamiltonians: tuple[ScalarField, ...]
    fold: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fold", fold_fields(self.hamiltonians))

    @property
    def n_noise(self) -> int:
        """The number m of noise channels."""
        return len(self.hamiltonians) - 1


def verify_chart(chart: Chart, sys: PoissonSystem, points) -> np.ndarray:
    """Largest entry of |A(y) B(y) A(y)^T - B0| at each point; a chart
    Jacobian with condition number above 1e12 is a ValueError."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    A = chart.jacobian(points)
    cond = np.linalg.cond(A)
    if np.max(cond) > 1e12:
        worst = points[int(np.argmax(cond))]
        raise ValueError(f"chart Jacobian numerically singular at {worst}")
    res = A @ sys.structure(points) @ np.swapaxes(A, -1, -2) - chart.b0
    return np.max(np.abs(res), axis=(-1, -2))


def _block_sign(chart: Chart) -> float:
    """+1 if the leading 2n x 2n block of b0 is J^-1, -1 if it is -J^-1.

    A -J^-1 block is absorbed by negating every Hamiltonian, which brings the
    transformed system to the standard canonical form.
    """
    tn = 2 * chart.n
    block = np.asarray(chart.b0, dtype=float)[:tn, :tn]
    Jinv = j_inverse(chart.n)
    if np.array_equal(block, Jinv):
        return 1.0
    if np.array_equal(block, -Jinv):
        return -1.0
    raise ValueError("chart b0 leading block must be +-[[0,-I],[I,0]]")


def transform_system(sys: PoissonSystem, chart: Chart, y0) -> CanonicalSHS:
    """Generalized canonical system in chart coordinates, Casimirs frozen at y0.

    H_r(Z) = s K_r(theta^-1(Z, C)) with s the chart block sign; gradients come
    from the chain rule with the chart Jacobian, Hessians from central
    differences of that gradient.  Models supply exact transformed systems;
    this generic route is the cross-check that tests compare them against.
    """
    y0 = np.asarray(y0, dtype=float)
    if chart.domain is not None and not np.all(chart.domain(y0)):
        raise DomainError("initial state outside chart domain")
    frozen_c = np.array(chart.levels(y0), dtype=float)
    sign = _block_sign(chart)

    def to_state(z):
        z = np.asarray(z, dtype=float)
        c = np.broadcast_to(frozen_c, z.shape[:-1] + frozen_c.shape)
        return chart.inverse(np.concatenate([z, c], axis=-1))

    def make_field(K: ScalarField) -> ScalarField:
        def value(z):
            return sign * K.value(to_state(z))

        def grad(z):
            y = to_state(z)
            A = chart.jacobian(y)
            g = np.linalg.solve(np.swapaxes(A, -1, -2), K.grad(y)[..., None])[..., 0]
            return sign * g[..., : 2 * chart.n]

        return ScalarField(
            value=value,
            grad=grad,
            hess=lambda z: (grad(z), fd_vector_jacobian(grad, z)),
        )

    return CanonicalSHS(tuple(make_field(K) for K in sys.hamiltonians))


def poisson_integrator(chart: Chart, symplectic_stepper: Callable, frozen_c) -> Callable:
    """Compose a symplectic one-step map on (P, Q) into a map on y.

    The returned map sends y to theta^-1(stepper(Z(theta(y))), C) with C the
    frozen Casimir values, so every iterate reproduces them exactly up to
    inverse-map round-off.  ``frozen_c`` is (l,), or (..., l): one per state.
    """
    frozen_c = np.atleast_1d(np.asarray(frozen_c, dtype=float))
    tn = 2 * chart.n

    def step(y, h, dw):
        y = np.asarray(y, dtype=float)
        if chart.domain is not None:
            ok = np.asarray(chart.domain(y))
            if not np.all(ok):
                raise DomainError("state outside chart domain", mask=~ok)
        z = chart.forward(y)[..., :tn]
        z_new = symplectic_stepper(z, h, dw)
        c = np.broadcast_to(frozen_c, z_new.shape[:-1] + frozen_c.shape[-1:])
        return chart.inverse(np.concatenate([z_new, c], axis=-1))

    return step


@dataclass(frozen=True)
class Model:
    """A Poisson system with what the composed scheme and the CLI need.

    ``chart`` is the canonical chart, one coordinate change on the whole
    domain (``None``: the system has no chart).  ``shs(c)`` is the
    transformed system with exact derivatives and the Casimirs frozen at the
    levels c (..., l), one per state of a batch (see :meth:`Chart.levels`).
    ``default_T`` maps each CLI command to its default final time, and
    ``check_points(rng)`` samples the (k, d) states that ``check`` validates
    at.  A ``y0`` outside either domain is a ValueError.
    """

    name: str
    system: PoissonSystem
    chart: Chart | None
    shs: Callable
    y0: np.ndarray | None
    default_T: dict
    check_points: Callable

    def __post_init__(self) -> None:
        if self.y0 is None:
            return
        if np.shape(self.y0) != (self.system.dim,):
            raise ValueError(f"y0 must have {self.system.dim} components, got {self.y0}")
        if self.system.domain is not None and not self.system.domain(self.y0):
            raise ValueError(f"initial state {self.y0} outside the system domain")
        if self.chart is not None and self.chart.domain is not None and not self.chart.domain(self.y0):
            raise ValueError(f"initial state {self.y0} outside the chart domain")


def make_alpha_stepper(shs: CanonicalSHS, config: AlphaSchemeConfig) -> Callable:
    """The alpha-generating one-step map (z, h, dw) -> z_new on chart
    coordinates, dw of shape (..., 1), clamped by ``config.truncation``: the
    truncated generating function is for a single noise channel."""
    if shs.n_noise != 1:
        raise ValueError(f"alpha-generating schemes need a single noise channel, got {shs.n_noise}")
    return lambda z, h, dw: alpha_step(shs, z, h, truncate_increments(dw, h, config.truncation)[..., 0], config)


def alpha_scheme(model: Model, y0, config: AlphaSchemeConfig) -> Callable:
    """Composed alpha-generating one-step map on y: chart, symplectic step with
    the Casimirs frozen at their values at y0, inverse chart.  A state outside
    the chart domain is a DomainError at the step that takes it."""
    c = model.chart.levels(y0)
    return poisson_integrator(model.chart, make_alpha_stepper(model.shs(c), config), c)


def alpha_scheme_map(model: Model, config: AlphaSchemeConfig) -> Callable:
    """Self-starting variant of :func:`alpha_scheme`: each state of a batch
    steps on its own Casimir levels, read on every call.  Along a trajectory
    the two coincide; off the level of y0 this is the map the scheme defines
    on the whole domain, which Jacobian diagnostics probe."""
    return lambda y, h, dw: alpha_scheme(model, y, config)(y, h, dw)
