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
from .poisson import CheckReport, PoissonSystem, ScalarField, _report, fold_fields
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


@dataclass(frozen=True)
class CanonicalSHS:
    """Canonical Hamiltonian system dZ = J^-1 grad H_r(Z) (dt, o dW_r) with the
    Casimir parameters frozen into the Hamiltonians; ``fold`` is derived, the
    :func:`~spoisson.poisson.fold_fields` of the Hamiltonians."""

    n: int
    casimir_values: np.ndarray
    hamiltonians: tuple[ScalarField, ...]
    fold: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fold", fold_fields(self.hamiltonians))

    @property
    def n_noise(self) -> int:
        """The number m of noise channels."""
        return len(self.hamiltonians) - 1


def verify_chart(chart: Chart, sys: PoissonSystem, points) -> CheckReport:
    """Worst entry of A(y) B(y) A(y)^T - B0 over the points; a chart Jacobian
    with condition number above 1e12 is a ValueError."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    A = chart.jacobian(points)
    cond = np.linalg.cond(A)
    if np.max(cond) > 1e12:
        worst = points[int(np.argmax(cond))]
        raise ValueError(f"chart Jacobian numerically singular at {worst}")
    res = A @ sys.structure(points) @ np.swapaxes(A, -1, -2) - chart.b0
    return _report(np.max(np.abs(res), axis=(-1, -2)), points)


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
        raise DomainError("initial state outside chart domain", state=y0)
    tn = 2 * chart.n
    ybar0 = chart.forward(y0)
    frozen_c = np.array(ybar0[..., tn:], dtype=float)
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
            return sign * g[..., :tn]

        return ScalarField(
            value=value,
            grad=grad,
            hess=lambda z: (grad(z), fd_vector_jacobian(grad, z)),
        )

    return CanonicalSHS(
        n=chart.n,
        casimir_values=frozen_c,
        hamiltonians=tuple(make_field(K) for K in sys.hamiltonians),
    )


def poisson_integrator(chart: Chart, symplectic_stepper: Callable, frozen_c) -> Callable:
    """Compose a symplectic one-step map on (P, Q) into a map on y.

    The returned map sends y to theta^-1(stepper(Z(theta(y))), C) with C the
    frozen Casimir values, so every iterate reproduces them exactly up to
    inverse-map round-off.
    """
    frozen_c = np.atleast_1d(np.asarray(frozen_c, dtype=float))
    tn = 2 * chart.n

    def step(y, h, dw):
        y = np.asarray(y, dtype=float)
        if chart.domain is not None:
            ok = np.asarray(chart.domain(y))
            if not np.all(ok):
                raise DomainError("state outside chart domain", state=y, mask=~ok)
        z = chart.forward(y)[..., :tn]
        z_new = symplectic_stepper(z, h, dw)
        c = np.broadcast_to(frozen_c, z_new.shape[:-1] + frozen_c.shape)
        return chart.inverse(np.concatenate([z_new, c], axis=-1))

    return step


@dataclass(frozen=True)
class Model:
    """A Poisson system with what the composed scheme and the CLI need.

    ``chart(y)`` builds the canonical chart for the level set of the state y
    (``None``: the system has no chart).  ``shs(y)`` is the
    transformed system with exact derivatives and the Casimirs frozen at
    their values at the state y.  ``default_T`` maps each CLI command to its
    default final time, and ``check_points(rng)`` samples the (k, d) states
    that ``check`` validates at.  A ``y0`` outside either domain is a ValueError.
    """

    name: str
    system: PoissonSystem
    chart: Callable | None
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
        if self.chart is not None:  # the chart owns the rules on its level set
            chart = self.chart(self.y0)
            if chart.domain is not None and not chart.domain(self.y0):
                raise ValueError(f"initial state {self.y0} outside the chart domain")


def make_alpha_stepper(shs: CanonicalSHS, config: AlphaSchemeConfig) -> Callable:
    """The alpha-generating one-step map (z, h, dw) -> z_new on chart
    coordinates, dw of shape (..., 1): the truncated generating function is
    for a single noise channel."""
    if shs.n_noise != 1:
        raise ValueError(f"alpha-generating schemes need a single noise channel, got {shs.n_noise}")
    return lambda z, h, dw: alpha_step(shs, z, h, np.asarray(dw)[..., 0], config)


def alpha_scheme(model: Model, y0, config: AlphaSchemeConfig) -> Callable:
    """Composed alpha-generating one-step map on y: chart, symplectic step with
    the Casimirs frozen at their values at y0, inverse chart.  A state outside
    the chart domain is a DomainError at the step that takes it."""
    chart = model.chart(y0)
    shs = model.shs(y0)
    inner = poisson_integrator(chart, make_alpha_stepper(shs, config), shs.casimir_values)
    return lambda y, h, dw: inner(y, h, truncate_increments(dw, h, config.truncation))


def alpha_scheme_map(model: Model, config: AlphaSchemeConfig) -> Callable:
    """Self-starting variant of :func:`alpha_scheme`: the Casimir parameters
    come from the input state on every call.  Along a trajectory the two
    coincide (the Casimir is preserved exactly); off the initial level set
    this is the map the scheme defines on the whole domain, which Jacobian
    diagnostics probe.  Batched inputs step row by row."""

    def step(y, h, dw):
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            return alpha_scheme(model, y, config)(y, h, dw)
        dw = np.broadcast_to(np.asarray(dw, dtype=float), y.shape[:-1] + (1,))
        return np.stack([step(yi, h, di) for yi, di in zip(y, dw)])

    return step
