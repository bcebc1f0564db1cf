"""Stochastic Poisson systems: structural validators, Jacobians.

A Poisson system dy = B(y)(grad K_0 dt + sum_r grad K_r o dW_r) is described
by its skew structure matrix B (which must satisfy the Jacobi condition) and
m+1 scalar Hamiltonians.  The validators here check those properties
numerically at user-supplied points and return the residual at each point,
entrywise max-abs; the caller picks the worst.

Rank constancy of B is declared by the system author and is not verified.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .noise import TimeGrid, WienerIncrements
from .sde import SDE, fd_vector_jacobian, integrate, midpoint_step


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of the state with its gradient and optional jet.

    Conventions: ``value`` maps (..., d) -> (...), ``grad`` maps
    (..., d) -> (..., d), and ``hess`` maps (..., d) to the second-order jet
    (grad F, Hess F), shapes (..., d) and (..., d, d), whose gradient is
    bitwise ``grad``: a reader of the Hessian takes the gradient from the
    same call.  (The benchmark tracer swaps ``grad`` and ``hess`` by name,
    so the name stays; a ``hess`` that returns the bare Hessian, the old
    rule, is misread.)  A field made by :func:`scale_field` records its
    ``base`` field and ``scale``.
    """

    value: Callable
    grad: Callable
    hess: Callable | None = None
    base: ScalarField | None = None
    scale: float = 1.0


def scale_field(f: ScalarField, c: float) -> ScalarField:
    """The field c f, which keeps f as its base so that :func:`fold_fields`
    evaluates f once for both."""
    hess = None if f.hess is None else (lambda y: tuple(c * part for part in f.hess(y)))
    return ScalarField(
        value=lambda y: c * f.value(y),
        grad=lambda y: c * f.grad(y),
        hess=hess,
        base=f,
        scale=c,
    )


def fold_fields(fields) -> tuple[tuple[ScalarField, ...], tuple[int, ...], tuple[float, ...]]:
    """Distinct fields F_k, and per field K_r of ``fields`` its index k_r and
    factor c_r with K_r = c_r F_{k_r} (the weights W[r, k_r] = c_r).

    Only scaled copies (:func:`scale_field`) fold: one joins the earlier
    field whose ``value`` callable its base shares, so it still folds with a
    copy of that field whose ``grad`` or ``hess`` was swapped (for a wrapper,
    say), and that copy is the one evaluated.  Any other field is distinct.
    """
    distinct, index, scale = [], [], []
    for K in fields:
        c, k = 1.0, None
        if K.base is not None:
            while K.base is not None:
                c, K = c * K.scale, K.base
            k = next((i for i, F in enumerate(distinct) if F.value is K.value), None)
        if k is None:
            k = len(distinct)
            distinct.append(K)
        index.append(k)
        scale.append(c)
    return tuple(distinct), tuple(index), tuple(scale)


@dataclass(frozen=True)
class PoissonSystem:
    """Structure matrix with its exact derivative, and the Hamiltonians.

    ``structure`` maps (..., d) -> (..., d, d); ``structure_derivative`` maps
    (..., d) -> (..., d, d, d) with [..., i, j, s] = dB_ij/dy_s, which the
    Jacobi check, :meth:`ito_drift` and the variational equation read.
    ``hamiltonians`` holds K_0 .. K_m.  ``rank`` is the declared constant
    rank 2n of B, so d = 2n + l.  ``fold`` is derived: the
    :func:`fold_fields` of the Hamiltonians.
    """

    dim: int
    structure: Callable
    hamiltonians: tuple[ScalarField, ...]
    rank: int
    structure_derivative: Callable
    casimirs: tuple[ScalarField, ...] = ()
    domain: Callable | None = None
    fold: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rank % 2 or not 0 <= self.rank <= self.dim:
            raise ValueError(f"rank must be even and within [0, {self.dim}]")
        object.__setattr__(self, "fold", fold_fields(self.hamiltonians))

    @property
    def n_noise(self) -> int:
        """The number m of noise channels."""
        return len(self.hamiltonians) - 1

    def increment_map(self, h: float, dw):
        """The map y -> B(y) (h grad K_0(y) + sum_r dW_r grad K_r(y)) of one
        step, which evaluates B and the gradient of each distinct field of
        :attr:`fold` once; the coefficients are summed once, here."""
        fields, index, scale = self.fold
        coef = [0.0] * len(fields)  # coef[k] sums h c_0 and the dW_r c_r of the K_r = c_r F_k
        coef[index[0]] = h * scale[0]
        for r in range(1, len(index)):
            coef[index[r]] = coef[index[r]] + scale[r] * dw[..., r - 1, None]

        def increment(y):
            v = coef[0] * fields[0].grad(y)
            for k in range(1, len(fields)):
                v = v + coef[k] * fields[k].grad(y)
            return np.einsum("...ij,...j->...i", self.structure(y), v)

        return increment

    def ito_drift(self, y):
        """The Ito drift B grad K_0 + 1/2 sum_r (dB . grad K_r + B Hess K_r)
        B grad K_r of the system, with B, dB, the jet of each distinct noise
        field of :attr:`fold` and the gradient of each field only the drift
        reads evaluated once."""
        fields, index, scale = self.fold
        if any(fields[k].hess is None for k in index[1:]):
            raise ValueError("the Ito drift needs the Hessian of each noise Hamiltonian")
        y = np.asarray(y, dtype=float)
        B, dB = self.structure(y), self.structure_derivative(y)
        jets = {k: fields[k].hess(y) for k in set(index[1:])}
        grads = [jets[k][0] if k in jets else F.grad(y) for k, F in enumerate(fields)]
        out = np.einsum("...ij,...j->...i", B, scale[0] * grads[index[0]])
        for k, c in zip(index[1:], scale[1:]):
            g = c * grads[k]
            jac = _bgrad_jacobian(B, dB, g, c * jets[k][1])
            out = out + 0.5 * np.einsum("...ij,...j->...i", jac, np.einsum("...ij,...j->...i", B, g))
        return out


def _bgrad_jacobian(B, dB, g, hess):
    """Jacobian dB . g + B hess of the field B grad K at one state, from B, dB,
    g = grad K and hess = Hess K there."""
    return np.einsum("...acb,...c->...ab", dB, g) + B @ hess


def drift_and_diffusions(sys: PoissonSystem) -> SDE:
    """Coefficient fields a = B grad K_0 and b_r = B grad K_r of the system."""

    def make_field(K: ScalarField) -> Callable:
        return lambda y: np.einsum("...ij,...j->...i", sys.structure(y), K.grad(y))

    return SDE(
        drift=make_field(sys.hamiltonians[0]),
        diffusions=tuple(make_field(K) for K in sys.hamiltonians[1:]),
    )


def check_skew(sys: PoissonSystem, points) -> np.ndarray:
    """Largest entry of |B(y) + B(y)^T| at each of the (k, d) points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    B = sys.structure(points)
    return np.max(np.abs(B + np.swapaxes(B, -1, -2)), axis=(-1, -2))


def check_jacobi(sys: PoissonSystem, points) -> np.ndarray:
    """Largest cyclic-sum residual of the Jacobi condition at each point.

    Residual per point and index triple (i, j, k):
    sum_s (dB_ij/dy_s B_sk + dB_jk/dy_s B_si + dB_ki/dy_s B_sj).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dB = sys.structure_derivative(points)
    B = sys.structure(points)
    T = np.einsum("...ijs,...sk->...ijk", dB, B)
    R = T + np.moveaxis(T, (-3, -2, -1), (-1, -3, -2)) + np.moveaxis(T, (-3, -2, -1), (-2, -1, -3))
    return np.max(np.abs(R), axis=(-1, -2, -3))


def check_casimir(C: ScalarField, sys: PoissonSystem, points) -> np.ndarray:
    """Largest entry of |grad C(y)^T B(y)| at each point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows = np.einsum("...i,...ij->...j", C.grad(points), sys.structure(points))
    return np.max(np.abs(rows), axis=-1)


def variational_jacobian(
    sys: PoissonSystem,
    y0,
    grid: TimeGrid,
    noise: WienerIncrements,
    tol: float = 1e-12,
) -> np.ndarray:
    """Jacobian of the flow via the variational equation, integrated alongside
    the state: dz_j = M_0 z_j dt + sum_r M_r z_j o dW_r, z_j(t0) = e_j.

    The augmented (state, variational) system is solved with the implicit
    midpoint rule, which makes the result the exact Jacobian of that
    discretized flow (up to the iteration tolerance).
    """
    if any(K.hess is None for K in sys.hamiltonians):
        raise ValueError("variational equation needs the Hamiltonian Hessians")
    d = sys.dim

    def aug_field(K: ScalarField) -> Callable:
        def f(u):
            y = u[..., :d]
            Z = u[..., d:].reshape(u.shape[:-1] + (d, d))
            B, (g, hess) = sys.structure(y), K.hess(y)
            dZ = _bgrad_jacobian(B, sys.structure_derivative(y), g, hess) @ Z
            vec = np.einsum("...ij,...j->...i", B, g)
            return np.concatenate([vec, dZ.reshape(u.shape[:-1] + (d * d,))], axis=-1)

        return f

    aug = SDE(
        drift=aug_field(sys.hamiltonians[0]),
        diffusions=tuple(aug_field(K) for K in sys.hamiltonians[1:]),
    )
    u0 = np.concatenate([np.asarray(y0, dtype=float), np.eye(d).ravel()])
    states = integrate(lambda u, h, dw: midpoint_step(aug, u, h, dw, tol=tol), u0, grid, noise)
    return states[-1][d:].reshape(d, d)


def poisson_map_residual(
    step: Callable, structure: Callable, y, h: float, dw, eps: float | None = None
) -> float:
    """Max-abs entry of M B(y) M^T - B(step(y)), M the fd step Jacobian, B = structure."""
    y = np.asarray(y, dtype=float)
    M = fd_vector_jacobian(lambda x: step(x, h, dw), y, eps)
    y_new = step(y, h, np.asarray(dw, dtype=float))
    res = M @ structure(y) @ M.T - structure(y_new)
    return float(np.max(np.abs(res)))
