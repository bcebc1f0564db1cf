"""The alpha-generating-function family of symplectic one-step schemes.

For a canonical system dZ = J^-1 grad H_0 dt + J^-1 grad H_1 o dW (one noise
channel) the truncated generating function at mean-square order 1 is

    Sbar(Phat, Qhat) = H_0 h + H_1 dW
                       + (2 alpha - 1) (dH_1/dQhat . dH_1/dPhat) dW^2 / 2,

the only iterated-integral combination surviving the truncation being
dW^2 / 2.  The update solves the implicit system

    P+ = P - dSbar/dQhat,   Q+ = Q + dSbar/dPhat,   i.e.  Z+ = Z + J^-1 grad Sbar,

evaluated at the mixed point Phat = (1-alpha) P + alpha P+,
Qhat = alpha Q + (1-alpha) Q+.  The gradient ordering is fixed as
(d/dPhat; d/dQhat) with J^-1 = [[0, -I], [I, 0]].

States are Z = (P_1..P_n, Q_1..Q_n) arrays of shape (..., 2n); increments
are expected already truncated by the caller's policy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .noise import TruncationPolicy
from .sde import MAX_ITER, TOL, fixed_point


def j_inverse(n: int) -> np.ndarray:
    """The canonical block [[0, -I_n], [I_n, 0]]."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


@dataclass(frozen=True)
class AlphaSchemeConfig:
    alpha: float | tuple[float, ...]  # a tuple: states stack one block per alpha
    tol: float = TOL
    truncation: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self) -> None:
        alphas = self.alpha if isinstance(self.alpha, tuple) else (self.alpha,)
        if not alphas or not all(0.0 <= a <= 1.0 for a in alphas):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


def sbar_gradient(shs, zhat, h: float, dw, alpha: float | np.ndarray) -> np.ndarray:
    """Exact gradient (dSbar/dPhat, dSbar/dQhat) of Sbar at the mixed point
    zhat = (Phat, Qhat); zhat and the gradient have shape (..., 2n).

    ``shs`` provides, in ``shs.fold``, H_r = c_r F_{k_r} for r = 0, 1,
    so that a noise Hamiltonian scaled from H_0 costs no second gradient.
    The extra term needs the Hessian of F_{k_1} unless alpha = 1/2, where
    its coefficient vanishes; otherwise one jet call (``hess``) gives both
    derivatives of F_{k_1}.  ``dw`` is the scalar increment, batched over
    leading axes.  An array ``alpha`` (one value per block, broadcast against
    zhat) takes the Hessian for every block and multiplies the term by 0
    where alpha = 1/2, which needs a finite Hessian there too.
    """
    n = zhat.shape[-1] // 2
    fields, (k0, k1), (c0, c1) = shs.fold
    dw = np.asarray(dw, dtype=float)[..., None]
    second = isinstance(alpha, np.ndarray) or alpha != 0.5
    if second and fields[k1].hess is None:
        raise ValueError("alpha != 1/2 needs the Hessian of the noise Hamiltonian")
    g1, hs = fields[k1].hess(zhat) if second else (fields[k1].grad(zhat), None)
    if k0 == k1:
        grad = (h * c0 + c1 * dw) * g1
    else:
        grad = fields[k0].grad(zhat) * (h * c0) + g1 * (c1 * dw)
    if second:
        # G = dH1/dQ . dH1/dP = c1^2 dF/dQ . dF/dP for F = F_{k1}, g1 = grad F:
        #   dG/dz_j / c1^2 = sum_k (hs[n+k, j] gP_k + gQ_k hs[k, j]) = sum_i hs[i, j] u_i
        # with u = (gQ, gP)
        u = np.concatenate([g1[..., n:], g1[..., :n]], axis=-1)
        gradG = np.einsum("...ij,...i->...j", hs, u)
        grad = grad + (2.0 * alpha - 1.0) * 0.5 * c1 * c1 * dw**2 * gradG
    return grad


def alpha_step(shs, z, h: float, dw, config: AlphaSchemeConfig):
    """One implicit step of the alpha-generating scheme from state z = (P, Q).

    Solves z_new = z + J^-1 grad Sbar(zhat) at the mixed point
    zhat = (1-alpha, alpha) z + (alpha, 1-alpha) z_new (per half) by
    fixed-point iteration from z, stopping when successive iterates differ
    by < tol in max norm; non-contractive inputs surface as
    NonConvergenceError or DivergenceError, never as silent wrong answers.
    A tuple ``config.alpha`` steps block i of z's leading axis with alpha[i],
    bit for bit as that alpha alone.
    """
    z = np.asarray(z, dtype=float)
    increment = alpha_increment(shs, h, dw, config, z.shape[-1] // 2, z.ndim)
    return fixed_point(lambda z_new: z + increment(z, z_new), z, config.tol, MAX_ITER)


def alpha_increment(shs, h: float, dw, config: AlphaSchemeConfig, n: int, ndim: int):
    """The increment map (z, z_new) -> J^-1 grad Sbar(zhat) of
    :func:`alpha_step` on states (..., 2n) with ndim axes, such as the
    (..., W, 2n) steps of a window of ``sde.window_path`` with one scalar
    increment per step in ``dw`` (W,).  A tuple ``config.alpha`` gives one
    value per block of the leading axis."""
    alpha = config.alpha
    if isinstance(alpha, tuple):
        alpha = alpha[0] if len(set(alpha)) == 1 else np.reshape(alpha, (-1,) + (1,) * (ndim - 1))
    # (1 - alpha, alpha) and (alpha, 1 - alpha) per half; (gP, gQ) -> (-gQ, gP)
    w = np.concatenate([(1.0 - alpha) * np.ones(n), alpha * np.ones(n)], axis=-1)
    b, swap, sign = w[..., ::-1], np.r_[n:2 * n, :n], np.repeat([-1.0, 1.0], n)

    def increment(z, z_new):
        g = sbar_gradient(shs, w * z + b * z_new, h, dw, alpha)
        return g[..., swap] * sign

    return increment
