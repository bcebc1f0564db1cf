"""Literal transcriptions of the hand-expanded model updates, used as oracles.

These are written straight from the closed-form per-model displays of the
mixed-point update, independent of the generating-function implementation,
so agreement is a genuine cross-check, not a tautology.
"""
import numpy as np


def srb_update(params, cas, alpha, pbar, qbar, pn, qn, h, dw):
    """Rigid-body mixed-point update evaluated at (pbar, qbar)."""
    i1, i2, i3, c1 = params.i1, params.i2, params.i3, params.c1
    ca = (alpha - 0.5) * (1 / i1 - 1 / i3)
    hpp = 1 / i2 - np.cos(qbar) ** 2 / i1 - np.sin(qbar) ** 2 / i3
    p_next = (
        pn
        - (0.5 / i3 - 0.5 / i1) * (2 * cas - pbar**2) * np.sin(2 * qbar) * (h + c1 * dw)
        + c1**2
        * ca
        * (2 * cas - pbar**2)
        * pbar
        * (np.cos(2 * qbar) * hpp - np.sin(2 * qbar) ** 2 * (0.5 / i3 - 0.5 / i1))
        * dw**2
    )
    q_next = (
        qn
        + hpp * pbar * (h + c1 * dw)
        + c1**2 * ca * hpp * (1.5 * pbar**2 - cas) * np.sin(2 * qbar) * dw**2
    )
    return p_next, q_next


def slv_update(params, cas, alpha, pbar, qbar, pn, qn, h, dw):
    """Lotka-Volterra mixed-point update evaluated at (pbar, qbar)."""
    a, b, r, nu, mu, c2 = params.a, params.b, params.r, params.nu, params.mu, params.c2
    ca = c2**2 * (alpha - 0.5)
    E = np.exp(r * (cas - pbar - b * qbar))
    p_next = (
        pn
        - (h + c2 * dw) * (a * b**2 * r * E + np.exp(-qbar) + nu)
        - ca
        * dw**2
        * (
            -2 * a**2 * b**4 * r**3 * E**2
            - (r * b + 1) * a * b * r * E * np.exp(-qbar)
            - r * b * (nu * a * b * r + mu * a * b**2 * r) * E
            - a**2 * b**3 * r**2 * E * np.exp(pbar)
            - a * np.exp(pbar - qbar)
            - mu * np.exp(-qbar)
        )
    )
    q_next = (
        qn
        + (h + c2 * dw) * (a * b * r * E + a * np.exp(pbar) + mu)
        + ca
        * dw**2
        * (
            -2 * a**2 * b**3 * r**3 * E**2
            - a * b * r**2 * E * np.exp(-qbar)
            - (nu * a * b * r**2 + mu * a * b**2 * r**2) * E
            + (1 - r) * a**2 * b**2 * r * E * np.exp(pbar)
            + a * np.exp(pbar - qbar)
            + a * nu * np.exp(pbar)
        )
    )
    return p_next, q_next


def mixed_point_update(shs, alpha, pbar, qbar, pn, qn, h, dw):
    """The generic update P - dSbar/dQhat, Q + dSbar/dPhat at (pbar, qbar)."""
    from spoisson.alpha_gf import sbar_gradient

    g = sbar_gradient(shs, np.array([pbar, qbar]), h, np.asarray(dw), alpha)
    return pn - g[1], qn + g[0]
