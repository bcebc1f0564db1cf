"""Oracles of the tests: quantities of a Poisson system that the library does
not need for its integrators, written straight from their definitions."""
import numpy as np


def bracket(F, G, sys, y):
    """Poisson bracket {F, G}(y) = grad F(y)^T B(y) grad G(y)."""
    y = np.asarray(y, dtype=float)
    return np.einsum("...i,...ij,...j->...", F.grad(y), sys.structure(y), G.grad(y))
