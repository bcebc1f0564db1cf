"""Generic stepping loop, baseline integrators, and strong-error estimation.

One-step maps are pure functions ``step(y, h, dw) -> y_new`` where ``y`` has
shape (..., d) and ``dw`` shape (..., m); leading axes are an optional batch
(Monte Carlo samples run as one vectorized batch, each sample frozen the
moment its own implicit iteration converges, so results are independent of
batch membership).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .noise import TimeGrid, WienerIncrements, coarsen_values, sample_increments, sample_seed


class StepError(RuntimeError):
    """Base class for one-step map failures.

    ``mask`` (when set) is a boolean array over the batch axes marking the
    failing samples.
    """

    def __init__(self, message: str, mask=None):
        super().__init__(message)
        self.mask = mask


class NonConvergenceError(StepError):
    """Implicit iteration exceeded its cap; carries the last residual."""

    def __init__(self, message: str, residual: float, mask=None):
        super().__init__(f"{message} (residual {residual:.3e})", mask)
        self.residual = residual


class DivergenceError(StepError):
    """Iterates left the representable range (NaN/Inf or overflow guard)."""


class DomainError(StepError):
    """State left the declared domain."""


class IntegrationError(RuntimeError):
    """A stepper failed mid-trajectory; carries the step index."""

    def __init__(self, step_index: int, cause: Exception):
        super().__init__(f"stepper failed at step {step_index}: {cause}")
        self.step_index = step_index


@dataclass(frozen=True)
class SDE:
    """dy = a(y) dt + sum_r b_r(y) dW_r; each stepper says whether it reads
    the fields as Ito or Stratonovich ones."""

    drift: Callable
    diffusions: tuple[Callable, ...]

    def increment_map(self, h: float, dw):
        """The map y -> h a(y) + sum_r b_r(y) dW_r of one step."""
        columns = [dw[..., r, None] for r in range(len(self.diffusions))]

        def increment(y):
            out = h * self.drift(y)
            for b, col in zip(self.diffusions, columns):
                out = out + b(y) * col
            return out

        return increment


@dataclass(frozen=True)
class OrderEstimate:
    """Root-mean-square errors e(h) at T and the log-log least-squares slope."""

    step_sizes: np.ndarray
    errors: np.ndarray
    slope: float
    n_samples: int
    n_dropped: int = 0


_FD_EPS = float(np.cbrt(np.finfo(float).eps))
MAX_ITER = 100  # iteration cap of every implicit step
TOL = 1e-12  # default tolerance of every implicit step


def fd_vector_jacobian(f: Callable, y: np.ndarray, eps: float | None = None) -> np.ndarray:
    """Central-difference derivative of a field: the library's only finite
    differences, for the one-step-map diagnostics and the test oracles.

    ``f`` maps (..., d) -> (..., *out) and is called once, on the 2d states
    y +- eps e_j stacked on a new axis before the last.  The result has shape
    (..., *out, d) with last index j the derivative in y_j (a gradient for
    scalar fields, a Jacobian [..., i, j] = df_i/dy_j for vector fields).
    The default eps = cbrt(ulp) (1 + max|y|), per state, balances truncation
    and round-off; a batch's rows get the derivatives they get alone.
    """
    y = np.asarray(y, dtype=float)
    if eps is None:
        eps = _FD_EPS * (1.0 + np.max(np.abs(y), axis=-1, keepdims=True))
    eps = np.asarray(eps, dtype=float)
    E = eps[..., None] * np.eye(y.shape[-1])
    out = np.asarray(f(np.concatenate([y[..., None, :] + E, y[..., None, :] - E], axis=-2)))
    plus, minus = np.split(out, 2, axis=y.ndim - 1)
    eps = eps.reshape(eps.shape + (1,) * (out.ndim - y.ndim))  # over the output axes
    return np.moveaxis((plus - minus) / (2.0 * eps), y.ndim - 1, -1)


def euler_maruyama_step(sde: SDE, y, h: float, dw):
    """Euler-Maruyama step; reads the fields as Ito coefficients."""
    y = np.asarray(y, dtype=float)
    return y + sde.increment_map(h, np.asarray(dw, dtype=float))(y)


def fixed_point(update: Callable, x0: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Iterate x <- update(x) until successive iterates differ by < tol in
    every entry of the last axis (the state), per batch entry; converged
    entries are frozen.  The test is elementwise: max |xn - x| < tol."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    x = np.array(x0, dtype=float, copy=True)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError(f"x0 needs a last axis holding the state, got shape {x.shape}")
    batched = x.ndim > 1
    active = np.ones(x.shape[:-1], dtype=bool)
    frozen = False  # some row has converged: mask the copy and the worst delta
    for _ in range(max_iter):
        xn = update(x)
        d = abs(xn - x)
        if batched:  # d.max(-1) folded by column: numpy is slow over a short last axis
            delta = d[..., 0]
            for k in range(1, d.shape[-1]):
                delta = np.maximum(delta, d[..., k])
            worst = float((np.where(active, delta, 0.0) if frozen else delta).max(initial=0.0))
        else:
            delta = worst = float(d.max())
        # x stays finite (for finite x0): worst is NaN/Inf iff an active row's xn is.
        if not math.isfinite(worst):
            raise DivergenceError("iterates diverged to NaN/Inf", mask=active & ~np.isfinite(delta))
        if frozen:
            np.copyto(x, xn, where=np.repeat(active, x.shape[-1]).reshape(x.shape))
        else:
            x[...] = xn
        if worst < tol:
            return x
        if batched:
            active &= delta >= tol
            frozen = frozen or not active.all()
    raise NonConvergenceError(f"no convergence within {max_iter} iterations", worst, mask=active)


def midpoint_step(system, y, h: float, dw, tol: float = TOL):
    """Implicit midpoint rule y_new = y + increment_map(h, dw)(ybar) at
    ybar = (y + y_new) / 2, by fixed point; ``system`` is an :class:`SDE`,
    whose fields it reads as Stratonovich coefficients, or a
    ``poisson.PoissonSystem``.  Its ``increment_map`` is built once per step."""
    y = np.asarray(y, dtype=float)
    increment = system.increment_map(h, np.asarray(dw, dtype=float))
    return fixed_point(lambda ynew: y + increment(0.5 * (y + ynew)), y, tol, MAX_ITER)


def implicit_euler_maruyama_step(sde: SDE, y, h: float, dw, tol: float = TOL):
    """Drift-implicit, diffusion-explicit Euler; reads the fields as Ito
    coefficients."""
    y = np.asarray(y, dtype=float)
    dw = np.asarray(dw, dtype=float)
    noise = np.zeros_like(y)
    for r, b in enumerate(sde.diffusions):
        noise = noise + b(y) * dw[..., r, None]

    def update(ynew):
        return y + h * sde.drift(ynew) + noise

    return fixed_point(update, y, tol, MAX_ITER)


def integrate(stepper: Callable, y0, noise: WienerIncrements) -> np.ndarray:
    """Run a one-step map over noise.grid; the (n_steps + 1, ...) array of states."""
    y = np.asarray(y0, dtype=float)
    states = np.empty((noise.grid.n_steps + 1,) + y.shape)
    states[0] = y
    h = noise.grid.h
    for j in range(noise.grid.n_steps):
        try:
            y = stepper(y, h, noise.values[j])
        except Exception as exc:
            raise IntegrationError(j, exc) from exc
        states[j + 1] = y
    return states


def fit_order(step_sizes, errors) -> float:
    """Least-squares slope of ln e against ln h; NaN if degenerate."""
    hs = np.asarray(step_sizes, dtype=float)
    es = np.asarray(errors, dtype=float)
    if len(hs) < 2 or np.any(es <= 0):
        return float("nan")
    return float(np.polyfit(np.log(hs), np.log(es), 1)[0])


def _run_endpoint(stepper, y, h, values):
    for j in range(values.shape[0]):
        try:
            y = stepper(y, h, values[j])
        except StepError:  # carries the sample mask that "drop" needs
            raise
        except Exception as exc:
            raise IntegrationError(j, exc) from exc
    return y


def ms_error_many(
    schemes: dict,
    reference: Callable,
    m: int,
    y0,
    T: float,
    step_sizes,
    n_samples: int,
    seed: int,
    ref_factor: int = 8,
    on_sample_error: str = "raise",
) -> dict[str, OrderEstimate]:
    """Coupled strong-error estimates for several schemes at once.

    All schemes and the reference share one underlying Brownian path per
    sample: increments are generated on the reference grid (step
    h_min / ref_factor) and summed to the working step sizes.  Errors are
    Euclidean endpoint norms averaged in sample order over [0, T].

    A key of ``schemes`` is a name, or a tuple of k names of a stepper over
    states of shape (k, n_samples, d), block i the scheme key[i] (one alpha
    per block, say); the noise broadcasts over the blocks.

    ``on_sample_error``: "raise" (default) aborts on any failing sample;
    "drop" excludes failing samples, failing in any block, from every run
    (sample results are batch-independent, so re-masking earlier runs is
    exact).
    """
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    if ref_factor < 1:
        raise ValueError(f"ref_factor must be >= 1, got {ref_factor}")
    if on_sample_error not in ("raise", "drop"):
        raise ValueError(f"unknown sample error policy {on_sample_error!r}")
    hs = np.asarray(sorted(step_sizes, reverse=True), dtype=float)
    if not (hs > 0).all() or len(np.unique(hs)) != len(hs):
        raise ValueError(f"step sizes must be positive and distinct, got {tuple(step_sizes)}")
    # Working steps first: if each divides T, so does the reference step.
    n_working = [TimeGrid.from_step(T, float(h)).n_steps for h in hs]
    h_ref = float(hs[-1]) / ref_factor
    fine_grid = TimeGrid.from_step(T, h_ref)
    n_ref = fine_grid.n_steps
    factors = []
    for h, n_steps in zip(hs, n_working):
        if n_ref % n_steps:
            raise ValueError(f"step size {h} is not a multiple of the reference step")
        factors.append(n_ref // n_steps)

    seeds = [sample_seed(seed, i) for i in range(n_samples)]
    fine = sample_increments(fine_grid, m, seeds).values  # (n_ref, n_samples, m)
    y0 = np.asarray(y0, dtype=float)

    included = np.ones(n_samples, dtype=bool)

    def run(stepper, h, values, lead=()):
        """Endpoint states over currently included samples; NaN elsewhere."""
        while True:
            idx = np.flatnonzero(included)
            if idx.size == 0:
                raise RuntimeError("all samples failed")
            start = np.broadcast_to(y0, lead + (idx.size,) + y0.shape).copy()
            try:
                y_end = _run_endpoint(stepper, start, h, values[:, idx])
            except StepError as exc:
                if on_sample_error == "raise" or exc.mask is None:
                    raise
                failing = np.asarray(exc.mask, dtype=bool).reshape(-1, idx.size).any(0)
                included[idx[failing]] = False
                continue
            out = np.full(lead + (n_samples,) + y0.shape, np.nan)
            out[..., idx, :] = y_end
            return out

    y_ref = run(reference, h_ref, fine)
    coarse = [coarsen_values(fine, f) for f in factors]
    endpoints = {}
    for key, scheme in schemes.items():
        lead = (len(key),) if isinstance(key, tuple) else ()
        ends = [run(scheme, float(h), cv, lead) for h, cv in zip(hs, coarse)]
        for i, name in enumerate(key if lead else (key,)):
            endpoints[name] = [y_end[i] if lead else y_end for y_end in ends]

    out = {}
    for name, ends in endpoints.items():
        errors = np.empty(len(hs))
        for i, y_end in enumerate(ends):
            diff = y_end[included] - y_ref[included]
            errors[i] = np.sqrt(np.mean(np.sum(diff**2, axis=-1)))
        out[name] = OrderEstimate(
            step_sizes=hs,
            errors=errors,
            slope=fit_order(hs, errors),
            n_samples=int(included.sum()),
            n_dropped=int(n_samples - included.sum()),
        )
    return out
