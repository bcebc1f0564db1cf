"""Orchestration of the standard experiments: sample paths against a fine
reference, Casimir evolution against Euler-Maruyama, strong-order estimation,
and the structural check suite.

These functions are the engine behind the CLI commands, which
scripts/experiments.py runs as one set; they return plain data, leaving I/O
to the caller.  Reproducibility: sample i of any Monte Carlo run uses the
substream seed SeedSequence(seed, spawn_key=(i,)), and reductions run in
sample order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .alpha_gf import j_inverse
from .canonical import Model, alpha_scheme_map, make_alpha_stepper, verify_chart
from .noise import TimeGrid, coarsen, sample_increments, truncation_bound
from .poisson import (
    PoissonSystem,
    ScalarField,
    check_casimir,
    check_jacobi,
    check_skew,
    drift_and_diffusions,
    poisson_map_residual,
)
from .sde import (
    TOL,
    euler_maruyama_step,
    implicit_euler_maruyama_step,
    integrate,
    midpoint_step,
    ms_error_many,
)


def reference_stepper(sys: PoissonSystem, tol: float = TOL) -> Callable:
    """Implicit midpoint on the original system, B(ybar) evaluated once per
    iteration (see ``PoissonSystem.increment_map``)."""
    return lambda y, h, dw: midpoint_step(sys, y, h, dw, tol=tol)


def em_stepper(sys: PoissonSystem) -> Callable:
    """Euler-Maruyama on the equivalent Ito form."""
    ito = replace(drift_and_diffusions(sys), drift=sys.ito_drift)
    return lambda y, h, dw: euler_maruyama_step(ito, y, h, dw)


def iem_stepper(sys: PoissonSystem, tol: float = TOL) -> Callable:
    """Drift-implicit, diffusion-explicit Euler on the equivalent Ito form."""
    ito = replace(drift_and_diffusions(sys), drift=sys.ito_drift)
    return lambda y, h, dw: implicit_euler_maruyama_step(ito, y, h, dw, tol=tol)


@dataclass(frozen=True)
class PathsResult:
    times: np.ndarray
    states: np.ndarray      # (n_steps + 1, d), or (n_steps + 1, k, d) stacked: the scheme
    reference: np.ndarray   # (n_steps + 1, d), fine midpoint sampled on the grid
    ref_step: float


def paths_experiment(
    sys: PoissonSystem,
    scheme: Callable,
    y0,
    grid: TimeGrid,
    seed: int,
    ref_factor: int = 1000,
    tol: float = TOL,
    stack: int | None = None,
) -> PathsResult:
    """One sample path of the scheme and a coupled fine-midpoint reference.

    The reference runs at h / ref_factor, with ref_factor reduced so the total
    reference step count stays below 10^6.  A scheme stacked over ``stack``
    alphas steps y0 once per block, all on the one path, against the one
    reference.
    """
    if ref_factor < 1:
        raise ValueError(f"ref_factor must be >= 1, got {ref_factor}")
    ref_factor = max(1, min(ref_factor, 10**6 // grid.n_steps))
    fine_grid = TimeGrid(grid.t0, grid.T, grid.n_steps * ref_factor)
    fine = sample_increments(fine_grid, sys.n_noise, seed)
    reference = integrate(reference_stepper(sys, tol), y0, fine)
    start = y0 if stack is None else np.broadcast_to(y0, (stack,) + np.shape(y0))
    return PathsResult(
        times=grid.times(),
        states=integrate(scheme, start, coarsen(fine, ref_factor)),
        reference=reference[::ref_factor],
        ref_step=fine_grid.h,
    )


@dataclass(frozen=True)
class CasimirResult:
    times: np.ndarray
    columns: dict[str, np.ndarray]  # casimir values per scheme name


def casimir_experiment(
    sys: PoissonSystem,
    schemes: dict,
    casimir: ScalarField,
    y0,
    grid: TimeGrid,
    seed: int,
) -> CasimirResult:
    """Casimir evolution of several schemes along one shared sample path.

    A key of ``schemes`` is a name, or a tuple of k names whose stepper steps
    a (k, d) stack of states, block i the scheme named key[i]."""
    noise = sample_increments(grid, sys.n_noise, seed)
    columns = {}
    for key, scheme in schemes.items():
        stacked = isinstance(key, tuple)
        start = np.broadcast_to(y0, (len(key),) + np.shape(y0)) if stacked else y0
        C = casimir.value(integrate(scheme, start, noise))
        columns.update(zip(key, C.T) if stacked else [(key, C)])
    return CasimirResult(times=grid.times(), columns=columns)


def order_experiment(
    sys: PoissonSystem,
    schemes: dict,
    y0,
    T: float,
    step_sizes,
    n_samples: int,
    seed: int,
    ref_factor: int = 8,
    tol: float = TOL,
    on_sample_error: str = "raise",
):
    """Coupled strong-error estimates against the fine midpoint reference.

    Errors are measured at T in the original coordinates (Euclidean norm),
    after any chart inverses the schemes apply internally.  A tuple key of
    ``schemes`` names the blocks of a stacked stepper (see ``ms_error_many``).
    """
    return ms_error_many(
        schemes,
        reference_stepper(sys, tol),
        sys.n_noise,
        y0,
        T,
        step_sizes,
        n_samples,
        seed,
        ref_factor=ref_factor,
        on_sample_error=on_sample_error,
    )


@dataclass(frozen=True)
class CheckLine:
    name: str
    residual: float
    threshold: float
    point: np.ndarray | None = None  # the worst state of a pointwise validator

    @property
    def passed(self) -> bool:
        return self.residual < self.threshold


# Documented residual thresholds of the check suite.
THRESHOLDS = {
    "skew": 1e-10,
    "jacobi": 1e-8,
    "casimir": 1e-10,
    "chart": 1e-8,
    "symplectic": 1e-6,
    "poisson_map": 1e-6,
}


def check_suite(
    model: Model,
    points: np.ndarray,
    config: Callable,
    alphas=(0.0, 0.5, 1.0),
    h: float = 0.01,
    seed: int = 0,
) -> list[CheckLine]:
    """Structural validators with pass/fail thresholds at the ``points``
    inside the system's and the chart's domain (none is a ValueError), each
    scheme configured by ``config(alpha)``.  With a chart, the alpha
    steppers' symplecticity is checked at the picked states' chart
    coordinates, each stepped on its own Casimir level, the Poisson map at
    the picked states, both at truncated increments (so 0 < h < 1), each line
    one batched residual call (per alpha), one increment per state."""
    sys, chart = model.system, model.chart
    if sys.domain is not None:
        points = points[sys.domain(points)]
    if chart is not None and chart.domain is not None:
        points = points[chart.domain(points)]
    if len(points) == 0:
        raise ValueError("no check point inside the declared domain")
    rng = np.random.default_rng(seed)

    def pointwise(name, residuals, kind=None):  # the first worst point; a NaN is worst, as below
        worst = int(np.argmax(residuals))
        return CheckLine(name, float(residuals[worst]), THRESHOLDS[kind or name], point=points[worst])

    lines = [pointwise("skew", check_skew(sys, points)),
             pointwise("jacobi", check_jacobi(sys, points))]
    lines += [pointwise(f"casimir[{i}]", check_casimir(C, sys, points), "casimir")
              for i, C in enumerate(sys.casimirs)]
    if chart is None:
        return lines
    lines.append(pointwise("chart", verify_chart(chart, sys, points)))
    pick = rng.choice(len(points), size=min(20, len(points)), replace=False)
    shs, zs = model.shs(chart.levels(points[pick, None])), chart.forward(points[pick])[:, : 2 * chart.n]
    worst = 0.0
    truncation_bound(h, 1.0)  # the truncation's rule 0 < h < 1, before sqrt(h) below
    for alpha in alphas:  # one draw of (k, 1) gives the numbers of k draws of one
        stepper = make_alpha_stepper(shs, config(alpha))
        dw = rng.standard_normal((len(zs), 1)) * np.sqrt(h)
        worst = np.max(poisson_map_residual(stepper, lambda _: j_inverse(chart.n), zs, h, dw, eps=1e-6), initial=worst)
    lines.append(CheckLine("symplectic", worst, THRESHOLDS["symplectic"]))
    dw = rng.standard_normal((len(pick), 1)) * np.sqrt(h)
    residuals = poisson_map_residual(alpha_scheme_map(model, config(0.5)), sys.structure, points[pick], h, dw, eps=1e-6)
    lines.append(CheckLine("poisson_map", np.max(residuals), THRESHOLDS["poisson_map"]))
    return lines
