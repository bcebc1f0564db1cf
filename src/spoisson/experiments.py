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
    check_casimir,
    check_jacobi,
    check_skew,
    drift_and_diffusions,
    poisson_map_residual,
)
from .sde import (
    TOL,
    IntegrationError,
    euler_maruyama_step,
    implicit_euler_maruyama_path,
    implicit_euler_maruyama_step,
    integrate,
    midpoint_path,
    midpoint_step,
    ms_error_many,
)


def reference_stepper(sys: PoissonSystem, tol: float = TOL) -> Callable:
    """Implicit midpoint on the original system, B(ybar) evaluated once per
    iteration (see ``PoissonSystem.increment_map``): the batched reference of
    ``order``, stepped one step at a time (``paths`` solves its reference with
    ``midpoint_path``)."""
    return lambda y, h, dw: midpoint_step(sys, y, h, dw, tol=tol)


def _ito(sys: PoissonSystem):
    """The equivalent Ito form of the system, as an SDE."""
    return replace(drift_and_diffusions(sys), drift=sys.ito_drift)


def em_stepper(sys: PoissonSystem) -> Callable:
    """Euler-Maruyama on the equivalent Ito form."""
    ito = _ito(sys)
    return lambda y, h, dw: euler_maruyama_step(ito, y, h, dw)


def iem_stepper(sys: PoissonSystem, tol: float = TOL) -> Callable:
    """Drift-implicit, diffusion-explicit Euler on the equivalent Ito form."""
    ito = _ito(sys)
    return lambda y, h, dw: implicit_euler_maruyama_step(ito, y, h, dw, tol=tol)


def em_path(sys: PoissonSystem) -> Callable:
    """The path solver (y0, noise) -> states of :func:`em_stepper`, which
    steps: Euler-Maruyama is explicit."""
    stepper = em_stepper(sys)
    return lambda y0, noise: integrate(stepper, y0, noise)


def iem_path(sys: PoissonSystem, tol: float = TOL) -> Callable:
    """The path solver (y0, noise) -> states of :func:`iem_stepper`, solved a
    window of steps at a time (``sde.implicit_euler_maruyama_path``)."""
    ito = _ito(sys)
    return lambda y0, noise: implicit_euler_maruyama_path(ito, y0, noise, tol)


def _run(schemes: dict, y0, noise) -> dict:
    """The states of each path solver of ``schemes`` (see
    :func:`casimir_experiment`) from y0, per key, a tuple key's from a stack
    of y0; a failed run is an IntegrationError naming its column(s)."""
    out = {}
    for key, path in schemes.items():
        stacked = isinstance(key, tuple)
        try:
            out[key] = path(np.broadcast_to(y0, (len(key),) + np.shape(y0)) if stacked else y0, noise)
        except IntegrationError as exc:
            column = ",".join(key) if stacked else key
            raise IntegrationError(exc.step_index, exc.__cause__, column=column) from exc.__cause__
    return out


@dataclass(frozen=True)
class PathsResult:
    times: np.ndarray
    states: np.ndarray      # (n_steps + 1, k, d): one block per name of the scheme keys, in order
    reference: np.ndarray   # (n_steps + 1, d), fine midpoint sampled on the grid
    ref_step: float


def paths_experiment(
    sys: PoissonSystem,
    schemes: dict,
    y0,
    grid: TimeGrid,
    seed: int,
    ref_factor: int = 1000,
    tol: float = TOL,
) -> PathsResult:
    """One sample path of each scheme and a coupled fine-midpoint reference.

    ``schemes`` is keyed as in :func:`casimir_experiment`.  The reference
    runs at h / ref_factor, with ref_factor reduced so the total reference
    step count is at most 10^6, and is solved a window of steps at a time
    (``midpoint_path``).  Every scheme runs on the one path, against the one
    reference.
    """
    if ref_factor < 1:
        raise ValueError(f"ref_factor must be >= 1, got {ref_factor}")
    ref_factor = max(1, min(ref_factor, 10**6 // grid.n_steps))
    fine_grid = TimeGrid(grid.t0, grid.T, grid.n_steps * ref_factor)
    fine = sample_increments(fine_grid, sys.n_noise, seed)
    reference = midpoint_path(sys, y0, fine, tol)
    runs = _run(schemes, y0, coarsen(fine, ref_factor))
    return PathsResult(
        times=grid.times(),
        states=np.concatenate([s if isinstance(k, tuple) else s[:, None] for k, s in runs.items()], axis=1),
        reference=reference[::ref_factor],
        ref_step=fine_grid.h,
    )


@dataclass(frozen=True)
class CasimirResult:
    times: np.ndarray
    columns: dict[str, np.ndarray]  # per scheme name, the (n_steps + 1, l) values of the l Casimirs


def casimir_experiment(
    sys: PoissonSystem,
    schemes: dict,
    y0,
    grid: TimeGrid,
    seed: int,
) -> CasimirResult:
    """Evolution of the Casimirs ``sys.casimirs`` under several schemes along
    one shared sample path.

    A value of ``schemes`` is a path solver (y0, noise) -> states; a key is a
    name, or a tuple of k names whose solver runs a (k, d) stack of states,
    block i the scheme named key[i].  A failed run is an IntegrationError
    that names its column(s)."""
    noise = sample_increments(grid, sys.n_noise, seed)
    columns = {}
    for key, states in _run(schemes, y0, noise).items():
        C = np.stack([casimir.value(states) for casimir in sys.casimirs], axis=-1)  # (n_steps + 1, [k,] l)
        columns.update(zip(key, np.moveaxis(C, 1, 0)) if isinstance(key, tuple) else [(key, C)])
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
