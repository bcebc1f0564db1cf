"""Brownian increment generation, truncation, and coarsening.

Every experiment draws its randomness from one underlying fine-grid path per
sample: increments are generated once on the finest grid in play and coarsened
to the working step sizes, never regenerated per step size.  That keeps strong
(pathwise) error estimates meaningful.

Reproducibility rules, fixed per release:

* RNG is numpy's PCG64.  Monte Carlo sample ``i`` of a run with base seed
  ``s`` uses the substream ``SeedSequence(s, spawn_key=(i,))`` (see
  :func:`sample_seed`).
* Gaussians come from the inverse normal CDF applied to half-integer
  uniforms ``(j + 0.5) / 2**53``, capped at ``1 - 2**-53`` (the sum rounds
  to ``2**53`` for the top j), so draws never hit 0 or 1 exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [t0, T] with n_steps steps of size h."""

    t0: float
    T: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.T > self.t0:
            raise ValueError(f"need T > t0, got [{self.t0}, {self.T}]")

    @classmethod
    def from_step(cls, T: float, h: float) -> TimeGrid:
        """The grid on [0, T] with step h, which must divide T (to 1e-9 T)."""
        if not 0 < T < math.inf:
            raise ValueError(f"T must be positive and finite, got {T}")
        n_steps = round(T / h) if h > 0 else 0
        if n_steps < 1 or abs(n_steps * h - T) > 1e-9 * T:
            raise ValueError(f"step h={h} does not divide [0, {T}]")
        return cls(0.0, T, n_steps)

    @property
    def h(self) -> float:
        return (self.T - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.T, self.n_steps + 1)


@dataclass(frozen=True)
class TruncationPolicy:
    """Clamp standard-normal draws to +-A_h with A_h = sqrt(2 k |ln h|)."""

    k: float = 4.0

    def __post_init__(self) -> None:
        if not 1 <= self.k < math.inf:
            raise ValueError(f"truncation strength k must be finite and >= 1, got {self.k}")


@dataclass(frozen=True)
class WienerIncrements:
    """Per-step Brownian increments ΔW_j ~ N(0, h) on a grid.

    ``values`` has shape (n_steps, m), or (n_steps, n_samples, m) for one
    path per sample, and is read-only; regenerating with the same seed is
    bit-identical.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = self.values.shape
        if len(shape) not in (2, 3) or shape[0] != self.grid.n_steps:
            raise ValueError(f"values shape {shape} does not match (n_steps, [n_samples,] m) "
                             f"with n_steps = {self.grid.n_steps}")
        self.values.setflags(write=False)


def sample_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Substream seed for Monte Carlo sample `index` under base `seed`."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def sample_increments(grid: TimeGrid, m: int, seed) -> WienerIncrements:
    """Draw n_steps x m independent increments ~ N(0, h), deterministic in seed.

    ``seed`` may be a list or tuple of per-sample seeds: the values then have
    shape (n_steps, n_samples, m), sample i's those that seed i gives alone.
    """
    if m < 1:
        raise ValueError(f"need at least one noise channel, got m={m}")
    per_sample = isinstance(seed, (list, tuple))
    seeds = seed if per_sample else [seed]
    u = np.empty((grid.n_steps, len(seeds), m))
    for i, s in enumerate(seeds):  # PCG64(s) seeds with SeedSequence(s)
        rng = np.random.Generator(np.random.PCG64(s))
        u[:, i] = rng.integers(0, 1 << 53, size=(grid.n_steps, m))
    # Inverse-CDF sampling from half-integer uniforms in (0, 1), all samples at once.
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    values = ndtri(u, out=u)
    values *= math.sqrt(grid.h)
    return WienerIncrements(grid=grid, values=values if per_sample else values[:, 0])


def truncation_bound(h: float, k: float) -> float:
    """A_h = sqrt(2 k |ln h|), defined for 0 < h < 1 only."""
    if not 0 < h < 1:
        raise ValueError(f"the increment truncation needs 0 < h < 1, got h={h}")
    return math.sqrt(2.0 * k * abs(math.log(h)))


def truncate_increments(dw, h: float, policy: TruncationPolicy):
    """Clamp increments ΔW = sqrt(h) ξ to [-sqrt(h) A_h, sqrt(h) A_h]."""
    a = truncation_bound(h, policy.k) * math.sqrt(h)
    return np.clip(dw, -a, a)


def coarsen_values(values: np.ndarray, factor: int) -> np.ndarray:
    """Sum each group of `factor` consecutive rows, left to right."""
    n = values.shape[0]
    if factor < 1 or n % factor:
        raise ValueError(f"factor {factor} does not divide n_steps {n}")
    acc = values[0::factor].copy()
    for j in range(1, factor):
        acc += values[j::factor]
    return acc


def coarsen(fine: WienerIncrements, factor: int) -> WienerIncrements:
    """Merge `factor` consecutive fine increments into one coarse increment."""
    grid = fine.grid
    values = coarsen_values(np.asarray(fine.values), factor)
    coarse_grid = TimeGrid(grid.t0, grid.T, grid.n_steps // factor)
    return WienerIncrements(grid=coarse_grid, values=values)
