import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from spoisson.noise import (
    TimeGrid,
    TruncationPolicy,
    WienerIncrements,
    coarsen,
    coarsen_values,
    sample_increments,
    sample_seed,
    truncate_increments,
    truncation_bound,
)

# sqrt(2 * 4 * |ln 0.01|), frozen
A_H_001_K4 = 6.069708517540585


def test_grid_rejects_empty():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)


def test_grid_rejects_backwards_interval():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(2.0, 1.0, 10)


def test_grid_spacing():
    grid = TimeGrid(1.0, 3.0, 4)
    assert grid.h == pytest.approx(0.5)
    assert np.allclose(grid.times(), [1.0, 1.5, 2.0, 2.5, 3.0])


def test_grid_from_step_divides_the_interval():
    grid = TimeGrid.from_step(0.5, 0.01)
    assert (grid.t0, grid.T, grid.n_steps) == (0.0, 0.5, 50)


@pytest.mark.parametrize(
    "T, h",
    [(1.0, 0.3), (1.0, 0.0), (1.0, -0.1), (1.0, math.nan), (1.0, math.inf), (1.0, 2.0),
     (math.nan, 0.01), (math.inf, 0.01), (0.0, 0.01), (-1.0, 0.01)],
)
def test_grid_from_step_rejects_a_step_that_does_not_divide(T, h):
    with pytest.raises(ValueError, match="does not divide|positive and finite"):
        TimeGrid.from_step(T, h)


def test_same_seed_is_bit_identical():
    grid = TimeGrid(0.0, 1.0, 64)
    a = sample_increments(grid, 2, 123)
    b = sample_increments(grid, 2, 123)
    assert np.array_equal(a.values, b.values)
    c = sample_increments(grid, 2, 124)
    assert not np.array_equal(a.values, c.values)


def test_sample_seed_substreams_differ():
    grid = TimeGrid(0.0, 1.0, 16)
    a = sample_increments(grid, 1, sample_seed(7, 0))
    b = sample_increments(grid, 1, sample_seed(7, 1))
    assert not np.array_equal(a.values, b.values)


def test_values_are_read_only():
    grid = TimeGrid(0.0, 1.0, 8)
    incs = sample_increments(grid, 1, 0)
    with pytest.raises(ValueError):
        incs.values[0, 0] = 1.0


class _ExtremeGenerator:
    """Stands in for ``np.random.Generator``: its ``integers`` alternate the
    largest and the smallest value of [low, high)."""

    def __init__(self, bit_generator):
        pass

    def integers(self, low, high, size):
        return np.resize(np.array([high - 1, low], dtype=np.int64), size)


def test_extreme_integer_draws_give_finite_increments(monkeypatch):
    # for j = 2**53 - 1, j + 0.5 rounds to 2**53: a uniform of exactly 1
    monkeypatch.setattr(np.random, "Generator", _ExtremeGenerator)
    grid = TimeGrid(0.0, 1.0, 4)
    for seed in (0, [0, 1]):
        values = sample_increments(grid, 2, seed).values
        assert np.all(np.isfinite(values))
        top, bottom = values[0, ..., 0], values[0, ..., 1]
        assert np.all(top == ndtri(1.0 - 2.0**-53) * math.sqrt(grid.h))
        assert np.all(bottom == ndtri(2.0**-54) * math.sqrt(grid.h))


def test_shape_mismatch_rejected():
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        WienerIncrements(grid=grid, values=np.zeros((4, 1)))


def test_moments_match_n0h():
    # Monte Carlo moment oracle: DW ~ N(0, h) with h = 0.01.
    grid = TimeGrid(0.0, 1000.0, 100_000)
    incs = sample_increments(grid, 1, 42)
    draws = incs.values[:, 0]
    assert abs(float(np.mean(draws))) < 4e-3
    assert abs(float(np.var(draws)) - 0.01) < 5e-4


def test_truncate_inside_band_is_identity():
    policy = TruncationPolicy(k=4.0)
    assert truncate_increments(0.03, 0.01, policy) == 0.03


def test_truncation_bound_value():
    assert truncation_bound(0.01, 4.0) == pytest.approx(A_H_001_K4, abs=1e-12)
    assert truncation_bound(0.01, 4.0) == pytest.approx(6.0697, abs=1e-4)


def test_truncate_clamps_both_tails():
    policy = TruncationPolicy(k=4.0)
    assert truncate_increments(1.0, 0.01, policy) == pytest.approx(0.1 * A_H_001_K4, abs=1e-12)
    assert truncate_increments(-1.0, 0.01, policy) == pytest.approx(-0.1 * A_H_001_K4, abs=1e-12)


def test_truncate_rejects_h_at_least_one():
    policy = TruncationPolicy(k=4.0)
    with pytest.raises(ValueError):
        truncate_increments(0.3, 1.0, policy)
    with pytest.raises(ValueError):
        truncate_increments(0.3, 2.0, policy)


@pytest.mark.parametrize("h", [math.nan, 0.0, 1.0])
def test_truncation_rejects_h_outside_unit_interval(h):
    with pytest.raises(ValueError, match="0 < h < 1"):
        truncation_bound(h, 4.0)
    with pytest.raises(ValueError, match="0 < h < 1"):
        truncate_increments(np.array([0.1, -0.2]), h, TruncationPolicy(k=4.0))


def test_policy_rejects_small_k():
    with pytest.raises(ValueError):
        TruncationPolicy(k=0.5)


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_truncation_bound_holds_for_all_draws(dw):
    policy = TruncationPolicy(k=4.0)
    assert abs(truncate_increments(dw, 0.01, policy)) <= 0.1 * A_H_001_K4


@given(
    st.floats(-200.0, 200.0),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([1.0, 2.0, 4.0, 8.0]),
)
def test_truncated_increment_is_the_clamped_draw_times_sqrt_h(xi, h, k):
    # Rounding is monotone and both sides clamp at fl(A_h sqrt(h)), so
    # clamping the increment equals clamping the draw, bit for bit.
    policy = TruncationPolicy(k=k)
    a = truncation_bound(h, k)
    for x in (xi, -xi, a, -a, np.nextafter(a, 0.0), np.nextafter(a, np.inf)):
        want = np.clip(x, -a, a) * np.sqrt(h)
        assert truncate_increments(x * np.sqrt(h), h, policy) == want


def test_truncate_increments_bound():
    policy = TruncationPolicy(k=4.0)
    h = 0.01
    dw = np.array([10.0, -10.0, 0.001])
    out = truncate_increments(dw, h, policy)
    assert np.all(np.abs(out) <= math.sqrt(h) * A_H_001_K4)
    assert out[2] == 0.001


def test_coarsen_factor_one_is_identity():
    grid = TimeGrid(0.0, 1.0, 10)
    fine = sample_increments(grid, 2, 5)
    coarse = coarsen(fine, 1)
    assert np.array_equal(coarse.values, fine.values)
    assert coarse.grid == grid


def test_coarsen_adds_pairs():
    grid = TimeGrid(0.0, 1.0, 2)
    fine = WienerIncrements(grid=grid, values=np.array([[1.5], [2.25]]))
    coarse = coarsen(fine, 2)
    assert coarse.grid.n_steps == 1
    assert coarse.values[0, 0] == 1.5 + 2.25


def test_coarsen_rejects_non_divisor():
    grid = TimeGrid(0.0, 1.0, 10)
    fine = sample_increments(grid, 1, 5)
    with pytest.raises(ValueError):
        coarsen(fine, 3)


def test_coarsen_telescopes_exactly():
    # Left-to-right group sums match an independent left-to-right reduction.
    grid = TimeGrid(0.0, 1.0, 12)
    fine = sample_increments(grid, 2, 9)
    coarse = coarsen(fine, 3)
    for j in range(4):
        expected = fine.values[3 * j].copy()
        for i in (1, 2):
            expected = expected + fine.values[3 * j + i]
        assert np.array_equal(coarse.values[j], expected)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=24),
    st.integers(min_value=1, max_value=4),
)
def test_coarsen_group_sums_property(entries, factor):
    values = np.asarray(entries, dtype=float).reshape(-1, 1)
    n = (values.shape[0] // factor) * factor
    if n == 0:
        return
    values = values[:n]
    coarse = coarsen_values(values, factor)
    assert coarse.shape == (n // factor, 1)
    for j in range(n // factor):
        acc = values[factor * j, 0]
        for i in range(1, factor):
            acc = acc + values[factor * j + i, 0]
        assert coarse[j, 0] == acc


def test_coarsen_variance_oracle():
    # 1e5 coarse increments from a fine grid with h = 1e-3, factor 10:
    # each is N(0, 1e-2).
    grid = TimeGrid(0.0, 1000.0, 1_000_000)
    fine = sample_increments(grid, 1, 77)
    coarse = coarsen_values(np.asarray(fine.values), 10)
    assert coarse.shape == (100_000, 1)
    assert abs(float(np.var(coarse)) - 1e-2) < 5e-4


@pytest.mark.parametrize("m", [1, 2])
def test_sample_increments_of_a_seed_list_stack_the_single_seed_draws(m):
    grid = TimeGrid(0.0, 1.0, 40)
    for seeds in ([sample_seed(7, i) for i in range(5)], (3, 11), [sample_seed(1, 0)]):
        stacked = sample_increments(grid, m, seeds)
        single = [sample_increments(grid, m, s).values for s in seeds]
        assert stacked.values.shape == (40, len(seeds), m)
        assert np.array_equal(stacked.values, np.stack(single, axis=1))
        assert not stacked.values.flags.writeable


def test_wiener_increments_shape_check_allows_a_sample_axis():
    grid = TimeGrid(0.0, 1.0, 4)
    for shape in ((4, 2), (4, 3, 2)):
        assert WienerIncrements(grid=grid, values=np.zeros(shape)).values.shape == shape
    for shape in ((4,), (3, 2), (5, 3, 2), (4, 1, 1, 2)):
        with pytest.raises(ValueError):
            WienerIncrements(grid=grid, values=np.zeros(shape))
