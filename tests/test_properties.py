"""Property tests of the composed alpha schemes beyond the reference
constants, and the pinned failure mode past the contraction limit."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoisson.alpha_gf import AlphaSchemeConfig
from spoisson.canonical import alpha_scheme
from spoisson.cli import EXIT_NUMERICAL, main
from spoisson.sde import NonConvergenceError, StepError
from spoisson.models import lotka_volterra as lv
from spoisson.models import rigid_body as rb

ROWS, H, STEPS = 8, 0.01, 20  # T = 0.2


def _steps(step, y0, seed):
    """The states of ROWS noise paths from y0 over STEPS steps."""
    rng = np.random.default_rng(seed)
    y = np.tile(y0, (ROWS, 1))
    states = [y]
    for _ in range(STEPS):
        y = step(y, H, math.sqrt(H) * rng.standard_normal((ROWS, 1)))
        states.append(y)
    return np.stack(states)


@settings(max_examples=25, deadline=None)
@given(
    inertia=st.tuples(*[st.floats(0.5, 3.0)] * 3),
    c1=st.floats(0.0, 0.5),
    radius=st.floats(0.3, 3.0),
    height=st.floats(-0.9, 0.9),  # y2 / |y0|, away from the chart's poles
    phase=st.floats(-math.pi, math.pi),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_srb_casimir_drift_below_1e_10(inertia, c1, radius, height, phase, alpha, seed):
    params = rb.RigidBodyParams(*inertia, c1=c1)
    rho = radius * math.sqrt(1.0 - height**2)
    y0 = np.array([rho * math.cos(phase), radius * height, rho * math.sin(phase)])
    model = rb.model(params, y0)
    states = _steps(alpha_scheme(model, y0, AlphaSchemeConfig(alpha=alpha)), y0, seed)
    c0 = rb.CASIMIR.value(y0)
    assert np.max(np.abs(rb.CASIMIR.value(states) - c0)) < 1e-10 * c0


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3.0, -1.0),
    b=st.floats(-1.5, -0.5),
    r=st.floats(-1.0, -0.25),
    nu=st.floats(0.5, 2.0),
    mu=st.floats(1.0, 3.0),
    c2=st.floats(0.0, 0.5),
    y0=st.tuples(*[st.floats(0.2, 2.5)] * 3),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_slv_iterates_stay_positive_or_fail_typed(a, b, r, nu, mu, c2, y0, alpha, seed):
    params = lv.LVParams(a=a, b=b, r=r, nu=nu, mu=mu, c2=c2)
    y0 = np.array(y0)
    step = alpha_scheme(lv.model(params, y0), y0, AlphaSchemeConfig(alpha=alpha))
    try:
        states = _steps(step, y0, seed)
    except StepError as exc:
        mask = np.asarray(exc.mask)
        assert mask.dtype == bool and mask.shape == (ROWS,) and mask.any()
        return
    assert np.all(np.isfinite(states))
    assert np.all(states > 0)


def test_srb_past_the_contraction_limit_fails_with_a_row_mask():
    # |y0| = 100 puts h |Hess H| far above 1 at h = 0.01: the fixed-point
    # solve fails on some rows. Pin that failure mode, not the threshold.
    y0 = 100.0 * rb.REFERENCE_Y0
    step = alpha_scheme(rb.model(rb.REFERENCE_PARAMS, y0), y0, AlphaSchemeConfig(alpha=0.0))
    ys = np.tile(y0, (16, 1))
    dw = math.sqrt(H) * np.random.default_rng(0).standard_normal((16, 1))
    with pytest.raises(NonConvergenceError) as info:
        step(ys, H, dw)
    mask = info.value.mask
    assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (16,)
    assert mask.any()
    for i in np.flatnonzero(~mask):
        assert np.all(np.isfinite(step(ys[i], H, dw[i])))


def test_cli_past_the_contraction_limit_exits_2(capsys):
    argv = ["casimir", "--system", "srb", "--param", "y0=70.71067811865476,70.71067811865476,0"]
    assert main(argv + ["--T", "0.1"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure")
