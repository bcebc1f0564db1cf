"""Property tests of the composed alpha schemes beyond the reference
constants, and the pinned limits of the solve: a success at the edge of the
contraction limit, the failure mode past it, a ``check`` whose step size is
past it at a sampled state, and slv ``check`` runs that pass at constants
where stepping on the level of y0 failed."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoisson.alpha_gf import AlphaSchemeConfig
from spoisson.canonical import alpha_scheme
from spoisson.cli import EXIT_NUMERICAL, EXIT_OK, main
from spoisson.experiments import check_suite
from spoisson.noise import TimeGrid, sample_increments
from spoisson.sde import NonConvergenceError, StepError, integrate
from spoisson.models import lotka_volterra as lv
from spoisson.models import rigid_body as rb

ROWS, H, STEPS = 8, 0.01, 20  # T = 0.2


def _srb_state(radius, height, phase):
    rho = radius * math.sqrt(1.0 - height**2)
    return np.array([rho * math.cos(phase), radius * height, rho * math.sin(phase)])


# The constants and initial states the property tests draw.
SRB_PARAMS = st.builds(rb.RigidBodyParams, *[st.floats(0.5, 3.0)] * 3, c1=st.floats(0.0, 0.5))
# |y0| in [0.3, 3], y2 / |y0| in [-0.9, 0.9], away from the chart's poles, and a phase
SRB_Y0 = st.builds(_srb_state, st.floats(0.3, 3.0), st.floats(-0.9, 0.9), st.floats(-math.pi, math.pi))
SLV_PARAMS = st.builds(
    lv.LVParams,
    a=st.floats(-3.0, -1.0),
    b=st.floats(-1.5, -0.5),
    r=st.floats(-1.0, -0.25),
    nu=st.floats(0.5, 2.0),
    mu=st.floats(1.0, 3.0),
    c2=st.floats(0.0, 0.5),
)
SLV_Y0 = st.tuples(*[st.floats(0.2, 2.5)] * 3).map(np.array)


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
@given(params=SRB_PARAMS, y0=SRB_Y0, alpha=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_srb_casimir_drift_below_1e_10(params, y0, alpha, seed):
    model = rb.model(params, y0)
    states = _steps(alpha_scheme(model, y0, AlphaSchemeConfig(alpha=alpha)), y0, seed)
    c0 = rb.CASIMIR.value(y0)
    assert np.max(np.abs(rb.CASIMIR.value(states) - c0)) < 1e-10 * c0


@settings(max_examples=25, deadline=None)
@given(params=SLV_PARAMS, y0=SLV_Y0, alpha=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_slv_iterates_stay_positive_or_fail_typed(params, y0, alpha, seed):
    step = alpha_scheme(lv.model(params, y0), y0, AlphaSchemeConfig(alpha=alpha))
    try:
        states = _steps(step, y0, seed)
    except StepError as exc:
        mask = np.asarray(exc.mask)
        assert mask.dtype == bool and mask.shape == (ROWS,) and mask.any()
        return
    assert np.all(np.isfinite(states))
    assert np.all(states > 0)


def _maps_pass_or_fail_typed(model, seed):
    """``check_suite`` at the first 5 check states inside the chart's domain:
    the symplectic and Poisson-map lines pass, or a step fails with a boolean
    mask."""
    points = model.check_points(np.random.default_rng(seed))
    points = points[model.chart.domain(points)][:5]
    try:
        lines = check_suite(model, points, lambda alpha: AlphaSchemeConfig(alpha=alpha), seed=seed)
    except StepError as exc:
        mask = np.asarray(exc.mask)
        assert mask.dtype == bool and mask.any()
        return
    passed = {line.name: line.passed for line in lines}
    assert passed["symplectic"] and passed["poisson_map"], lines


@settings(max_examples=25, deadline=None)
@given(params=SRB_PARAMS, y0=SRB_Y0, seed=st.integers(0, 2**32 - 1))
def test_srb_check_maps_pass_across_constants(params, y0, seed):
    _maps_pass_or_fail_typed(rb.model(params, y0), seed)


@settings(max_examples=25, deadline=None)
@given(params=SLV_PARAMS, y0=SLV_Y0, seed=st.integers(0, 2**32 - 1))
def test_slv_check_maps_pass_or_fail_typed_across_constants(params, y0, seed):
    _maps_pass_or_fail_typed(lv.model(params, y0), seed)


def test_srb_at_the_edge_of_the_contraction_limit_succeeds():
    # |y0| = 20: every seed of the scan runs T = 1 (at 30 some fail, at 50 all)
    y0 = 20.0 * rb.REFERENCE_Y0
    step = alpha_scheme(rb.model(rb.REFERENCE_PARAMS, y0), y0, AlphaSchemeConfig(alpha=0.0))
    grid = TimeGrid.from_step(1.0, H)
    for seed in range(1, 6):
        states = integrate(step, y0, sample_increments(grid, 1, seed))
        assert np.all(np.isfinite(states))


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


def test_slv_check_past_the_contraction_limit_exits_2(capsys):
    # At h = 0.5 the solve of a step from a sampled check state fails.  The
    # skew, Jacobi, Casimir and chart lines take no step, yet a failing solve
    # of a map check ends the whole check before any line prints.
    assert main(["check", "--system", "slv", "--h", "0.5"]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: no convergence within 100 iterations (residual 1.829e+02)\n"


# Constants and a seed at which ``check`` exited 2 when it stepped each picked
# state's chart coordinates on the level of y0: the pinned failure above until
# each state stepped on its own level, and a run whose iterates overflowed exp.
PINNED = dict(a=-1.5477529781320394, b=-1.2199175981335006, r=-0.8570368296969864, nu=1.794424997874792,
              mu=2.128825642241188, c2=0.24224947117312517, y0="2.2672946600715145,0.397828602940306,1.8011552357840532")
EDGE = dict(a=-3, b=-1.5, r=-1, nu=0.5, mu=1, c2=0, y0="0.2,0.2,0.2")


@pytest.mark.parametrize("constants,seed", [(PINNED, 0), (EDGE, 0), (EDGE, 1), (EDGE, 2)],
                         ids=["pinned-0", "edge-0", "edge-1", "edge-2"])
def test_slv_check_passes_where_the_level_of_y0_failed(constants, seed, capsys):
    argv = ["check", "--system", "slv", "--seed", str(seed)]
    for key, value in constants.items():
        argv += ["--param", f"{key}={value}"]
    assert main(argv) == EXIT_OK
    assert all(line.endswith("PASS") for line in capsys.readouterr().out.splitlines())
