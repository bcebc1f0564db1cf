import numpy as np
import pytest

from spoisson.alpha_gf import AlphaSchemeConfig
from spoisson.canonical import alpha_scheme, verify_chart
from spoisson.custom import (
    SpecFileError,
    compile_expr,
    load_custom_system,
    parse_keyvalues,
    parse_matrix_exprs,
)
from spoisson.noise import TimeGrid, sample_increments
from spoisson.poisson import check_casimir, check_jacobi, check_skew
from spoisson.sde import integrate

RIGID_BODY_SPEC = """
# free rigid body with one multiplicative noise channel
dim = 3
m = 1
rank = 2
B = [[0, -y3, y2], [y3, 0, -y1], [-y2, y1, 0]]
K0 = 0.5*(y1**2/2.0 + y2**2/1.0 + y3**2/1.0)
K1 = 0.1*(y1**2/2.0 + y2**2/1.0 + y3**2/1.0)
casimir = 0.5*(y1**2 + y2**2 + y3**2)
# the chart runs at the level set C = 0.495 of y0, so keep |y2| clear of
# the sqrt(2C - y2^2) singularity
domain = (y1**2 + y3**2 > 1e-8) & (y2**2 < 0.9)

chart_n = 1
chart_forward = [y2, arctan2(y3, y1), 0.5*(y1**2 + y2**2 + y3**2)]
chart_inverse = [sqrt(2*z3 - z1**2)*cos(z2), z1, sqrt(2*z3 - z1**2)*sin(z2)]
chart_b0 = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
"""


def _write(tmp_path, text, name="system.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_keyvalues_rejects_garbage():
    with pytest.raises(SpecFileError):
        parse_keyvalues("this is not a key value line")
    with pytest.raises(SpecFileError):
        parse_keyvalues("a = 1\na = 2")


def test_compile_expr_whitelist():
    f = compile_expr("sin(y1) + y2**2", 2)
    y = np.array([0.5, 2.0])
    assert f(y) == pytest.approx(np.sin(0.5) + 4.0)
    with pytest.raises(SpecFileError):
        compile_expr("__import__('os').system('true')", 2)
    with pytest.raises(SpecFileError):
        compile_expr("unknown_name + y1", 2)


def test_matrix_parser_nested_commas():
    rows = parse_matrix_exprs("[[0, arctan2(y1, y2)], [1, 0]]")
    assert rows == [["0", "arctan2(y1, y2)"], ["1", "0"]]


def test_load_custom_system_and_validate(tmp_path):
    custom = load_custom_system(_write(tmp_path, RIGID_BODY_SPEC))
    sysm = custom.system
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.5, 1.5, size=(200, 3))
    pts = pts[pts[:, 0] ** 2 + pts[:, 2] ** 2 > 0.05][:50]
    assert check_skew(sysm, pts).max_residual == 0.0
    # dB comes from finite differences here
    assert check_jacobi(sysm, pts).max_residual < 1e-6
    assert check_casimir(sysm.casimirs[0], sysm, pts).max_residual < 1e-8
    assert custom.chart is not None
    assert verify_chart(custom.chart, sysm, pts).max_residual < 1e-8


def test_custom_composed_scheme_preserves_casimir(tmp_path):
    custom = load_custom_system(_write(tmp_path, RIGID_BODY_SPEC))
    y0 = np.array([1.0 / np.sqrt(2), 1.0 / np.sqrt(2), 0.0])
    step = alpha_scheme(custom.model(y0), y0, AlphaSchemeConfig(alpha=0.5))
    grid = TimeGrid(0.0, 1.0, 100)
    noise = sample_increments(grid, 1, 5)
    cas = custom.system.casimirs[0]
    traj = integrate(step, y0, grid, noise, record={"C": cas.value})
    assert np.max(np.abs(traj.functionals["C"] - 0.5)) < 1e-10
    assert np.max(np.abs(traj.states[0] - y0)) == 0.0


def test_missing_required_keys(tmp_path):
    with pytest.raises(SpecFileError):
        load_custom_system(_write(tmp_path, "dim = 3\nK0 = y1"))
    with pytest.raises(SpecFileError):
        load_custom_system(_write(tmp_path, "dim = 2\nB = [[0, 1], [-1, 0]]"))
