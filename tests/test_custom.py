import ast
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spoisson.alpha_gf import AlphaSchemeConfig
from spoisson.canonical import alpha_scheme, verify_chart
from spoisson.custom import (
    _ALLOWED_FUNCS,
    _RULES,
    SpecFileError,
    _diff,
    _entries,
    _parse,
    _scalar_field,
    compile_expr,
    load_custom_system,
    parse_keyvalues,
)
from spoisson.models import rigid_body as rb
from spoisson.noise import TimeGrid, sample_increments
from spoisson.poisson import check_casimir, check_jacobi, check_skew
from spoisson.sde import fd_vector_jacobian, integrate

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
    rows = _entries("[[0, arctan2(y1, y2)], [1, 0]]", 2)
    assert [[ast.unparse(e) for e in row] for row in rows] == [["0", "arctan2(y1, y2)"], ["1", "0"]]


def test_load_custom_system_and_validate(tmp_path):
    custom = load_custom_system(_write(tmp_path, RIGID_BODY_SPEC))
    sysm = custom.system
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.5, 1.5, size=(200, 3))
    pts = pts[pts[:, 0] ** 2 + pts[:, 2] ** 2 > 0.05][:50]
    assert check_skew(sysm, pts).max_residual == 0.0
    # dB is exact: linear entries give constant +-1 derivatives
    assert check_jacobi(sysm, pts).max_residual == 0.0
    assert check_casimir(sysm.casimirs[0], sysm, pts).max_residual < 1e-8
    assert custom.y0 is None and custom.chart is not None
    assert verify_chart(custom.chart(pts[0]), sysm, pts).max_residual < 1e-8


def test_custom_composed_scheme_preserves_casimir(tmp_path):
    custom = load_custom_system(_write(tmp_path, RIGID_BODY_SPEC))
    y0 = np.array([1.0 / np.sqrt(2), 1.0 / np.sqrt(2), 0.0])
    step = alpha_scheme(replace(custom, y0=y0), y0, AlphaSchemeConfig(alpha=0.5))
    grid = TimeGrid(0.0, 1.0, 100)
    noise = sample_increments(grid, 1, 5)
    cas = custom.system.casimirs[0]
    states = integrate(step, y0, grid, noise)
    assert np.max(np.abs(cas.value(states) - 0.5)) < 1e-10
    assert np.max(np.abs(states[0] - y0)) == 0.0


def test_missing_required_keys(tmp_path):
    with pytest.raises(SpecFileError):
        load_custom_system(_write(tmp_path, "dim = 3\nK0 = y1"))
    with pytest.raises(SpecFileError):
        load_custom_system(_write(tmp_path, "dim = 2\nB = [[0, 1], [-1, 0]]"))


# One expression per differentiation rule, defined on the box [0.2, 0.8]^2
# (with y1 != y2 where a rule is piecewise).
RULE_EXPRESSIONS = {
    "Add": "y1 + y2**2", "Sub": "y1**2 - y2", "Mult": "y1 * y2", "Div": "y1 / y2",
    "Pow": "y1 ** y2 + y2 ** 3 + y1 ** 0.5", "UAdd": "+y1 * y2", "USub": "-y1 * y2",
    **{
        f: f"{f}(0.5*y1 + 0.3*y2) * y2"
        for f in ("sin", "cos", "tan", "exp", "log", "sqrt", "arctan", "arcsin",
                  "arccos", "sinh", "cosh", "tanh")
    },
    "abs": "abs(y1 - y2) * y1", "sign": "sign(y1 - y2) * y1**2",
    "arctan2": "arctan2(y1, y2 - 0.5) * y2", "minimum": "minimum(y1, y2) * y1",
    "maximum": "maximum(y1, y2) * y1 + maximum(y1, y2) * y2",
}
# Constant negative exponents, on the box [-0.8, -0.2]^2 where log(y) is NaN:
# their derivatives must not carry the a**b*log(a)*db term of the Pow rule.
NEGATIVE_BOX_EXPRESSIONS = ["y1**-2 * y2", "y1**(-1) + y2**-3.0", "(y1 - y2)**-2", "-y1**-3 * abs(-2)"]


def test_every_rule_has_an_expression():
    assert set(RULE_EXPRESSIONS) == set(_RULES)
    operators = {"Add", "Sub", "Mult", "Div", "Pow", "UAdd", "USub"}
    assert set(RULE_EXPRESSIONS) - operators == set(_ALLOWED_FUNCS) - {"pi", "e"}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [(e, 1.0) for e in RULE_EXPRESSIONS.values()] + [(e, -1.0) for e in NEGATIVE_BOX_EXPRESSIONS]
    ),
    st.floats(0.2, 0.8),
    st.floats(0.2, 0.8),
)
def test_exact_derivatives_match_central_differences(case, y1, y2):
    assume(abs(y1 - y2) > 0.05)
    expr, box_sign = case
    field = _scalar_field(_parse(expr), ["y1", "y2"])
    y = box_sign * np.array([y1, y2])
    g, H = field.hess(y)
    assert np.array_equal(g, field.grad(y))
    assert np.allclose(field.grad(y), fd_vector_jacobian(field.value, y), rtol=1e-6, atol=1e-8)
    assert np.allclose(H, fd_vector_jacobian(field.grad, y), rtol=1e-6, atol=1e-8)
    assert np.array_equal(H, H.T)


def test_derivative_source_names_only_whitelisted_functions():
    allowed = set(_ALLOWED_FUNCS) | {"y1", "y2"}
    for expr in RULE_EXPRESSIONS.values():
        grad = [_diff(_parse(expr), v) for v in ("y1", "y2")]
        trees = grad + [_diff(g, v) for g in grad for v in ("y1", "y2")]
        names = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
        assert names <= allowed, expr
    with pytest.raises(SpecFileError):
        compile_expr("y1.real", 2)


@pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3), (0, 3)])
def test_constant_entries_broadcast(tmp_path, shape):
    custom = load_custom_system(_write(tmp_path, RIGID_BODY_SPEC))
    y = np.random.default_rng(1).uniform(0.2, 1.0, size=shape)
    batch = shape[:-1]
    assert np.array_equal(custom.system.structure(y), rb.system(rb.REFERENCE_PARAMS).structure(y))
    dB = custom.system.structure_derivative(y)
    assert np.array_equal(dB, np.broadcast_to(rb._DB, batch + (3, 3, 3)))
    K = custom.system.hamiltonians[0]
    assert K.value(y).shape == batch
    assert np.array_equal(K.hess(y)[1], np.broadcast_to(np.diag([0.5, 1.0, 1.0]), batch + (3, 3)))
    jacobian = custom.chart(y).jacobian(y)
    assert np.array_equal(jacobian[..., 0, :], np.broadcast_to([0.0, 1.0, 0.0], batch + (3,)))


def test_custom_fields_match_the_analytic_rigid_body(tmp_path):
    custom = load_custom_system(_write(tmp_path, RIGID_BODY_SPEC))
    params = rb.RigidBodyParams(i1=2.0, i2=1.0, i3=1.0, c1=0.2)
    y0 = np.array([0.7, 0.3, 0.2])
    shs, analytic = custom.shs(y0), rb.transformed_shs(params, float(rb.CASIMIR.value(y0)))
    zs = np.random.default_rng(2).uniform([-0.7, -3.0], [0.7, 3.0], size=(20, 2))
    for H, A in zip(shs.hamiltonians, analytic.hamiltonians):
        assert np.allclose(H.value(zs), A.value(zs), rtol=1e-13, atol=1e-15)
        assert np.allclose(H.grad(zs), A.grad(zs), rtol=1e-12, atol=1e-14)
        assert np.allclose(H.hess(zs)[1], A.hess(zs)[1], rtol=1e-12, atol=1e-13)
    chart = custom.chart(y0)
    ys = chart.inverse(np.concatenate([zs, np.full((20, 1), shs.casimir_values[0])], axis=-1))
    assert np.allclose(chart.jacobian(ys), rb.chart(0.31).jacobian(ys), rtol=1e-13, atol=1e-14)
