import ast
import dis
import gc
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spoisson.alpha_gf import AlphaSchemeConfig
from spoisson.canonical import alpha_scheme, verify_chart
from spoisson import custom as custom_module
from spoisson.cli import EXIT_CONFIG, main
from spoisson.custom import (
    _ALLOWED_FUNCS,
    _GLOBALS,
    _LOC,
    _RULES,
    SpecFileError,
    _diff,
    _entries,
    _parse,
    _scalar_field,
    compile_expr,
    compile_field,
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

SRB_CUSTOM = (Path(__file__).resolve().parents[1] / "bench" / "srb_custom.txt").read_text()


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
    assert check_skew(sysm, pts).max() == 0.0
    # dB is exact: linear entries give constant +-1 derivatives
    assert check_jacobi(sysm, pts).max() == 0.0
    assert check_casimir(sysm.casimirs[0], sysm, pts).max() < 1e-8
    assert custom.y0 is None and custom.chart is not None
    assert verify_chart(custom.chart, sysm, pts).max() < 1e-8


def test_custom_composed_scheme_preserves_casimir(tmp_path):
    custom = load_custom_system(_write(tmp_path, RIGID_BODY_SPEC))
    y0 = np.array([1.0 / np.sqrt(2), 1.0 / np.sqrt(2), 0.0])
    step = alpha_scheme(replace(custom, y0=y0), y0, AlphaSchemeConfig(alpha=0.5))
    grid = TimeGrid(0.0, 1.0, 100)
    noise = sample_increments(grid, 1, 5)
    cas = custom.system.casimirs[0]
    states = integrate(step, y0, noise)
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
    jacobian = custom.chart.jacobian(y)
    assert np.array_equal(jacobian[..., 0, :], np.broadcast_to([0.0, 1.0, 0.0], batch + (3,)))


def test_custom_fields_match_the_analytic_rigid_body(tmp_path):
    custom = load_custom_system(_write(tmp_path, RIGID_BODY_SPEC))
    params = rb.RigidBodyParams(i1=2.0, i2=1.0, i3=1.0, c1=0.2)
    y0 = np.array([0.7, 0.3, 0.2])
    shs, analytic = custom.shs(custom.chart.levels(y0)), rb.transformed_shs(params, float(rb.CASIMIR.value(y0)))
    zs = np.random.default_rng(2).uniform([-0.7, -3.0], [0.7, 3.0], size=(20, 2))
    for H, A in zip(shs.hamiltonians, analytic.hamiltonians):
        assert np.allclose(H.value(zs), A.value(zs), rtol=1e-13, atol=1e-15)
        assert np.allclose(H.grad(zs), A.grad(zs), rtol=1e-12, atol=1e-14)
        assert np.allclose(H.hess(zs)[1], A.hess(zs)[1], rtol=1e-12, atol=1e-13)
    chart = custom.chart
    ys = chart.inverse(np.concatenate([zs, np.full((20, 1), chart.levels(y0))], axis=-1))
    assert np.allclose(chart.jacobian(ys), rb.chart().jacobian(ys), rtol=1e-13, atol=1e-14)


def _array_pow(t, memo: dict):
    """A copy of tree t with each a ** b as _pow(a, b): the rewrite that
    compile_field applied, entry by entry and with no shared locals, before
    it bound repeated subtrees to locals."""
    if not isinstance(t, ast.expr) or isinstance(t, (ast.Name, ast.Constant)):
        return t
    if id(t) not in memo:
        f = {k: [_array_pow(x, memo) for x in v] if isinstance(v, list) else _array_pow(v, memo)
             for k, v in ast.iter_fields(t)}
        out = type(t)(**f, **_LOC)
        if isinstance(out, ast.BinOp) and isinstance(out.op, ast.Pow):
            out = ast.Call(ast.Name("_pow", ast.Load(), **_LOC), [out.left, out.right], [], **_LOC)
        memo[id(t)] = out
    return memo[id(t)]


def _unshared(trees, names):
    """compile_field without the shared locals: every entry tree evaluated in
    full, each a ** b as _array_pow writes it."""
    args = ast.arguments([], [ast.arg(n, **_LOC) for n in names], None, [], [], None, [])
    body = ast.Tuple([_array_pow(t, {}) for t in trees.flat], ast.Load(), **_LOC)
    fn = eval(compile(ast.Expression(ast.Lambda(args, body, **_LOC)), "<expr>", "eval"), _GLOBALS)

    def f(y):
        out = np.empty(y.shape[:-1] + trees.shape)
        flat = out.reshape(y.shape[:-1] + (trees.size,))
        for i, value in enumerate(fn(*np.moveaxis(y, -1, 0))):
            flat[..., i] = value
        return out

    return f


# a state, and chart coordinates (z1, z2, c) with 2c > z1**2
Y0, W = np.array([0.7, 0.3, 0.2]), np.array([0.3, 0.6, 0.31])


def _outputs(model, reverse=False):
    """label -> output of every compiled function of a loaded model, each
    called once: B, dB, the domain, the chart's maps, then each scalar field's
    value, gradient and jet, or all of it in reverse order (jets first)."""
    system, chart, shs = model.system, model.chart, model.shs(model.chart.levels(Y0))
    calls = [("B", system.structure, Y0), ("dB", system.structure_derivative, Y0),
             ("domain", system.domain, Y0), ("forward", chart.forward, Y0),
             ("inverse", chart.inverse, W), ("jacobian", chart.jacobian, Y0)]
    fields = [*system.hamiltonians, *system.casimirs, *shs.hamiltonians]
    for i, F in enumerate(fields):
        x = W[:2] if i >= len(fields) - len(shs.hamiltonians) else Y0
        calls += [(f"{i}.value", F.value, x), (f"{i}.grad", F.grad, x), (f"{i}.jet", F.hess, x)]
    return {label: f(x) for label, f, x in (calls[::-1] if reverse else calls)}


def _compiled_fields(monkeypatch, tmp_path, text):
    """(trees, names, compiled function) of each compile_field call of a load
    whose every compiled function has been called once."""
    calls = []

    def recording(trees, names):
        f = compile_field(trees, names)
        calls.append((np.array(trees, dtype=object), list(names), f))
        return f

    monkeypatch.setattr(custom_module, "compile_field", recording)
    _outputs(load_custom_system(_write(tmp_path, text)))
    return calls


@pytest.mark.parametrize("text", [SRB_CUSTOM, RIGID_BODY_SPEC], ids=["srb_custom", "rigid_body"])
def test_shared_locals_give_the_bits_of_the_unshared_trees(monkeypatch, tmp_path, text):
    calls = _compiled_fields(monkeypatch, tmp_path, text)
    # domain, B, dB, the chart's four maps, and 3 for each of K_0, K_1, the Casimir, H_0 and H_1
    assert len(calls) == 22
    rng = np.random.default_rng(3)
    for trees, names, f in calls:
        reference = _unshared(trees, names)
        for batch in [(), (5,), (2, 4)]:
            # z3 = c >= 0.2 > z1**2 / 2 keeps sqrt(2*z3 - z1**2) real
            y = rng.uniform(0.2, 0.6, size=batch + (len(names),))
            got, want = f(y), reference(y)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (names, trees)


def test_compiled_jet_of_h0_loads_sqrt_once(monkeypatch, tmp_path):
    calls = _compiled_fields(monkeypatch, tmp_path, SRB_CUSTOM)
    # the jet of H_0 in (z1, z2): 2 gradient and 4 Hessian entries, one function
    trees, _, f = next(c for c in calls if c[1] == ["z1", "z2", "z3"] and c[0].shape == (6,))
    assert all(ast.unparse(t).count("sqrt(") for t in trees[:2])
    assert sum(ast.unparse(t).count("sqrt(") for t in trees[2:]) > 1
    fn = next(c.cell_contents for c in f.__closure__ if callable(c.cell_contents))
    loads = [i.argval for i in dis.get_instructions(fn.__code__) if i.opname == "LOAD_GLOBAL"]
    assert loads.count("sqrt") == 1


def test_build_order_does_not_change_a_bit(tmp_path):
    path = _write(tmp_path, SRB_CUSTOM)
    first, second = _outputs(load_custom_system(path)), _outputs(load_custom_system(path), reverse=True)
    assert first.keys() == second.keys() and len(first) == 21
    for label, out in first.items():
        for a, b in zip(*(o if isinstance(o, tuple) else (o,) for o in (out, second[label]))):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), label


def test_a_load_leaves_no_reference_cycles(tmp_path):
    # a cycle would hold the load's trees until a full collection, and peak
    # memory would then grow with the number of loads in one process
    path = _write(tmp_path, SRB_CUSTOM)
    gc.collect()
    gc.disable()
    try:
        load_custom_system(path)
        assert gc.collect() == 0
        _outputs(load_custom_system(path))  # every compiled function built
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_spec_name_cannot_reach_a_shared_local(tmp_path):
    # the temporaries are the lambda's locals _t<i>: a spec that names one is rejected
    with pytest.raises(SpecFileError, match="unknown name '_t0'"):
        compile_expr("_t0 + sin(y1)*sin(y1)", 1)
    with pytest.raises(SpecFileError, match="unknown name '_t1'"):
        load_custom_system(_write(tmp_path, SRB_CUSTOM.replace("K1 = ", "K1 = _t1 + ")))


@pytest.mark.parametrize("expr", [
    "y1 > 0 and y2 > 0", "y1 if y2 > 0 else y2", "0 < y1 < 1", "y1.real", "y1[0]",
    "sqrt(y1, out=y2)", "(lambda: y1)()", "[y1, y2]", "(x := y1) + x",
])
def test_syntax_a_shared_local_could_not_follow_is_rejected(expr):
    # short-circuits would skip the binding of a local that a later use reads
    with pytest.raises(SpecFileError, match="unsupported syntax|unknown name"):
        compile_expr(expr, 2)


@pytest.mark.parametrize("old, new, key", [
    ("casimir =", "K2 = y1\ncasimir =", "K2"),
    ("domain =", "domian =", "domian"),
    ("casimir =", "casimir_2 = y1\ncasimir =", "casimir_2"),
    ("casimir =", "casimir01 = y1\ncasimir =", "casimir01"),
    ("chart_n = 1", "chart_n = 1\nchart_b1 = [1]", "chart_b1"),
])
def test_unknown_keys_are_rejected(tmp_path, old, new, key):
    assert old in SRB_CUSTOM
    with pytest.raises(SpecFileError, match=f"unknown key.*{key}"):
        load_custom_system(_write(tmp_path, SRB_CUSTOM.replace(old, new, 1)))


@pytest.mark.parametrize("old, new, key", [
    ("dim = 3", "dim = 3.5", "dim"), ("m = 1", "m = two", "m"), ("rank = 2", "rank = 2.0", "rank"),
    ("chart_n = 1", "chart_n = one", "chart_n"),
])
def test_a_key_that_is_not_an_integer_is_named(tmp_path, capsys, old, new, key):
    path = _write(tmp_path, SRB_CUSTOM.replace(old, new, 1))
    with pytest.raises(SpecFileError, match=f"key '{key}' must be an integer"):
        load_custom_system(path)
    assert main(["check", "--system", path, "--param", "y0=0.7,0.3,0.2"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert path in err and f"key '{key}'" in err and "invalid literal" not in err


@pytest.mark.parametrize("n", [0, 2])
def test_a_chart_n_outside_one_to_half_the_dimension_is_rejected_at_load(tmp_path, capsys, n):
    path = _write(tmp_path, SRB_CUSTOM.replace("chart_n = 1", f"chart_n = {n}", 1))
    with pytest.raises(SpecFileError, match=rf"chart_n must be in \[1, 1\] for dim = 3, got {n}"):
        load_custom_system(path)
    assert main(["casimir", "--system", path, "--param", "y0=0.7,0.3,0.2", "--T", "0.1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert path in err and "chart_n must be in [1, 1]" in err


# Each key's value with a subexpression {} spliced in: every key that is
# differentiated or compiled, so a spec error cannot wait for a first call.
SPLICES = {
    "K0": ("K0 = ", "K0 = {} + "),
    "casimir": ("casimir = ", "casimir = {} + "),
    "B": ("B = [[0,", "B = [[{},"),
    "chart_forward": ("chart_forward = [y2", "chart_forward = [{} + y2"),
    "chart_inverse": ("z1, sqrt", "{} + z1, sqrt"),
}


@pytest.mark.parametrize("key", SPLICES)
@pytest.mark.parametrize("bad", ["{} % 2", "foo({})", "q * {}"], ids=["mod", "unknown_function", "unknown_name"])
def test_a_spec_error_is_rejected_at_load(tmp_path, capsys, key, bad):
    old, new = SPLICES[key]
    expr = bad.format("z1" if key == "chart_inverse" else "y1")
    assert SRB_CUSTOM.count(old) == 1
    path = _write(tmp_path, SRB_CUSTOM.replace(old, new.format(expr)))
    with pytest.raises(SpecFileError, match=re.escape(expr)):
        load_custom_system(path)
    assert main(["casimir", "--system", path, "--param", "y0=0.7,0.3,0.2"]) == EXIT_CONFIG
    assert "configuration error: cannot load custom system" in capsys.readouterr().err



# Specs the load-time checks once let through, each as (old, new) edits of
# the benchmark spec and the node a rejection names: a call off its rule's
# arity where no derivative reads it, and & of a value in the domain.  The
# wrong-arity K0, B and chart_forward were always rejected and must stay so.
_K_WITHOUT_Y2 = [(" + y2**2 + y3**2)\nK", " + y3**2)\nK"), ("K1 = 0.1*(y1**2/2.0 + y2**2", "K1 = 0.1*(y1**2/2.0")]
LOAD_ESCAPES = {
    "domain_arity": ([("domain = (", "domain = (arctan2(y1) > -10) & (")], "arctan2(y1)"),
    "chart_b0_arity": ([("chart_b0 = [[0, -1, 0]", "chart_b0 = [[0, -1, arctan2(1)]")], "arctan2(1)"),
    "unread_chart_inverse_arity": (_K_WITHOUT_Y2 + [("z1, sqrt", "arctan2(z1), sqrt")], "arctan2(z1)"),
    "domain_and_of_a_value": ([("domain = (y1**2 + y3**2 > 1e-8) & (y2**2 < 0.9)", "domain = (y1 > 0) & y2")],
                              "(y1 > 0) & y2"),
    "K0_arity": ([("K0 = ", "K0 = arctan2(y1) + ")], "arctan2(y1)"),
    "B_arity": ([("B = [[0,", "B = [[arctan2(y1),")], "arctan2(y1)"),
    "chart_forward_arity": ([("chart_forward = [y2", "chart_forward = [arctan2(y1) + y2")], "arctan2(y1)"),
}


@pytest.mark.parametrize("edits, bad", LOAD_ESCAPES.values(), ids=LOAD_ESCAPES)
def test_a_call_off_its_arity_or_an_and_of_a_value_is_rejected_at_load(tmp_path, capsys, edits, bad):
    text = SRB_CUSTOM
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = _write(tmp_path, text)
    with pytest.raises(SpecFileError, match=re.escape(bad)):
        load_custom_system(path)
    assert main(["casimir", "--system", path, "--param", "y0=0.7,0.3,0.2", "--T", "0.1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot load custom system") and err.count("\n") == 1


# Constant subtrees that raise when evaluated, each as (old, new) and the
# subtree a rejection names: in K0, whose value no command read (its
# derivatives fold the constant away), as a factor that a step reaches, a
# ufunc of an int past the float range, such an int as a factor, and in
# chart_b0, which was always evaluated at load.
_HUGE = "1" + "0" * 400
RAISING_CONSTANTS = {
    "K0_term": ("K0 = ", "K0 = 1/0 + ", "1 / 0"),
    "K0_factor": ("K0 = ", "K0 = (1/0)*y1 + ", "1 / 0"),
    "K0_huge_int": ("K0 = ", f"K0 = sqrt({_HUGE}) + ", f"sqrt({_HUGE})"),
    "K0_huge_literal": ("K0 = ", f"K0 = {_HUGE}*y1 + ", _HUGE),
    "chart_b0": ("chart_b0 = [[0, -1, 0]", "chart_b0 = [[0, -1, 1/0]", "1 / 0"),
}


@pytest.mark.parametrize("old, new, bad", RAISING_CONSTANTS.values(), ids=RAISING_CONSTANTS)
def test_a_constant_that_raises_is_rejected_at_load(tmp_path, capsys, old, new, bad):
    assert SRB_CUSTOM.count(old) == 1
    path = _write(tmp_path, SRB_CUSTOM.replace(old, new))
    with pytest.raises(SpecFileError, match=re.escape(f"cannot evaluate {bad!r}")):
        load_custom_system(path)
    assert main(["check", "--system", path, "--param", "y0=0.7,0.3,0.2"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("configuration error: cannot load custom system") and err.count("\n") == 1


def test_a_negative_m_is_rejected_at_load_and_m_0_loads(tmp_path, capsys):
    no_k = "".join(line for line in SRB_CUSTOM.splitlines(keepends=True) if not line.startswith("K"))
    path = _write(tmp_path, no_k.replace("m = 1", "m = -1"))
    with pytest.raises(SpecFileError, match="key 'm' must be at least 0, got -1"):
        load_custom_system(path)
    assert main(["casimir", "--system", path, "--param", "y0=0.7,0.3,0.2", "--T", "0.1"]) == EXIT_CONFIG
    assert "cannot load custom system" in capsys.readouterr().err
    one_k = SRB_CUSTOM.replace("m = 1", "m = 0").replace("K1 = ", "casimir1 = ")
    assert len(load_custom_system(_write(tmp_path, one_k)).system.hamiltonians) == 1


def test_the_readme_spec_is_the_benchmark_spec():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Custom systems", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    assert block == SRB_CUSTOM
