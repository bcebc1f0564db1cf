"""User-supplied systems from plain-text definition files.

A custom system file is key = value text.  Matrix and vector entries are
expressions in the state variables y1..yd (z1..zd for chart inverses) plus a
whitelisted set of numpy functions; no other names are allowed.  Loading a
file differentiates them exactly on their syntax trees (gradients, Hessians,
dB, the chart Jacobian and H_r(z, c) = s K_r(theta^-1(z, c)) in z1..z2n) and
compiles each field to one function.

Example::

    dim = 3
    m = 1
    rank = 2
    B = [[0, -y3, y2], [y3, 0, -y1], [-y2, y1, 0]]
    K0 = 0.5*(y1**2/2 + y2**2/1 + y3**2/1)
    K1 = 0.1*(y1**2/2 + y2**2/1 + y3**2/1)
    casimir = 0.5*(y1**2 + y2**2 + y3**2)
    domain = y1**2 + y3**2 > 1e-8

    chart_n = 1
    chart_forward = [y2, arctan2(y3, y1), 0.5*(y1**2 + y2**2 + y3**2)]
    chart_inverse = [sqrt(2*z3 - z1**2)*cos(z2), z1, sqrt(2*z3 - z1**2)*sin(z2)]
    chart_b0 = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]

Charts must be supplied by the author (they are validated numerically, never
solved for).
"""
from __future__ import annotations

import ast

import numpy as np

from .canonical import CanonicalSHS, Chart, Model, _block_sign
from .poisson import PoissonSystem, ScalarField

_ALLOWED_FUNCS = {
    name: getattr(np, name)
    for name in (
        "sin", "cos", "tan", "exp", "log", "sqrt", "abs",
        "arctan", "arctan2", "arcsin", "arccos", "sinh", "cosh", "tanh",
        "minimum", "maximum", "sign",
    )
}
_ALLOWED_FUNCS["pi"] = np.pi
_ALLOWED_FUNCS["e"] = np.e


def _pow(a, b):
    """a ** b as the ndarray operator computes it (a * a for b = 2), which the
    own ** of the numpy scalars of a single state can miss by an ulp."""
    return a * a if type(b) is int and b == 2 else np.asarray(a, dtype=float) ** b


_GLOBALS = {"__builtins__": {}, "_pow": _pow, **_ALLOWED_FUNCS}

# d f(a, b) in the operands a, b and their derivatives da, db.  A comparison
# is scaled by the float 1.0, which is never folded, so that sums of them add.
_RULES = {
    key: (ast.parse(rule, mode="eval").body, 1 + ("db" in rule))  # (tree, arity)
    for key, rule in {
        "Add": "da + db", "Sub": "da - db", "Mult": "da*b + a*db", "Div": "da/b - a*db/b**2",
        "Pow": "b*a**(b - 1)*da + a**b*log(a)*db", "UAdd": "da", "USub": "-da",
        "sin": "cos(a)*da", "cos": "-sin(a)*da", "tan": "da/cos(a)**2", "exp": "exp(a)*da",
        "log": "da/a", "sqrt": "0.5*da/sqrt(a)", "arctan": "da/(1 + a**2)",
        "arcsin": "da/sqrt(1 - a**2)", "arccos": "-da/sqrt(1 - a**2)", "sinh": "cosh(a)*da",
        "cosh": "sinh(a)*da", "tanh": "da/cosh(a)**2", "abs": "sign(a)*da", "sign": "0",
        "arctan2": "(b*da - a*db)/(a**2 + b**2)",
        "minimum": "1.0*(a <= b)*da + 1.0*(a > b)*db",
        "maximum": "1.0*(a >= b)*da + 1.0*(a < b)*db",
    }.items()
}
_LOC = {"lineno": 1, "col_offset": 0, "end_lineno": 1, "end_col_offset": 0}  # for compile()
_ZERO, _ONE = ast.Constant(0, **_LOC), ast.Constant(1, **_LOC)


class SpecFileError(ValueError):
    """Malformed custom system file."""


def parse_keyvalues(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise SpecFileError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _is(tree, value: int) -> bool:
    return isinstance(tree, ast.Constant) and type(tree.value) is int and tree.value == value


def _subst(t, env: dict):
    """A copy of tree t with its names replaced by the trees of env (shared,
    not copied), int differences folded, and 0 and 1 folded out of its
    operations (so that a constant exponent such as -2 leaves no log(a) term
    and a ** (2 - 1) becomes a)."""
    if isinstance(t, ast.Name):
        return env.get(t.id, t)
    if isinstance(t, ast.UnaryOp):
        x = _subst(t.operand, env)
        return _ZERO if isinstance(t.op, ast.USub) and _is(x, 0) else ast.UnaryOp(t.op, x, **_LOC)
    if isinstance(t, ast.Call):
        return ast.Call(t.func, [_subst(a, env) for a in t.args], t.keywords, **_LOC)
    if isinstance(t, ast.Compare):
        comparators = [_subst(c, env) for c in t.comparators]
        return ast.Compare(_subst(t.left, env), t.ops, comparators, **_LOC)
    if not isinstance(t, ast.BinOp):
        return t
    a, b, op = _subst(t.left, env), _subst(t.right, env), type(t.op)
    if op is ast.Sub and all(isinstance(x, ast.Constant) and type(x.value) is int for x in (a, b)):
        return ast.Constant(a.value - b.value, **_LOC)  # the b - 1 of a constant exponent
    if op in (ast.Add, ast.Sub) and _is(b, 0) or op in (ast.Mult, ast.Div, ast.Pow) and _is(b, 1):
        return a
    if op is ast.Add and _is(a, 0) or op is ast.Mult and _is(a, 1):
        return b
    if op in (ast.Mult, ast.Div) and _is(a, 0) or op is ast.Mult and _is(b, 0):
        return _ZERO
    return ast.BinOp(a, t.op, b, **_LOC)


def _diff(e, v: str):
    """The tree of de/dv."""
    if isinstance(e, ast.Name):
        return _ONE if e.id == v else _ZERO
    if isinstance(e, (ast.Constant, ast.Compare)):  # comparisons are piecewise constant
        return _ZERO
    key, args = None, ()
    if isinstance(e, (ast.BinOp, ast.UnaryOp)):
        key = type(e.op).__name__
        args = [e.left, e.right] if isinstance(e, ast.BinOp) else [e.operand]
    elif isinstance(e, ast.Call) and isinstance(e.func, ast.Name) and not e.keywords:
        key, args = e.func.id, e.args
    rule, arity = _RULES.get(key, (None, -1))
    if len(args) != arity:
        raise SpecFileError(f"cannot differentiate {ast.unparse(e)!r}")
    env = {**dict(zip("ab", args)), **dict(zip(("da", "db"), (_diff(x, v) for x in args)))}
    return _subst(rule, env)


def _jacobian(trees: np.ndarray, names) -> np.ndarray:
    """Object array of the trees d trees[...] / d names[j], j the last axis."""
    out = np.empty(trees.shape + (len(names),), dtype=object)
    for idx, tree in np.ndenumerate(trees):
        out[idx] = [_diff(tree, v) for v in names]
    return out


def _parse(expr: str):
    try:
        return ast.parse(expr.strip(), mode="eval").body
    except SyntaxError as exc:
        raise SpecFileError(f"bad expression {expr!r}: {exc}") from exc


def _entries(text: str, ndim: int) -> np.ndarray:
    """Object array of the entry trees of a [e, ...] (ndim 1) or [[e, ...], ...] value."""
    tree = _parse(text)
    rows = getattr(tree, "elts", None) if ndim == 2 else [tree]
    if not isinstance(tree, ast.List) or not all(isinstance(r, ast.List) for r in rows):
        raise SpecFileError(f"expected a {ndim}-level [...] list, got {text!r}")
    return np.array([r.elts for r in rows] if ndim == 2 else tree.elts, dtype=object)


def _array_pow(t, memo: dict):
    """A copy of tree t with each a ** b as _pow(a, b), so that the numpy
    scalars of a single state take the power of the array path.  Shared
    subtrees are rewritten once and stay shared."""
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


def compile_field(trees, names):
    """One compiled function (..., k) -> (..., *shape) of an array of trees in
    the variables ``names``: the state holds the first k, the rest are passed
    as extra arguments.  Constant entries broadcast over the batch."""
    trees = np.array(trees, dtype=object)
    args = ast.arguments([], [ast.arg(n, **_LOC) for n in names], None, [], [], None, [])
    memo: dict = {}
    body = ast.Tuple([_array_pow(t, memo) for t in trees.flat], ast.Load(), **_LOC)
    lam = ast.Expression(ast.Lambda(args, body, **_LOC))
    fn = eval(compile(lam, "<expr>", "eval"), _GLOBALS)
    unknown = set(fn.__code__.co_names) - set(_ALLOWED_FUNCS) - {"_pow"}
    if unknown:
        exprs = ", ".join(map(ast.unparse, trees.flat))
        raise SpecFileError(f"unknown name(s) {sorted(unknown)} in {exprs!r}")

    def f(y, *bound):
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape[:-1] + trees.shape)
        flat = out.reshape(y.shape[:-1] + (trees.size,))
        for i, value in enumerate(fn(*y.transpose(-1, *range(y.ndim - 1)), *bound)):
            flat[..., i] = value
        return out

    return f


def compile_expr(expr: str, dim: int):
    """Compile an expression of y1..yd into a batched callable (..., d) -> (...)."""
    return compile_field(_parse(expr), [f"y{i + 1}" for i in range(dim)])


def _scalar_field(tree, names, k: int | None = None) -> ScalarField:
    """Compiled value, gradient and Hessian of a tree, the derivatives in the
    first k names; the Hessian is symmetric by construction."""
    value = compile_field(tree, names)
    grad = _jacobian(np.array(tree, dtype=object), names[:k])
    hess = np.empty(2 * grad.shape, dtype=object)
    for i, j in zip(*np.triu_indices(len(grad))):
        hess[i, j] = hess[j, i] = _diff(grad[i], names[j])
    return ScalarField(value, compile_field(grad, names), compile_field(hess, names))


def _model(system: PoissonSystem, chart: Chart | None = None, fields=()) -> Model:
    """The system as a :class:`Model` with y0 unset, whose transformed system
    binds the chart Casimirs theta(y)[2n:] into the compiled H_r(z, c) of
    ``fields`` (c passed after z)."""

    def shs(y) -> CanonicalSHS:
        c = chart.forward(np.asarray(y, dtype=float))[2 * chart.n:]
        bind = lambda f: lambda z: f(z, *c)
        return CanonicalSHS(chart.n, c, tuple(
            ScalarField(bind(H.value), bind(H.grad), bind(H.hess)) for H in fields))

    return Model(
        name="custom",
        system=system,
        chart=None if chart is None else lambda y: chart,
        shs=shs,
        y0=None,
        default_T={"paths": 10.0, "casimir": 10.0, "order": 2.0},
        check_points=lambda rng: rng.uniform(0.2, 1.5, size=(100, system.dim)),
    )


def load_custom_system(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        keys = parse_keyvalues(fh.read())
    try:
        dim = int(keys["dim"])
    except KeyError:
        raise SpecFileError("missing required key 'dim'")
    m = int(keys.get("m", 1))
    rank = int(keys.get("rank", dim - dim % 2))
    ys = [f"y{i + 1}" for i in range(dim)]

    for key in ("B", *(f"K{r}" for r in range(m + 1))):
        if key not in keys:
            raise SpecFileError(f"missing required key {key!r}")
    B = _entries(keys["B"], 2)
    if B.shape != (dim, dim):
        raise SpecFileError(f"B must be {dim}x{dim}")
    casimirs = sorted(k for k in keys if k.startswith("casimir"))

    domain = None
    if "domain" in keys:
        pred = compile_expr(keys["domain"], dim)
        domain = lambda y: pred(y) != 0.0

    system = PoissonSystem(
        dim=dim,
        structure=compile_field(B, ys),
        hamiltonians=tuple(_scalar_field(_parse(keys[f"K{r}"]), ys) for r in range(m + 1)),
        rank=rank,
        structure_derivative=compile_field(_jacobian(B, ys), ys),
        casimirs=tuple(_scalar_field(_parse(keys[k]), ys) for k in casimirs),
        domain=domain,
    )

    if "chart_forward" not in keys:
        return _model(system)
    for req in ("chart_inverse", "chart_b0", "chart_n"):
        if req not in keys:
            raise SpecFileError(f"chart requires key '{req}'")
    n, zs = int(keys["chart_n"]), [f"z{i + 1}" for i in range(dim)]
    fwd, inv = _entries(keys["chart_forward"], 1), _entries(keys["chart_inverse"], 1)
    b0 = _entries(keys["chart_b0"], 2)
    if fwd.shape != (dim,) or inv.shape != (dim,) or b0.shape != (dim, dim):
        raise SpecFileError(f"the chart needs {dim}, {dim} and {dim}x{dim} entries")
    jacobian = compile_field(_jacobian(fwd, ys), ys)
    chart = Chart(n=n, forward=compile_field(fwd, ys), inverse=compile_field(inv, zs),
                  b0=compile_field(b0, [])(np.zeros(0)), jacobian=jacobian, domain=domain)
    # H_r(z, c) = s K_r(theta^-1(z, c)), s the sign of the chart block
    sign, inverse = ast.Constant(_block_sign(chart), **_LOC), dict(zip(ys, inv))
    trees = (_subst(_parse(keys[f"K{r}"]), inverse) for r in range(m + 1))
    fields = tuple(_scalar_field(ast.BinOp(sign, ast.Mult(), t, **_LOC), zs, 2 * n) for t in trees)
    return _model(system, chart, fields)
