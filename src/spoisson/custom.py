"""User-supplied systems from plain-text definition files.

A custom system file is key = value text.  Matrix and vector entries are
expressions in the state variables y1..yd (z1..zd for chart inverses) plus a
whitelisted set of numpy functions; no other names are allowed.  Loading a
file checks every expression; each field is differentiated exactly on its
syntax tree (gradients, Hessians, dB, the chart Jacobian and H_r(z, c) =
s K_r(theta^-1(z, c)) in z1..z2n) and compiled to one function on its first
call.

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
from collections import Counter
from functools import cache

import numpy as np

from .canonical import CanonicalSHS, Chart, Model, _block_sign
from .poisson import PoissonSystem, ScalarField


def _pow(a, b):
    """a ** b as the ndarray operator computes it (a * a for b = 2), which the
    own ** of the numpy scalars of a single state can miss by an ulp."""
    return a * a if type(b) is int and b == 2 else np.asarray(a, dtype=float) ** b


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
# The names a spec file may call: the functions with a rule (the operators'
# keys are capitalised), and the constants pi and e.
_ALLOWED_FUNCS = {k: getattr(np, k) for k in _RULES if k.islower()} | {"pi": np.pi, "e": np.e}
_GLOBALS = {"__builtins__": {}, "_pow": _pow, **_ALLOWED_FUNCS}
_temp = cache("_t{}".format)  # _share's names, kept: new ones per load churned the interned strings
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


def _rule(e):
    """The rule tree of de and the operands it reads; rejects e if no rule applies."""
    key, args = None, ()
    if isinstance(e, (ast.BinOp, ast.UnaryOp)):
        key = type(e.op).__name__
        args = [e.left, e.right] if isinstance(e, ast.BinOp) else [e.operand]
    elif isinstance(e, ast.Call) and isinstance(e.func, ast.Name) and not e.keywords:
        key, args = e.func.id, e.args
    rule, arity = _RULES.get(key, (None, -1))
    if len(args) != arity:
        raise SpecFileError(f"cannot differentiate {ast.unparse(e)!r}")
    return rule, args


def _diff(e, v: str, memo: dict | None = None):
    """The tree of de/dv; ``memo``, one per load, maps (id(t), v) to (t, dt/dv)."""
    if isinstance(e, ast.Name):
        return _ONE if e.id == v else _ZERO
    if isinstance(e, (ast.Constant, ast.Compare)):  # comparisons are piecewise constant
        return _ZERO
    memo = {} if memo is None else memo
    if (id(e), v) not in memo:
        rule, args = _rule(e)
        env = {**dict(zip("ab", args)), **dict(zip(("da", "db"), (_diff(x, v, memo) for x in args)))}
        memo[id(e), v] = e, _subst(rule, env)  # e held, so that its id is not reused
    return memo[id(e), v][1]


def _check_rules(trees) -> None:
    """Reject the first node (depth first) that _diff would reject: anything
    outside a comparison that no rule differentiates.  The rules are closed
    under differentiation, so the trees derived from checked ones need no check."""
    for t in trees:
        if not isinstance(t, (ast.Name, ast.Constant, ast.Compare)):
            _check_rules(_rule(t)[1])


def _operands(t) -> list | None:
    """The operands of an operator, a call or a single comparison; None otherwise."""
    return ([t.left, t.right] if isinstance(t, ast.BinOp) else [t.operand] if isinstance(t, ast.UnaryOp)
            else [t.func, *t.args] if isinstance(t, ast.Call) and not t.keywords
            else [t.left, *t.comparators] if isinstance(t, ast.Compare) and len(t.ops) == 1 else None)


def _check_names(trees, names) -> None:
    """Reject the first name (depth first) outside ``names`` and the whitelist,
    and short-circuits (and, or, if, a < b < c) and other syntax, which could
    skip the binding of a shared local of compile_field."""
    trees, known = list(trees), {*names, *_ALLOWED_FUNCS}
    stack = trees[::-1]
    while stack:
        t = stack.pop()
        a = _operands(t)
        if a is None and not (isinstance(t, ast.Constant) or isinstance(t, ast.Name) and t.id in known):
            what = "unknown name" if isinstance(t, ast.Name) else "unsupported syntax"
            raise SpecFileError(f"{what} {ast.unparse(t)!r} in {', '.join(map(ast.unparse, trees))!r}")
        stack += (a or [])[::-1]


def _jacobian(trees: np.ndarray, names, memo: dict | None = None) -> np.ndarray:
    """Object array of the trees d trees[...] / d names[j], j the last axis."""
    out = [[_diff(t, v, memo) for v in names] for t in trees.flat]
    return np.array(out, dtype=object).reshape(trees.shape + (len(names),))


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


def _share(trees) -> list:
    """The checked trees with a ** b as _pow(a, b) and each compound subtree
    that occurs more than once (keyed bottom-up) bound to a local _t<i> by :=
    at its first use in evaluation order."""
    ids, index, reps, uses, bound = {}, {}, [], Counter(), set()

    def visit(t):  # the number of t's key: its operation and its operands' numbers
        if id(t) not in index:
            a = _operands(t)
            if a is not None:
                a = [visit(x) for x in a]
                k = (type(t), type(getattr(t, "op", None)), *map(type, getattr(t, "ops", ())), *a)
            else:
                k = t.id if isinstance(t, ast.Name) else (type(t.value), repr(t.value))
            if k not in ids:
                ids[k] = len(reps)
                reps.append((t, a))
                uses.update(a or ())
            index[id(t)] = ids[k]
        return index[id(t)]

    roots = [visit(t) for t in trees]
    uses.update(roots)

    def emit(i):
        t, a = reps[i]
        if i in bound or a is None:
            return ast.Name(_temp(i), ast.Load(), **_LOC) if i in bound else t
        a = [emit(j) for j in a]
        t = (ast.Call(a[0], a[1:], [], **_LOC) if isinstance(t, ast.Call)
             else ast.Compare(a[0], t.ops, a[1:], **_LOC) if isinstance(t, ast.Compare)
             else ast.UnaryOp(t.op, *a, **_LOC) if isinstance(t, ast.UnaryOp)
             else ast.Call(ast.Name("_pow", ast.Load(), **_LOC), a, [], **_LOC) if isinstance(t.op, ast.Pow)
             else ast.BinOp(a[0], t.op, a[1], **_LOC))
        if uses[i] > 1:
            bound.add(i)
            t = ast.NamedExpr(ast.Name(_temp(i), ast.Store(), **_LOC), t, **_LOC)
        return t

    out, visit, emit = [emit(i) for i in roots], None, None  # else each closure, in a cycle, holds reps
    return out


def compile_field(trees, names):
    """One compiled function (..., k) -> (..., *shape) of an array of checked
    trees in the variables ``names``: the state holds the first k, the rest are
    passed as extra arguments.  Constant entries broadcast over the batch."""
    trees = np.array(trees, dtype=object)
    args = ast.arguments([], [ast.arg(n, **_LOC) for n in names], None, [], [], None, [])
    body = ast.Tuple(_share(list(trees.flat)), ast.Load(), **_LOC)
    fn = eval(compile(ast.Expression(ast.Lambda(args, body, **_LOC)), "<expr>", "eval"), _GLOBALS)

    def f(y, *bound):
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape[:-1] + trees.shape)
        flat = out.reshape(y.shape[:-1] + (trees.size,))
        for i, value in enumerate(fn(*y.transpose(-1, *range(y.ndim - 1)), *bound)):
            flat[..., i] = value
        return out

    return f


def _lazy(build):
    """The function that build() returns, built on its first call."""
    build = cache(build)
    return lambda *args: build()(*args)


def compile_expr(expr: str, dim: int):
    """An expression of y1..yd as a batched callable (..., d) -> (...),
    checked now and compiled on its first call."""
    tree, ys = _parse(expr), [f"y{i + 1}" for i in range(dim)]
    _check_names([tree], ys)
    return _lazy(lambda: compile_field(tree, ys))


def _scalar_field(tree, names, k: int | None = None, memo: dict | None = None) -> ScalarField:
    """Value, gradient and jet (gradient, Hessian) of a checked tree, the
    derivatives in the first k names, each derived and compiled on its first
    call.  The jet is one compiled function of the gradient and Hessian
    entries, so that it evaluates their common subexpressions once; the
    Hessian is symmetric by construction."""
    memo = {} if memo is None else memo
    grad = lambda: _jacobian(np.array(tree, dtype=object), names[:k], memo)

    def build_jet():
        g = grad()
        n, hess = len(g), np.empty(2 * g.shape, dtype=object)
        for i, j in zip(*np.triu_indices(n)):
            hess[i, j] = hess[j, i] = _diff(g[i], names[j], memo)
        f = compile_field(np.concatenate([g, hess.ravel()]), names)

        def jet(y, *bound):
            out = f(y, *bound)
            return out[..., :n], out[..., n:].reshape(out.shape[:-1] + (n, n))

        return jet

    return ScalarField(_lazy(lambda: compile_field(tree, names)),
                       _lazy(lambda: compile_field(grad(), names)), _lazy(build_jet))


def _model(system: PoissonSystem, chart: Chart | None = None, fields=()) -> Model:
    """The system as a :class:`Model` with y0 unset, whose transformed system
    binds the chart Casimirs theta(y)[..., 2n:] into the compiled H_r(z, c)
    of ``fields`` (c passed after z, one level per state of a batch y)."""

    def shs(y) -> CanonicalSHS:
        c = chart.forward(np.asarray(y, dtype=float))[..., 2 * chart.n:]
        levels = np.moveaxis(c, -1, 0)
        bind = lambda f: lambda z: f(z, *levels)
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

    def integer(key: str, default: int | None = None) -> int:
        try:
            return int(keys.get(key, default))
        except ValueError:
            raise SpecFileError(f"key {key!r} must be an integer, got {keys[key]!r}") from None

    m = integer("m", 1)
    ks, casimirs = [f"K{r}" for r in range(m + 1)], sorted(k for k in keys if k.startswith("casimir"))
    chart_keys = {"chart_forward", "chart_inverse", "chart_b0", "chart_n"}
    required = {"dim", "B", *ks} | (chart_keys if chart_keys & set(keys) else set())
    for what, bad in (("missing required", required - set(keys)),
                      ("unknown", set(keys) - required - chart_keys - {"m", "rank", "domain", *casimirs})):
        if bad:
            raise SpecFileError(f"{what} key(s) {sorted(bad)} (m = {m}: K0..K{m})")
    dim, memo = integer("dim"), {}  # memo: one per load, see _diff
    rank, ys = integer("rank", dim - dim % 2), [f"y{i + 1}" for i in range(dim)]
    B = _entries(keys["B"], 2)
    if B.shape != (dim, dim):
        raise SpecFileError(f"B must be {dim}x{dim}")

    domain = None
    if "domain" in keys:
        pred = compile_expr(keys["domain"], dim)
        domain = lambda y: pred(y) != 0.0

    # Every spec error is raised here, so that a bad file fails at load and
    # not at the first call of a field.
    trees = {k: _parse(keys[k]) for k in (*ks, *casimirs)}
    _check_names(B.flat, ys)
    _check_rules(B.flat)
    for t in trees.values():
        _check_rules([t])
        _check_names([t], ys)
    field = lambda k: _scalar_field(trees[k], ys, None, memo)
    system = PoissonSystem(
        dim=dim,
        structure=_lazy(lambda: compile_field(B, ys)),
        hamiltonians=tuple(map(field, ks)),
        rank=rank,
        structure_derivative=_lazy(lambda: compile_field(_jacobian(B, ys, memo), ys)),
        casimirs=tuple(map(field, casimirs)),
        domain=domain,
    )

    if "chart_forward" not in keys:
        return _model(system)
    n, zs = integer("chart_n"), [f"z{i + 1}" for i in range(dim)]
    if not 1 <= n <= dim // 2:
        raise SpecFileError(f"chart_n must be in [1, {dim // 2}] for dim = {dim}, got {n}")
    fwd, inv = _entries(keys["chart_forward"], 1), _entries(keys["chart_inverse"], 1)
    b0 = _entries(keys["chart_b0"], 2)
    if fwd.shape != (dim,) or inv.shape != (dim,) or b0.shape != (dim, dim):
        raise SpecFileError(f"the chart needs {dim}, {dim} and {dim}x{dim} entries")
    _check_rules(fwd)
    for entries, names in ((fwd, ys), (inv, zs), (b0, [])):
        _check_names(entries.flat, names)
    chart = Chart(n=n, forward=_lazy(lambda: compile_field(fwd, ys)), inverse=_lazy(lambda: compile_field(inv, zs)),
                  b0=compile_field(b0, [])(np.zeros(0)),
                  jacobian=_lazy(lambda: compile_field(_jacobian(fwd, ys, memo), ys)), domain=domain)
    # H_r(z, c) = s K_r(theta^-1(z, c)), s the sign of the chart block; the
    # inverse entries are checked where a K_r reads them
    sign, inverse = ast.Constant(_block_sign(chart), **_LOC), dict(zip(ys, inv))
    H = [ast.BinOp(sign, ast.Mult(), _subst(trees[k], inverse), **_LOC) for k in ks]
    _check_rules(H)
    return _model(system, chart, tuple(_scalar_field(t, zs, 2 * n, memo) for t in H))
