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
import re
from collections import Counter
from functools import cache
from itertools import compress

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


def _operands(t) -> list | None:
    """The operands of an operator, a call of a name or a single comparison; None otherwise."""
    return ([t.left, t.right] if isinstance(t, ast.BinOp) else [t.operand] if isinstance(t, ast.UnaryOp)
            else [t.func, *t.args] if isinstance(t, ast.Call) and isinstance(t.func, ast.Name) and not t.keywords
            else [t.left, *t.comparators] if isinstance(t, ast.Compare) and len(t.ops) == 1 else None)


def _node(t, a):
    """A node of t's kind on the operands a: the inverse of _operands."""
    return (ast.BinOp(a[0], t.op, a[1], **_LOC) if isinstance(t, ast.BinOp) else ast.UnaryOp(t.op, *a, **_LOC)
            if isinstance(t, ast.UnaryOp) else ast.Call(a[0], a[1:], [], **_LOC) if isinstance(t, ast.Call)
            else ast.Compare(a[0], t.ops, a[1:], **_LOC))


def _subst(t, env: dict):
    """A copy of tree t with its names replaced by the trees of env (shared,
    not copied), int differences folded, and 0 and 1 folded out of its
    operations (so that a constant exponent such as -2 leaves no log(a) term
    and a ** (2 - 1) becomes a)."""
    if (a := _operands(t)) is None:  # a name, from env, or a number
        return env.get(getattr(t, "id", None), t)
    a, op = [_subst(x, env) for x in a], type(getattr(t, "op", None))
    if op is ast.USub and _is(a[0], 0):
        return _ZERO
    if op is ast.Sub and all(isinstance(x, ast.Constant) and type(x.value) is int for x in a):
        return ast.Constant(a[0].value - a[1].value, **_LOC)  # the b - 1 of a constant exponent
    if op in (ast.Add, ast.Sub) and _is(a[1], 0) or op in (ast.Mult, ast.Div, ast.Pow) and _is(a[1], 1):
        return a[0]
    if op is ast.Add and _is(a[0], 0) or op is ast.Mult and _is(a[0], 1):
        return a[1]
    if op in (ast.Mult, ast.Div) and _is(a[0], 0) or op is ast.Mult and _is(a[1], 0):
        return _ZERO
    return _node(t, a)


def _rule(e):
    """(the rule tree of de, its arity, the operands it reads) of an operator
    or a call; the tree is None and the arity -1 if no rule applies."""
    a, call = _operands(e), isinstance(e, ast.Call)
    key = (e.func.id if e.func.id in _ALLOWED_FUNCS else None) if call else type(getattr(e, "op", None)).__name__
    return (*_RULES.get(key, (None, -1)), a[1:] if call else a)


def _diff(e, v: str, memo: dict | None = None):
    """The tree of de/dv; ``memo``, one per load, maps (id(t), v) to (t, dt/dv)."""
    if not isinstance(e, (ast.BinOp, ast.UnaryOp, ast.Call)):  # a name, a number or a piecewise constant comparison
        return _ONE if getattr(e, "id", None) == v else _ZERO
    memo = {} if memo is None else memo
    if (id(e), v) not in memo:
        rule, _, args = _rule(e)
        env = {**dict(zip("ab", args)), **dict(zip(("da", "db"), (_diff(x, v, memo) for x in args)))}
        memo[id(e), v] = e, _subst(rule, env)  # e held, so that its id is not reused
    return memo[id(e), v][1]


@np.errstate(all="ignore")  # a constant's nan or inf is a value
def _check(trees, names, ruled: bool = True) -> None:
    """Reject the first node (depth first) that a later stage could not take:
    a name outside ``names``, pi and e; syntax other than numbers, operators,
    calls and single comparisons (a short-circuit could skip the binding of a
    shared local of compile_field); a call off its rule's arity; and an
    operator with no rule outside the comparisons of a ``ruled``
    (differentiated) tree, or elsewhere one other than %, // or & and | of
    comparisons; then a constant subtree that raises (1/0 of Python ints,
    an int past the float range).  The rules are closed under
    differentiation, so the trees derived from checked ones need no check."""
    known = {*names, "pi", "e"}
    joins = lambda t: isinstance(t, ast.Compare) or isinstance(getattr(t, "op", None), (ast.BitAnd, ast.BitOr))
    for tree in trees:
        stack = [(tree, ruled)]
        while stack:
            t, r = stack.pop()
            if _operands(t) is None:
                a, what = [], "unknown name" if isinstance(t, ast.Name) else "unsupported syntax"
                ok = t.id in known if isinstance(t, ast.Name) else isinstance(getattr(t, "value", None), (int, float))
            elif isinstance(t, ast.Call):
                _, arity, a = _rule(t)
                ok, what = len(a) == arity, "unknown function" if arity < 0 else "wrong arity"
            else:  # an operator or a comparison
                (rule, _, a), r = _rule(t), r and not isinstance(t, ast.Compare)
                ok = rule is not None or isinstance(t, ast.Compare) or not r and (
                    isinstance(t.op, (ast.Mod, ast.FloorDiv)) or joins(t) and all(map(joins, a)))
                what = "cannot differentiate" if r else "unsupported syntax"
            if not ok:
                raise SpecFileError(f"{what} {ast.unparse(t)!r} in {ast.unparse(tree)!r}")
            stack += [(x, r) for x in reversed(a)]
        if _constant(tree, tree):
            _evaluate(tree, tree)


def _constant(t, tree) -> bool:
    """Whether the subtree t of a checked tree reads no variable; each largest
    such subtree that meets a variable is evaluated."""
    if (a := _operands(t)) is None:
        return not isinstance(t, ast.Name) or t.id in ("pi", "e")
    a = a[isinstance(t, ast.Call):]
    if all(const := [_constant(x, tree) for x in a]):
        return True
    for x in compress(a, const):
        _evaluate(x, tree)
    return False


def _evaluate(t, tree) -> None:
    """Evaluate the constant subtree t of a checked tree once, as its compiled field
    does, as a float; one that raises is a SpecFileError (a nan or an inf is a value)."""
    try:
        code = None if isinstance(t, ast.Constant) else compile(ast.Expression(*_share([t])), "<expr>", "eval")
        float(t.value if code is None else eval(code, _GLOBALS, {}))
    except (ArithmeticError, TypeError) as exc:  # 1/0, or an int past float: alone or in a ufunc
        raise SpecFileError(f"cannot evaluate {ast.unparse(t)!r} in {ast.unparse(tree)!r}: {exc}") from None


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
        pow_ = isinstance(getattr(t, "op", None), ast.Pow)
        t = ast.Call(ast.Name("_pow", ast.Load(), **_LOC), a, [], **_LOC) if pow_ else _node(t, a)
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
    _check([tree], ys, ruled=False)
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
    binds the levels c (..., l) into the compiled H_r(z, c) of ``fields``
    (c passed after z, one level per state of a batch)."""

    def shs(c) -> CanonicalSHS:
        levels = np.moveaxis(c, -1, 0)
        bind = lambda f: lambda z: f(z, *levels)
        return CanonicalSHS(tuple(ScalarField(bind(H.value), bind(H.grad), bind(H.hess)) for H in fields))

    return Model(
        name="custom",
        system=system,
        chart=chart,
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
    if m < 0:
        raise SpecFileError(f"key 'm' must be at least 0, got {m}")
    ks, chart_keys = [f"K{r}" for r in range(m + 1)], {"chart_forward", "chart_inverse", "chart_b0", "chart_n"}
    casimirs = sorted(filter(re.compile(r"casimir([1-9]\d*)?").fullmatch, keys), key=lambda k: int(k[7:] or 0))
    required = {"dim", "B", *ks} | (chart_keys if chart_keys & set(keys) else set())
    for what, bad in (("missing required", required - set(keys)),
                      ("unknown", set(keys) - required - chart_keys - {"m", "rank", "domain", *casimirs})):
        if bad:
            raise SpecFileError(f"{what} key(s) {sorted(bad)} (m = {m}: K0..K{m})")
    dim, memo = integer("dim"), {}  # memo: one per load, see _diff
    rank, ys = integer("rank", dim - dim % 2), [f"y{i + 1}" for i in range(dim)]
    # Every spec error is raised here, each tree checked where it is parsed,
    # so that a bad file fails at load and not at the first call of a field.
    B = _entries(keys["B"], 2)
    if B.shape != (dim, dim):
        raise SpecFileError(f"B must be {dim}x{dim}")
    trees = {k: _parse(keys[k]) for k in (*ks, *casimirs)}
    _check([*B.flat, *trees.values()], ys)
    pred = compile_expr(keys["domain"], dim) if "domain" in keys else None
    domain = None if pred is None else lambda y: pred(y) != 0.0
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
    for entries, names, ruled in ((fwd, ys, True), (inv, zs, True), (b0.flat, [], False)):
        _check(entries, names, ruled)
    b0 = compile_field(b0, [])(np.zeros(0))
    chart = Chart(n=n, forward=_lazy(lambda: compile_field(fwd, ys)), inverse=_lazy(lambda: compile_field(inv, zs)),
                  b0=b0, jacobian=_lazy(lambda: compile_field(_jacobian(fwd, ys, memo), ys)), domain=domain)
    # H_r(z, c) = s K_r(theta^-1(z, c)), s the sign of the chart block
    sign, inverse = ast.Constant(_block_sign(chart), **_LOC), dict(zip(ys, inv))
    H = [_node(_parse("s * K"), [sign, _subst(trees[k], inverse)]) for k in ks]
    return _model(system, chart, tuple(_scalar_field(t, zs, 2 * n, memo) for t in H))
