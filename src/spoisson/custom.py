"""User-supplied systems from plain-text definition files.

A custom system file is key = value text.  Matrix and vector entries are
expressions in the state variables y1..yd (z1..zd for chart inverses) plus a
whitelisted set of numpy functions; no other names are allowed.  Derivative
data (gradients, Hessians, dB) falls back to central finite differences, so
custom runs trade speed and some accuracy for convenience.

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

from dataclasses import dataclass

import numpy as np

from .canonical import Chart, Model
from .poisson import PoissonSystem, fd_field

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


def compile_expr(expr: str, dim: int, var: str = "y"):
    """Compile an expression of y1..yd into a batched callable (..., d) -> (...)."""
    try:
        code = compile(expr, "<expr>", "eval")
    except SyntaxError as exc:
        raise SpecFileError(f"bad expression {expr!r}: {exc}") from exc
    allowed = set(_ALLOWED_FUNCS) | {f"{var}{i + 1}" for i in range(dim)}
    unknown = set(code.co_names) - allowed
    if unknown:
        raise SpecFileError(f"unknown name(s) {sorted(unknown)} in {expr!r}")

    def f(y):
        y = np.asarray(y, dtype=float)
        env = dict(_ALLOWED_FUNCS)
        for i in range(dim):
            env[f"{var}{i + 1}"] = y[..., i]
        out = eval(code, {"__builtins__": {}}, env)  # names whitelisted above
        return np.broadcast_to(np.asarray(out, dtype=float), y.shape[:-1]).copy()

    return f


def _split_top_level(s: str, sep: str = ",") -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def parse_vector_exprs(s: str) -> list[str]:
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise SpecFileError(f"expected [e1, e2, ...], got {s!r}")
    return _split_top_level(s[1:-1])


def parse_matrix_exprs(s: str) -> list[list[str]]:
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise SpecFileError(f"expected [[...], [...]], got {s!r}")
    rows = _split_top_level(s[1:-1])
    return [parse_vector_exprs(r) for r in rows]


def compile_vector(exprs: list[str], dim: int, var: str = "y"):
    fns = [compile_expr(e, dim, var) for e in exprs]

    def f(y):
        y = np.asarray(y, dtype=float)
        return np.stack([fn(y) for fn in fns], axis=-1)

    return f


def compile_matrix(rows: list[list[str]], dim: int, var: str = "y"):
    fns = [compile_vector(row, dim, var) for row in rows]

    def f(y):
        y = np.asarray(y, dtype=float)
        return np.stack([fn(y) for fn in fns], axis=-2)

    return f


@dataclass(frozen=True)
class CustomSystem:
    system: PoissonSystem
    chart: Chart | None
    keys: dict[str, str]

    def model(self, y0) -> Model:
        """This system as a :class:`Model`: no analytic transformed system, so
        the scheme derives it from the chart by finite differences."""
        return Model(
            name="custom",
            system=self.system,
            chart=None if self.chart is None else lambda cv: self.chart,
            shs=None,
            y0=None if y0 is None else np.asarray(y0, dtype=float),
            default_T={"paths": 10.0, "casimir": 10.0, "order": 2.0},
            check_points=lambda rng: rng.uniform(0.2, 1.5, size=(100, self.system.dim)),
        )


def load_custom_system(path: str) -> CustomSystem:
    with open(path, "r", encoding="utf-8") as fh:
        keys = parse_keyvalues(fh.read())
    try:
        dim = int(keys["dim"])
    except KeyError:
        raise SpecFileError("missing required key 'dim'")
    m = int(keys.get("m", 1))
    rank = int(keys.get("rank", dim - dim % 2))

    if "B" not in keys:
        raise SpecFileError("missing required key 'B' (structure matrix)")
    b_rows = parse_matrix_exprs(keys["B"])
    if len(b_rows) != dim or any(len(r) != dim for r in b_rows):
        raise SpecFileError(f"B must be {dim}x{dim}")
    structure = compile_matrix(b_rows, dim)

    hamiltonians = []
    for r in range(m + 1):
        key = f"K{r}"
        if key not in keys:
            raise SpecFileError(f"missing required key '{key}'")
        hamiltonians.append(fd_field(compile_expr(keys[key], dim)))

    casimirs = []
    for key in sorted(k for k in keys if k.startswith("casimir")):
        casimirs.append(fd_field(compile_expr(keys[key], dim)))

    domain = None
    if "domain" in keys:
        pred = compile_expr(keys["domain"], dim)
        domain = lambda y: pred(y) != 0.0

    system = PoissonSystem(
        dim=dim,
        n_noise=m,
        structure=structure,
        hamiltonians=tuple(hamiltonians),
        rank=rank,
        casimirs=tuple(casimirs),
        domain=domain,
    )

    chart = None
    if "chart_forward" in keys:
        for req in ("chart_inverse", "chart_b0", "chart_n"):
            if req not in keys:
                raise SpecFileError(f"chart requires key '{req}'")
        n = int(keys["chart_n"])
        fwd = compile_vector(parse_vector_exprs(keys["chart_forward"]), dim)
        inv = compile_vector(parse_vector_exprs(keys["chart_inverse"]), dim, var="z")
        b0_rows = parse_matrix_exprs(keys["chart_b0"])
        b0 = np.array([[float(eval(e, {"__builtins__": {}}, {})) for e in row] for row in b0_rows])
        if b0.shape != (dim, dim):
            raise SpecFileError(f"chart_b0 must be {dim}x{dim}")
        chart = Chart(
            dim=dim, n=n, forward=fwd, inverse=inv, b0=b0, domain=domain
        )
    return CustomSystem(system=system, chart=chart, keys=keys)
