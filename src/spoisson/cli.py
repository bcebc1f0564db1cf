"""Command-line front end: paths | casimir | order | check.

Configuration values resolve in three layers: built-in defaults (the
reference experiment values), then a `key = value` config file given with
--config, then command-line flags.  Model constants and the initial state
live in the same namespace (e.g. ``I1 = 1.5``, ``y0 = 2,0.9,0.5``).

CSV output uses comma separators, '.' decimals, 17 significant digits (so
floats round-trip losslessly), and a single header row.  Lines starting with
'#' are metadata.

Exit codes: 0 success, 1 validation failure, 2 numerical failure,
3 configuration error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import experiments
from .alpha_gf import AlphaSchemeConfig, make_alpha_stepper
from .canonical import generic_alpha_scheme
from .custom import SpecFileError, load_custom_system, parse_keyvalues
from .models import lotka_volterra, rigid_body
from .noise import TimeGrid, TruncationPolicy
from .sde import IntegrationError, StepError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    system: str = "srb"
    params: dict = field(default_factory=dict)
    alpha: tuple = (0.0, 0.5, 1.0)
    h: tuple | None = None
    T: float | None = None
    samples: int = 500
    seed: int = 2024
    truncation_k: float = 4.0
    tol: float = 1e-12
    output: str = "-"
    ref_factor: int | None = None
    spherical: bool = False


_FIELD_PARSERS = {
    "system": str,
    "alpha": lambda s: tuple(float(x) for x in str(s).split(",")),
    "h": lambda s: tuple(float(x) for x in str(s).split(",")),
    "T": float,
    "samples": int,
    "seed": int,
    "truncation_k": float,
    "tol": float,
    "output": str,
    "ref_factor": int,
    "spherical": lambda s: str(s).lower() in ("1", "true", "yes"),
}


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = parse_keyvalues(fh.read())
    except (OSError, SpecFileError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict = {"params": {}}
    for key, value in raw.items():
        if key in _FIELD_PARSERS:
            try:
                out[key] = _FIELD_PARSERS[key](value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
        else:
            # model constants / initial state
            try:
                out["params"][key] = (
                    tuple(float(x) for x in value.split(",")) if "," in value else float(value)
                )
            except ValueError as exc:
                raise ConfigError(f"bad numeric value for {key}: {value!r}") from exc
    return out


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        file_values = load_config_file(args.config)
        params = dict(cfg.params)
        params.update(file_values.pop("params", {}))
        cfg = replace(cfg, params=params, **file_values)
    overrides = {}
    for name in ("system", "T", "samples", "seed", "truncation_k", "tol", "output", "ref_factor"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    for name in ("alpha", "h"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = _FIELD_PARSERS[name](value)
    if getattr(args, "spherical", False):
        overrides["spherical"] = True
    params = dict(cfg.params)
    for item in getattr(args, "param", None) or []:
        if "=" not in item:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        try:
            params[key.strip()] = (
                tuple(float(x) for x in value.split(",")) if "," in value else float(value)
            )
        except ValueError as exc:
            raise ConfigError(f"bad numeric value for {key}: {value!r}") from exc
    cfg = replace(cfg, params=params, **overrides)
    try:  # the scheme config owns the rules for alpha, tol and truncation_k
        for alpha in cfg.alpha:
            _alpha_config(cfg, alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


@dataclass(frozen=True)
class ModelSetup:
    """Everything a command needs, resolved from one config."""

    name: str
    system: object
    casimir: object
    y0: np.ndarray
    alpha_scheme: object        # (y0, AlphaSchemeConfig) -> step map on y
    canonical_stepper: object   # (alpha) -> step map on (P, Q), or None
    chart: object               # Chart or None
    spherical_scheme: object    # (y0) -> step map, SRB only
    scheme_map: object          # (AlphaSchemeConfig) -> self-starting map, or None
    default_T: dict


def _truncation(cfg: ExperimentConfig) -> TruncationPolicy:
    return TruncationPolicy(k=cfg.truncation_k)


def _alpha_config(cfg: ExperimentConfig, alpha: float) -> AlphaSchemeConfig:
    return AlphaSchemeConfig(alpha=alpha, tol=cfg.tol, truncation=_truncation(cfg))


def build_setup(cfg: ExperimentConfig) -> ModelSetup:
    p = cfg.params
    if cfg.system == "srb":
        params = rigid_body.RigidBodyParams(
            i1=p.get("I1", rigid_body.REFERENCE_PARAMS.i1),
            i2=p.get("I2", rigid_body.REFERENCE_PARAMS.i2),
            i3=p.get("I3", rigid_body.REFERENCE_PARAMS.i3),
            c1=p.get("c1", rigid_body.REFERENCE_PARAMS.c1),
        )
        y0 = np.asarray(p.get("y0", rigid_body.REFERENCE_Y0), dtype=float)
        sysm = rigid_body.system(params)
        cv = float(rigid_body.CASIMIR.value(y0))
        shs = rigid_body.transformed_shs(params, cv)
        return ModelSetup(
            name="srb",
            system=sysm,
            casimir=rigid_body.CASIMIR,
            y0=y0,
            alpha_scheme=lambda y, ac: rigid_body.alpha_scheme(params, y, ac),
            canonical_stepper=lambda alpha: make_alpha_stepper(shs, _alpha_config(cfg, alpha)),
            chart=rigid_body.chart(cv),
            spherical_scheme=lambda y: rigid_body.spherical_scheme(
                params, y, tol=cfg.tol, truncation=_truncation(cfg)
            ),
            scheme_map=lambda ac: rigid_body.alpha_scheme_map(params, ac),
            default_T={"paths": 10.0, "casimir": 500.0, "order": 10.0},
        )
    if cfg.system == "slv":
        params = lotka_volterra.LVParams(
            a=p.get("a", lotka_volterra.REFERENCE_PARAMS.a),
            b=p.get("b", lotka_volterra.REFERENCE_PARAMS.b),
            r=p.get("r", lotka_volterra.REFERENCE_PARAMS.r),
            nu=p.get("nu", lotka_volterra.REFERENCE_PARAMS.nu),
            mu=p.get("mu", lotka_volterra.REFERENCE_PARAMS.mu),
            c2=p.get("c2", lotka_volterra.REFERENCE_PARAMS.c2),
        )
        y0 = np.asarray(p.get("y0", lotka_volterra.REFERENCE_Y0), dtype=float)
        sysm = lotka_volterra.system(params)
        cas = lotka_volterra.casimir(params)
        cv = float(cas.value(y0))
        shs = lotka_volterra.transformed_shs(params, cv)
        return ModelSetup(
            name="slv",
            system=sysm,
            casimir=cas,
            y0=y0,
            alpha_scheme=lambda y, ac: lotka_volterra.alpha_scheme(params, y, ac),
            canonical_stepper=lambda alpha: make_alpha_stepper(shs, _alpha_config(cfg, alpha)),
            chart=lotka_volterra.chart(cv, params),
            spherical_scheme=None,
            scheme_map=lambda ac: lotka_volterra.alpha_scheme_map(params, ac),
            default_T={"paths": 10.0, "casimir": 10.0, "order": 2.0},
        )
    # anything else is a path to a custom system definition file
    try:
        custom = load_custom_system(cfg.system)
    except (OSError, SpecFileError) as exc:
        raise ConfigError(f"cannot load custom system {cfg.system!r}: {exc}") from exc
    y0 = p.get("y0")
    if y0 is not None:
        y0 = np.asarray(y0, dtype=float)
    casimir = custom.system.casimirs[0] if custom.system.casimirs else None

    def custom_alpha_config(alpha):
        # finite-difference derivative data puts the attainable fixed-point
        # accuracy near 1e-10; a tighter tol would never be met
        return AlphaSchemeConfig(
            alpha=alpha, tol=max(cfg.tol, 1e-9), truncation=_truncation(cfg)
        )

    def custom_alpha_scheme(y, ac):
        if custom.chart is None:
            raise ConfigError("custom system has no chart; only 'check' is available")
        return generic_alpha_scheme(
            custom.system, custom.chart, y, custom_alpha_config(ac.alpha)
        )

    # Map-based diagnostics (symplecticity, Poisson-map residual) need
    # analytic derivative data to reach their thresholds; with fd-backed
    # Hamiltonians the check suite covers the structural validators only.
    return ModelSetup(
        name="custom",
        system=custom.system,
        casimir=casimir,
        y0=y0,
        alpha_scheme=custom_alpha_scheme,
        canonical_stepper=None,
        chart=custom.chart,
        spherical_scheme=None,
        scheme_map=None,
        default_T={"paths": 10.0, "casimir": 10.0, "order": 2.0},
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows, metadata: list[str] = ()):
    lines = [f"# {m}" for m in metadata]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _grid(T: float, h: float) -> TimeGrid:
    """The grid on [0, T] with step h, which must divide T."""
    n_steps = round(T / h) if h > 0 else 0
    if n_steps < 1 or abs(n_steps * h - T) > 1e-9 * T:
        raise ConfigError(f"step h={h} does not divide [0, {T}]")
    return TimeGrid(0.0, T, n_steps)


def cmd_paths(cfg: ExperimentConfig) -> int:
    setup = build_setup(cfg)
    if setup.y0 is None:
        raise ConfigError("paths needs an initial state y0")
    T = cfg.T if cfg.T is not None else setup.default_T["paths"]
    grid = _grid(T, cfg.h[0] if cfg.h else 0.01)
    scheme = setup.alpha_scheme(setup.y0, _alpha_config(cfg, cfg.alpha[0]))
    result = experiments.paths_experiment(
        setup.system,
        scheme,
        setup.y0,
        grid,
        cfg.seed,
        ref_factor=cfg.ref_factor or 1000,
        tol=cfg.tol,
    )
    d = setup.system.dim
    header = ["t"] + [f"y{i + 1}" for i in range(d)] + [f"y{i + 1}_ref" for i in range(d)]
    rows = np.column_stack([result.times, result.states, result.reference])
    _write_csv(
        cfg.output,
        header,
        rows,
        metadata=[
            f"system={setup.name} alpha={cfg.alpha[0]} h={grid.h} T={grid.T} seed={cfg.seed}",
            f"reference=midpoint ref_step={result.ref_step}",
        ],
    )
    return EXIT_OK


def cmd_casimir(cfg: ExperimentConfig) -> int:
    setup = build_setup(cfg)
    if setup.y0 is None or setup.casimir is None:
        raise ConfigError("casimir needs an initial state and a Casimir function")
    T = cfg.T if cfg.T is not None else setup.default_T["casimir"]
    grid = _grid(T, cfg.h[0] if cfg.h else 0.01)
    schemes = {
        "casimir_scheme": setup.alpha_scheme(setup.y0, _alpha_config(cfg, cfg.alpha[0])),
        "casimir_em": experiments.em_stepper(setup.system),
    }
    if setup.name == "slv":
        schemes["casimir_iem"] = experiments.iem_stepper(setup.system, tol=cfg.tol)
    result = experiments.casimir_experiment(
        setup.system, schemes, setup.casimir, setup.y0, grid, cfg.seed
    )
    header = ["t"] + list(schemes)
    rows = np.column_stack([result.times] + [result.columns[k] for k in schemes])
    _write_csv(
        cfg.output,
        header,
        rows,
        metadata=[f"system={setup.name} alpha={cfg.alpha[0]} h={grid.h} T={grid.T} seed={cfg.seed}"],
    )
    return EXIT_OK


def cmd_order(cfg: ExperimentConfig) -> int:
    setup = build_setup(cfg)
    if setup.y0 is None:
        raise ConfigError("order needs an initial state y0")
    hs = cfg.h or (0.005, 0.01, 0.02, 0.04)
    T = cfg.T if cfg.T is not None else setup.default_T["order"]
    ref_factor = cfg.ref_factor or 8
    if cfg.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {cfg.samples}")
    if len(set(hs)) < len(hs):
        raise ConfigError(f"step sizes must be distinct, got {hs}")
    for h in hs:  # the reference step min(hs) / ref_factor must divide every h
        _grid(T, h)
        _grid(h, min(hs) / ref_factor)
    schemes = {
        f"alpha={alpha:g}": setup.alpha_scheme(setup.y0, _alpha_config(cfg, alpha))
        for alpha in cfg.alpha
    }
    if cfg.spherical:
        if setup.spherical_scheme is None:
            raise ConfigError("--spherical is only available for the srb system")
        schemes["spherical"] = setup.spherical_scheme(setup.y0)
    estimates = experiments.order_experiment(
        setup.system,
        schemes,
        setup.y0,
        T,
        hs,
        cfg.samples,
        cfg.seed,
        ref_factor=ref_factor,
        tol=cfg.tol,
    )
    names = list(schemes)
    first = estimates[names[0]]
    header = ["h"] + [f"rms_{n}" for n in names]
    rows = np.column_stack([first.step_sizes] + [estimates[n].errors for n in names])
    _write_csv(
        cfg.output,
        header,
        rows,
        metadata=[
            f"system={setup.name} T={T} samples={cfg.samples} seed={cfg.seed} "
            f"ref_factor={ref_factor}"
        ],
    )
    for n in names:
        print(f"slope {n}: {estimates[n].slope:.6f}")
    return EXIT_OK


def cmd_check(cfg: ExperimentConfig) -> int:
    setup = build_setup(cfg)
    rng = np.random.default_rng(cfg.seed)
    if setup.name == "srb":
        points = rng.uniform(-1.5, 1.5, size=(400, 3))
        points = points[points[:, 0] ** 2 + points[:, 2] ** 2 > 0.05][:100]
    elif setup.name == "slv":
        points = rng.uniform(0.2, 2.5, size=(100, 3))
    else:
        d = setup.system.dim
        points = rng.uniform(0.2, 1.5, size=(100, d))
        if setup.system.domain is not None:
            points = points[setup.system.domain(points)]
            if len(points) == 0:
                raise ConfigError("no random check points inside the declared domain")
    if setup.chart is not None and setup.chart.domain is not None:
        points = points[setup.chart.domain(points)]

    composed_factory = None
    if setup.scheme_map is not None:
        composed_factory = lambda: setup.scheme_map(_alpha_config(cfg, 0.5))
    canonical_ok = setup.canonical_stepper is not None and setup.chart is not None
    lines = experiments.check_suite(
        setup.system,
        points,
        chart=setup.chart,
        canonical_stepper_factory=setup.canonical_stepper if canonical_ok else None,
        composed_scheme_factory=composed_factory,
        alphas=cfg.alpha,
        h=cfg.h[0] if cfg.h else 0.01,
        seed=cfg.seed,
    )
    failed = False
    for line in lines:
        status = "PASS" if line.passed else "FAIL"
        print(
            f"{line.name:<12s} residual {line.residual:.3e}  "
            f"threshold {line.threshold:.0e}  {status}"
        )
        failed = failed or not line.passed
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spoisson",
        description="Structure-preserving integrators for stochastic Poisson systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("paths", cmd_paths),
        ("casimir", cmd_casimir),
        ("order", cmd_order),
        ("check", cmd_check),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--system", help="srb | slv | path to a custom system file")
        p.add_argument("--alpha", help="comma-separated alpha values")
        p.add_argument("--h", help="comma-separated step sizes")
        p.add_argument("--T", type=float, help="final time")
        p.add_argument("--samples", type=int, help="Monte Carlo sample count")
        p.add_argument("--seed", type=int, help="base seed")
        p.add_argument("--truncation-k", dest="truncation_k", type=float,
                       help="increment truncation strength k >= 1")
        p.add_argument("--tol", type=float, help="implicit iteration tolerance")
        p.add_argument("--output", help="CSV output path ('-' for stdout)")
        p.add_argument("--ref-factor", dest="ref_factor", type=int,
                       help="reference refinement factor")
        p.add_argument("--param", action="append",
                       help="model constant KEY=VALUE (repeatable)")
        if name == "order":
            p.add_argument("--spherical", action="store_true",
                           help="include the spherical scheme column (srb)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.fn(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StepError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
