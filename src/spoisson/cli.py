"""Command-line front end: paths | casimir | order | check.

Configuration values resolve in three layers: built-in defaults (the
reference experiment values), then a `key = value` config file given with
--config, then command-line flags; every flag is also a config-file key.
Model constants and y0 are the other keys (``I1 = 1.5``, ``y0 = 2,0.9,0.5``).

CSV output uses comma separators, '.' decimals, 17 significant digits (so
floats round-trip losslessly), and a single header row.  Lines starting with
'#' are metadata.

Exit codes: 0 success, 1 validation failure, 2 numerical failure (a failure
inside a step), 3 configuration error (a usage error or any value the library
rejects with a ValueError).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import experiments
from .alpha_gf import AlphaSchemeConfig
from .canonical import Model, alpha_path, alpha_scheme
from .custom import SpecFileError, load_custom_system, parse_keyvalues
from .models import lotka_volterra, rigid_body
from .noise import TimeGrid, TruncationPolicy
from .sde import TOL, IntegrationError, StepError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3


def float_list(s) -> tuple:
    """A comma-separated list of numbers."""
    return tuple(float(x) for x in str(s).split(","))


def _yes(s) -> bool:
    return str(s).lower() in ("1", "true", "yes")


def _option(default, parse, doc: str):
    """A setting's default, with the parser of its value and its help."""
    return field(default=default, metadata={"option": (parse, doc)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Each setting but ``params`` is its own --flag (dashes for underscores)
    and config-file key; a flag beats the file, the file the default."""

    system: str = _option("srb", str, "srb | slv | path to a custom system file")
    params: dict = field(default_factory=dict)
    alpha: tuple = _option((0.0, 0.5, 1.0), float_list, "comma-separated alpha values")
    h: tuple = _option((0.01,), float_list, "comma-separated step sizes")
    T: float | None = _option(None, float, "final time")  # None: the model's default for the command
    samples: int = _option(500, int, "Monte Carlo sample count")
    seed: int = _option(2024, int, "base seed")
    truncation_k: float = _option(4.0, float, "increment truncation strength k >= 1")
    tol: float = _option(TOL, float, "implicit iteration tolerance")
    output: str = _option("-", str, "CSV output path ('-' for stdout)")
    ref_factor: int = _option(1000, int, "reference refinement factor")
    spherical: bool = _option(False, _yes, "include the spherical scheme column (srb)")

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for alpha in self.alpha:  # the scheme config owns the alpha, tol and k rules
            _alpha_config(self, alpha)


_OPTIONS = {f.name: f.metadata["option"] for f in fields(ExperimentConfig) if f.metadata}
_ORDER_ONLY = ("spherical",)  # flags of the order command alone
# Per-command defaults: paths and casimir run alpha 0 unless given --alpha.
_COMMAND_DEFAULTS = {"order": {"h": (0.005, 0.01, 0.02, 0.04), "ref_factor": 8},
                     "paths": {"alpha": (0.0,)}, "casimir": {"alpha": (0.0,)}}


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = parse_keyvalues(fh.read())
    except (OSError, SpecFileError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    out: dict = {"params": {}}
    for key, value in raw.items():
        if key in _OPTIONS:
            try:
                out[key] = _OPTIONS[key][0](value)
            except ValueError as exc:
                raise ValueError(f"bad value for {key}: {value!r}") from exc
        else:  # model constants / initial state
            out["params"][key] = _param_value(key, value)
    return out


def _param_value(key: str, value: str):
    """One number, or a comma-separated vector such as y0."""
    try:
        return tuple(float(x) for x in value.split(",")) if "," in value else float(value)
    except ValueError as exc:
        raise ValueError(f"bad numeric value for {key}: {value!r}") from exc


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values = dict(_COMMAND_DEFAULTS.get(args.command, {}))
    if args.config:
        values.update(load_config_file(args.config))
    params = values.pop("params", {})
    flags = {k: getattr(args, k, None) for k in _OPTIONS}  # order alone has --spherical
    values.update((k, v) for k, v in flags.items() if v is not None)
    for item in args.param or []:
        if "=" not in item:
            raise ValueError(f"--param expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = _param_value(key, value)
    return ExperimentConfig(params=params, **values)


def _alpha_config(cfg: ExperimentConfig, alpha: float) -> AlphaSchemeConfig:
    truncation = TruncationPolicy(k=cfg.truncation_k)
    return AlphaSchemeConfig(alpha=alpha, tol=cfg.tol, truncation=truncation)


# Built-in models: the module and the params field each model constant sets.
_BUILTIN = {
    "srb": (rigid_body, {"I1": "i1", "I2": "i2", "I3": "i3", "c1": "c1"}),
    "slv": (lotka_volterra, {k: k for k in ("a", "b", "r", "nu", "mu", "c2")}),
}


def _params(cfg: ExperimentConfig):
    """The params record of a built-in model with the constants of ``cfg``."""
    module, fields = _BUILTIN[cfg.system]
    constants = {k: v for k, v in cfg.params.items() if k != "y0"}
    for key, value in constants.items():
        if key not in fields:
            raise ValueError(f"{cfg.system} has no constant {key!r}; it has {', '.join(fields)}")
        if isinstance(value, tuple):
            raise ValueError(f"{key} takes one number, got {value}")
    return replace(module.REFERENCE_PARAMS, **{fields[k]: v for k, v in constants.items()})


def build_setup(cfg: ExperimentConfig) -> Model:
    """The model ``cfg.system`` names: srb, slv or a custom system file."""
    y0 = cfg.params.get("y0")
    if cfg.system in _BUILTIN:  # the params records, Model and charts own the rules
        module = _BUILTIN[cfg.system][0]
        return module.model(_params(cfg), module.REFERENCE_Y0 if y0 is None else y0)
    try:
        model = load_custom_system(cfg.system)
    except (OSError, SpecFileError) as exc:
        raise ValueError(f"cannot load custom system {cfg.system!r}: {exc}") from exc
    if set(cfg.params) - {"y0"}:
        raise ValueError(f"a custom system takes only y0, got {sorted(cfg.params)}")
    return model if y0 is None else replace(model, y0=np.asarray(y0, dtype=float))


def _scheme(cfg: ExperimentConfig, model: Model, names: list[str]):
    """(key, config) of the composed alpha scheme for every --alpha, named by
    ``names``: one alpha's name and its config, or the tuple of names of a
    scheme that runs one block per alpha (see ``sde.ms_error_many``) and its
    stacked config.  Names must be distinct, as the output columns they
    head."""
    if model.chart is None:
        raise ValueError("custom system has no chart; only 'check' is available")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"--alpha {cfg.alpha[names.index(name)]} and {cfg.alpha[i]} "
                             f"give the same column name {name!r}")
    stacked = len(cfg.alpha) > 1
    return (tuple(names) if stacked else names[0]), _alpha_config(cfg, cfg.alpha if stacked else cfg.alpha[0])


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


def _check_output(path: str) -> None:
    """Reject an --output that cannot be a file, before the run and without
    opening it (a failed run leaves an existing file as it was)."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"--output {path} is a directory or its directory is missing")


def _step(cfg: ExperimentConfig, command: str) -> float:
    """The one step size of a command that runs a single grid."""
    if len(cfg.h) != 1:
        raise ValueError(f"{command} takes one step size, got --h {','.join(map(str, cfg.h))}")
    return cfg.h[0]


def cmd_paths(cfg: ExperimentConfig) -> int:
    model = build_setup(cfg)
    if model.y0 is None:
        raise ValueError("paths needs an initial state y0")
    T = cfg.T if cfg.T is not None else model.default_T["paths"]
    grid = TimeGrid.from_step(T, _step(cfg, "paths"))
    key, config = _scheme(cfg, model, [f"alpha={alpha:g}" for alpha in cfg.alpha])
    result = experiments.paths_experiment(
        model.system,
        {key: alpha_path(model, model.y0, config)},
        model.y0,
        grid,
        cfg.seed,
        ref_factor=cfg.ref_factor,
        tol=cfg.tol,
    )
    ys = [f"y{i + 1}" for i in range(model.system.dim)]
    blocks = [f"{y}_{name}" for name in key for y in ys] if isinstance(key, tuple) else ys
    header = ["t"] + blocks + [f"{y}_ref" for y in ys]
    states = result.states.reshape(len(result.times), -1)  # one column block per alpha
    rows = np.column_stack([result.times, states, result.reference])
    _write_csv(
        cfg.output,
        header,
        rows,
        metadata=[
            f"system={model.name} alpha={','.join(map(str, cfg.alpha))} h={grid.h} T={grid.T} "
            f"seed={cfg.seed}",
            f"reference=midpoint ref_step={result.ref_step}",
        ],
    )
    return EXIT_OK


def cmd_casimir(cfg: ExperimentConfig) -> int:
    model = build_setup(cfg)
    if model.y0 is None or not model.system.casimirs:
        raise ValueError("casimir needs an initial state and a Casimir function")
    T = cfg.T if cfg.T is not None else model.default_T["casimir"]
    grid = TimeGrid.from_step(T, _step(cfg, "casimir"))
    names = [f"casimir_scheme_alpha={alpha:g}" for alpha in cfg.alpha]
    key, config = _scheme(cfg, model, names if len(names) > 1 else ["casimir_scheme"])
    schemes = {key: alpha_path(model, model.y0, config), "casimir_em": experiments.em_path(model.system)}
    if model.name == "slv":
        schemes["casimir_iem"] = experiments.iem_path(model.system, tol=cfg.tol)
    result = experiments.casimir_experiment(model.system, schemes, model.y0, grid, cfg.seed)
    # One column per Casimir: casimir_em, or casimir1_em, casimir2_em, .. for several.
    l = len(model.system.casimirs)
    tags = ["casimir"] if l == 1 else [f"casimir{i}" for i in range(1, l + 1)]
    header = ["t"] + [tag + name.removeprefix("casimir") for name in result.columns for tag in tags]
    rows = np.column_stack([result.times] + list(result.columns.values()))
    _write_csv(
        cfg.output,
        header,
        rows,
        metadata=[f"system={model.name} alpha={','.join(map(str, cfg.alpha))} h={grid.h} "
                  f"T={grid.T} seed={cfg.seed}"],
    )
    return EXIT_OK


def cmd_order(cfg: ExperimentConfig) -> int:
    model = build_setup(cfg)
    if model.y0 is None:
        raise ValueError("order needs an initial state y0")
    T = cfg.T if cfg.T is not None else model.default_T["order"]
    key, config = _scheme(cfg, model, [f"alpha={alpha:g}" for alpha in cfg.alpha])
    schemes = {key: alpha_scheme(model, model.y0, config)}
    if cfg.spherical:
        if model.name != "srb":
            raise ValueError("--spherical is only available for the srb system")
        schemes["spherical"] = rigid_body.spherical_scheme(
            _params(cfg), model.y0, tol=cfg.tol, truncation=TruncationPolicy(k=cfg.truncation_k)
        )
    estimates = experiments.order_experiment(
        model.system,
        schemes,
        model.y0,
        T,
        cfg.h,
        cfg.samples,
        cfg.seed,
        ref_factor=cfg.ref_factor,
        tol=cfg.tol,
    )
    names = list(estimates)
    first = estimates[names[0]]
    header = ["h"] + [f"rms_{n}" for n in names]
    rows = np.column_stack([first.step_sizes] + [estimates[n].errors for n in names])
    _write_csv(
        cfg.output,
        header,
        rows,
        metadata=[
            f"system={model.name} T={T} samples={cfg.samples} seed={cfg.seed} "
            f"ref_factor={cfg.ref_factor}"
        ],
    )
    for n in names:
        print(f"slope {n}: {estimates[n].slope:.6f}")
    return EXIT_OK


def cmd_check(cfg: ExperimentConfig) -> int:
    model = build_setup(cfg)
    lines = experiments.check_suite(
        model,
        model.check_points(np.random.default_rng(cfg.seed)),
        lambda alpha: _alpha_config(cfg, alpha),
        alphas=cfg.alpha,
        h=_step(cfg, "check"),
        seed=cfg.seed,
    )
    for line in lines:
        status = "PASS" if line.passed else "FAIL"
        if not line.passed and line.point is not None:
            status += f"  at y = {tuple(line.point.tolist())}"
        print(f"{line.name:<12s} residual {line.residual:.3e}  "
              f"threshold {line.threshold:.0e}  {status}")
    return EXIT_OK if all(line.passed for line in lines) else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (configuration), not argparse's 2 (numerical)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process: argparse builds reference cycles
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        for key, (parse, doc) in _OPTIONS.items():
            if key in _ORDER_ONLY and name != "order":
                continue
            kind = {"action": "store_const", "const": True} if parse is _yes else {"type": parse}
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=doc, **kind)
        p.add_argument("--param", action="append", help="model constant KEY=VALUE (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command != "check" and cfg.output != "-":  # check writes no CSV
            _check_output(cfg.output)
        return args.fn(cfg)
    except (ValueError, OSError) as exc:  # a failure inside a step is an IntegrationError or StepError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, StepError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
