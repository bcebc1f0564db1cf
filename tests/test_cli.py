import ast
import gc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from spoisson.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ExperimentConfig,
    build_parser,
    main,
    resolve_config,
)
from spoisson import experiments
from spoisson.canonical import verify_chart
from spoisson.custom import load_custom_system
from spoisson.models import rigid_body as rb

BAD_STRUCTURE_SPEC = """
dim = 3
m = 1
rank = 2
# not skew-symmetric: B + B^T = 2 I on the diagonal
B = [[1, -y3, y2], [y3, 1, -y1], [-y2, y1, 1]]
K0 = 0.5*(y1**2 + y2**2 + y3**2)
K1 = 0.1*(y1**2 + y2**2 + y3**2)
casimir = 0.5*(y1**2 + y2**2 + y3**2)
"""


def _read(path):
    return path.read_text().splitlines()


def test_paths_csv_format_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["paths", "--system", "srb", "--T", "1", "--ref-factor", "10", "--seed", "7"]
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()

    lines = _read(out1)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    header = lines[header_idx].split(",")
    assert header == ["t", "y1", "y2", "y3", "y1_ref", "y2_ref", "y3_ref"]
    rows = [l.split(",") for l in lines[header_idx + 1 :]]
    assert len(rows) == 101  # n_steps + 1
    t = np.array([float(r[0]) for r in rows])
    assert np.all(np.diff(t) > 0)


def test_casimir_csv_initial_value_and_columns(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["casimir", "--system", "srb", "--T", "2", "--output", str(out)]) == EXIT_OK
    lines = _read(out)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx].split(",") == ["t", "casimir_scheme", "casimir_em"]
    first = [float(x) for x in lines[header_idx + 1].split(",")]
    assert first[1] == pytest.approx(0.5, abs=1e-15)
    scheme_col = np.array(
        [float(l.split(",")[1]) for l in lines[header_idx + 1 :]]
    )
    assert np.max(np.abs(scheme_col - 0.5)) < 1e-10


def test_casimir_slv_has_iem_column(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["casimir", "--system", "slv", "--T", "1", "--output", str(out)]) == EXIT_OK
    lines = _read(out)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx].split(",") == ["t", "casimir_scheme", "casimir_em", "casimir_iem"]


def test_order_csv_and_slopes(tmp_path, capsys):
    out = tmp_path / "o.csv"
    code = main(
        [
            "order", "--system", "srb", "--T", "1", "--samples", "20",
            "--h", "0.02,0.04", "--ref-factor", "4", "--alpha", "0,1",
            "--output", str(out),
        ]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "slope alpha=0" in printed
    assert "slope alpha=1" in printed
    lines = _read(out)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx].split(",") == ["h", "rms_alpha=0", "rms_alpha=1"]
    rows = [[float(x) for x in l.split(",")] for l in lines[header_idx + 1 :]]
    assert [r[0] for r in rows] == [0.04, 0.02]


def test_order_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    args = [
        "order", "--system", "slv", "--T", "1", "--samples", "15",
        "--h", "0.02,0.04", "--ref-factor", "2", "--alpha", "0.5", "--seed", "11",
    ]
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_check_passes_for_builtin_models(capsys):
    assert main(["check", "--system", "srb", "--seed", "3"]) == EXIT_OK
    assert main(["check", "--system", "slv", "--seed", "3"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "PASS" in printed
    assert "FAIL" not in printed


def test_check_fails_for_corrupted_structure(tmp_path, capsys):
    spec = tmp_path / "bad.txt"
    spec.write_text(BAD_STRUCTURE_SPEC)
    assert main(["check", "--system", str(spec), "--seed", "3"]) == EXIT_CHECK_FAILED
    printed = capsys.readouterr().out
    assert any("skew" in line and "FAIL" in line for line in printed.splitlines())
    skew = next(line for line in printed.splitlines() if line.startswith("skew"))
    assert "  at y = (" in skew


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system = srb\nT = 1\nseed = 9\nh = 0.02\n")
    out = tmp_path / "p.csv"
    assert main(
        ["paths", "--config", str(cfg), "--T", "2", "--ref-factor", "5",
         "--output", str(out)]
    ) == EXIT_OK
    meta = _read(out)[0]
    assert "T=2.0" in meta  # flag wins over file
    assert "seed=9" in meta  # file wins over default


# field -> (flag argv, config-file value, a different config-file value)
OPTION_VALUES = {
    "system": (["--system", "slv"], "slv", "srb"),
    "alpha": (["--alpha", "0.2,0.4"], "0.2,0.4", "0.7"),
    "h": (["--h", "0.02,0.04"], "0.02,0.04", "0.05"),
    "T": (["--T", "3"], "3", "4"),
    "samples": (["--samples", "7"], "7", "9"),
    "seed": (["--seed", "5"], "5", "6"),
    "truncation_k": (["--truncation-k", "2.5"], "2.5", "3"),
    "tol": (["--tol", "1e-10"], "1e-10", "1e-9"),
    "output": (["--output", "a.csv"], "a.csv", "b.csv"),
    "ref_factor": (["--ref-factor", "4"], "4", "5"),
    "spherical": (["--spherical"], "true", "no"),
}


def test_option_values_cover_every_config_field():
    assert set(OPTION_VALUES) == {f.name for f in fields(ExperimentConfig)} - {"params"}


@pytest.mark.parametrize("name", sorted(OPTION_VALUES))
def test_flag_and_config_key_parse_alike_and_flag_wins(name, tmp_path):
    flag, same, other = OPTION_VALUES[name]

    def resolve(argv, text=None):
        if text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{name} = {text}\n")
            argv = argv + ["--config", str(cfg)]
        return getattr(resolve_config(build_parser().parse_args(["order", *argv])), name)

    from_flag = resolve(flag)
    assert resolve([], same) == from_flag
    assert resolve([], other) != from_flag
    assert resolve(flag, other) == from_flag


@pytest.mark.parametrize("command", ["paths", "casimir", "check"])
def test_spherical_is_a_usage_error_outside_order(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--spherical"])
    assert info.value.code == EXIT_CONFIG
    assert "--spherical" in capsys.readouterr().err


TWO_NOISE_SPEC = (Path(__file__).resolve().parents[1] / "bench" / "srb_custom.txt").read_text().replace(
    "m = 1", "m = 2").replace("casimir =", "K2 = 0.05*(y1**2 + y2**2 + y3**2)\ncasimir =")


@pytest.mark.parametrize(
    "argv",
    [["paths", "--T", "0.1", "--ref-factor", "2"], ["casimir", "--T", "0.1"],
     ["order", "--T", "0.08", "--samples", "2"], ["check"]],
    ids=lambda argv: argv[0],
)
def test_custom_system_with_two_noise_channels_exits_3(argv, tmp_path, capsys):
    spec = tmp_path / "two_noise.txt"
    spec.write_text(TWO_NOISE_SPEC)
    assert "K2" in TWO_NOISE_SPEC and "m = 2" in TWO_NOISE_SPEC
    code = main(argv + ["--system", str(spec), "--param", "y0=0.7,0.3,0.2"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    # check exits 3 as a whole: no line is printed, not even those that need no alpha scheme
    assert captured.out == ""
    assert captured.err == (
        "configuration error: alpha-generating schemes need a single noise channel, got 2\n"
    )


@pytest.mark.parametrize("command", ["paths", "casimir", "order"])
def test_step_that_does_not_divide_T_exits_3(command, capsys):
    argv = [command, "--system", "srb", "--T", "1", "--h", "0.3", "--ref-factor", "1"]
    assert main(argv + ["--samples", "2"] * (command == "order")) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: step h=0.3 does not divide [0, 1.0]\n"


@pytest.mark.parametrize("command", ["paths", "casimir", "check"])
def test_more_than_one_step_size_exits_3(command, capsys):
    assert main([command, "--system", "srb", "--T", "0.02", "--h", "0.01,0.02"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"configuration error: {command} takes one step size, got --h 0.01,0.02\n"


def test_config_errors_exit_3(tmp_path):
    assert main(["check", "--system", str(tmp_path / "missing.txt")]) == EXIT_CONFIG
    assert main(["paths", "--system", "srb", "--param", "c1=abc"]) == EXIT_CONFIG
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples = not_a_number\n")
    assert main(["order", "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exits_3_with_one_line(where, tmp_path, capsys, monkeypatch):
    # the path is checked before the run, without being opened
    monkeypatch.setattr(experiments, "paths_experiment", lambda *a, **k: pytest.fail("the run started"))
    output = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    argv = ["paths", "--system", "srb", "--T", "0.02", "--ref-factor", "1", "--output", str(output)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert str(output) in err


def test_a_failed_run_leaves_an_existing_output_as_it_was(tmp_path):
    output = tmp_path / "x.csv"
    output.write_text("kept\n")
    argv = ["paths", "--system", "srb", "--T", "1", "--h", "0.3", "--output", str(output)]
    assert main(argv) == EXIT_CONFIG  # the step does not divide T
    assert output.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--T", "0.5"],  # the step 0.04 does not divide T
        ["order", "--h", "0.01,0.01"],
        ["order", "--samples", "0"],
        ["paths", "--alpha", "2"],
        ["paths", "--truncation-k", "0.5"],
        ["paths", "--tol", "-1"],
        ["paths", "--h", "0"],
        ["paths", "--T", "0.1", "--ref-factor", "0"],
        ["paths", "--T", "0.1", "--ref-factor", "-5"],
        ["order", "--T", "0.08", "--ref-factor", "0"],
        ["check", "--param", "i1=2"],  # constants are case-sensitive: I1
        ["check", "--param", "I1=-1"],
        ["check", "--param", "I1=1,2"],
        ["check", "--param", "y0=1,2"],
        ["check", "--param", "y0=0,0,0"],
        ["paths", "--param", "y0=0,1,0"],  # on the chart's singular axis y1 = y3 = 0
        ["casimir", "--T", "0.1", "--seed", "-1"],
        ["paths", "--T", "0.1", "--T", "nan"],
        ["order", "--T", "0.1", "--T", "inf"],
        ["casimir", "--T", "0.1", "--tol", "nan"],
        ["casimir", "--T", "0.1", "--truncation-k", "nan"],
        ["casimir", "--T", "0.1", "--tol", "inf"],  # would accept every first iterate
        ["check", "--param", "I1=nan"],
        ["check", "--param", "c1=inf"],
        ["casimir", "--T", "0.1", "--param", "I2=inf"],
        ["check", "--h", "0"],
        ["check", "--h", "1"],  # the truncation bound needs h < 1
        ["check", "--h", "nan"],
        ["check", "--h", "-1"],  # no RuntimeWarning from sqrt(h) before the rule
    ],
    ids="_".join,
)
def test_bad_config_values_exit_3(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning before the rule
        assert main(argv + ["--system", "srb"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert "Traceback" not in err


def test_order_names_the_working_step_that_does_not_divide_T(capsys):
    # Checked before the reference step h / ref_factor, which the user never typed.
    assert main(["order", "--system", "srb", "--T", "1", "--h", "0.3", "--samples", "2"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: step h=0.3 does not divide [0, 1.0]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["paths", "--seed", "1e3"],
        ["order", "--samples", "abc"],
        ["casimir", "--no-such-flag"],
        ["no-such-command"],
        ["paths", "--alpha", "abc"],
        ["paths", "--h", "x"],
        ["order", "--h", "0.01,abc"],
    ],
    ids="_".join,
)
def test_usage_errors_exit_3_with_usage_on_stderr(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: spoisson")
    assert "error:" in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["paths", "--help"])
    assert info.value.code == 0
    assert "--truncation-k" in capsys.readouterr().out


SRB_CUSTOM = str(Path(__file__).resolve().parents[1] / "bench" / "srb_custom.txt")
TWO_RIGID_BODIES = str(Path(__file__).with_name("two_rigid_bodies.txt"))


@pytest.mark.parametrize(
    "system, argv",
    [
        ("slv", ["check", "--param", "r=0"]),
        ("slv", ["paths", "--param", "y0=-1,1,1"]),  # off the positive octant
        ("slv", ["check", "--param", "a=nan"]),
        ("slv", ["check", "--param", "nu=inf"]),
        ("slv", ["check", "--param", "c2=nan"]),
        pytest.param(SRB_CUSTOM, ["casimir", "--param", "y0=0,0.3,0"], id="srb_custom-casimir_--param_y0=0,0.3,0"),
    ],
    ids=lambda v: v if isinstance(v, str) else "_".join(v),
)
def test_bad_model_values_exit_3(system, argv, capsys):
    assert main(argv + ["--system", system]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert "Traceback" not in err


def test_numerical_failure_exits_2(tmp_path):
    # h >= 1 makes the increment truncation (and the implicit solve) blow up.
    out = tmp_path / "x.csv"
    for argv in (
        ["paths", "--system", "srb", "--T", "10", "--h", "10", "--ref-factor", "1"],
        ["order", "--system", "srb", "--h", "2,1", "--T", "2", "--samples", "2"],
    ):
        code = main(argv + ["--output", str(out)])
        assert code == EXIT_NUMERICAL


def test_custom_system_check_passes(tmp_path, capsys):
    from test_custom import RIGID_BODY_SPEC

    spec = tmp_path / "rb.txt"
    spec.write_text(RIGID_BODY_SPEC)
    # at y0 = (0.7, 0.3, 0.2) the level 2C = 0.62 of y0 is below the domain's
    # y2^2 < 0.9, so some check states lie off every state of that level
    for y0 in ("0.7,0.7,0.1", "0.7,0.3,0.2"):
        assert main(["check", "--system", str(spec), "--seed", "3", "--param", f"y0={y0}"]) == EXIT_OK
        printed = capsys.readouterr().out
        for name in ("skew", "jacobi", "casimir[0]", "chart", "symplectic", "poisson_map"):
            assert any(name in line and "PASS" in line for line in printed.splitlines())


def test_check_prints_the_worst_state_of_a_failing_validator(tmp_path, capsys):
    # Q = atan2(y3, y1) + y1 is not canonical: {P, Q} = -1 + {y2, y1} = -1 + y3
    spec = tmp_path / "wrong_chart.txt"
    spec.write_text(Path(SRB_CUSTOM).read_text().replace("arctan2(y3, y1), ", "arctan2(y3, y1) + y1, "))
    argv = ["check", "--system", str(spec), "--seed", "3", "--param", "y0=0.7,0.3,0.2"]
    assert main(argv) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    chart_line = next(line for line in lines if line.startswith("chart"))
    assert "FAIL" in chart_line
    point = np.array(ast.literal_eval(chart_line.split("  at y = ")[1]))
    model = replace(load_custom_system(str(spec)), y0=np.array([0.7, 0.3, 0.2]))
    chart = model.chart
    states = model.check_points(np.random.default_rng(3))
    states = states[model.system.domain(states) & chart.domain(states)]
    residuals = [verify_chart(chart, model.system, y).max() for y in states]
    assert np.array_equal(point, states[np.argmax(residuals)])
    assert f"residual {max(residuals):.3e}" in chart_line
    # passing lines print no state, nor do the map lines, which report only their worst residual
    for line in lines:
        if not line.startswith("chart"):
            assert "at y" not in line
    assert any(line.startswith("poisson_map") and "FAIL" in line for line in lines)


def test_check_fails_a_nan_residual_at_its_state(monkeypatch, capsys):
    # a NaN residual is the worst point of its line, even next to a larger
    # finite one, and FAILs the line with that state
    jacobi = experiments.check_jacobi

    def jacobi_with_nan(sys, points):
        res = jacobi(sys, points)
        res[1], res[3] = 1.0, np.nan
        return res

    monkeypatch.setattr(experiments, "check_jacobi", jacobi_with_nan)
    assert main(["check", "--system", "srb"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    jacobi_line = next(line for line in lines if line.startswith("jacobi"))
    assert "residual nan" in jacobi_line and "FAIL" in jacobi_line
    model = rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0)
    states = model.check_points(np.random.default_rng(ExperimentConfig().seed))
    states = states[model.chart.domain(states)]
    point = np.array(ast.literal_eval(jacobi_line.split("  at y = ")[1]))
    assert np.array_equal(point, states[3])
    assert [line.split()[0] for line in lines if "FAIL" in line] == ["jacobi"]


def test_check_fails_a_nan_map_residual(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "poisson_map_residual", lambda *args, **kwargs: np.nan)
    assert main(["check", "--system", "srb"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines if "FAIL" in line] == [
        ["symplectic", "residual", "nan"], ["poisson_map", "residual", "nan"]]


def test_custom_check_passes_every_line_off_the_level_of_y0(capsys):
    # 2C = 0.0225 < y2^2 for every check state: no state's chart image inverts
    # on the level of y0, and none needs to, for each steps on its own level
    assert main(["check", "--system", SRB_CUSTOM, "--param", "y0=0.1,0.05,0.1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["skew", "jacobi", "casimir[0]", "chart", "symplectic", "poisson_map"]
    assert all(line.endswith("PASS") for line in lines)


def _csv(path):
    """(metadata lines, header, rows as lists of cells) of a CSV output."""
    lines = _read(path)
    meta = [l for l in lines if l.startswith("#")]
    header, *rows = [l.split(",") for l in lines if not l.startswith("#")]
    return meta, header, rows


def _columns(header, rows, names):
    idx = [header.index(n) for n in names]
    return [[r[i] for i in idx] for r in rows]


def test_casimir_writes_a_column_per_casimir_of_two_rigid_bodies(tmp_path):
    argv = ["casimir", "--system", TWO_RIGID_BODIES, "--param", "y0=0.7,0.3,0.2,0.4,0.5,0.6",
            "--alpha", "0,0.5,1", "--T", "1", "--seed", "3", "--output", str(tmp_path / "c.csv")]
    assert main(argv) == EXIT_OK
    _, header, rows = _csv(tmp_path / "c.csv")
    schemes = [f"scheme_alpha={a}" for a in ("0", "0.5", "1")]
    assert header == ["t"] + [f"casimir{i}_{s}" for s in schemes + ["em"] for i in (1, 2)]
    values = np.array(rows, dtype=float)
    assert np.allclose(values[0, 1:], [0.31, 0.385] * 4, rtol=0, atol=1e-15)
    for name in header:
        if "_scheme" in name:
            column = values[:, header.index(name)]
            assert np.max(np.abs(column - column[0])) < 1e-10


def test_casimir_numerical_failure_names_the_column(capsys):
    assert main(["casimir", "--system", "slv", "--h", "0.5", "--T", "1"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: casimir_scheme: stepper failed at step 0: "
        "no convergence within 100 iterations (residual 2.478e+00)\n"
    )


@pytest.mark.parametrize("alphas, column", [([], "alpha=0"), (["--alpha", "0,0.5,1"], "alpha=0,alpha=0.5,alpha=1")],
                         ids=["one", "stack"])
def test_paths_numerical_failure_names_the_column(alphas, column, capsys):
    assert main(["paths", "--system", "slv", "--h", "0.5", "--T", "1", *alphas]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        f"numerical failure: {column}: stepper failed at step 0: "
        "no convergence within 100 iterations (residual 2.373e+00)\n"
    )


def test_stacked_casimir_failure_names_the_stack(capsys):
    argv = ["casimir", "--system", "srb", "--param", "y0=70.71067811865476,70.71067811865476,0",
            "--alpha", "0,1", "--T", "0.1"]
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(
        "numerical failure: casimir_scheme_alpha=0,casimir_scheme_alpha=1: stepper failed at step 0: no convergence"
    )


@pytest.mark.parametrize("system, extra, dim, name", [
    ("srb", [], 3, "srb"), ("slv", [], 3, "slv"),
    (TWO_RIGID_BODIES, ["--param", "y0=0.7,0.3,0.2,0.4,0.5,0.6"], 6, "custom"),
], ids=["srb", "slv", "two_rigid_bodies"])
def test_paths_writes_a_column_block_per_alpha_on_one_reference(system, extra, dim, name, tmp_path):
    alphas = ("0", "0.5", "1")
    args = ["paths", "--system", system, "--T", "0.1", "--ref-factor", "5", "--seed", "3", *extra]
    assert main(args + ["--alpha", ",".join(alphas), "--output", str(tmp_path / "all.csv")]) == EXIT_OK
    meta, header, rows = _csv(tmp_path / "all.csv")
    ys = [f"y{i + 1}" for i in range(dim)]
    assert header == ["t"] + [f"{y}_alpha={a}" for a in alphas for y in ys] + [f"{y}_ref" for y in ys]
    assert meta[0].startswith(f"# system={name} alpha=0.0,0.5,1.0 ")
    for a in alphas:
        assert main(args + ["--alpha", a, "--output", str(tmp_path / "one.csv")]) == EXIT_OK
        _, one_header, one_rows = _csv(tmp_path / "one.csv")
        block = ["t"] + [f"{y}_alpha={a}" for y in ys] + [f"{y}_ref" for y in ys]
        assert _columns(header, rows, block) == one_rows  # byte for byte
        assert one_header == ["t"] + ys + [f"{y}_ref" for y in ys]


@pytest.mark.parametrize("system", ["srb", "slv"])
def test_casimir_writes_a_column_per_alpha(system, tmp_path):
    args = ["casimir", "--system", system, "--T", "0.2", "--seed", "5"]
    assert main(args + ["--alpha", "0,1", "--output", str(tmp_path / "all.csv")]) == EXIT_OK
    _, header, rows = _csv(tmp_path / "all.csv")
    baselines = ["casimir_em"] + (["casimir_iem"] if system == "slv" else [])
    assert header == ["t", "casimir_scheme_alpha=0", "casimir_scheme_alpha=1"] + baselines
    for a in ("0", "1"):
        assert main(args + ["--alpha", a, "--output", str(tmp_path / "one.csv")]) == EXIT_OK
        _, one_header, one_rows = _csv(tmp_path / "one.csv")
        assert one_header == ["t", "casimir_scheme"] + baselines
        assert _columns(header, rows, ["t", f"casimir_scheme_alpha={a}"] + baselines) == one_rows


@pytest.mark.parametrize("command", ["order", "paths", "casimir"])
@pytest.mark.parametrize(
    "alphas, values, name",
    [("0,0", "0.0 and 0.0", "alpha=0"),
     ("0.1234567,0.1234568", "0.1234567 and 0.1234568", "alpha=0.123457")],  # %g collides
    ids=["repeat", "g_collision"],
)
def test_alphas_that_share_a_column_name_exit_3(command, alphas, values, name, capsys):
    argv = [command, "--system", "srb", "--alpha", alphas, "--T", "0.08", "--samples", "3"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    name = f"casimir_scheme_{name}" if command == "casimir" else name
    assert captured.err == (
        f"configuration error: --alpha {values} give the same column name {name!r}\n"
    )


@pytest.mark.parametrize("command", ["casimir", "check"])
def test_commands_without_a_reference_ignore_ref_factor(command, capsys):
    argv = [command, "--system", "srb", "--T", "0.1"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert main(argv + ["--ref-factor", "0"]) == EXIT_OK
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("command", ["paths", "casimir"])
def test_paths_and_casimir_default_to_alpha_zero(command):
    cfg = resolve_config(build_parser().parse_args([command]))
    assert cfg.alpha == (0.0,)
    assert resolve_config(build_parser().parse_args(["order"])).alpha == (0.0, 0.5, 1.0)


def test_parser_is_built_once_and_commands_leave_no_reference_cycles(capsys):
    assert build_parser() is build_parser()
    for argv in (["casimir", "--system", "srb", "--T", "0.1"], ["paths", "--system", "srb", "--T", "0.1"]):
        assert main(argv) == EXIT_OK  # warm-up: imports and caches
        gc.collect()
        assert main(argv) == EXIT_OK
        assert gc.collect() == 0
