"""A custom system of dimension d = 6 with n = 2 and two Casimirs: two rigid
bodies coupled through K0 (two_rigid_bodies.txt), each on its own
rigid-body chart; and ``chain_spec(N)``, the chain of N such bodies, whose
chart levels are checked against its Casimirs with those of every model."""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spoisson.alpha_gf import AlphaSchemeConfig, sbar_gradient
from spoisson.canonical import alpha_scheme, alpha_scheme_map
from spoisson.cli import EXIT_OK, main
from spoisson.custom import load_custom_system
from spoisson.models import lotka_volterra as lv, rigid_body as rb
from spoisson.noise import TimeGrid, sample_increments
from spoisson.sde import integrate

SPEC = str(Path(__file__).with_name("two_rigid_bodies.txt"))
Y0 = np.array([0.7, 0.3, 0.2, 0.4, 0.5, 0.6])


def chain_spec(n: int) -> str:
    """The spec of N rigid bodies in a chain: d = 3N, rank 2N, N Casimirs, the
    product chart, body b with moments of inertia 2 on its axis b mod 3 and 1
    on the others, coupled to body b + 1 through 0.1 y_{3b+2} y_{3b+5} in K0;
    at N = 2, two_rigid_bodies.txt up to its /1 divisors."""
    bodies = [(f"y{3 * b + 1}", f"y{3 * b + 2}", f"y{3 * b + 3}") for b in range(n)]
    K = " + ".join([f"0.5*({' + '.join(f'{y}**2/{1 + (i == b % 3)}' for i, y in enumerate(ys))})"
                    for b, ys in enumerate(bodies)] + [f"0.1*y{3 * b + 2}*y{3 * b + 5}" for b in range(n - 1)])
    d, casimirs = 3 * n, [f"0.5*({y1}**2 + {y2}**2 + {y3}**2)" for y1, y2, y3 in bodies]
    B, b0 = np.full((d, d), "0", dtype=object), np.full((d, d), "0", dtype=object)
    for b, (y1, y2, y3) in enumerate(bodies):  # B(y) w = y x w on each body's block
        i = 3 * b
        B[i, i + 1], B[i, i + 2], B[i + 1, i + 2] = "-" + y3, y2, "-" + y1
        B[i + 1, i], B[i + 2, i], B[i + 2, i + 1] = y3, "-" + y2, y1
        b0[b, n + b], b0[n + b, b] = "-1", "1"
    inverse = []
    for b in range(n):  # (P_b, Q_b, C_b) = (z_{b+1}, z_{n+b+1}, z_{2n+b+1})
        rho = f"sqrt(2*z{2 * n + b + 1} - z{b + 1}**2)"
        inverse += [f"{rho}*cos(z{n + b + 1})", f"z{b + 1}", f"{rho}*sin(z{n + b + 1})"]
    vector = lambda entries: "[" + ", ".join(entries) + "]"
    return "\n".join([
        f"dim = {d}", "m = 1", f"rank = {2 * n}", f"B = {vector(map(vector, B))}", f"K0 = {K}", f"K1 = 0.2*({K})",
        *(f"casimir{b + 1} = {c}" for b, c in enumerate(casimirs)),
        "domain = " + " & ".join(f"({y1}**2 + {y3}**2 > 1e-8)" for y1, _, y3 in bodies),
        f"chart_n = {n}",
        "chart_forward = " + vector([y2 for _, y2, _ in bodies] + [f"arctan2({y3}, {y1})" for y1, _, y3 in bodies]
                                    + casimirs),
        f"chart_inverse = {vector(inverse)}", f"chart_b0 = {vector(map(vector, b0))}", ""])


def test_the_chain_of_two_is_the_spec_file():
    spec = [line for line in Path(SPEC).read_text().splitlines() if line and not line.startswith("#")]
    assert chain_spec(2).replace("/1 ", " ").replace("/1)", ")").splitlines() == spec


@pytest.mark.parametrize("name", ["srb", "slv", "srb_custom", "chain10"])
def test_the_chart_levels_are_the_casimirs_in_order(name, tmp_path):
    # The chain's casimir10 is its tenth Casimir, not the second.
    if name == "chain10":
        (tmp_path / "chain10.txt").write_text(chain_spec(10))
    model = {"srb": lambda: rb.model(rb.REFERENCE_PARAMS, rb.REFERENCE_Y0),
             "slv": lambda: lv.model(lv.REFERENCE_PARAMS, lv.REFERENCE_Y0),
             "srb_custom": lambda: load_custom_system(str(Path(__file__).parents[1] / "bench" / "srb_custom.txt")),
             "chain10": lambda: load_custom_system(str(tmp_path / "chain10.txt"))}[name]()
    y = model.check_points(np.random.default_rng(0))
    assert np.array_equal(model.chart.levels(y), np.stack([C.value(y) for C in model.system.casimirs], -1))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_check_passes_every_line_on_the_chain(n, seed, tmp_path, capsys):
    # Each sampled state steps on its own Casimir levels; inverting the picked
    # states onto the levels of y0 left none at N = 8 (and at N = 4, seed 1).
    spec = tmp_path / f"chain{n}.txt"
    spec.write_text(chain_spec(n))
    argv = ["check", "--system", str(spec), "--param", "y0=" + ",".join(["0.7,0.3,0.2"] * n), "--seed", str(seed)]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "skew", "jacobi", *(f"casimir[{b}]" for b in range(n)), "chart", "symplectic", "poisson_map"]
    assert all(line.endswith("PASS") for line in lines)


@pytest.fixture(scope="module")
def model():
    return replace(load_custom_system(SPEC), y0=Y0)


def test_the_spec_has_two_degrees_of_freedom_and_two_casimirs(model):
    assert model.chart.n == 2 and model.system.rank == 4
    assert len(model.system.casimirs) == 2 and model.chart.levels(Y0).shape == (2,)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_passes_every_line(seed, capsys):
    argv = ["check", "--system", SPEC, "--param", "y0=" + ",".join(map(str, Y0)), "--seed", str(seed)]
    assert main(argv) == EXIT_OK
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == [
        "skew", "jacobi", "casimir[0]", "casimir[1]", "chart", "symplectic", "poisson_map"]
    assert all(line[-1] == "PASS" for line in lines)
    residual = {line[0]: float(line[2]) for line in lines}
    # measured at seeds 0-2: chart <= 5.4e-16, symplectic 1.4-1.6e-10, Poisson map 5.0-6.2e-10
    assert residual["chart"] < 1e-15
    assert residual["symplectic"] < 1e-9
    assert residual["poisson_map"] < 1e-8


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mean_square_order_is_one(seed, tmp_path, capsys):
    argv = ["order", "--system", SPEC, "--param", "y0=" + ",".join(map(str, Y0)), "--alpha", "0,1",
            "--T", "0.2", "--samples", "100", "--seed", str(seed), "--output", str(tmp_path / "order.csv")]
    assert main(argv) == EXIT_OK
    slopes = [float(line.split()[-1]) for line in capsys.readouterr().out.splitlines()]
    assert len(slopes) == 2 and all(0.85 <= s <= 1.15 for s in slopes), slopes  # measured 0.997, 1.003


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_each_casimir_is_preserved_along_a_path(model, alpha):
    step = alpha_scheme(model, Y0, AlphaSchemeConfig(alpha=alpha))
    states = integrate(step, Y0, sample_increments(TimeGrid(0.0, 2.0, 200), 1, 3))
    for C in model.system.casimirs:
        values = C.value(states)
        assert np.max(np.abs(values - values[0])) < 1e-14  # measured 1.1e-16


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_a_batch_of_states_steps_as_each_row_alone(model, alpha):
    rng = np.random.default_rng(8)
    ys = Y0 + 0.05 * rng.standard_normal((8, 6))
    dw = 0.1 * rng.standard_normal((8, 1))
    config = AlphaSchemeConfig(alpha=alpha)
    for step in (alpha_scheme(model, Y0, config), alpha_scheme_map(model, config)):
        single = np.stack([step(y, 0.01, d) for y, d in zip(ys, dw)])
        assert np.array_equal(step(ys, 0.01, dw), single)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
def test_sbar_gradient_is_the_gradient_of_sbar(model, alpha):
    # The G term pairs P_k with Q_k: G = sum_k dH1/dQ_k dH1/dP_k for k = 1, 2.
    shs = model.shs(model.chart.levels(Y0))
    n, (H0, H1) = model.chart.n, shs.hamiltonians
    h, dw = 0.01, 0.3

    def sbar(z):
        g1 = H1.grad(z)
        return H0.value(z) * h + H1.value(z) * dw + (2 * alpha - 1) * (g1[n:] @ g1[:n]) * dw**2 / 2

    zhat = model.chart.forward(Y0)[: 2 * n] + np.array([0.02, -0.03, 0.05, 0.01])
    eps = 1e-6
    fd = np.array([(sbar(zhat + eps * e) - sbar(zhat - eps * e)) / (2 * eps) for e in np.eye(2 * n)])
    assert np.max(np.abs(sbar_gradient(shs, zhat, h, dw, alpha) - fd)) < 1e-9  # measured 7.5e-12
