"""The benchmark's workloads: CLI argv, work per run, and output checks.

Each workload is one ``spoisson`` command whose argv fixes all the work
(step sizes, sample count, reference factor), so sample-steps per run follow
from the argv alone.  The checks hold for any seed; for ``DEFAULT_SEED`` the
output is also compared with values recorded in ``expected.json``, to solver
tolerance rather than byte equality.  Those values are the parsed output of
``cli.main(WORKLOADS[name].argv(DEFAULT_SEED))`` at the commit that added the
benchmark, before any change to the solvers.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 2024
CASIMIR_DRIFT = 1e-10
RMS_BAND = (0.0, 1e-2)
# alpha = 1/2 errors sit near the reference's own error, so its slope is flat.
SLOPE_BANDS = {
    "alpha=0": (0.9, 1.1),
    "alpha=0.5": (-0.5, 1.5),
    "alpha=1": (0.9, 1.1),
    "spherical": (0.75, 1.35),
}
PATH_GAP = 1e-3  # max |scheme - reference| on the paths grid
# Recorded values may move by solver tolerance (e.g. a different implicit
# solve), accumulated over the run; finite-difference custom runs use tol 1e-9.
RTOL, ATOL = 1e-6, 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]  # argv without --T and --seed
    T: float

    def argv(self, seed: int, T: float | None = None) -> list[str]:
        return [*self.command, "--T", repr(self.T if T is None else T), "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "order-srb",
            "batched Monte Carlo: 500 samples in one batch, per-sample noise, "
            "converged samples kept in the batch, memory grows with the batch",
            ("order", "--system", "srb", "--spherical", "--samples", "500",
             "--alpha", "0,0.5,1", "--h", "0.005,0.01,0.02,0.04", "--ref-factor", "8"),
            0.08,
        ),
        Workload(
            "paths-srb",
            "batch 1, scalar numpy dispatch: 10 fine midpoint reference steps, "
            "each a Picard solve on a (3,) array, per scheme step",
            ("paths", "--system", "srb", "--alpha", "0.5", "--h", "0.01", "--ref-factor", "10"),
            0.5,
        ),
        Workload(
            "casimir-slv",
            "the only Lotka-Volterra run: exponential chart, positivity guards, "
            "explicit and drift-implicit EM baselines, per-state Casimir recording",
            ("casimir", "--system", "slv", "--h", "0.01"),
            1.0,
        ),
        Workload(
            "casimir-custom",
            "the only finite-difference path: custom spec parser, generic "
            "transform_system, finite-difference Hessians",
            ("casimir", "--system", str(HERE / "srb_custom.txt"), "--param", "y0=0.7,0.3,0.2",
             "--h", "0.01"),
            0.5,
        ),
    )
}


def _flags(argv) -> dict[str, str]:
    out = {}
    for i, a in enumerate(argv):
        if a.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            out[a[2:]] = "" if nxt.startswith("--") else nxt
    return out


def _floats(s: str) -> list[float]:
    return [float(x) for x in s.split(",")]


def sample_steps(argv) -> int:
    """Sample-steps of every column of one run: scheme(s), reference and the
    EM/IEM baselines, from the argv alone."""
    f = _flags(argv)
    T, hs = float(f["T"]), _floats(f["h"])
    n = [round(T / h) for h in hs]
    if argv[0] == "order":
        n_ref = round(T / (min(hs) / int(f["ref-factor"])))
        columns = len(_floats(f["alpha"])) + ("spherical" in f)
        return int(f["samples"]) * (n_ref + columns * sum(n))
    if argv[0] == "paths":
        ref_factor = max(1, min(int(f["ref-factor"]), 10**6 // n[0]))
        return n[0] * (1 + ref_factor)
    if argv[0] == "casimir":
        return n[0] * (3 if f["system"] == "slv" else 2)
    raise ValueError(f"no sample-step count for {argv[0]!r}")


def parse_output(text: str):
    """(header, rows, slopes) of a CLI run's stdout."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows, slopes = [], {}
    for line in lines[1:]:
        if line.startswith("slope "):
            name, value = line[len("slope "):].rsplit(":", 1)
            slopes[name] = float(value)
        else:
            rows.append([float(x) for x in line.split(",")])
    return header, np.array(rows, dtype=float), slopes


def _drift(values) -> float:
    return float(np.max(np.abs(values - values[0])))


def check(name: str, argv, text: str) -> list[str]:
    """Problems with one run's output; empty when every check passes."""
    header, rows, slopes = parse_output(text)
    f = _flags(argv)
    T, hs = float(f["T"]), _floats(f["h"])
    problems = []
    if not np.all(np.isfinite(rows)):
        # For slv this is also the positivity check: its Casimir
        # (1/r) ln y1 - b ln y2 + ln y3 is real only for positive states.
        problems.append("non-finite output")
    if argv[0] == "order":
        if len(rows) != len(hs):
            problems.append(f"{len(rows)} rows for {len(hs)} step sizes")
        rms = rows[:, 1:]
        if not np.all((rms > RMS_BAND[0]) & (rms <= RMS_BAND[1])):
            problems.append(f"rms errors outside {RMS_BAND}")
        if set(slopes) != set(SLOPE_BANDS):
            problems.append(f"slopes for {sorted(slopes)}")
        for col, (lo, hi) in SLOPE_BANDS.items():
            if not lo <= slopes.get(col, math.nan) <= hi:
                problems.append(f"slope {col} = {slopes.get(col)} outside [{lo}, {hi}]")
    else:
        if len(rows) != round(T / hs[0]) + 1:
            problems.append(f"{len(rows)} rows for T={T}, h={hs[0]}")
    if argv[0] == "paths":
        y, y_ref = rows[:, 1:4], rows[:, 4:7]
        drift = _drift(0.5 * np.sum(y**2, axis=-1))
        if not drift < CASIMIR_DRIFT:
            problems.append(f"scheme Casimir drift {drift:.3e}")
        gap = float(np.max(np.abs(y - y_ref)))
        if not gap < PATH_GAP:
            problems.append(f"scheme strays {gap:.3e} from the reference")
    if argv[0] == "casimir":
        drift = _drift(rows[:, header.index("casimir_scheme")])
        if not drift < CASIMIR_DRIFT:
            problems.append(f"scheme Casimir drift {drift:.3e}")
    recorded = load_expected()[name]
    if int(f["seed"]) == DEFAULT_SEED and recorded["T"] == T:
        if header != recorded["header"] or sorted(slopes) != sorted(recorded["slopes"]):
            problems.append("output columns differ from the recorded run")
        elif not (
            rows.shape == np.shape(recorded["rows"])
            and np.allclose(rows, recorded["rows"], rtol=RTOL, atol=ATOL)
            and all(abs(slopes[k] - v) <= 2e-6 for k, v in recorded["slopes"].items())
        ):
            problems.append("output differs from the recorded run beyond solver tolerance")
    return problems


@functools.cache
def load_expected() -> dict:
    """Outputs recorded at DEFAULT_SEED, keyed by workload name."""
    return json.loads((HERE / "expected.json").read_text())
