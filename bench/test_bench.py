"""Tests of the benchmark's own code: python3 -m pytest bench"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spoisson import cli  # noqa: E402

SMOKE_T = {"order-srb": 0.04, "paths-srb": 0.1, "casimir-slv": 0.1, "casimir-custom": 0.1}


def test_tracing_off_leaves_every_patched_attribute_original():
    bindings = [(m, name) for m, name, _ in tracing.patches(tracing.Tracer())]
    originals = [getattr(m, name) for m, name in bindings]
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert all(getattr(m, n) is not o for (m, n), o in zip(bindings, originals))
            raise RuntimeError("restore on the way out")
    assert all(getattr(m, n) is o for (m, n), o in zip(bindings, originals))


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    np.testing.assert_allclose(tracing.self_times(parents, starts, ends), [3.0, 2.0, 1.0, 4.0])


def test_tracer_records_parents_and_folds():
    tr = tracing.Tracer()
    leaf = tr.span("leaf", lambda: None)
    root = tr.span("root", lambda: (leaf(), leaf()))
    root()
    assert tr.names == ["root", "leaf", "leaf"]
    assert tr.parents == [-1, 0, 0]
    tr.fold()
    assert tr.calls == {"root": 1, "leaf": 2}
    assert tr.self_s["root"] == pytest.approx(tr.total_s["root"] - tr.total_s["leaf"])
    assert not tr.starts


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_output_checks(name):
    argv = workloads.WORKLOADS[name].argv(workloads.DEFAULT_SEED, T=SMOKE_T[name])
    ok, _, text, error = run.call(cli, argv)
    assert ok, error
    assert workloads.check(name, argv, text) == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_recorded_output_passes_and_a_perturbed_one_fails(name):
    rec = workloads.load_expected()[name]
    argv = workloads.WORKLOADS[name].argv(workloads.DEFAULT_SEED)
    rows = np.array(rec["rows"])

    def text(rows):
        lines = [",".join(rec["header"])] + [",".join(repr(float(x)) for x in r) for r in rows]
        lines += [f"slope {k}: {v:.6f}" for k, v in rec["slopes"].items()]
        return "\n".join(lines) + "\n"

    assert workloads.check(name, argv, text(rows)) == []
    rows[-1, -1] += 1e-5
    assert any("recorded run" in p for p in workloads.check(name, argv, text(rows)))


def test_sample_steps_follow_the_argv():
    steps = {n: workloads.sample_steps(w.argv(1)) for n, w in workloads.WORKLOADS.items()}
    assert steps == {
        "order-srb": 500 * (128 + 4 * (16 + 8 + 4 + 2)),
        "paths-srb": 50 * (1 + 10),
        "casimir-slv": 3 * 100,
        "casimir-custom": 2 * 50,
    }


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
