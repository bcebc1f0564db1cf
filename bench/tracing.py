"""Spans and counters recorded from outside the spoisson package.

The seed modules import names directly (``from .sde import fixed_point``), so
a wrapper only records calls if it replaces the name in every module that
looks it up.  :func:`installed` swaps wrappers into each such binding and puts
the original objects back on exit; nothing under ``spoisson`` changes while
tracing is off.

A span is (name, parent, start, end).  A layer's self time is its span time
minus the time of its direct child spans; calls run on one thread, so child
spans never overlap.
"""
from __future__ import annotations

import contextlib
import dataclasses
import inspect
import math
import time
from collections import defaultdict

import numpy as np

# Per-layer metrics (name -> (unit, better)), with the end-to-end metric and
# workload each one should move.  Every value is per traced command run.
PER_LAYER = {
    # wall_s on paths-srb and casimir-slv, sample_steps_per_s on order-srb;
    # a Newton-type solve targets these.  useful_frac is below 1 only where
    # a batch of samples converges unevenly (order-srb).
    "sde.fixed_point.calls": ("count", "lower"),
    "sde.fixed_point.iters_mean": ("count", "lower"),
    "sde.fixed_point.iters_max": ("count", "lower"),
    "sde.fixed_point.useful_frac": ("ratio", "higher"),
    "sde.fixed_point.failures": ("count", "lower"),
    "sde.fixed_point.self_s": ("s", "lower"),
    "poisson.field.calls": ("count", "lower"),
    # wall_s on casimir-slv and paths-srb, where numpy dispatch dominates;
    # little change expected on order-srb.
    "alpha_gf.alpha_step.us_per_call": ("us", "lower"),
    "alpha_gf.alpha_step.ns_per_sample_step": ("ns", "lower"),
    "alpha_gf.sbar_gradient.calls": ("count", "lower"),
    "alpha_gf.sbar_gradient.us_per_call": ("us", "lower"),
    # wall_s on paths-srb (reference-dominated) and order-srb (about half
    # reference).
    "sde.midpoint_step.us_per_call": ("us", "lower"),
    "sde.midpoint_step.ns_per_sample_step": ("ns", "lower"),
    "experiments.reference.s": ("s", "lower"),
    "experiments.schemes.s": ("s", "lower"),
    # wall_s on casimir-slv (Ito baselines, per-state functional recording).
    "sde.integrate.self_s": ("s", "lower"),
    "sde.euler_maruyama_step.self_s": ("s", "lower"),
    "sde.implicit_euler_maruyama_step.self_s": ("s", "lower"),
    # wall_s and peak_rss_mb on order-srb; noise is about 1% of the run.
    "sde.ms_error_many.self_s": ("s", "lower"),
    "noise.sample_increments.self_s": ("s", "lower"),
    "noise.sample_increments.ns_per_value": ("ns", "lower"),
    "noise.coarsen_values.self_s": ("s", "lower"),
    # wall_s on the workloads of each model.
    "rigid_body.chart.forward.self_s": ("s", "lower"),
    "rigid_body.chart.inverse.self_s": ("s", "lower"),
    "lotka_volterra.chart.forward.self_s": ("s", "lower"),
    "lotka_volterra.chart.inverse.self_s": ("s", "lower"),
    "rigid_body.shs.grad.calls": ("count", "lower"),
    "rigid_body.shs.hess.calls": ("count", "lower"),
    "lotka_volterra.shs.grad.calls": ("count", "lower"),
    "lotka_volterra.shs.hess.calls": ("count", "lower"),
    "rigid_body.structure.calls": ("count", "lower"),
    "lotka_volterra.structure.calls": ("count", "lower"),
    "rigid_body.spherical_scheme.self_s": ("s", "lower"),
    # setup_s and wall_s on casimir-custom, the only finite-difference path.
    "custom.load_custom_system.s": ("s", "lower"),
    "canonical.transform_system.grad.calls": ("count", "lower"),
    "canonical.transform_system.grad.self_s": ("s", "lower"),
    "canonical.transform_system.hess.calls": ("count", "lower"),
    "canonical.transform_system.hess.self_s": ("s", "lower"),
    # setup_s on every workload.
    "cli.build_setup.s": ("s", "lower"),
    # (traced wall - untraced wall) / untraced wall, fastest calls of each:
    # per-layer numbers never stand in for end-to-end ones.
    "trace.overhead_frac": ("ratio", "lower"),
}


def self_times(parents, starts, ends) -> np.ndarray:
    """Span durations minus the durations of their direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    return dur - child


class Tracer:
    """Spans and counters of the traced command runs, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call records a span named ``name``."""

        def wrapper(*args, **kwargs):
            i = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(time.perf_counter())
            self.ends.append(float("nan"))
            self._stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.ends[i] = time.perf_counter()

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so each call adds one to counter ``name``."""

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def fold(self) -> None:
        """Fold the recorded spans into per-name totals and clear them."""
        if not self.starts:
            return
        own = self_times(self.parents, self.starts, self.ends)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        for name, d, s in zip(self.names, dur, own):
            self.calls[name] += 1
            self.total_s[name] += d
            self.self_s[name] += s
        self.names.clear()
        self.parents.clear()
        self.starts.clear()
        self.ends.clear()


def _fixed_point(tr: Tracer, fn):
    """Count iterations, and rows evaluated against rows still moving, by
    wrapping the ``update`` callable.  A row stops moving once successive
    iterates differ by < tol in max norm, the solver's documented test."""
    from spoisson.sde import StepError

    def fixed_point(update, x0, tol, max_iter):
        active = np.ones(np.shape(x0)[:-1], dtype=bool)
        iters = 0

        def counted_update(x):
            nonlocal active, iters
            xn = update(x)
            iters += 1
            tr.counts["sde.fixed_point.rows"] += active.size
            tr.counts["sde.fixed_point.rows_moving"] += int(np.count_nonzero(active))
            with np.errstate(invalid="ignore"):
                delta = np.max(np.abs(np.asarray(xn) - x), axis=-1)
            active = active & ~(delta < tol)
            return xn

        try:
            return fn(counted_update, x0, tol, max_iter)
        except StepError:
            tr.counts["sde.fixed_point.failures"] += 1
            raise
        finally:
            tr.counts["sde.fixed_point.iters"] += iters
            tr.maxima["sde.fixed_point.iters"] = max(tr.maxima["sde.fixed_point.iters"], iters)

    return fixed_point


def _with_rows(tr: Tracer, name: str, fn):
    """Count the sample rows of the state, the second argument."""

    def wrapper(*args, **kwargs):
        tr.counts[name + ".rows"] += math.prod(np.shape(args[1])[:-1])
        return fn(*args, **kwargs)

    return tr.span(name, wrapper)


def _sample_increments(tr: Tracer, fn):
    def sample_increments(*args, **kwargs):
        out = fn(*args, **kwargs)
        tr.counts["noise.sample_increments.values"] += out.values.size
        return out

    return tr.span("noise.sample_increments", sample_increments)


def _experiment(tr: Tracer, fn):
    """Wrap the scheme step maps handed to an experiments orchestrator."""
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        if "scheme" in bound.arguments:
            bound.arguments["scheme"] = tr.span("experiments.schemes", bound.arguments["scheme"])
        if "schemes" in bound.arguments:
            bound.arguments["schemes"] = {
                k: tr.span("experiments.schemes", s) for k, s in bound.arguments["schemes"].items()
            }
        return fn(*bound.args, **bound.kwargs)

    return wrapper


def _returns(transform, fn):
    """Wrap a factory so its result passes through ``transform``."""

    def factory(*args, **kwargs):
        return transform(fn(*args, **kwargs))

    return factory


def _chart(tr: Tracer, prefix: str):
    return lambda ch: dataclasses.replace(
        ch,
        forward=tr.span(prefix + ".forward", ch.forward),
        inverse=tr.span(prefix + ".inverse", ch.inverse),
    )


def _hamiltonians(prefix: str, wrap):
    """Wrap grad and Hess of every Hamiltonian of a CanonicalSHS."""

    def transform(shs):
        fields = tuple(
            dataclasses.replace(
                H,
                grad=wrap(prefix + ".grad", H.grad),
                hess=None if H.hess is None else wrap(prefix + ".hess", H.hess),
            )
            for H in shs.hamiltonians
        )
        return dataclasses.replace(shs, hamiltonians=fields)

    return transform


def _fields(tr: Tracer):
    return lambda sde: dataclasses.replace(
        sde,
        drift=tr.counted("poisson.field", sde.drift),
        diffusions=tuple(tr.counted("poisson.field", b) for b in sde.diffusions),
    )


def patches(tr: Tracer) -> list[tuple[object, str, object]]:
    """(module, attribute, wrapper) for every binding the tracer replaces."""
    from spoisson import alpha_gf, canonical, cli, experiments, noise, poisson, sde
    from spoisson.models import lotka_volterra, rigid_body

    def at(modules, name, wrapper):
        return [(m, name, wrapper) for m in modules]

    fixed_point = tr.span("sde.fixed_point", _fixed_point(tr, sde.fixed_point))
    midpoint = _with_rows(tr, "sde.midpoint_step", sde.midpoint_step)
    alpha_step = _with_rows(tr, "alpha_gf.alpha_step", alpha_gf.alpha_step)
    integrate = tr.span("sde.integrate", sde.integrate)
    ms_error_many = tr.span("sde.ms_error_many", sde.ms_error_many)
    out = [
        *at([sde, alpha_gf], "fixed_point", fixed_point),
        *at([sde, experiments, poisson, rigid_body], "midpoint_step", midpoint),
        *at([alpha_gf, canonical], "alpha_step", alpha_step),
        (alpha_gf, "sbar_gradient", tr.span("alpha_gf.sbar_gradient", alpha_gf.sbar_gradient)),
        *at([sde, experiments, poisson], "integrate", integrate),
        *at([sde, experiments], "ms_error_many", ms_error_many),
        *at([sde, experiments], "euler_maruyama_step",
            tr.span("sde.euler_maruyama_step", sde.euler_maruyama_step)),
        *at([sde, experiments], "implicit_euler_maruyama_step",
            tr.span("sde.implicit_euler_maruyama_step", sde.implicit_euler_maruyama_step)),
        *at([noise, sde, experiments], "sample_increments",
            _sample_increments(tr, noise.sample_increments)),
        *at([noise, sde], "coarsen_values", tr.span("noise.coarsen_values", noise.coarsen_values)),
        (cli, "build_setup", tr.span("cli.build_setup", cli.build_setup)),
        (cli, "load_custom_system", tr.span("custom.load_custom_system", cli.load_custom_system)),
        (experiments, "drift_and_diffusions", _returns(_fields(tr), experiments.drift_and_diffusions)),
        (experiments, "reference_stepper",
         _returns(lambda s: tr.span("experiments.reference", s), experiments.reference_stepper)),
        (canonical, "transform_system",
         _returns(_hamiltonians("canonical.transform_system", tr.span), canonical.transform_system)),
        (rigid_body, "spherical_scheme",
         _returns(lambda s: tr.span("rigid_body.spherical_scheme", s), rigid_body.spherical_scheme)),
    ]
    for name in ("paths_experiment", "casimir_experiment", "order_experiment"):
        out.append((experiments, name, _experiment(tr, getattr(experiments, name))))
    for model, prefix in ((rigid_body, "rigid_body"), (lotka_volterra, "lotka_volterra")):
        out += [
            (model, "chart", _returns(_chart(tr, prefix + ".chart"), model.chart)),
            (model, "transformed_shs",
             _returns(_hamiltonians(prefix + ".shs", tr.counted), model.transformed_shs)),
            (model, "system", _returns(
                lambda s, p=prefix: dataclasses.replace(
                    s, structure=tr.counted(p + ".structure", s.structure)),
                model.system)),
        ]
    return out


@contextlib.contextmanager
def installed(tr: Tracer):
    """Swap the tracer's wrappers into spoisson; restore the originals on exit."""
    table = patches(tr)
    originals = [(m, name, getattr(m, name)) for m, name, _ in table]
    try:
        for m, name, wrapper in table:
            setattr(m, name, wrapper)
        yield tr
    finally:
        for m, name, orig in originals:
            setattr(m, name, orig)


def per_layer(tr: Tracer, runs: int, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics, each per traced command run."""
    tr.fold()
    c, total, own, counts = tr.calls, tr.total_s, tr.self_s, tr.counts

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    fp_calls = c["sde.fixed_point"]
    values = {
        "sde.fixed_point.calls": fp_calls / runs,
        "sde.fixed_point.iters_mean": ratio(counts["sde.fixed_point.iters"], fp_calls),
        "sde.fixed_point.iters_max": tr.maxima["sde.fixed_point.iters"],
        "sde.fixed_point.useful_frac": ratio(
            counts["sde.fixed_point.rows_moving"], counts["sde.fixed_point.rows"]),
        "sde.fixed_point.failures": counts["sde.fixed_point.failures"] / runs,
        "sde.fixed_point.self_s": own["sde.fixed_point"] / runs,
        "poisson.field.calls": counts["poisson.field"] / runs,
        "alpha_gf.sbar_gradient.calls": c["alpha_gf.sbar_gradient"] / runs,
        "alpha_gf.sbar_gradient.us_per_call": ratio(
            total["alpha_gf.sbar_gradient"], c["alpha_gf.sbar_gradient"], 1e6),
        "experiments.reference.s": total["experiments.reference"] / runs,
        "experiments.schemes.s": total["experiments.schemes"] / runs,
        "noise.sample_increments.ns_per_value": ratio(
            total["noise.sample_increments"], counts["noise.sample_increments.values"], 1e9),
        "custom.load_custom_system.s": total["custom.load_custom_system"] / runs,
        "cli.build_setup.s": total["cli.build_setup"] / runs,
        "trace.overhead_frac": ratio(traced_wall - untraced_wall, untraced_wall),
    }
    for name in ("alpha_gf.alpha_step", "sde.midpoint_step"):
        values[name + ".us_per_call"] = ratio(total[name], c[name], 1e6)
        values[name + ".ns_per_sample_step"] = ratio(total[name], counts[name + ".rows"], 1e9)
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if metric in values:
            continue
        if kind == "self_s":
            values[metric] = own[layer] / runs
        elif kind == "calls":
            values[metric] = (c[layer] + counts[layer]) / runs
    return {k: {"value": float(values[k]), "unit": unit} for k, (unit, _) in PER_LAYER.items()}
