"""Spans around the calls into zopd's modules, recorded from outside the package.

A Tracer replaces each traced function at every module-global name its
callers resolve (``zopd.engine.substream`` and ``zopd.baseline.substream``
both get the same wrapper), plus three methods of ``StackedObjective``, each
objective's ``value_many`` and ``pathlib.Path.write_text`` (the harness's
persistence). Spans are kept in memory as (name, parent, start, end, count)
and written out once the traced run ends; ``layer_metrics`` turns a span list
into the per-layer metrics. A layer is a zopd module, and its self time is
the time of its spans minus the time of their child spans.
"""
from __future__ import annotations

import importlib
import inspect
import pathlib
import time
from pathlib import Path

import numpy as np

LAYERS = ("graph", "szo", "objectives", "engine", "baseline", "metrics", "harness")

# (layer, function, modules whose globals name it). The function's own module
# comes first; it is the one whose attribute is taken as the original.
FUNCTIONS = (
    ("harness", "config_from_dict", ("harness",)),
    ("harness", "run_experiment", ("harness",)),
    ("harness", "_write_trace_csv", ("harness",)),
    ("graph", "build_matrices", ("graph", "harness", "engine")),
    ("graph", "check_connected", ("graph", "harness")),
    ("objectives", "read_classification_csv", ("objectives", "harness")),
    ("objectives", "toy_objective", ("objectives", "harness")),
    ("objectives", "logistic_regression_objective", ("objectives", "harness")),
    ("objectives", "quadratic_objective", ("objectives", "harness")),
    ("engine", "run_centralized", ("engine", "harness")),
    ("engine", "run_distributed", ("engine", "harness")),
    ("engine", "primal_step", ("engine",)),
    ("engine", "dual_step", ("engine",)),
    ("engine", "substream", ("engine", "baseline")),
    ("szo", "estimate_gradient", ("szo", "engine", "baseline")),
    ("szo", "measure_gradient_and_value", ("szo", "engine")),
    ("szo", "smoothed_value", ("szo", "engine")),
    ("szo", "smoothed_gradient_mc", ("szo", "engine")),
    ("metrics", "stationarity_gap", ("metrics", "engine")),
    ("metrics", "constraint_violation", ("metrics", "engine")),
    ("metrics", "potential", ("metrics", "engine")),
    ("metrics", "derive_constants", ("metrics", "engine")),
    ("baseline", "run_rgf", ("baseline", "harness")),
    ("baseline", "rgf_step", ("baseline",)),
    ("baseline", "apply_mixing", ("baseline",)),
    ("baseline", "build_mixing", ("baseline",)),
)
STACKED_METHODS = ("value", "smoothed_gradient_stacked", "smoothed_value_stacked")

EXECUTIONS = ("engine.run_centralized", "engine.run_distributed", "baseline.run_rgf")
ESTIMATES = ("szo.estimate_gradient", "szo.measure_gradient_and_value")
METER_ESTIMATES = ("szo.measure_gradient_and_value", "szo.smoothed_value", "szo.smoothed_gradient_mc")
CLOSED_FORMS = ("objectives.smoothed_gradient_stacked", "objectives.smoothed_value_stacked")
METER_ARITH = ("metrics.stationarity_gap", "metrics.constraint_violation", "metrics.potential")
# Everything that grades iterates rather than producing them. Substreams of a
# meter role are added by their role argument.
GRADING = METER_ESTIMATES + CLOSED_FORMS + METER_ARITH + ("objectives.value",)
METER_ROLES = (3, 5)  # engine.ROLE_METER, engine.ROLE_BASELINE_METER
PERSIST = ("harness._write_trace_csv", "harness.write_text")


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Installs span wrappers into zopd, records spans, and restores on close."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.trial = -1
        # (span name, trial, RunResult) for every engine or baseline run
        self.executions: list[tuple[str, int, object]] = []
        # (trial, span name, queries counted, queries expected)
        self.query_faults: list[tuple[int, str, int, int]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """fn inside a span; after(args, kwargs, result, before_value) gives
        the span's count."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            ctx = before(args, kwargs) if before is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, 0)
            if after is not None:
                spans[idx] = (name, parent, t0, t1, after(args, kwargs, out, ctx))
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- hooks -----------------------------------------------------------

    def _execution(self, name: str, fn):
        sig = inspect.signature(fn)

        def before(args, kwargs):
            self.trial = int(sig.bind(*args, **kwargs).arguments.get("trial", 0))
            return self.trial

        def after(args, kwargs, out, trial):
            self.executions.append((name, trial, out))
            return 0

        return before, after

    def _queries(self, name: str, checked: bool):
        def before(args, kwargs):
            return _arg(args, kwargs, 0, "oracle").query_count

        def after(args, kwargs, out, start):
            spent = _arg(args, kwargs, 0, "oracle").query_count - start
            if checked:
                expected = 2 * _arg(args, kwargs, 2, "smoothing").samples
                if spent != expected:
                    self.query_faults.append((self.trial, name, spent, expected))
            return spent

        return before, after

    def _hooks(self, name: str, fn):
        if name in EXECUTIONS:
            return self._execution(name, fn)
        if name in ("szo.estimate_gradient", "szo.measure_gradient_and_value"):
            return self._queries(name, checked=True)
        if name == "szo.smoothed_value":
            return self._queries(name, checked=False)
        if name == "engine.substream":
            return None, lambda args, kwargs, out, ctx: int(args[2]) if len(args) > 2 else -1
        if name == "graph.build_matrices":
            return None, lambda args, kwargs, out, ctx: operator_bytes(out)
        if name == "harness.config_from_dict":
            return None, lambda args, kwargs, out, ctx: self._wrap_objectives(out.objectives)
        return None, None

    def _wrap_objectives(self, objectives) -> int:
        seen = set()
        for obj in objectives:
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            rows = lambda args, kwargs, out, ctx: len(args[0])  # noqa: E731
            self._set(obj, "value_many", self.wrap("objectives.value_many", obj.value_many, after=rows))
        return len(objectives)

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"zopd.{m}") for m in LAYERS}
        for layer, func, homes in FUNCTIONS:
            name = f"{layer}.{func}"
            original = getattr(mods[homes[0]], func, None)
            if original is None:
                self.missing.append(name)
                continue
            before, after = self._hooks(name, original)
            wrapped = self.wrap(name, original, before, after)
            for mod in homes:
                if getattr(mods[mod], func, None) is original:
                    self._set(mods[mod], func, wrapped)
        stacked = getattr(mods["objectives"], "StackedObjective", None)
        for meth in STACKED_METHODS:
            if stacked is None or not hasattr(stacked, meth):
                self.missing.append(f"objectives.{meth}")
                continue
            self._set(stacked, meth, self.wrap(f"objectives.{meth}", getattr(stacked, meth)))
        written = lambda args, kwargs, out, ctx: len(str(_arg(args, kwargs, 1, "data")).encode())  # noqa: E731
        self._set(pathlib.Path, "write_text", self.wrap("harness.write_text", pathlib.Path.write_text, after=written))

    def close(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        lines = ["name,parent,t0,t1,n"]
        lines += [f"{s[0]},{s[1]},{s[2]!r},{s[3]!r},{s[4]}" for s in self.spans]
        Path(path).write_text("\n".join(lines) + "\n")


def operator_bytes(mats) -> int:
    """Bytes of the arrays a NetworkMatrices holds."""
    return int(sum(v.nbytes for v in vars(mats).values() if isinstance(v, np.ndarray)))


def read_spans(path: Path) -> list[tuple]:
    spans = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            name, parent, t0, t1, n = line.rstrip("\n").split(",")
            spans.append((name, int(parent), float(t0), float(t1), int(n)))
    return spans


def _self_times(spans: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) of every span."""
    dur = np.array([s[3] - s[2] for s in spans])
    children = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children[s[1]] += dur[i]
    return dur, dur - children


def layer_self_times(spans: list[tuple]) -> dict[str, float]:
    """Seconds of self time per layer."""
    _, own = _self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + float(own[i])
    return out


def layer_metrics(spans: list[tuple], num_nodes: int, iters: int, trials: int) -> dict[str, float]:
    """Per-layer metrics of one traced experiment (trials run serially)."""
    dur, own = _self_times(spans)
    # per span name: [calls, seconds, self seconds, summed count]
    agg: dict[str, list] = {}
    for i, s in enumerate(spans):
        a = agg.setdefault(s[0], [0, 0.0, 0.0, 0])
        a[0] += 1
        a[1] += dur[i]
        a[2] += own[i]
        a[3] += s[4]

    def col(names, k):
        return sum(agg[nm][k] for nm in names if nm in agg)

    def count(*names) -> int:
        return col(names, 0)

    def seconds(*names) -> float:
        return float(col(names, 1))

    def self_seconds(*names) -> float:
        return float(col(names, 2))

    def summed(*names) -> int:
        return col(names, 3)

    # Grading time: outermost grading spans, so that nested ones count once.
    inside = [False] * len(spans)
    grade_time = 0.0
    persist_time = 0.0
    for i, s in enumerate(spans):
        p = s[1]
        grading = s[0] in GRADING or (s[0] == "engine.substream" and s[4] in METER_ROLES)
        inside[i] = p >= 0 and (inside[p] or spans[p][0] in GRADING)
        if grading and not inside[i]:
            grade_time += dur[i]
        if s[0] in PERSIST and not (p >= 0 and spans[p][0] in PERSIST):
            persist_time += dur[i]

    agent_iters = num_nodes * iters * count(*EXECUTIONS)
    rows = summed("objectives.value_many")
    builds = count("graph.build_matrices")
    roots = [s for s in spans if s[1] < 0]
    region = max(s[3] for s in roots) - min(s[2] for s in roots)

    def ratio(a: float, b: float) -> float:
        return float(a / b) if b else 0.0

    return {
        "engine.stream_calls_per_agent_iter": ratio(count("engine.substream"), agent_iters),
        "engine.stream_us_per_agent_iter": ratio(1e6 * seconds("engine.substream"), agent_iters),
        "engine.step_us_per_iter": ratio(
            1e6 * seconds("engine.primal_step", "engine.dual_step"), count("engine.primal_step")
        ),
        "engine.loop_self_us_per_iter": ratio(
            1e6 * self_seconds("engine.run_centralized"), iters * count("engine.run_centralized")
        ),
        "engine.distributed_self_us_per_agent_iter": ratio(
            1e6 * self_seconds("engine.run_distributed"),
            num_nodes * iters * count("engine.run_distributed"),
        ),
        "szo.step_estimates_per_agent_iter": ratio(count("szo.estimate_gradient"), agent_iters),
        "szo.meter_estimates_per_agent_iter": ratio(count("szo.measure_gradient_and_value"), agent_iters),
        "szo.sample_self_us_per_estimate": ratio(1e6 * self_seconds(*ESTIMATES), count(*ESTIMATES)),
        "szo.step_queries_per_agent_iter": ratio(summed("szo.estimate_gradient"), agent_iters),
        "szo.meter_queries_per_agent_iter": ratio(summed(*METER_ESTIMATES), agent_iters),
        "objectives.rows_per_agent_iter": ratio(rows, agent_iters),
        "objectives.eval_ns_per_row": ratio(1e9 * seconds("objectives.value_many"), rows),
        "objectives.closed_form_us_per_agent_iter": ratio(1e6 * seconds(*CLOSED_FORMS), agent_iters),
        "metrics.meter_arith_us_per_row": ratio(1e6 * seconds(*METER_ARITH), count("metrics.stationarity_gap")),
        "metrics.meter_share": ratio(grade_time, seconds(*EXECUTIONS)),
        "graph.build_s": ratio(seconds("graph.build_matrices"), builds),
        "graph.operator_mb": ratio(summed("graph.build_matrices"), builds * 2**20),
        "baseline.mixing_us_per_iter": ratio(1e6 * seconds("baseline.apply_mixing"), count("baseline.apply_mixing")),
        "harness.config_ms": 1e3 * seconds("harness.config_from_dict"),
        "harness.persist_ms_per_trial": ratio(1e3 * persist_time, trials),
        "harness.output_kb_per_trial": ratio(summed("harness.write_text"), 1e3 * trials),
        "trace.coverage": ratio(float(own.sum()), region),
    }
