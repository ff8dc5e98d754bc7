"""Tests of the benchmark itself: its checks reject corrupted outputs, a short
run prints exactly the metrics BENCHMARK.json names, and names are well formed.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny(wl: workloads.Workload) -> workloads.Workload:
    wl.raw["algorithm"]["iters"] = 6
    wl.raw["trials"] = 2
    return wl


@pytest.fixture(scope="module")
def traced_toy(tmp_path_factory):
    """A tiny serial toy experiment run under the Tracer, as the traced child runs it."""
    from zopd import harness

    base = tmp_path_factory.mktemp("toy")
    wl = tiny(workloads.make("toy-pool", 5, base / "data"))
    raw = wl.with_run(base / "out", workers=1)
    wl.raw = raw
    t = tracer.Tracer()
    t.install()
    try:
        harness.run_experiment(harness.config_from_dict(raw))
    finally:
        t.close()
    return wl, base / "out", t


def _result(t: tracer.Tracer, name: str, trial: int = 0):
    return next(r for n, tr, r in t.executions if n == name and tr == trial)


def test_names_and_units_are_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.NAMES
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_inputs_follow_the_seed(tmp_path):
    a = workloads.make("logreg", 4, tmp_path / "a")
    b = workloads.make("logreg", 4, tmp_path / "b")
    c = workloads.make("logreg", 5, tmp_path / "c")
    assert a.edges == b.edges and a.raw["algorithm"] == b.raw["algorithm"]
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
    assert (tmp_path / "a" / "agent_001.csv").read_bytes() != (tmp_path / "c" / "agent_001.csv").read_bytes()
    h1 = workloads.make("ring-scale", 1, tmp_path).raw["objective"]["hessian"]
    h2 = workloads.make("ring-scale", 2, tmp_path).raw["objective"]["hessian"]
    assert h1 != h2


def test_clean_run_passes_every_check(traced_toy):
    wl, out, t = traced_toy
    ops = checks.EdgeOps(wl.edges, wl.num_nodes)
    assert len(t.executions) == wl.trials * wl.executions
    for name, trial, result in t.executions:
        method = "rgf" if name == "baseline.run_rgf" else "primal_dual"
        assert checks.check_run(result, wl, ops, method) == []
    assert checks.check_records_match_csv(out / "trial_000.csv", "primal_dual",
                                          _result(t, "engine.run_centralized").records) == []
    per_trial, whole = checks.check_experiment(out, wl, wl.raw)
    assert per_trial == {0: [], 1: []} and whole == []
    assert t.query_faults == []


@pytest.mark.parametrize("corrupt", [lambda v: v + 1e-6 * (1.0 + abs(v)), lambda v: float("nan")])
def test_perturbed_dual_entry_is_rejected(traced_toy, corrupt):
    wl, _, t = traced_toy
    res = _result(t, "engine.run_centralized")
    lam = res.states_lam.copy()
    res.states_lam[3, 0] = corrupt(res.states_lam[3, 0])
    try:
        found = checks.check_run(res, wl, checks.EdgeOps(wl.edges, wl.num_nodes), "primal_dual")
    finally:
        res.states_lam[:] = lam
    assert any("dual update" in p for p in found)


def test_perturbed_primal_iterate_is_rejected(traced_toy):
    wl, _, t = traced_toy
    res = _result(t, "engine.run_distributed")
    x = res.states_x.copy()
    res.states_x[2, 4] += 1e-6
    try:
        found = checks.check_run(res, wl, checks.EdgeOps(wl.edges, wl.num_nodes), "primal_dual")
    finally:
        res.states_x[:] = x
    assert any("primal step" in p for p in found)


def test_altered_objective_value_is_rejected(traced_toy):
    wl, out, t = traced_toy
    res = _result(t, "baseline.run_rgf", trial=1)
    rec = res.records[2]
    saved = rec.objective
    rec.objective = saved * (1.0 + 1e-7)
    try:
        found = checks.check_run(res, wl, checks.EdgeOps(wl.edges, wl.num_nodes), "rgf")
        csv_found = checks.check_records_match_csv(out / "trial_001.csv", "rgf", res.records)
    finally:
        rec.objective = saved
    assert any("objective column" in p for p in found)
    assert csv_found


def test_wrong_violation_is_rejected(traced_toy):
    wl, _, t = traced_toy
    res = _result(t, "engine.run_centralized", trial=1)
    rec = res.records[-1]
    saved = rec.constraint_violation
    rec.constraint_violation = saved * 1.001
    try:
        found = checks.check_run(res, wl, checks.EdgeOps(wl.edges, wl.num_nodes), "primal_dual")
    finally:
        rec.constraint_violation = saved
    assert any("constraint_violation" in p for p in found)


def test_dropped_csv_row_is_rejected(traced_toy, tmp_path):
    wl, out, _ = traced_toy
    d = Path(shutil.copytree(out, tmp_path / "out"))
    lines = (d / "trial_001.csv").read_text().splitlines(keepends=True)
    (d / "trial_001.csv").write_text("".join(lines[:3] + lines[4:]))
    per_trial, _ = checks.check_experiment(d, wl, wl.raw)
    assert per_trial[0] == [] and per_trial[1]
    assert checks.check_mean(d, wl.trials, wl.methods)


def test_altered_mean_and_csv_values_are_rejected(traced_toy, tmp_path):
    wl, out, _ = traced_toy
    d = Path(shutil.copytree(out, tmp_path / "out"))
    lines = (d / "mean.csv").read_text().splitlines()
    f = lines[2].split(",")
    f[6] = repr(float(f[6]) * (1 + 1e-9))
    lines[2] = ",".join(f)
    (d / "mean.csv").write_text("\n".join(lines) + "\n")
    assert any("not the mean" in p for p in checks.check_mean(d, wl.trials, wl.methods))

    lines = (d / "trial_000.csv").read_text().splitlines()
    f = lines[1].split(",")
    f[3] = "nan"
    lines[1] = ",".join(f)
    (d / "trial_000.csv").write_text("\n".join(lines) + "\n")
    assert any("not finite" in p for p in checks.check_trace(d / "trial_000.csv", 0, wl.methods, wl.iters))


def test_violation_that_does_not_fall_is_rejected(traced_toy, tmp_path):
    wl, out, _ = traced_toy
    d = Path(shutil.copytree(out, tmp_path / "out"))
    lines = (d / "trial_000.csv").read_text().splitlines()
    first = lines[1].split(",")
    last_i = max(i for i, line in enumerate(lines) if line.startswith("primal_dual,"))
    last = lines[last_i].split(",")
    last[4] = first[4]
    lines[last_i] = ",".join(last)
    (d / "trial_000.csv").write_text("\n".join(lines) + "\n")
    assert any("not below its start" in p for p in checks.check_trace(d / "trial_000.csv", 0, wl.methods, wl.iters))


def test_wrong_config_hash_is_rejected(traced_toy, tmp_path):
    wl, out, _ = traced_toy
    d = Path(shutil.copytree(out, tmp_path / "out"))
    assert checks.check_meta(d, wl.raw) == []
    meta = json.loads((d / "meta.json").read_text())
    meta["config_hash"] = "0" * 64
    (d / "meta.json").write_text(json.dumps(meta))
    assert any("SHA-256" in p for p in checks.check_meta(d, wl.raw))


def test_wrong_query_count_is_rejected():
    class Oracle:
        query_count = 0

    class Smoothing:
        samples = 7

    def estimate(oracle, x, smoothing, rng):
        oracle.query_count += spend
        return x

    t = tracer.Tracer()
    traced = t.wrap("szo.estimate_gradient", estimate, *t._queries("szo.estimate_gradient", checked=True))
    spend = 14
    traced(Oracle(), 0.0, Smoothing(), None)
    assert t.query_faults == []
    spend = 13
    traced(Oracle(), 0.0, Smoothing(), None)
    assert t.query_faults == [(-1, "szo.estimate_gradient", 13, 14)]


def test_self_time_subtracts_children():
    spans = [
        ("harness.run_experiment", -1, 0.0, 10.0, 0),
        ("engine.run_centralized", 0, 1.0, 9.0, 0),
        ("szo.estimate_gradient", 1, 2.0, 5.0, 0),
        ("objectives.value_many", 2, 3.0, 4.0, 121),
    ]
    own = tracer.layer_self_times(spans)
    assert own["harness"] == 2.0 and own["engine"] == 5.0
    assert own["szo"] == 2.0 and own["objectives"] == 1.0


def _main(argv: list[str]) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(argv) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_short_run_prints_exactly_the_declared_metrics(trace, section, monkeypatch, tmp_path):
    make = workloads.make
    monkeypatch.setattr(run.workloads, "make", lambda *a: tiny(make(*a)))
    monkeypatch.setattr(run, "RUNS_DIR", tmp_path)
    out = _main(["--workload", "toy-pool", "--seed", "2", "--seconds", "0", "--trace", trace])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-pool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
