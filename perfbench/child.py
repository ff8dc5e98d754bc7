"""One experiment in a fresh interpreter, timed or traced.

Usage: python3 perfbench/child.py JOB.json

The job names the mode, the workload and seed, the raw config and the file to
write the result to. ``timed`` measures set-up (config resolution plus
operator assembly) and ``run_experiment`` with tracing off, and the peak
resident set of this process and of its pool workers. ``traced`` runs the
experiment under the Tracer, writes the spans, and checks every captured
RunResult against the benchmark's own operators and formulas.
"""
from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_zopd():
    sys.path.insert(0, str(ROOT / "src"))
    import zopd

    if not Path(zopd.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"zopd imported from {zopd.__file__}, not from {ROOT / 'src'}")
    from zopd import graph, harness

    return graph, harness


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN is the largest waited-for child.
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def timed(raw: dict) -> dict:
    graph, harness = _import_zopd()
    t0 = time.perf_counter()
    cfg = harness.config_from_dict(raw)
    t1 = time.perf_counter()
    build = getattr(graph, "build_matrices", None)
    if build is not None:
        mats = build(cfg.topology)
        del mats
    t2 = time.perf_counter()
    gc.collect()  # the benchmark's own operators must not count in peak_rss_mb

    # The one timer with tracing off: the parent's own operator build inside
    # run_experiment, which is set-up rather than trial time.
    parent_build = [0.0]
    inner = getattr(harness, "build_matrices", None)
    if inner is not None:
        def build_timed(*args, **kwargs):
            s = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                parent_build[0] += time.perf_counter() - s

        harness.build_matrices = build_timed
    t3 = time.perf_counter()
    harness.run_experiment(cfg)
    t4 = time.perf_counter()
    return {
        "config_s": t1 - t0,
        "setup_s": t2 - t0,
        "experiment_s": t4 - t3,
        "parent_build_s": parent_build[0],
        "peak_rss_mb": _peak_rss_mb(),
    }


def traced(job: dict) -> dict:
    _, harness = _import_zopd()
    sys.path.insert(0, str(HERE))
    import checks
    import workloads
    from tracer import Tracer

    raw = job["raw"]
    tracer = Tracer()
    tracer.install()
    try:
        cfg = harness.config_from_dict(raw)
        t0 = time.perf_counter()
        harness.run_experiment(cfg)
        t1 = time.perf_counter()
    finally:
        tracer.close()
    tracer.write(Path(job["spans"]))

    wl = workloads.make(job["workload"], job["seed"], Path(job["data_dir"]))
    wl.raw = raw
    ops = checks.EdgeOps(wl.edges, wl.num_nodes)
    out_dir = Path(raw["output_dir"])
    problems: dict[int, list[str]] = {t: [] for t in range(wl.trials)}
    seen = set()
    for name, trial, result in tracer.executions:
        seen.add((name, trial))
        method = "rgf" if name == "baseline.run_rgf" else "primal_dual"
        found = checks.check_run(result, wl, ops, method)
        if name != "engine.run_distributed":
            csv = out_dir / f"trial_{trial:03d}.csv"
            found += checks.check_records_match_csv(csv, method, result.records)
        problems[trial] += [f"{name}: {p}" for p in found]
    expected = {"engine.run_centralized"} | (
        {"engine.run_distributed"} if "distributed" in raw["algorithm"]["modes"] else set()
    ) | ({"baseline.run_rgf"} if raw["baseline"]["enabled"] else set())
    for t in problems:
        for name in sorted(expected):
            if (name, t) not in seen:
                problems[t].append(f"{name} was not traced")
    faults: dict[tuple, int] = {}
    for fault in tracer.query_faults:
        faults[fault] = faults.get(fault, 0) + 1
    for (trial, name, spent, want), times in faults.items():
        problems.setdefault(trial, []).append(
            f"{times} x {name} spent {spent} oracle queries, not 2J = {want}"
        )
    return {
        "experiment_s": t1 - t0,
        "trial_problems": {str(t): p for t, p in problems.items()},
        "missing": tracer.missing,
    }


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    result = timed(job["raw"]) if job["mode"] == "timed" else traced(job)
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
