"""zopd benchmark: three seeded workloads, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy-pool --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it repeats the workload's experiment, each time in a fresh
interpreter through ``harness.config_from_dict`` and ``harness.run_experiment``,
until ``--seconds`` have passed (three times at least), checks every output,
and prints the median end-to-end metrics. With ``--trace 1`` it alternates an
untraced and a traced serial run of the same experiment for ``--seconds`` and
prints the per-layer metrics. Each trial is one operation; a trial fails if
its run raises or if any check on its outputs fails. The last line of stdout
is one JSON object: correct, attempted, failed and the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUNS_DIR = ROOT / ".perfbench_runs"
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # a hung child is killed so that the run still ends in time


class ChildFailed(RuntimeError):
    pass


def run_child(job: dict, job_path: Path, deadline: float) -> dict:
    """Run child.py on job in a fresh interpreter and its own process group,
    killing the group if it is still running at the deadline."""
    job_path.write_text(json.dumps(job))
    env = {k: v for k, v in os.environ.items() if k != "ZOPD_OUTPUT_DIR"}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(job_path)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, process_group=0,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{job['mode']} run was still running at the run's time limit")
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no message"]
        raise ChildFailed(f"{job['mode']} run exited with {proc.returncode}: {tail[0]}")
    return json.loads(Path(job["result"]).read_text())


class Tally:
    """Trials attempted and failed, the first problems seen, and the time by
    which every child must have ended."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.experiment_problems: list[str] = []
        self.notes: list[str] = []

    def count(self, trials: int, failed: int) -> None:
        self.attempted += trials
        self.failed += failed

    def note(self, problems: list[str]) -> None:
        self.notes += problems[: max(0, 20 - len(self.notes))]


def _check_output(out_dir: Path, wl, raw: dict, reference: dict | None, tally: Tally) -> tuple[dict, set]:
    """File checks of one experiment plus byte equality with the reference
    hashes; returns this experiment's hashes and its failed trials."""
    per_trial, whole = checks.check_experiment(out_dir, wl, raw)
    hashes = checks.file_hashes(out_dir, wl.trials)
    if reference is not None:
        for name in sorted(set(reference) | set(hashes)):
            if reference.get(name) != hashes.get(name):
                if name.startswith("trial_"):
                    per_trial[int(name[6:9])].append(f"{name} bytes differ from the first run")
                else:
                    whole.append(f"{name} bytes differ from the first run")
    bad = {t for t, p in per_trial.items() if p}
    tally.note([f"trial {t}: {p}" for t in sorted(bad) for p in per_trial[t]] + whole)
    tally.experiment_problems += whole
    return hashes, bad


def _timed_rep(wl, run_dir: Path, tag: str, tally: Tally, reference, workers=None):
    """One timed experiment, checked after it ends; returns (timings, file
    hashes, failed trials)."""
    out_dir = run_dir / tag
    raw = wl.with_run(out_dir, workers=workers)
    job = {"mode": "timed", "raw": raw, "result": str(run_dir / f"{tag}.result.json")}
    try:
        res = run_child(job, run_dir / f"{tag}.job.json", tally.deadline)
    except ChildFailed as exc:
        tally.note([str(exc)])
        return None, None, set(range(wl.trials))
    return (res, *_check_output(out_dir, wl, raw, reference, tally))


def _traced_rep(wl, run_dir: Path, tag: str, seed: int, tally: Tally, reference, trials=None):
    """One traced serial experiment; returns (result, failed trials)."""
    out_dir = run_dir / tag
    raw = wl.with_run(out_dir, trials=trials, workers=1)
    job = {
        "mode": "traced", "raw": raw, "workload": wl.name, "seed": seed,
        "data_dir": str(run_dir / "data"), "result": str(run_dir / f"{tag}.result.json"),
        "spans": str(run_dir / f"{tag}.spans.csv"),
    }
    try:
        res = run_child(job, run_dir / f"{tag}.job.json", tally.deadline)
    except ChildFailed as exc:
        tally.note([str(exc)])
        return None, set(range(raw["trials"]))
    problems = {int(t): p for t, p in res["trial_problems"].items()}
    if res["missing"]:
        tally.note([f"not traced, absent from zopd: {', '.join(res['missing'])}"])
    for name, digest in checks.file_hashes(out_dir, raw["trials"]).items():
        if reference is None or reference.get(name) == digest:
            continue
        if name.startswith("trial_"):
            problems[int(name[6:9])].append(f"traced {name} bytes differ from the untraced run")
        elif trials is None:
            tally.experiment_problems.append(f"traced {name} bytes differ from the untraced run")
    tally.note([f"trial {t} ({tag}): {p}" for t in sorted(problems) for p in problems[t]])
    return res, {t for t, p in problems.items() if p}


def _fits(start: float, seconds: float, last: float) -> bool:
    """Whether one more repetition as long as the last ends, on average, by
    the deadline, so that a run measures about `seconds` whatever the
    repetition length."""
    return time.perf_counter() - start + 0.5 * last < seconds


def end_to_end(wl, run_dir: Path, seed: int, seconds: float, tally: Tally) -> dict:
    start = time.perf_counter()
    reps, reference, last = [], None, 0.0
    while len(reps) < MIN_REPS or _fits(start, seconds, last):
        t = time.perf_counter()
        res, hashes, bad = _timed_rep(wl, run_dir, f"rep{len(reps)}", tally, reference)
        last = time.perf_counter() - t
        reference = reference or hashes
        reps.append((res, bad))
        if len(reps) > 1:
            shutil.rmtree(run_dir / f"rep{len(reps) - 1}", ignore_errors=True)
    # Trial 0 again, serially and traced, outside the timed runs: its RunResults
    # are checked against the benchmark's own operators and formulas, and its
    # CSV must be byte-identical to trial 0 of every timed run.
    _, verify_bad = _traced_rep(wl, run_dir, "verify", seed, tally, reference, trials=1)
    for _, bad in reps:
        bad |= verify_bad
        tally.count(wl.trials, len(bad))

    done = [r for r, _ in reps if r is not None]
    if not done:
        return {}
    trial_s = [r["experiment_s"] - r["parent_build_s"] for r in done]
    print(f"{wl.name}: {len(done)} timed runs of {wl.trials} trials, "
          f"{wl.agent_iters} agent-iterations each")
    for r in done:
        print(f"  setup {r['setup_s']:.4f} s  experiment {r['experiment_s']:.3f} s  "
              f"parent build {r['parent_build_s']:.3f} s  peak {r['peak_rss_mb']:.1f} MB")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "experiment_s": statistics.median(r["experiment_s"] for r in done),
        "agent_iters_per_s": statistics.median(wl.agent_iters / t for t in trial_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }


def traced_layers(wl, run_dir: Path, seed: int, seconds: float, tally: Tally) -> dict:
    start = time.perf_counter()
    reference = None
    if wl.raw.get("workers", 1) != 1:
        # the workload's own worker count, untraced: reruns must not depend on it
        _, reference, bad = _timed_rep(wl, run_dir, "pool", tally, None)
        tally.count(wl.trials, len(bad))
    plain, traced, layer_runs, last = [], [], [], 0.0
    while not traced or _fits(start, seconds, last):
        k = len(traced)
        t = time.perf_counter()
        res, hashes, bad = _timed_rep(wl, run_dir, f"serial{k}", tally, reference, workers=1)
        tally.count(wl.trials, len(bad))
        reference = reference or hashes
        if res is not None:
            plain.append(res["experiment_s"])
        res, bad = _traced_rep(wl, run_dir, f"traced{k}", seed, tally, reference)
        tally.count(wl.trials, len(bad))
        traced.append(res)
        if res is not None:
            spans = tracer.read_spans(run_dir / f"traced{k}.spans.csv")
            layer_runs.append(tracer.layer_metrics(spans, wl.num_nodes, wl.iters, wl.trials))
            own = tracer.layer_self_times(spans)
            total = sum(own.values())
            print(f"{wl.name} traced run {k}: experiment {res['experiment_s']:.3f} s, self time by layer: "
                  + ", ".join(f"{layer} {100 * s / total:.1f}%" for layer, s in own.items()))
        for tag in (f"serial{k}", f"traced{k}"):
            shutil.rmtree(run_dir / tag, ignore_errors=True)
        last = time.perf_counter() - t
    done = [r["experiment_s"] for r in traced if r is not None]
    if not layer_runs or not plain:
        return {}
    metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    metrics["trace.overhead"] = statistics.median(done) / statistics.median(plain) - 1.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zopd" / "__init__.py").is_file():
        print(f"zopd sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run_dir = RUNS_DIR / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = workloads.make(args.workload, args.seed, run_dir / "data")
    tally = Tally(time.monotonic() + RUN_LIMIT_S)
    measure = traced_layers if args.trace else end_to_end
    metrics = measure(wl, run_dir, args.seed, args.seconds, tally)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    for note in tally.notes + [f"no value for {', '.join(absent)}"] * bool(absent):
        print(f"  problem: {note}")
    result = {
        "correct": tally.failed == 0 and not tally.experiment_problems and not absent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
