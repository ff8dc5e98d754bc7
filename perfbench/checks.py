"""Correctness checks on zopd's outputs, computed apart from the program.

The checks use the benchmark's own edge-list incidence, its own objective
formulas (from workloads.py) and its own parsing of the documented CSV schema,
and otherwise only properties the method must have. Each check returns a list
of problems; an empty list means the output passed.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

CSV_HEADER = "method,trial,iter,stationarity_gap,constraint_violation,potential,objective"
COLUMNS = ("stationarity_gap", "constraint_violation", "potential", "objective")
RTOL = 1e-9  # for values the benchmark recomputes in another summation order


class EdgeOps:
    """Consensus operators built from the edge list, on (..., nodes, dim) arrays."""

    def __init__(self, edges, num_nodes: int):
        inc = np.zeros((len(edges), num_nodes))
        for k, (i, j) in enumerate(edges):
            inc[k, i - 1] = 1.0
            inc[k, j - 1] = -1.0
        self.inc = inc
        self.deg = np.abs(inc).sum(axis=0)
        self.lplus = 2.0 * np.diag(self.deg) - inc.T @ inc  # signless Laplacian

    def a(self, x: np.ndarray) -> np.ndarray:
        return self.inc @ x

    def a_t(self, lam: np.ndarray) -> np.ndarray:
        return self.inc.T @ lam


def _mismatch(got: np.ndarray, want: np.ndarray, scale: float) -> float:
    """Largest difference in units of scale (at least 1); inf if any value
    is not finite."""
    diff = np.abs(got - want)
    if not (np.all(np.isfinite(diff)) and math.isfinite(scale)):
        return math.inf
    return float(np.max(diff, initial=0.0)) / max(scale, 1.0)


def check_run(result, wl, ops: EdgeOps, method: str) -> list[str]:
    """Checks on one RunResult of a primal-dual engine or the baseline.

    For primal_dual: the dual update lam[r+1] - lam[r] = rho A x[r+1] and the
    closed-form primal step from (x[r], lam[r], g[r]). For both methods: the
    iteration grid, each recorded constraint violation as ||A x[r]|| and each
    recorded objective from the workload's own formula.
    """
    n, m, t, rho = wl.num_nodes, wl.block_dim, wl.iters, wl.rho
    x = np.asarray(result.states_x).reshape(-1, n, m)
    lam = np.asarray(result.states_lam).reshape(-1, len(wl.edges), m)
    problems = []
    if x.shape[0] != t + 1 or lam.shape[0] != t + 1:
        return [f"{method}: {x.shape[0]} states for {t} iterations"]
    ax = ops.a(x)
    if method == "primal_dual":
        g = np.asarray(result.states_grad).reshape(-1, n, m)
        scale = max(float(np.max(np.abs(lam))), rho * float(np.max(np.abs(ax))))
        bad = _mismatch(lam[1:] - lam[:-1], rho * ax[1:], scale)
        if bad > RTOL:
            problems.append(f"{method}: dual update off by {bad:.3e} of scale")
        terms = (rho * (ops.lplus @ x[:-1]), g, ops.a_t(lam[:-1]))
        step = (terms[0] - terms[1] - terms[2]) / (2.0 * rho * ops.deg[:, None])
        scale = float(np.max(sum(np.abs(v) for v in terms) / (2.0 * rho * ops.deg[:, None])))
        bad = _mismatch(x[1:], step, scale)
        if bad > RTOL:
            problems.append(f"{method}: primal step off by {bad:.3e} of scale")
    elif np.any(lam != 0.0):
        problems.append(f"{method}: baseline dual is not zero")
    iters = [rec.iteration for rec in result.records]
    if iters != list(range(1, t + 1)):
        return problems + [f"{method}: records cover iterations {iters[:3]}...{iters[-3:]}"]
    viol = np.array([rec.constraint_violation for rec in result.records])
    want = np.sqrt(np.sum(ax[1:] ** 2, axis=(1, 2)))
    bad = _mismatch(viol, want, float(np.max(want)))
    if bad > RTOL:
        problems.append(f"{method}: constraint_violation differs from ||A x|| by {bad:.3e}")
    obj = np.array([rec.objective for rec in result.records])
    want = np.array([wl.objective(x[r]) for r in range(1, t + 1)])
    bad = _mismatch(obj, want, float(np.max(np.abs(want))))
    if bad > RTOL:
        problems.append(f"{method}: objective column differs from the formula by {bad:.3e}")
    return problems


def read_trace(path: Path) -> tuple[str, list[tuple]]:
    """(header, rows) of a trace CSV; a row is (method, trial, iter, *values)."""
    lines = Path(path).read_text().splitlines()
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        rows.append((f[0], int(f[1]), int(f[2]), *(float(v) for v in f[3:])))
    return (lines[0] if lines else ""), rows


def check_trace(path: Path, trial: int, methods: list[str], iters: int) -> list[str]:
    """A trace CSV: header, one row per method and iteration 1..T, finite
    values, and a primal-dual constraint violation that ends below its start."""
    if not Path(path).is_file():
        return [f"{Path(path).name} missing"]
    try:
        header, rows = read_trace(path)
    except (ValueError, IndexError) as exc:
        return [f"{Path(path).name} unreadable: {exc}"]
    problems = []
    if header != CSV_HEADER:
        problems.append(f"{Path(path).name}: header {header!r}")
    for method in methods:
        mine = [r for r in rows if r[0] == method]
        if [r[2] for r in mine] != list(range(1, iters + 1)):
            problems.append(f"{Path(path).name}: {method} has {len(mine)} rows, not iterations 1..{iters}")
            continue
        if any(r[1] != trial for r in mine):
            problems.append(f"{Path(path).name}: {method} rows name another trial")
        if not all(math.isfinite(v) for r in mine for v in r[3:]):
            problems.append(f"{Path(path).name}: {method} has a value that is not finite")
        if method == "primal_dual" and not mine[-1][4] < mine[0][4]:
            problems.append(
                f"{Path(path).name}: constraint violation ends at {mine[-1][4]:.3e}, "
                f"not below its start {mine[0][4]:.3e}"
            )
    if len(rows) != len(methods) * iters:
        problems.append(f"{Path(path).name}: {len(rows)} rows for {len(methods)} x {iters}")
    return problems


def check_records_match_csv(path: Path, method: str, records) -> list[str]:
    """The trace CSV rows of method carry exactly the values of the records."""
    _, rows = read_trace(path)
    mine = [r[2:] for r in rows if r[0] == method]
    want = [(rec.iteration, *(getattr(rec, c) for c in COLUMNS)) for rec in records]
    return [] if mine == want else [f"{Path(path).name}: {method} rows differ from the run's records"]


def check_mean(out_dir: Path, trials: int, methods: list[str]) -> list[str]:
    """mean.csv is the trial mean of the trial CSVs, finite, with trial -1."""
    path = Path(out_dir) / "mean.csv"
    if not path.is_file():
        return ["mean.csv missing"]
    header, rows = read_trace(path)
    problems = [] if header == CSV_HEADER else [f"mean.csv: header {header!r}"]
    per_trial = [read_trace(Path(out_dir) / f"trial_{t:03d}.csv")[1] for t in range(trials)]
    for method in methods:
        got = np.array([r[2:] for r in rows if r[0] == method])
        stack = [np.array([r[2:] for r in tr if r[0] == method]) for tr in per_trial]
        if any(s.shape != stack[0].shape for s in stack) or got.shape != stack[0].shape:
            problems.append(f"mean.csv: {method} rows do not line up with the trial CSVs")
            continue
        want = np.sum(stack, axis=0) / trials
        if not np.all(np.isfinite(got)):
            problems.append(f"mean.csv: {method} has a value that is not finite")
        if not np.allclose(got, want, rtol=1e-12, atol=0.0):
            problems.append(f"mean.csv: {method} is not the mean of the trial CSVs")
        if any(r[1] != -1 for r in rows if r[0] == method):
            problems.append(f"mean.csv: {method} rows have a trial other than -1")
    return problems


def canonical_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _agrees(raw, norm) -> bool:
    if isinstance(raw, dict):
        return isinstance(norm, dict) and all(k in norm and _agrees(v, norm[k]) for k, v in raw.items())
    if isinstance(raw, list):
        return isinstance(norm, list) and len(raw) == len(norm) and all(map(_agrees, raw, norm))
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return isinstance(norm, (int, float)) and float(raw) == float(norm)
    return raw == norm


def check_meta(out_dir: Path, raw: dict) -> list[str]:
    """meta.json carries the config it ran, normalised, and its SHA-256."""
    path = Path(out_dir) / "meta.json"
    if not path.is_file():
        return ["meta.json missing"]
    meta = json.loads(path.read_text())
    problems = []
    if meta.get("config_hash") != canonical_hash(meta.get("config", {})):
        problems.append("meta.json: config_hash is not the SHA-256 of the canonical config")
    if not _agrees(raw, meta.get("config")):
        problems.append("meta.json: config differs from the config that was run")
    return problems


def check_experiment(out_dir: Path, wl, raw: dict) -> tuple[dict[int, list[str]], list[str]]:
    """File checks of one run_experiment output: problems per trial, and the
    problems of the experiment as a whole (mean.csv, meta.json)."""
    per_trial = {
        t: check_trace(Path(out_dir) / f"trial_{t:03d}.csv", t, wl.methods, wl.iters)
        for t in range(wl.trials)
    }
    whole = check_meta(out_dir, raw)
    if not any(per_trial.values()):
        whole += check_mean(out_dir, wl.trials, wl.methods)
    return per_trial, whole


def file_hashes(out_dir: Path, trials: int) -> dict[str, str]:
    """SHA-256 of each trial CSV and of mean.csv."""
    names = [f"trial_{t:03d}.csv" for t in range(trials)] + ["mean.csv"]
    return {
        name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
        for name in names
        if (Path(out_dir) / name).is_file()
    }
