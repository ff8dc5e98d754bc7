"""Experiment orchestration: config files, trials, sweeps, persistence, reports.

A single JSON config describes the topology, the per-agent objectives, the
algorithm parameters, an optional baseline, and the trial count. Running an
experiment produces per-trial CSV traces, a trial-averaged CSV, a gnuplot
script for the two standard figures, and a meta.json that pins the resolved
config and library versions so a rerun reproduces the CSV bytes exactly.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baseline import RGFParams, run_rgf
from .engine import AlgoParams, run_centralized, run_distributed
from .graph import NetworkMatrices, Topology, build_matrices, check_connected, generate_graph
from .metrics import (
    MetricRecord,
    ParamConditionReport,
    default_potential_weight,
    rate_fit,
    validate_params,
)
from .objectives import (
    LocalObjective,
    logistic_regression_objective,
    quadratic_objective,
    random_quadratic,
    read_classification_csv,
    synthesize_classification_data,
    toy_objective,
    write_classification_csv,
)
from .szo import NoiseModel, SmoothingParams

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "CSV_HEADER",
    "ENV_OUTPUT_DIR",
    "load_config",
    "config_from_dict",
    "run_experiment",
    "sweep",
    "validate_config",
    "report_text",
    "read_trace_csv",
    "replica_a_config",
    "replica_b_config",
]

ENV_OUTPUT_DIR = "ZOPD_OUTPUT_DIR"
CSV_HEADER = "method,trial,iter,stationarity_gap,constraint_violation,potential,objective"

_GRAPH_KINDS = ("ring", "path", "star", "complete", "random_connected")
_OBJECTIVE_KINDS = ("toy", "logreg", "quadratic")


class ConfigError(ValueError):
    """Config validation failure carrying the offending field path."""

    def __init__(self, field: str, problem: str):
        self.field = field
        super().__init__(f"{field}: {problem}")


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return d[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(path, "expected a [lo, hi] pair")
    return _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")


def _known_keys(d: dict, allowed: set[str], path: str) -> None:
    extra = set(d) - allowed
    if extra:
        raise ConfigError(path, f"unknown field(s): {', '.join(sorted(extra))}")


# ---------------------------------------------------------------------------
# Config sections


def _build_topology(section, path="topology") -> tuple[Topology, dict]:
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    if "edges" in section:
        _known_keys(section, {"num_nodes", "block_dim", "edges"}, path)
        try:
            topo = Topology.from_dict(section)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(path, str(exc)) from exc
        if not check_connected(topo):
            raise ConfigError(path, "graph is not connected")
        return topo, topo.to_dict()
    if "file" in section:
        _known_keys(section, {"file"}, path)
        p = Path(section["file"])
        if not p.exists():
            raise ConfigError(f"{path}.file", f"file not found: {p}")
        try:
            topo = Topology.from_dict(json.loads(p.read_text()))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}.file", str(exc)) from exc
        if not check_connected(topo):
            raise ConfigError(f"{path}.file", "graph is not connected")
        return topo, topo.to_dict()
    _known_keys(section, {"kind", "num_nodes", "block_dim", "seed", "extra_edge_prob"}, path)
    kind = _require(section, "kind", path)
    if kind not in _GRAPH_KINDS:
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected one of {_GRAPH_KINDS}")
    n = _integer(_require(section, "num_nodes", path), f"{path}.num_nodes")
    m = _integer(section.get("block_dim", 1), f"{path}.block_dim")
    seed = _integer(section.get("seed", 0), f"{path}.seed")
    prob = _number(section.get("extra_edge_prob", 0.15), f"{path}.extra_edge_prob")
    try:
        topo = generate_graph(kind, n, extra_edge_prob=prob, seed=seed, block_dim=m)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    normalized = {
        "kind": kind,
        "num_nodes": n,
        "block_dim": m,
        "seed": seed,
        "extra_edge_prob": prob,
    }
    return topo, normalized


def _build_objectives(section, topo: Topology, path="objective") -> tuple[list[LocalObjective], dict]:
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    kind = _require(section, "kind", path)
    if kind not in _OBJECTIVE_KINDS:
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected one of {_OBJECTIVE_KINDS}")
    n, m = topo.num_nodes, topo.block_dim

    if kind == "toy":
        _known_keys(section, {"kind", "box", "phase_spread", "phase_seed"}, path)
        if m != 1:
            raise ConfigError(f"{path}.kind", "toy objective needs block_dim=1")
        lo, hi = _pair(section.get("box", [-5.0, 5.0]), f"{path}.box")
        spread = _number(section.get("phase_spread", 0.0), f"{path}.phase_spread")
        if spread < 0:
            raise ConfigError(f"{path}.phase_spread", "must be nonnegative")
        pseed = _integer(section.get("phase_seed", 0), f"{path}.phase_seed")
        if spread > 0:
            rng = np.random.default_rng(np.random.SeedSequence((pseed, n)))
            phases = rng.uniform(-spread, spread, n)
        else:
            phases = np.zeros(n)
        objs = [toy_objective(phase=float(p), box_lo=lo, box_hi=hi) for p in phases]
        normalized = {
            "kind": "toy",
            "box": [lo, hi],
            "phase_spread": spread,
            "phase_seed": pseed,
        }
        return objs, normalized

    if kind == "logreg":
        _known_keys(
            section,
            {"kind", "alpha", "epsilon", "batch", "data_seed", "flip_prob", "data_dir", "box"},
            path,
        )
        alpha = _number(section.get("alpha", 0.1), f"{path}.alpha")
        eps = _number(section.get("epsilon", 1e-3), f"{path}.epsilon")
        lo, hi = _pair(section.get("box", [-10.0, 10.0]), f"{path}.box")
        if "data_dir" in section:
            ddir = Path(section["data_dir"])
            if not ddir.is_dir():
                raise ConfigError(f"{path}.data_dir", f"directory not found: {ddir}")
            datasets = []
            for i in range(1, n + 1):
                p = ddir / f"agent_{i:03d}.csv"
                if not p.exists():
                    raise ConfigError(f"{path}.data_dir", f"missing {p.name}")
                datasets.append(read_classification_csv(p))
            for i, ds in enumerate(datasets):
                if ds.dim != m:
                    raise ConfigError(
                        f"{path}.data_dir",
                        f"agent_{i + 1:03d}.csv has feature dim {ds.dim}, topology needs {m}",
                    )
            normalized = {
                "kind": "logreg",
                "alpha": alpha,
                "epsilon": eps,
                "box": [lo, hi],
                "data_dir": str(ddir),
            }
        else:
            batch = _integer(section.get("batch", 100), f"{path}.batch")
            if batch < 1:
                raise ConfigError(f"{path}.batch", "must be >= 1")
            dseed = _integer(section.get("data_seed", 0), f"{path}.data_seed")
            fprob = _number(section.get("flip_prob", 0.05), f"{path}.flip_prob")
            try:
                datasets, _ = synthesize_classification_data(n, batch, m, dseed, fprob)
            except ValueError as exc:
                raise ConfigError(path, str(exc)) from exc
            normalized = {
                "kind": "logreg",
                "alpha": alpha,
                "epsilon": eps,
                "box": [lo, hi],
                "batch": batch,
                "data_seed": dseed,
                "flip_prob": fprob,
            }
        try:
            objs = [
                logistic_regression_objective(ds, n, alpha=alpha, epsilon=eps, box_lo=lo, box_hi=hi)
                for ds in datasets
            ]
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
        return objs, normalized

    # quadratic: explicit matrices (shared by all agents) or a seeded family
    _known_keys(section, {"kind", "seed", "convex", "shared", "box", "hessian", "linear"}, path)
    lo, hi = _pair(section.get("box", [-3.0, 3.0]), f"{path}.box")
    if "hessian" in section or "linear" in section:
        h = section.get("hessian")
        b = section.get("linear")
        if h is None or b is None:
            raise ConfigError(path, "explicit quadratic needs both hessian and linear")
        try:
            obj = quadratic_objective(np.asarray(h, float), np.asarray(b, float), lo, hi)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
        if obj.dim != m:
            raise ConfigError(f"{path}.hessian", f"dimension {obj.dim} does not match block_dim {m}")
        normalized = {
            "kind": "quadratic",
            "box": [lo, hi],
            "hessian": [[float(v) for v in row] for row in np.asarray(h, float)],
            "linear": [float(v) for v in np.asarray(b, float)],
        }
        return [obj] * n, normalized
    seed = _integer(section.get("seed", 0), f"{path}.seed")
    shared = section.get("shared", False)
    if not isinstance(shared, bool):
        raise ConfigError(f"{path}.shared", "expected true or false")
    convex = section.get("convex", True)
    if not isinstance(convex, bool):
        raise ConfigError(f"{path}.convex", "expected true or false")
    if shared:
        objs = [random_quadratic(m, seed, convex=convex, box_lo=lo, box_hi=hi)] * n
    else:
        # agent i draws its own member of the family from seed + i
        objs = [
            random_quadratic(m, seed + i, convex=convex, box_lo=lo, box_hi=hi) for i in range(n)
        ]
    normalized = {
        "kind": "quadratic",
        "box": [lo, hi],
        "seed": seed,
        "shared": shared,
        "convex": convex,
    }
    return objs, normalized


def _build_algorithm(section, path="algorithm") -> tuple[AlgoParams, tuple[str, ...], dict]:
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    _known_keys(
        section,
        {
            "rho", "mu", "samples", "iters", "seed", "init", "noise",
            "gradient_mode", "gap_gradient", "potential_weight", "mc_gap_samples",
            "retry_cap", "modes",
        },
        path,
    )
    rho = _number(_require(section, "rho", path), f"{path}.rho")
    mu = _number(_require(section, "mu", path), f"{path}.mu")
    samples = _integer(_require(section, "samples", path), f"{path}.samples")
    iters = _integer(_require(section, "iters", path), f"{path}.iters")
    seed = _integer(_require(section, "seed", path), f"{path}.seed")
    init_lo, init_hi = _pair(_require(section, "init", path), f"{path}.init")

    noise_sec = section.get("noise", {"kind": "none"})
    if not isinstance(noise_sec, dict):
        raise ConfigError(f"{path}.noise", "expected an object")
    nkind = noise_sec.get("kind", "none")
    if nkind == "none":
        noise = NoiseModel()
        noise_norm = {"kind": "none"}
    elif nkind == "additive_gaussian":
        std = _number(_require(noise_sec, "std_dev", f"{path}.noise"), f"{path}.noise.std_dev")
        try:
            noise = NoiseModel(kind="additive_gaussian", std_dev=std)
        except ValueError as exc:
            raise ConfigError(f"{path}.noise", str(exc)) from exc
        noise_norm = {"kind": "additive_gaussian", "std_dev": std}
    else:
        raise ConfigError(f"{path}.noise.kind", f"unknown kind {nkind!r}")

    modes_raw = section.get("modes", ["centralized"])
    if not isinstance(modes_raw, list) or not modes_raw:
        raise ConfigError(f"{path}.modes", "expected a nonempty list")
    for mode in modes_raw:
        if mode not in ("centralized", "distributed"):
            raise ConfigError(f"{path}.modes", f"unknown mode {mode!r}")
    modes = tuple(dict.fromkeys(modes_raw))

    gmode = section.get("gradient_mode", "estimator")
    gap_grad = section.get("gap_gradient", "auto")
    pweight = section.get("potential_weight")
    if pweight is not None:
        pweight = _number(pweight, f"{path}.potential_weight")
    mc_samples = _integer(section.get("mc_gap_samples", 10**4), f"{path}.mc_gap_samples")
    retry_cap = _integer(section.get("retry_cap", 100), f"{path}.retry_cap")

    try:
        params = AlgoParams(
            rho=rho,
            smoothing=SmoothingParams(mu=mu, samples=samples),
            total_iters=iters,
            seed=seed,
            init_lo=init_lo,
            init_hi=init_hi,
            noise=noise,
            gradient_mode=gmode,
            gap_gradient=gap_grad,
            potential_weight=pweight,
            mc_gap_samples=mc_samples,
            retry_cap=retry_cap,
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc

    normalized = {
        "rho": rho,
        "mu": mu,
        "samples": samples,
        "iters": iters,
        "seed": seed,
        "init": [init_lo, init_hi],
        "noise": noise_norm,
        "gradient_mode": gmode,
        "gap_gradient": gap_grad,
        "potential_weight": pweight,
        "mc_gap_samples": mc_samples,
        "retry_cap": retry_cap,
        "modes": list(modes),
    }
    return params, modes, normalized


def _build_baseline(section, iters: int, path="baseline") -> tuple[RGFParams | None, dict]:
    if section is None:
        return None, {"enabled": False}
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    _known_keys(section, {"enabled", "step_scale", "mu", "mixing"}, path)
    enabled = section.get("enabled", True)
    if not isinstance(enabled, bool):
        raise ConfigError(f"{path}.enabled", "expected true or false")
    if not enabled:
        return None, {"enabled": False}
    scale = _number(section.get("step_scale", 1.0), f"{path}.step_scale")
    mu = _number(section.get("mu", 1e-2), f"{path}.mu")
    mixing = section.get("mixing", "metropolis")
    try:
        rgf = RGFParams(step_scale=scale, mu=mu, total_iters=iters, mixing=mixing)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    normalized = {"enabled": True, "step_scale": scale, "mu": mu, "mixing": mixing}
    return rgf, normalized


@dataclass
class ExperimentConfig:
    """Fully validated experiment description plus its normalized raw form."""

    name: str
    topology: Topology
    objectives: list[LocalObjective]
    params: AlgoParams
    modes: tuple[str, ...]
    baseline: RGFParams | None
    trials: int
    workers: int | None
    output_dir: Path
    normalized: dict

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.normalized, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate and resolve a config dictionary. Raises ConfigError with a
    dotted field path on the first problem found."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    _known_keys(
        raw,
        {"name", "topology", "objective", "algorithm", "baseline", "trials", "workers", "output_dir"},
        "config",
    )
    name = raw.get("name", "experiment")
    if not isinstance(name, str) or not name:
        raise ConfigError("name", "expected a nonempty string")
    topo, topo_norm = _build_topology(_require(raw, "topology", "config"))
    objs, obj_norm = _build_objectives(_require(raw, "objective", "config"), topo)
    params, modes, algo_norm = _build_algorithm(_require(raw, "algorithm", "config"))
    baseline, base_norm = _build_baseline(raw.get("baseline"), params.total_iters)
    trials = _integer(_require(raw, "trials", "config"), "trials")
    if trials < 1:
        raise ConfigError("trials", "must be >= 1")
    workers = raw.get("workers")
    if workers == "auto":
        workers = None
    if workers is not None:
        workers = _integer(workers, "workers")
        if workers < 1:
            raise ConfigError("workers", "must be >= 1")
    out = _require(raw, "output_dir", "config")
    if not isinstance(out, str) or not out:
        raise ConfigError("output_dir", "expected a nonempty string")

    for i, o in enumerate(objs):
        if np.any(o.box.lo > params.init_lo) or np.any(o.box.hi < params.init_hi):
            raise ConfigError(
                "algorithm.init", f"init box exceeds the domain box of agent {i + 1}"
            )

    normalized = {
        "name": name,
        "topology": topo_norm,
        "objective": obj_norm,
        "algorithm": algo_norm,
        "baseline": base_norm,
        "trials": trials,
        "workers": workers if workers is not None else "auto",
        "output_dir": out,
    }
    return ExperimentConfig(
        name=name,
        topology=topo,
        objectives=objs,
        params=params,
        modes=modes,
        baseline=baseline,
        trials=trials,
        workers=workers,
        output_dir=Path(out),
        normalized=normalized,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError("config", f"file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# Persistence


def _format_row(method: str, trial: int, rec: MetricRecord) -> str:
    vals = (rec.stationarity_gap, rec.constraint_violation, rec.potential, rec.objective)
    return f"{method},{trial},{rec.iteration}," + ",".join(f"{v:.17g}" for v in vals)


def _write_trace_csv(path: Path, rows: dict[str, list[MetricRecord]], trial: int) -> None:
    lines = [CSV_HEADER]
    for method in ("primal_dual", "rgf"):
        for rec in rows.get(method, []):
            lines.append(_format_row(method, trial, rec))
    path.write_text("\n".join(lines) + "\n")


def read_trace_csv(path: str | Path) -> list[dict]:
    """Parse a trace CSV back into a list of row dictionaries."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}: {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 7:
                raise ValueError(f"malformed CSV row in {path}: {line!r}")
            rows.append(
                {
                    "method": parts[0],
                    "trial": int(parts[1]),
                    "iter": int(parts[2]),
                    "stationarity_gap": float(parts[3]),
                    "constraint_violation": float(parts[4]),
                    "potential": float(parts[5]),
                    "objective": float(parts[6]),
                }
            )
    return rows


_PLOT_SCRIPT = """\
# Renders the two standard diagnostic figures from the trial-averaged trace.
# Usage: gnuplot plot.gp
set datafile separator ","
set key top right
set xlabel "iteration"
set logscale y
set terminal pngcairo size 900,600
set output "stationarity_gap.png"
set ylabel "stationarity gap (trial average)"
plot \\
{gap_series}
set output "constraint_violation.png"
set ylabel "constraint violation (trial average)"
plot \\
{violation_series}
"""


def _plot_script(methods: list[str]) -> str:
    labels = {"primal_dual": "primal-dual", "rgf": "RGF"}

    def series(col: int) -> str:
        parts = [
            f'  "mean.csv" every ::1 using 3:(strcol(1) eq "{m}" ? ${col} : 1/0) '
            f'with lines title "{labels.get(m, m)}"'
            for m in methods
        ]
        return ", \\\n".join(parts)

    return _PLOT_SCRIPT.format(gap_series=series(4), violation_series=series(5))


def _mean_table(trials_records: list[list[MetricRecord]]) -> dict[str, np.ndarray]:
    iters = np.array([r.iteration for r in trials_records[0]])
    for recs in trials_records[1:]:
        if [r.iteration for r in recs] != list(iters):
            raise RuntimeError("trials produced mismatched iteration grids")
    cols = {}
    for field in ("stationarity_gap", "constraint_violation", "potential", "objective"):
        stack = np.array([[getattr(r, field) for r in recs] for recs in trials_records])
        cols[field] = stack.mean(axis=0)
    cols["iter"] = iters
    return cols


def _resolve_output_dir(cfg: ExperimentConfig) -> Path:
    override = os.environ.get(ENV_OUTPUT_DIR)
    return Path(override) if override else cfg.output_dir


@dataclass
class ExperimentResult:
    """In-memory view of a finished experiment plus the files it wrote."""

    output_dir: Path
    meta: dict
    records: dict[str, list[list[MetricRecord]]]
    mean: dict[str, dict[str, np.ndarray]]

    def mean_column(self, method: str, column: str) -> np.ndarray:
        return self.mean[method][column]


def _run_one_trial(
    cfg: ExperimentConfig, mats: NetworkMatrices, trial: int, out_dir: Path
) -> dict[str, list[MetricRecord]]:
    rows: dict[str, list[MetricRecord]] = {"primal_dual": []}
    csv_path = out_dir / f"trial_{trial:03d}.csv"
    try:
        result_c = run_centralized(
            cfg.topology, cfg.objectives, cfg.params, trial, mats,
            on_record=rows["primal_dual"].append,
        )
        if "distributed" in cfg.modes:
            streamed: list[MetricRecord] = []
            result_d = run_distributed(
                cfg.topology, cfg.objectives, cfg.params, trial, mats,
                on_record=streamed.append,
            )
            same = np.array_equal(result_c.states_x, result_d.states_x) and np.array_equal(
                result_c.states_lam, result_d.states_lam
            )
            if not same:
                dx = float(np.max(np.abs(result_c.states_x - result_d.states_x)))
                dl = float(np.max(np.abs(result_c.states_lam - result_d.states_lam)))
                raise RuntimeError(
                    f"centralized/distributed mismatch in trial {trial}: "
                    f"max primal discrepancy {dx:.3e}, dual {dl:.3e}"
                )
        if cfg.baseline is not None:
            rows["rgf"] = run_rgf(
                cfg.topology, cfg.objectives, cfg.params, cfg.baseline, trial, mats
            ).records
    except ConfigError:
        raise
    except Exception as exc:
        # flush whatever the trial produced before failing
        _write_trace_csv(csv_path, rows, trial)
        raise RuntimeError(f"trial {trial} failed after {len(rows['primal_dual'])} rows: {exc}") from exc
    _write_trace_csv(csv_path, rows, trial)
    return rows


def _trial_worker(raw_json: str, trial: int, out_dir: str) -> dict[str, list[MetricRecord]]:
    cfg = config_from_dict(json.loads(raw_json))
    return _run_one_trial(cfg, build_matrices(cfg.topology), trial, Path(out_dir))


def _versions() -> dict:
    try:
        from importlib.metadata import version

        pkg = version("artifact")
    except Exception:
        pkg = "unknown"
    return {
        "package": pkg,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_experiment(cfg: ExperimentConfig, use_env_override: bool = True) -> ExperimentResult:
    """Run all trials, write per-trial and averaged CSVs, meta.json, plot.gp."""
    out = _resolve_output_dir(cfg) if use_env_override else cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    methods = ["primal_dual"] + (["rgf"] if cfg.baseline is not None else [])
    per_trial: dict[str, list[list[MetricRecord]]] = {m: [] for m in methods}

    workers = cfg.workers if cfg.workers is not None else (os.cpu_count() or 1)
    workers = min(workers, cfg.trials)
    if workers > 1:
        raw_json = json.dumps(cfg.normalized)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_trial_worker, raw_json, t, str(out)) for t in range(cfg.trials)
            ]
            trial_rows = [fut.result() for fut in futures]
    else:
        mats = build_matrices(cfg.topology)
        trial_rows = [_run_one_trial(cfg, mats, t, out) for t in range(cfg.trials)]
    for rows in trial_rows:
        for method in methods:
            per_trial[method].append(rows[method])

    # single-threaded merge: averaged trace, metadata, plot script
    mean = {m: _mean_table(per_trial[m]) for m in methods}
    lines = [CSV_HEADER]
    for method in methods:
        cols = mean[method]
        for j, it in enumerate(cols["iter"]):
            vals = (
                cols["stationarity_gap"][j],
                cols["constraint_violation"][j],
                cols["potential"][j],
                cols["objective"][j],
            )
            lines.append(f"{method},-1,{int(it)}," + ",".join(f"{v:.17g}" for v in vals))
    (out / "mean.csv").write_text("\n".join(lines) + "\n")

    meta = {
        "experiment": cfg.name,
        "config": cfg.normalized,
        "config_hash": cfg.config_hash,
        "csv_header": CSV_HEADER,
        "trial_files": [f"trial_{t:03d}.csv" for t in range(cfg.trials)],
        "mean_file": "mean.csv",
        "versions": _versions(),
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    (out / "plot.gp").write_text(_plot_script(methods))

    return ExperimentResult(output_dir=out, meta=meta, records=per_trial, mean=mean)


# ---------------------------------------------------------------------------
# Sweep and validation


def sweep(cfg: ExperimentConfig, horizons: list[int]) -> dict:
    """Rerun the experiment per horizon with samples = ceil(sqrt(T)) and fit
    mean stationarity gap against gamma1 / T + constant."""
    if len(horizons) != len(set(horizons)):
        raise ConfigError("sweep.T", "duplicate T values")
    if len(horizons) < 3:
        raise ConfigError("sweep.T", "need >= 3 distinct T values")
    for t in horizons:
        if not isinstance(t, int) or isinstance(t, bool) or t < 1:
            raise ConfigError("sweep.T", f"invalid horizon {t!r}")

    out = _resolve_output_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    samples = [math.ceil(math.sqrt(t)) for t in horizons]
    mean_gaps = []
    run_dirs = []
    for t, j in zip(horizons, samples):
        raw = copy.deepcopy(cfg.normalized)
        raw["algorithm"]["iters"] = t
        raw["algorithm"]["samples"] = j
        raw["output_dir"] = str(out / f"T{t}")
        sub = config_from_dict(raw)
        res = run_experiment(sub, use_env_override=False)
        gaps = np.concatenate(
            [[r.stationarity_gap for r in recs] for recs in res.records["primal_dual"]]
        )
        mean_gaps.append(float(np.mean(gaps)))
        run_dirs.append(str(res.output_dir))

    fit = rate_fit(np.array(horizons, float), np.array(mean_gaps))
    report = {
        "horizons": list(horizons),
        "samples_per_horizon": samples,
        "mean_gaps": mean_gaps,
        "fit": {
            "gamma1": fit.gamma1,
            "constant": fit.constant,
            "rel_residual": fit.rel_residual,
        },
        "run_dirs": run_dirs,
    }
    (out / "rate_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def validate_config(cfg: ExperimentConfig) -> ParamConditionReport:
    """Check the sufficient step-size conditions for the configured problem
    without running it."""
    mats = build_matrices(cfg.topology)
    l0 = math.sqrt(sum(o.lipschitz_l0**2 for o in cfg.objectives))
    c = cfg.params.potential_weight
    if c is None:
        c = default_potential_weight(mats)
    total_dim = cfg.topology.num_nodes * cfg.topology.block_dim
    return validate_params(l0, cfg.params.smoothing.mu, total_dim, mats, c, cfg.params.rho)


def report_text(report: ParamConditionReport) -> str:
    def flag(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    return "\n".join(
        [
            "step-size condition report",
            f"  smoothed-gradient lipschitz L1   {report.l1:.6g}",
            f"  connectivity sigma_min           {report.sigma_min:.6g}",
            f"  signless laplacian norm          {report.lplus_norm:.6g}",
            f"  c  = {report.c:.6g}   required > {report.required_c:.6g}   [{flag(report.valid_c)}]",
            f"  rho = {report.rho:.6g}   required > {report.required_rho:.6g}   [{flag(report.valid_rho)}]",
            f"  descent coefficients: alpha1 {report.alpha1:.6g}, "
            f"alpha2 {report.alpha2_as_written:.6g} (as written) / "
            f"{report.alpha2_flipped:.6g} (flipped), alpha3 {report.alpha3:.6g}",
            f"  overall: {'valid' if report.valid else 'INVALID'}",
        ]
    )


# ---------------------------------------------------------------------------
# Built-in experiment presets


def replica_a_config(output_dir: str = "out/replica_a", trials: int = 30) -> dict:
    """Ten 1-D agents with the nonsmooth oscillatory benchmark objective."""
    return {
        "name": "replica-a-toy",
        "topology": {
            "kind": "random_connected",
            "num_nodes": 10,
            "block_dim": 1,
            "seed": 11,
            "extra_edge_prob": 0.15,
        },
        "objective": {"kind": "toy", "box": [-5.0, 5.0]},
        # rho and samples are deliberately heavy: a stiff penalty keeps every
        # trial in its descent phase through the full horizon and the large
        # batch keeps the trial-averaged gap curve smooth, so the mean trace
        # trends downward without plateau wiggles.
        "algorithm": {
            "rho": 600.0,
            "mu": 0.01,
            "samples": 120,
            "iters": 1000,
            "seed": 2024,
            "init": [-2.0, 2.0],
            "gap_gradient": "closed_form",
            "modes": ["centralized"],
        },
        "baseline": {"enabled": True, "step_scale": 0.1, "mu": 0.01},
        "trials": trials,
        "output_dir": output_dir,
    }


def replica_b_config(output_dir: str = "out/replica_b", trials: int = 30) -> dict:
    """Fifteen agents fitting a sparse logistic separator on synthetic data."""
    return {
        "name": "replica-b-logreg",
        "topology": {
            "kind": "random_connected",
            "num_nodes": 15,
            "block_dim": 10,
            "seed": 23,
            "extra_edge_prob": 0.1,
        },
        "objective": {
            "kind": "logreg",
            "alpha": 0.1,
            "epsilon": 1e-3,
            "batch": 100,
            "data_seed": 7,
            "flip_prob": 0.05,
        },
        "algorithm": {
            "rho": 2.0,
            "mu": 0.01,
            "samples": 30,
            "iters": 1000,
            "seed": 2025,
            "init": [-1.0, 1.0],
            "gap_gradient": "estimator",
            "modes": ["centralized"],
        },
        "baseline": {"enabled": True, "step_scale": 0.5, "mu": 0.01},
        "trials": trials,
        "output_dir": output_dir,
    }
