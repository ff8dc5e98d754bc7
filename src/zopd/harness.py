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
import multiprocessing
import os
import platform
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import scipy

from .baseline import RGFParams, run_rgf
from .engine import (
    GAP_GRADIENTS, GRADIENT_MODES, AlgoParams, ParamMismatch, run_centralized, run_distributed,
)
from .graph import (
    GRAPH_KINDS, NetworkMatrices, Topology, build_matrices, check_connected, generate_graph,
)
from .metrics import (
    MetricRecord,
    ParamConditionReport,
    rate_fit,
    validate_params,
)
from .objectives import (
    LocalObjective,
    StackedObjective,
    logistic_regression_objective,
    quadratic_objective,
    random_quadratic,
    read_classification_csv,
    synthesize_classification_data,
    toy_objective,
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
_KEYS = ("method", "trial", "iter")  # then MetricRecord's fields after its iteration
_COLUMNS = tuple(f.name for f in fields(MetricRecord))[1:]
CSV_HEADER = ",".join(_KEYS + _COLUMNS)


class ConfigError(ValueError):
    """Config validation failure carrying the offending field path."""

    def __init__(self, field: str, problem: str):
        self.field = field
        super().__init__(f"{field}: {problem}")


# ---------------------------------------------------------------------------
# Field readers: each takes (raw value, dotted field path) and returns the
# normalized value, or raises ConfigError naming the field.


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _positive(value, path: str) -> float:
    if not _number(value, path) > 0:
        raise ConfigError(path, f"must be > 0, got {value!r}")
    return float(value)


def _probability(value, path: str) -> float:
    if not 0.0 <= _number(value, path) <= 1.0:
        raise ConfigError(path, f"must lie in [0, 1], got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, "expected true or false")
    return value


def _text(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(path, "expected a nonempty string")
    return value


def _as_is(value, path: str):
    """For fields whose values the constructed object checks itself."""
    return value


def _interval(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(path, "expected a [lo, hi] pair")
    lo, hi = _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")
    if lo > hi:
        raise ConfigError(path, f"lo {lo!r} > hi {hi!r}")
    return [lo, hi]


def _array(ndim: int):
    def read(value, path: str) -> list:
        try:
            arr = np.asarray(value, dtype=float)
        except (ValueError, TypeError) as exc:
            raise ConfigError(path, f"expected numbers: {exc}") from exc
        if arr.ndim != ndim:
            raise ConfigError(path, f"expected a {ndim}-d array, got {arr.ndim}-d")
        if not np.isfinite(arr).all():
            raise ConfigError(path, "expected finite numbers")
        return arr.tolist()

    return read


def _choice(options: tuple[str, ...]):
    def read(value, path: str) -> str:
        if value not in options:
            raise ConfigError(path, f"unknown value {value!r}; expected one of {options}")
        return value

    return read


def _edges(value, path: str) -> list[list[int]]:
    if not isinstance(value, list) or not all(isinstance(e, list) and len(e) == 2 for e in value):
        raise ConfigError(path, "expected a list of [i, j] pairs")
    return [[_integer(i, path), _integer(j, path)] for i, j in value]


def _modes(value, path: str) -> list[str]:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a nonempty list")
    for mode in value:
        if mode not in ("centralized", "distributed"):
            raise ConfigError(path, f"unknown mode {mode!r}")
    return list(dict.fromkeys(value))


def _workers(value, path: str):
    return "auto" if value is None or value == "auto" else _integer(value, path)


_REQUIRED = object()


class _Field(NamedTuple):
    """One config field: name, reader, default (or _REQUIRED) and an
    inclusive lower bound on its number. A default of None also admits an
    explicit null."""

    name: str
    read: Callable
    default: Any = _REQUIRED
    low: float | None = None


def _read(section, fields: tuple[_Field, ...], path: str) -> dict:
    """Apply a field table: reject unknown keys, fill in defaults, check
    types and bounds. Returns the normalized section."""
    where = path or "config"
    if not isinstance(section, dict):
        raise ConfigError(where, "expected an object")
    extra = set(section) - {f.name for f in fields}
    if extra:
        raise ConfigError(where, f"unknown field(s): {', '.join(sorted(extra))}")
    out = {}
    for f in fields:
        field = f"{path}.{f.name}" if path else f.name
        value = section.get(f.name, f.default)
        if value is _REQUIRED:
            raise ConfigError(f"{where}.{f.name}", "missing required field")
        if not (value is None and f.default is None):
            value = f.read(value, field)
        if f.low is not None and isinstance(value, (int, float)) and value < f.low:
            raise ConfigError(field, f"must be >= {f.low}")
        out[f.name] = value
    return out


# ---------------------------------------------------------------------------
# Config sections: one field table per section and variant


_TOPOLOGY_EDGES = (
    _Field("num_nodes", _integer, low=2),
    _Field("edges", _edges),
    _Field("block_dim", _integer, 1, low=1),
)
_TOPOLOGY_GENERATED = (
    _Field("kind", _choice(GRAPH_KINDS)),
    _Field("num_nodes", _integer, low=2),
    _Field("block_dim", _integer, 1, low=1),
    _Field("seed", _integer, 0, low=0),
    _Field("extra_edge_prob", _probability, 0.15),
)


def _json_file(p: Path, field: str):
    """The JSON document in the file p; a missing, unreadable or malformed
    file is a ConfigError at field that names it."""
    if not p.exists():
        raise ConfigError(field, f"file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(field, f"invalid JSON in {p}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(field, f"cannot read {p}: {exc}") from exc


def _topology(section, path: str) -> dict:
    """Explicit edges, a topology file (read as the section it normalizes
    to, so its fields are named as inline ones are), or a generated family."""
    if isinstance(section, dict) and "file" in section:
        p = Path(_read(section, (_Field("file", _text),), path)["file"])
        return _read(_json_file(p, f"{path}.file"), _TOPOLOGY_EDGES, path)
    edges = isinstance(section, dict) and "edges" in section
    return _read(section, _TOPOLOGY_EDGES if edges else _TOPOLOGY_GENERATED, path)


_KIND = _Field("kind", _as_is)
_LOGREG = (
    _KIND,
    _Field("box", _interval, [-10.0, 10.0]),
    _Field("alpha", _number, 0.1, low=0.0),
    _Field("epsilon", _positive, 1e-3),
)
# objective kind -> variant key; (kind, whether the section holds it) -> table
_VARIANT_KEY = {"toy": None, "logreg": "data_dir", "quadratic": "hessian"}
_OBJECTIVES = {
    ("toy", False): (
        _KIND,
        _Field("box", _interval, [-5.0, 5.0]),
        _Field("phase_spread", _number, 0.0, low=0.0),
        _Field("phase_seed", _integer, 0, low=0),
    ),
    ("logreg", False): _LOGREG + (
        _Field("batch", _integer, 100, low=1),
        _Field("data_seed", _integer, 0, low=0),
        _Field("flip_prob", _probability, 0.05),
    ),
    ("logreg", True): _LOGREG + (_Field("data_dir", lambda v, path: str(Path(_text(v, path)))),),
    ("quadratic", False): (
        _KIND,
        _Field("box", _interval, [-3.0, 3.0]),
        _Field("seed", _integer, 0, low=0),
        _Field("shared", _flag, False),
        _Field("convex", _flag, True),
    ),
    ("quadratic", True): (
        _KIND,
        _Field("box", _interval, [-3.0, 3.0]),
        _Field("hessian", _array(2)),
        _Field("linear", _array(1)),
    ),
}


def _objective(section, path: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    if "kind" not in section:
        raise ConfigError(f"{path}.kind", "missing required field")
    kind = _choice(tuple(_VARIANT_KEY))(section["kind"], f"{path}.kind")
    if kind == "quadratic" and ("hessian" in section) != ("linear" in section):
        raise ConfigError(path, "explicit quadratic needs both hessian and linear")
    return _read(section, _OBJECTIVES[kind, _VARIANT_KEY[kind] in section], path)


_NOISE = {
    "none": (_KIND,),
    "additive_gaussian": (_KIND, _Field("std_dev", _number, low=0.0)),
}


def _noise(section, path: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    kind = _choice(tuple(_NOISE))(section.get("kind", "none"), f"{path}.kind")
    return _read({"kind": kind, **section}, _NOISE[kind], path)


_ALGORITHM = (
    _Field("rho", _positive),
    _Field("mu", _positive),
    _Field("samples", _integer, low=1),
    _Field("iters", _integer, low=1),
    _Field("seed", _integer, low=0),
    _Field("init", _interval),
    _Field("noise", _noise, {"kind": "none"}),
    _Field("gradient_mode", _choice(GRADIENT_MODES), "estimator"),
    _Field("gap_gradient", _choice(GAP_GRADIENTS), "auto"),
    _Field("potential_weight", _positive, None),
    _Field("mc_gap_samples", _integer, 10**4, low=1),
    _Field("retry_cap", _integer, 100, low=0),
    _Field("modes", _modes, ["centralized"]),
)
_BASELINE = (
    _Field("enabled", _flag, True),
    _Field("step_scale", _positive, 1.0),
    _Field("mu", _positive, 1e-2),
    _Field("mixing", _choice(("metropolis",)), "metropolis"),
)


def _baseline(section, path: str) -> dict:
    norm = _read({"enabled": False} if section is None else section, _BASELINE, path)
    return norm if norm["enabled"] else {"enabled": False}


_CONFIG = (
    _Field("name", _text, "experiment"),
    _Field("topology", _topology),
    _Field("objective", _objective),
    _Field("algorithm", lambda v, path: _read(v, _ALGORITHM, path)),
    _Field("baseline", _baseline, {"enabled": False}),
    _Field("trials", _integer, low=1),
    _Field("workers", _workers, "auto", low=1),
    _Field("output_dir", _text),
)


# ---------------------------------------------------------------------------
# Constructors: build the run's objects from a normalized config. A ValueError
# from the library is reported against the section being built.


@contextmanager
def _errors_at(path: str):
    try:
        yield
    except ConfigError:
        raise
    except ParamMismatch as exc:
        raise ConfigError(f"{path}.{exc.field}", str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _build_topology(norm: dict) -> Topology:
    if "edges" not in norm:
        return generate_graph(
            norm["kind"], norm["num_nodes"], extra_edge_prob=norm["extra_edge_prob"],
            seed=norm["seed"], block_dim=norm["block_dim"],
        )
    with _errors_at("topology.edges"):
        topo = Topology.from_dict(norm)
    if not check_connected(topo):
        raise ValueError("graph is not connected")
    return topo


def _logreg_data(norm: dict, n: int, m: int, path: str):
    if "data_dir" not in norm:
        return synthesize_classification_data(
            n, norm["batch"], m, norm["data_seed"], norm["flip_prob"]
        )[0]
    field = f"{path}.data_dir"
    ddir = Path(norm["data_dir"])
    if not ddir.is_dir():
        raise ConfigError(field, f"directory not found: {ddir}")
    datasets = []
    for i in range(1, n + 1):
        p = ddir / f"agent_{i:03d}.csv"
        if not p.exists():
            raise ConfigError(field, f"missing {p.name}")
        try:
            datasets.append(read_classification_csv(p))
        except (OSError, ValueError) as exc:
            raise ConfigError(field, f"{p.name}: {exc}") from exc
        if datasets[-1].dim != m:
            raise ConfigError(
                field, f"{p.name} has feature dim {datasets[-1].dim}, topology needs {m}"
            )
    return datasets


def _build_objectives(norm: dict, topo: Topology, path="objective") -> list[LocalObjective]:
    n, m = topo.num_nodes, topo.block_dim
    lo, hi = norm["box"]
    if norm["kind"] == "toy":
        if m != 1:
            raise ConfigError(f"{path}.kind", "toy objective needs block_dim=1")
        spread = norm["phase_spread"]
        if spread == 0:
            with _errors_at(f"{path}.box"):
                return [toy_objective(box_lo=lo, box_hi=hi)] * n
        rng = np.random.default_rng(np.random.SeedSequence((norm["phase_seed"], n)))
        phases = rng.uniform(-spread, spread, n)
        with _errors_at(f"{path}.box"):
            return [toy_objective(phase=float(p), box_lo=lo, box_hi=hi) for p in phases]
    if norm["kind"] == "logreg":
        return [
            logistic_regression_objective(
                ds, n, alpha=norm["alpha"], epsilon=norm["epsilon"], box_lo=lo, box_hi=hi
            )
            for ds in _logreg_data(norm, n, m, path)
        ]
    if "hessian" in norm:
        h, b = norm["hessian"], norm["linear"]
        if len(b) != len(h):
            raise ConfigError(f"{path}.linear", f"has {len(b)} entries for {len(h)} hessian rows")
        with _errors_at(f"{path}.hessian"):
            obj = quadratic_objective(np.asarray(h), np.asarray(b), lo, hi)
        if obj.dim != m:
            raise ConfigError(f"{path}.hessian", f"dimension {obj.dim} does not match block_dim {m}")
        return [obj] * n
    seed, convex = norm["seed"], norm["convex"]
    if norm["shared"]:
        return [random_quadratic(m, seed, convex=convex, box_lo=lo, box_hi=hi)] * n
    # agent i draws its own member of the family from seed + i
    return [random_quadratic(m, seed + i, convex=convex, box_lo=lo, box_hi=hi) for i in range(n)]


def _build_params(norm: dict) -> AlgoParams:
    return AlgoParams(
        rho=norm["rho"],
        smoothing=SmoothingParams(mu=norm["mu"], samples=norm["samples"]),
        total_iters=norm["iters"],
        seed=norm["seed"],
        init_lo=norm["init"][0],
        init_hi=norm["init"][1],
        noise=NoiseModel(**norm["noise"]),
        gradient_mode=norm["gradient_mode"],
        gap_gradient=norm["gap_gradient"],
        potential_weight=norm["potential_weight"],
        mc_gap_samples=norm["mc_gap_samples"],
        retry_cap=norm["retry_cap"],
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment. Its one field is the normalized config; the
    run's objects are built from it as plain attributes, so they always match
    what meta.json and config_hash record. Change a config in code with
    dataclasses.replace(cfg, normalized=...), which validates and rebuilds.
    The canonical JSON is fixed when the config is built, so an in-place edit
    of normalized moves neither config_hash nor what runs, and run_experiment
    refuses it."""

    normalized: dict

    def __post_init__(self):
        norm = _read(self.normalized, _CONFIG, "")
        with _errors_at("topology"):
            topo = _build_topology(norm["topology"])
        with _errors_at("objective"):
            objs = _build_objectives(norm["objective"], topo)
        with _errors_at("algorithm"):
            params = _build_params(norm["algorithm"])
            params.check_problem(StackedObjective(objs))
        baseline, base = None, norm["baseline"]
        if base["enabled"]:
            with _errors_at("baseline"):
                baseline = RGFParams(step_scale=base["step_scale"], mu=base["mu"])
        vars(self).update(
            normalized=norm, canonical=_canonical(norm), name=norm["name"], topology=topo,
            objectives=objs, params=params, modes=tuple(norm["algorithm"]["modes"]),
            baseline=baseline, trials=norm["trials"],
            workers=None if norm["workers"] == "auto" else norm["workers"],
            output_dir=Path(norm["output_dir"]),
        )

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()


def _canonical(norm: dict) -> str:
    return json.dumps(norm, sort_keys=True, separators=(",", ":"))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate and resolve a config dictionary. Raises ConfigError with a
    dotted field path on the first problem found."""
    return ExperimentConfig(raw)


def load_config(path: str | Path) -> ExperimentConfig:
    raw = _json_file(Path(path), "config")
    override = os.environ.get(ENV_OUTPUT_DIR)
    if override and isinstance(raw, dict):
        raw["output_dir"] = override
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# Persistence


def _write_trace_csv(path: Path, rows: dict[str, list[MetricRecord]], trial: int) -> None:
    lines = [CSV_HEADER]
    for method in ("primal_dual", "rgf"):
        for rec in rows.get(method, []):
            vals = ",".join(f"{getattr(rec, c):.17g}" for c in _COLUMNS)
            lines.append(f"{method},{trial},{rec.iteration},{vals}")
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
            try:
                if len(parts) != len(_KEYS) + len(_COLUMNS):
                    raise ValueError(f"{len(parts)} cells")
                row = dict(zip(_KEYS, (parts[0], int(parts[1]), int(parts[2]))))
                rows.append(row | {c: float(v) for c, v in zip(_COLUMNS, parts[3:])})
            except ValueError as exc:
                raise ValueError(f"malformed CSV row in {path}: {line!r}: {exc}") from None
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


def _trial_mean(trials: list[list[MetricRecord]]) -> list[MetricRecord]:
    """The trials' rows averaged column by column on their common iteration grid."""
    iters = [r.iteration for r in trials[0]]
    if any([r.iteration for r in recs] != iters for recs in trials[1:]):
        raise RuntimeError("trials produced mismatched iteration grids")
    cols = [np.array([[getattr(r, c) for r in t] for t in trials]).mean(axis=0) for c in _COLUMNS]
    return [MetricRecord(it, *vals) for it, *vals in zip(iters, *cols)]


@dataclass
class ExperimentResult:
    """In-memory view of a finished experiment plus the files it wrote."""

    output_dir: Path
    meta: dict
    records: dict[str, list[list[MetricRecord]]]
    mean: dict[str, list[MetricRecord]]


class _Stopped(Exception):
    """A pooled trial ended early because the experiment stopped."""


def _run_one_trial(
    cfg: ExperimentConfig, mats: NetworkMatrices, out_dir: Path, trial: int
) -> dict[str, list[MetricRecord]]:
    """Run one trial of every configured method and write its trace CSV.

    Each listed engine mode runs once. The rows come from the centralized
    run when it is listed, else from the distributed one; with both listed,
    the distributed run replays the centralized result, checked bit for bit
    every round. Every method streams its rows a graded block at a time, at
    most 8192 // (N M) rows, and grades the last block before a failure is
    raised, so a failed trial's CSV keeps every row up to the failure, and
    the error counts them. In a pool worker a row that finds the experiment
    stopped ends the trial, one block after its iteration at most."""
    rows: dict[str, list[MetricRecord]] = {}

    def stream(method: str) -> Callable[[MetricRecord], None]:
        out = rows[method] = []

        def emit(rec: MetricRecord) -> None:
            out.append(rec)
            if _stop is not None and _stop.is_set():
                raise _Stopped

        return emit

    csv_path = out_dir / f"trial_{trial:03d}.csv"
    problem = (cfg.topology, cfg.objectives, cfg.params)
    emit = stream("primal_dual")
    try:
        cen = None
        if "centralized" in cfg.modes:
            cen = run_centralized(*problem, trial, mats, on_record=emit)
        if "distributed" in cfg.modes:
            run_distributed(*problem, trial, mats, emit if cen is None else None, reference=cen)
        if cfg.baseline is not None:
            run_rgf(*problem, cfg.baseline, trial, mats, on_record=stream("rgf"))
    except _Stopped:
        raise
    except Exception as exc:
        count = sum(map(len, rows.values()))
        raise RuntimeError(f"trial {trial} failed after {count} rows: {exc}") from exc
    finally:
        # a failed trial's file keeps whatever it produced
        _write_trace_csv(csv_path, rows, trial)
    return rows


_stop = None  # set in each pool worker only, by _join_pool: the experiment's stop event


def _join_pool(stop) -> None:
    global _stop
    _stop = stop


def _pooled_trial(run_trial: Callable, trial: int):
    """run_trial(trial) in a pool worker; None, without running it, once
    the experiment has stopped."""
    return None if _stop.is_set() else run_trial(trial)


def _versions() -> dict:
    from . import __version__

    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all trials, write per-trial and averaged CSVs, meta.json, plot.gp."""
    if _canonical(cfg.normalized) != cfg.canonical:
        raise ValueError(
            "cfg.normalized was edited in place, so it no longer describes the built "
            "objects; change a config with dataclasses.replace(cfg, normalized=...)"
        )
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    methods = ["primal_dual"] + (["rgf"] if cfg.baseline is not None else [])

    workers = cfg.workers if cfg.workers is not None else (os.cpu_count() or 1)
    workers = min(workers, cfg.trials)
    # Pool workers receive the resolved config itself, pickled, so a config
    # built or changed in code runs the same at any worker count.
    run_trial = partial(_run_one_trial, cfg, build_matrices(cfg.topology), out)
    if workers > 1:
        # The first failure stops the experiment: trials still queued are
        # cancelled, or skipped when a worker already holds them, running
        # trials end at their next row, and the lowest-numbered failure
        # that was not such a stop is raised.
        stop = multiprocessing.Event()
        with ProcessPoolExecutor(workers, initializer=_join_pool, initargs=(stop,)) as pool:
            futures = [pool.submit(_pooled_trial, run_trial, t) for t in range(cfg.trials)]
            try:
                wait(futures, return_when=FIRST_EXCEPTION)
            finally:
                stop.set()
                pool.shutdown(cancel_futures=True)
        for f in futures:
            if not f.cancelled() and not isinstance(f.exception(), (type(None), _Stopped)):
                raise f.exception()
        trial_rows = [f.result() for f in futures]
    else:
        trial_rows = list(map(run_trial, range(cfg.trials)))
    per_trial = {m: [rows[m] for rows in trial_rows] for m in methods}

    # single-threaded merge: averaged trace, metadata, plot script
    mean = {m: _trial_mean(per_trial[m]) for m in methods}
    _write_trace_csv(out / "mean.csv", mean, -1)

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

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    samples = [math.ceil(math.sqrt(t)) for t in horizons]
    mean_gaps = []
    run_dirs = []
    for t, j in zip(horizons, samples):
        raw = copy.deepcopy(cfg.normalized)
        raw["algorithm"]["iters"] = t
        raw["algorithm"]["samples"] = j
        raw["output_dir"] = str(out / f"T{t}")
        res = run_experiment(config_from_dict(raw))
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
    """Check the sufficient step-size conditions on the constants a run of
    the configured problem derives, without running it."""
    stacked, mats = StackedObjective(cfg.objectives), build_matrices(cfg.topology)
    return validate_params(cfg.params.analysis_constants(stacked, mats))


def report_text(report: ParamConditionReport) -> str:
    def flag(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    consts = report.constants
    return "\n".join(
        [
            "step-size condition report",
            f"  smoothed-gradient lipschitz L1   {consts.l1:.6g}",
            f"  connectivity sigma_min           {consts.sigma_min:.6g}",
            f"  signless laplacian norm          {consts.lplus_norm:.6g}",
            f"  c  = {consts.c:.6g}   required > {report.required_c:.6g}   [{flag(report.valid_c)}]",
            f"  rho = {consts.rho:.6g}   required > {report.required_rho:.6g}   [{flag(report.valid_rho)}]",
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
