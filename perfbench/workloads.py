"""Seeded inputs and experiment configs for the three benchmark workloads.

Every input the program receives is generated here from the benchmark's seed:
the edge lists (passed as ``topology.edges``), the logistic-regression data
(written as per-agent CSVs and read through ``objective.data_dir``), the
quadratic's Hessian and linear term, and every seed inside the config. The
same seed always gives the same config and the same files.

Each workload also carries its own reference formulas (edge list, objective
values), which the correctness checks use instead of the program's code.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("toy-pool", "logreg", "ring-scale")

# Mixed into the seed so that the workloads draw unrelated streams.
_KEYS = {"toy-pool": 101, "logreg": 202, "ring-scale": 303}


@dataclass
class Workload:
    """A generated experiment: the raw config plus what the checks need."""

    name: str
    raw: dict
    edges: list[tuple[int, int]]
    num_nodes: int
    block_dim: int
    # Sum over agents of the local objective, from the workload's own formula;
    # takes the stacked point reshaped to (num_nodes, block_dim).
    objective: Callable[[np.ndarray], float] = field(repr=False)

    @property
    def iters(self) -> int:
        return self.raw["algorithm"]["iters"]

    @property
    def trials(self) -> int:
        return self.raw["trials"]

    @property
    def rho(self) -> float:
        return self.raw["algorithm"]["rho"]

    @property
    def methods(self) -> list[str]:
        return ["primal_dual"] + (["rgf"] if self.raw["baseline"]["enabled"] else [])

    @property
    def executions(self) -> int:
        """Engine modes plus the baseline: the runs each trial makes."""
        return len(self.raw["algorithm"]["modes"]) + int(self.raw["baseline"]["enabled"])

    @property
    def agent_iters(self) -> int:
        """Agents x iterations x trials x executions of one experiment."""
        return self.num_nodes * self.iters * self.trials * self.executions

    def with_run(self, output_dir: Path, trials: int | None = None, workers: int | None = None) -> dict:
        """The raw config pointed at output_dir, optionally resized or made serial."""
        raw = copy.deepcopy(self.raw)
        raw["output_dir"] = str(output_dir)
        if trials is not None:
            raw["trials"] = trials
        if workers is not None:
            raw["workers"] = workers
        return raw


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), _KEYS[name])))


def random_connected_edges(n: int, extra: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """A random spanning tree on nodes 1..n plus `extra` other pairs drawn at
    random. The edge count is fixed so that the work per iteration, which
    grows with the edges, is the same for every seed."""
    order = rng.permutation(n) + 1
    edges = set()
    for k in range(1, n):
        a, b = int(order[k]), int(order[rng.integers(k)])
        edges.add((min(a, b), max(a, b)))
    rest = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in edges]
    edges.update(rest[k] for k in rng.choice(len(rest), size=extra, replace=False))
    return sorted(edges)


def _toy(seed: int, data_dir: Path) -> Workload:
    rng = _rng("toy-pool", seed)
    n = 10
    edges = random_connected_edges(n, 6, rng)

    def objective(xb: np.ndarray) -> float:
        x = xb[:, 0]
        return float(np.sum(np.abs(np.cos(x) + np.abs(x) + np.exp(x))))

    raw = {
        "name": "perfbench-toy-pool",
        "topology": {"num_nodes": n, "block_dim": 1, "edges": [list(e) for e in edges]},
        "objective": {"kind": "toy", "box": [-5.0, 5.0]},
        "algorithm": {
            "rho": 600.0, "mu": 0.01, "samples": 120, "iters": 200,
            "seed": int(rng.integers(2**31)), "init": [-2.0, 2.0],
            "gap_gradient": "closed_form", "modes": ["centralized", "distributed"],
        },
        # Replica A's step_scale of 0.1 lets a single-sample RGF estimate throw
        # an agent out of the box on some seeds; 0.02 keeps every seed inside.
        "baseline": {"enabled": True, "step_scale": 0.02, "mu": 0.01},
        "trials": 4,
        "workers": 2,
    }
    return Workload("toy-pool", raw, edges, n, 1, objective)


def _logreg(seed: int, data_dir: Path) -> Workload:
    rng = _rng("logreg", seed)
    n, m, batch, alpha, eps = 15, 10, 100, 0.1, 1e-3
    edges = random_connected_edges(n, 9, rng)
    planted = np.zeros(m)
    support = rng.choice(m, size=math.ceil(m / 4), replace=False)
    planted[support] = rng.uniform(0.5, 1.5, support.size) * rng.choice([-1.0, 1.0], support.size)
    features, labels = [], []
    data_dir.mkdir(parents=True, exist_ok=True)
    for i in range(n):
        v = rng.standard_normal((batch, m))
        y = np.where(v @ planted >= 0.0, 1.0, -1.0)
        y[rng.uniform(size=batch) < 0.05] *= -1.0
        features.append(v)
        labels.append(y)
        lines = [",".join(f"{c:.17g}" for c in (y[k], *v[k])) for k in range(batch)]
        (data_dir / f"agent_{i + 1:03d}.csv").write_text("\n".join(lines) + "\n")
    feats = np.stack(features)  # (n, batch, m)
    lbls = np.stack(labels)  # (n, batch)
    scale = 1.0 / (n * batch)

    def objective(xb: np.ndarray) -> float:
        margins = lbls * np.einsum("nbm,nm->nb", feats, xb)
        # log(1 + exp(-m)) written stably as softplus(-m)
        loss = np.sum(np.maximum(-margins, 0.0) + np.log1p(np.exp(-np.abs(margins))), axis=1)
        reg = alpha * np.log(eps + np.sum(np.abs(xb), axis=1))
        return float(np.sum(scale * (loss + reg)))

    raw = {
        "name": "perfbench-logreg",
        "topology": {"num_nodes": n, "block_dim": m, "edges": [list(e) for e in edges]},
        "objective": {"kind": "logreg", "alpha": alpha, "epsilon": eps, "data_dir": str(data_dir)},
        "algorithm": {
            "rho": 2.0, "mu": 0.01, "samples": 30, "iters": 100,
            "seed": int(rng.integers(2**31)), "init": [-1.0, 1.0],
            "gap_gradient": "estimator", "modes": ["centralized"],
        },
        "baseline": {"enabled": True, "step_scale": 0.5, "mu": 0.01},
        "trials": 2,
        "workers": 1,
    }
    return Workload("logreg", raw, edges, n, m, objective)


def _ring(seed: int, data_dir: Path) -> Workload:
    rng = _rng("ring-scale", seed)
    n, m = 400, 10
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    g = rng.standard_normal((m, m))
    h = g @ g.T / m + 0.5 * np.eye(m)
    h = 0.5 * (h + h.T)
    b = rng.standard_normal(m)

    def objective(xb: np.ndarray) -> float:
        return float(np.sum(0.5 * np.einsum("nm,mk,nk->n", xb, h, xb) + xb @ b))

    raw = {
        "name": "perfbench-ring-scale",
        "topology": {"num_nodes": n, "block_dim": m, "edges": [list(e) for e in edges]},
        "objective": {
            "kind": "quadratic", "box": [-50.0, 50.0],
            "hessian": h.tolist(), "linear": b.tolist(),
        },
        "algorithm": {
            "rho": 6.0, "mu": 0.05, "samples": 4, "iters": 10,
            "seed": int(rng.integers(2**31)), "init": [-1.0, 1.0],
            "noise": {"kind": "additive_gaussian", "std_dev": 0.01},
            "modes": ["centralized"],
        },
        "baseline": {"enabled": True, "step_scale": 0.05, "mu": 0.05},
        "trials": 1,
        "workers": 1,
    }
    return Workload("ring-scale", raw, edges, n, m, objective)


_MAKERS = {"toy-pool": _toy, "logreg": _logreg, "ring-scale": _ring}


def make(name: str, seed: int, data_dir: Path) -> Workload:
    """Generate the workload's inputs for seed; data files go under data_dir."""
    if name not in _MAKERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    return _MAKERS[name](seed, Path(data_dir))
