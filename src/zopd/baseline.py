"""Gradient-free consensus baseline: mixing plus a diminishing estimator step.

Each round every agent averages with its neighbors through a
Metropolis-Hastings mixing matrix and subtracts a single-sample two-point
gradient estimate scaled by step_scale / sqrt(round):

    x_i+ = proj_box_i( sum_j W_ij x_j - (step_scale / sqrt(r)) g_i )

This is a qualitative comparison method; its trace reuses the primal-dual
gap and potential functionals evaluated at a zero dual, so the two methods'
CSV traces overlay directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import (
    ROLE_BASELINE_METER,
    ROLE_BASELINE_STEP,
    AlgoParams,
    RunResult,
    _drive,
    _prepare,
)
from .graph import ConfigError, NetworkMatrices, Topology, build_matrices, scatter_add
from .metrics import MetricRecord
from .objectives import LocalObjective
from .szo import SmoothingParams

__all__ = ["RGFParams", "mixing_coupling", "build_mixing", "apply_mixing", "rgf_step", "run_rgf"]


@dataclass(frozen=True)
class RGFParams:
    """Baseline knobs: step-size scale and smoothing radius. The horizon is
    the algorithm's total_iters."""

    step_scale: float = 1.0
    mu: float = 1e-2

    def __post_init__(self):
        if not self.step_scale > 0:
            raise ConfigError("step_scale", f"must be positive, got {self.step_scale!r}")
        if not self.mu > 0:
            raise ConfigError("mu", f"must be positive, got {self.mu!r}")


def mixing_coupling(mats: NetworkMatrices) -> np.ndarray:
    """Metropolis-Hastings weights W_ij = 1 / (1 + max(d_i, d_j)), one per
    incidence-list entry (node i, neighbor j), as an (entries, 1) column."""
    return 1.0 / (1.0 + np.maximum(mats.degree[mats.node], mats.degree[mats.neighbor]))[:, None]


def build_mixing(topo: Topology) -> np.ndarray:
    """The dense Metropolis-Hastings matrix: mixing_coupling off the
    diagonal, the diagonal filled to make rows sum to one. Symmetric, doubly
    stochastic. Rejects a disconnected topology, as build_matrices does."""
    mats = build_matrices(topo)
    w = np.zeros((topo.num_nodes, topo.num_nodes))
    w[mats.node, mats.neighbor] = mixing_coupling(mats)[:, 0]
    w[np.diag_indices_from(w)] = 1.0 - w.sum(axis=1)
    return w


def apply_mixing(coupling: np.ndarray, mats: NetworkMatrices, blocks: np.ndarray) -> np.ndarray:
    """Difference-form mixing: x_i + sum_j W_ij (x_j - x_i), with coupling
    the mixing_coupling column.

    Equal to W x row by row, but consensual inputs are fixed points exactly
    (every difference vanishes), which the dense product cannot guarantee in
    floating point. Each node's own block comes first in its row, then its
    terms in edge order, through the same scatter_add and incidence list as
    the primal-dual engines.
    """
    diffs = coupling * (blocks.take(mats.neighbor, 0) - blocks.take(mats.node, 0))
    index = np.concatenate((np.arange(blocks.size), mats.sum_index))
    return scatter_add(index, np.concatenate((blocks, diffs)), len(blocks))


def rgf_step(
    blocks: np.ndarray,
    grads: np.ndarray,
    coupling: np.ndarray,
    mats: NetworkMatrices,
    step_scale: float,
    round_index: int,
) -> np.ndarray:
    """One baseline round, mixing with the mixing_coupling column over the
    run's operators mats; round_index counts from 1 for the 1/sqrt decay."""
    if round_index < 1:
        raise ValueError("round_index counts from 1")
    step = step_scale / math.sqrt(round_index)
    return apply_mixing(coupling, mats, blocks) - step * grads


def run_rgf(
    topo: Topology,
    objectives: list[LocalObjective],
    params: AlgoParams,
    rgf: RGFParams,
    trial: int = 0,
    mats: NetworkMatrices | None = None,
    on_record: Callable[[MetricRecord], None] | None = None,
) -> RunResult:
    """Baseline trial sharing the algorithm's init stream (same x^0) but its
    own estimator substreams. Each round ends by projecting every agent onto
    its domain box. The dual is identically zero in every record. on_record
    receives the rows a graded block at a time, the failing round's row
    included."""
    roles, single = (ROLE_BASELINE_STEP, ROLE_BASELINE_METER), SmoothingParams(rgf.mu, 1)
    ctx = _prepare(topo, objectives, params, trial, mats, roles, single)
    coupling = mixing_coupling(ctx.mats)

    def step(x, lam, r):
        blocks = ctx.stacked.blocks(x)
        grads = ctx.estimate(blocks, r)[0]
        mixed = rgf_step(blocks, grads, coupling, ctx.mats, rgf.step_scale, r + 1)
        x_new = np.clip(mixed, ctx.stacked.box_lo, ctx.stacked.box_hi)
        return x_new.reshape(-1), lam, grads.reshape(-1)

    return _drive(ctx, params, trial, step, "rgf", None, on_record=on_record)
