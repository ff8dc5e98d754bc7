"""Stochastic zeroth-order oracle and the two-point smoothed-gradient estimator.

A gradient estimate at x draws, per sample, a Gaussian direction phi and one
noise realization xi shared by the two oracle queries of that sample:

    g_j = (H(x + mu phi_j, xi_j) - H(x, xi_j)) / mu * phi_j

and averages the batch. `estimate_batch` does this for N agents under one
NoiseModel from one (N, J, M + k) draw, agent i owning row i, with one
StackedObjective.values call and no per-agent object.
`measure_gradient_and_value` is its N = 1 view, charging 2 J queries to its
SZOracle, which only counts queries, and `estimate_gradient` that view's
gradient. The terms g_j have one formula, `_two_point`;
`smoothed_gradient_mc` sums their squares too. Every routine draws through
one primitive, `_draw`, in one fixed order per agent: per sample phi, then a
fresh phi for each in-box retry, then xi unless the noise kind is 'none' (a
std_dev of 0.0 still draws). Retries past the end of an agent's row draw
from its retry generator, for the N = 1 views their own generator. So a
batch of J samples consumes the stream exactly as J consecutive
single-sample calls do, and the batch mean is bitwise the mean of those
single-sample estimates, near the domain boundary too. A draw holds at most
`_MC_CHUNK` rows (agents x samples); a larger estimate takes several, each
agent continuing one retry stream across them.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import ConfigError
from .objectives import LocalObjective, StackedObjective

__all__ = [
    "NoiseModel",
    "SmoothingParams",
    "SZOracle",
    "BoxExhausted",
    "OutsideBox",
    "estimate_batch",
    "estimate_gradient",
    "measure_gradient_and_value",
    "smoothed_value",
    "smoothed_gradient_mc",
    "estimator_norm_diagnostic",
]


@dataclass(frozen=True)
class NoiseModel:
    """Additive query noise; kind 'none' consumes no rng draws."""

    kind: str = "none"
    std_dev: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "additive_gaussian"):
            raise ConfigError("kind", f"unknown noise kind {self.kind!r}")
        if not self.std_dev >= 0:
            raise ConfigError("std_dev", f"must be nonnegative, got {self.std_dev!r}")
        if self.kind == "none" and self.std_dev != 0.0:
            raise ValueError("noise kind 'none' cannot carry a std_dev")


@dataclass(frozen=True)
class SmoothingParams:
    """Gaussian smoothing radius mu and per-estimate sample count."""

    mu: float
    samples: int

    def __post_init__(self):
        if not self.mu > 0:
            raise ConfigError("mu", f"must be positive, got {self.mu!r}")
        if self.samples < 1:
            raise ConfigError("samples", f"must be >= 1, got {self.samples!r}")


class SZOracle:
    """One agent's objective and noise model, and the queries charged to it."""

    def __init__(self, objective: LocalObjective, noise: NoiseModel = NoiseModel()):
        self.objective = objective
        self.noise = noise
        self.query_count = 0


class BoxExhausted(RuntimeError):
    """One agent's smoothing perturbation kept leaving its domain box."""

    def __init__(self, agent: int, tries: int):
        super().__init__(agent, tries)
        self.agent, self.tries = agent, tries

    def __str__(self) -> str:
        return (
            f"smoothing perturbation left the domain box {self.tries} times; "
            "move the point away from the boundary or shrink mu"
        )


class OutsideBox(ValueError):
    """One agent's query point lies outside its domain box."""

    def __init__(self, agent: int):
        super().__init__(agent)
        self.agent = agent

    def __str__(self) -> str:
        return f"query point of agent {self.agent + 1} outside the domain box"


def _walk(lo, hi, x, mu, row, more, retry_cap, agent):
    """One agent's (count, dim + k) row re-read in per-sample order: phi, a
    fresh phi per box retry, then the k noise values. Values past the row's
    end come from more(n). Returns the row as it is used."""
    count, width = row.shape
    dim, head = x.size, row.reshape(-1)
    used = np.empty_like(row)

    def take(n: int) -> np.ndarray:
        nonlocal head
        got, head = head[:n], head[n:]
        return got if got.size == n else np.concatenate([got, more(n - got.size)])

    for s in range(count):
        phi, tries = take(dim), 0
        while not (np.all(x + mu * phi >= lo) and np.all(x + mu * phi <= hi)):
            tries += 1
            if tries > retry_cap:
                raise BoxExhausted(agent, tries)
            phi = take(dim)
        used[s, :dim], used[s, dim:] = phi, take(width - dim)
    return used


def _draw(
    lo: np.ndarray,
    hi: np.ndarray,
    noise: NoiseModel,
    xb: np.ndarray,
    mu: float,
    count: int,
    rng: np.random.Generator,
    retry_rng: Callable[[int], np.random.Generator],
    retry_cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one sampling primitive: count in-box directions with their noise
    for each of N agents at points xb (N, M) in boxes lo, hi (N, M).

    Returns phis (N, count, M), xis (N, count) and the points xb + mu phis.
    Row i of one standard_normal((N, count, M + k)) block is agent i's
    stream; a row with an out-of-box point is walked, continuing from
    retry_rng(i). Every caller's points are checked here: a misshapen xb
    raises ValueError, and a point outside its box raises OutsideBox naming
    the first such agent.
    """
    if xb.shape != lo.shape:
        raise ValueError(f"points must have shape {lo.shape}")
    inside = (xb >= lo) & (xb <= hi)
    if not inside.all():
        raise OutsideBox(int(np.argmin(inside.all(axis=1))))
    n, m = xb.shape
    with_noise = noise.kind != "none"
    block = rng.standard_normal((n, count, m + with_noise))
    phis = block[..., :m] if with_noise else block
    pts = xb[:, None, :] + mu * phis
    inside = (pts >= lo[:, None, :]) & (pts <= hi[:, None, :])
    if not inside.all():
        for i in np.flatnonzero(~inside.all(axis=(1, 2))):
            more = retry_rng(i).standard_normal
            block[i] = _walk(lo[i], hi[i], xb[i], mu, block[i], more, retry_cap, i)
        pts = xb[:, None, :] + mu * phis
    xis = noise.std_dev * block[..., m] if with_noise else np.zeros((n, count))
    return phis, xis, pts


_MC_CHUNK = 1 << 13  # rows (agents x samples) per draw


def _draws(stacked, noise, xb, mu, count, rng, retry_rng, retry_cap):
    """_two_point of count samples per agent, in draws of at most _MC_CHUNK
    rows (one sample per agent at least). Agent i's box retries continue one
    retry_rng(i) stream across the draws."""
    lo, hi, retry = stacked.box_lo, stacked.box_hi, functools.cache(retry_rng)
    per = max(1, _MC_CHUNK // len(xb))
    for done in range(0, count, per):
        d = _draw(lo, hi, noise, xb, mu, min(per, count - done), rng, retry, retry_cap)
        yield _two_point(stacked, xb, mu, *d)


def estimate_batch(
    stacked: StackedObjective,
    noise: NoiseModel,
    xb: np.ndarray,
    smoothing: SmoothingParams,
    rng: np.random.Generator,
    retry_rng: Callable[[int], np.random.Generator],
    retry_cap: int = 100,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-point estimates for N agents from one draw; agent i's box retries
    continue from retry_rng(i).

    Every agent queries its row of stacked under the one noise model, two
    queries per sample sharing xi (2 J per agent; box retries are not
    queries). A J too large for one draw takes several (see _draws), each
    with one StackedObjective.values call. Returns the (N, M) batch-averaged
    gradients, the (N, J) noisy perturbed values and the (N,) noise-free
    values f_i(xb[i]). Raises BoxExhausted naming the agent whose retries
    ran out.
    """
    mu, j = smoothing.mu, smoothing.samples
    # a lone draw skips _draws' generator and retry cache, a tenth of a small call's time
    if len(xb) * j <= _MC_CHUNK:
        d = _draw(stacked.box_lo, stacked.box_hi, noise, xb, mu, j, rng, retry_rng, retry_cap)
        terms, noisy, base = _two_point(stacked, xb, mu, *d)
        return terms.sum(axis=1) / j, noisy, base
    draws = _draws(stacked, noise, xb, mu, j, rng, retry_rng, retry_cap)
    sums, noisy, base = zip(*((terms.sum(axis=1), vals, b) for terms, vals, b in draws))
    return functools.reduce(np.add, sums) / j, np.concatenate(noisy, axis=1), base[-1]


def _two_point(stacked, xb, mu, phis, xis, pts):
    """One draw's (N, count, M) terms ((noisy(x + mu phi) - noisy(x)) / mu) phi,
    its (N, count) noisy perturbed values and the (N,) noise-free values at
    xb, from one StackedObjective.values call. The noise-free values are a
    copy, so a run that keeps them for its trace does not keep the call's
    (N, count + 1) values."""
    count = xis.shape[1]
    vals = stacked.values(np.concatenate([pts, xb[:, None, :]], axis=1))
    noisy = vals[:, :count] + xis
    diffs = noisy - (vals[:, count:] + xis)
    return (diffs / mu)[:, :, None] * phis, noisy, vals[:, count].copy()


def estimate_gradient(
    oracle: SZOracle,
    x: np.ndarray,
    smoothing: SmoothingParams,
    rng: np.random.Generator,
    retry_cap: int = 100,
) -> np.ndarray:
    """Batch-averaged two-point estimate of the smoothed gradient at x."""
    return measure_gradient_and_value(oracle, x, smoothing, rng, retry_cap)[0]


def measure_gradient_and_value(
    oracle: SZOracle,
    x: np.ndarray,
    smoothing: SmoothingParams,
    rng: np.random.Generator,
    retry_cap: int = 100,
) -> tuple[np.ndarray, float]:
    """Gradient estimate plus an unbiased smoothed-value estimate from the
    same samples (mean of the perturbed noisy values): the N = 1 view of
    estimate_batch, retrying from rng itself and charging 2 J queries."""
    xb = np.asarray(x, dtype=float)[None]
    stacked = StackedObjective([oracle.objective])
    grads, noisy, _ = estimate_batch(
        stacked, oracle.noise, xb, smoothing, rng, lambda i: rng, retry_cap
    )
    oracle.query_count += 2 * smoothing.samples
    return grads[0], float(np.mean(noisy[0]))


def smoothed_value(
    oracle: SZOracle,
    x: np.ndarray,
    mu: float,
    mc_samples: int,
    rng: np.random.Generator,
    retry_cap: int = 100,
) -> float:
    """Monte-Carlo estimate of E_phi[f(x + mu phi)] from noisy queries: the
    value of measure_gradient_and_value at mc_samples samples, charging only
    the mc_samples perturbed queries."""
    probe = SZOracle(oracle.objective, oracle.noise)
    _, value = measure_gradient_and_value(probe, x, SmoothingParams(mu, mc_samples), rng, retry_cap)
    oracle.query_count += mc_samples
    return value


def smoothed_gradient_mc(
    objective: LocalObjective,
    x: np.ndarray,
    mu: float,
    mc_samples: int,
    rng: np.random.Generator,
    retry_cap: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free Monte-Carlo reference of the smoothed gradient.

    Averages the noise-free two-point terms of the N = 1 draws, retrying
    from rng itself; returns (estimate, per-coordinate standard error).
    """
    SmoothingParams(mu, mc_samples)  # checked before the first draw
    xb = np.asarray(x, dtype=float)[None]
    stacked = StackedObjective([objective])
    acc = acc_sq = 0.0
    draws = _draws(stacked, NoiseModel(), xb, mu, mc_samples, rng, lambda i: rng, retry_cap)
    for terms, _, _ in draws:
        g = terms[0]
        acc += np.sum(g, axis=0)
        acc_sq += np.sum(g * g, axis=0)
    mean = acc / mc_samples
    var = np.maximum(acc_sq / mc_samples - mean**2, 0.0)
    return mean, np.sqrt(var / mc_samples)


def estimator_norm_diagnostic(
    oracle: SZOracle,
    x: np.ndarray,
    smoothing: SmoothingParams,
    replicates: int,
    rng: np.random.Generator,
    reference_grad: np.ndarray | None = None,
) -> dict:
    """Empirical second moments of the estimator across replicates.

    Reports the mean squared norm E||g||^2 and mean squared deviation
    E||g - grad_mu||^2 with standard errors, alongside the claimed bound
    L0^2 (dim+4)^2 / J^2 for side-by-side inspection. Without reference_grad,
    grad_mu is the objective's closed form where it has one, else a 10^4
    sample Monte-Carlo reference drawn from rng first.
    """
    if replicates < 100:
        raise ValueError("need at least 100 replicates")
    obj = oracle.objective
    if reference_grad is None:
        stacked = StackedObjective([obj])
        if stacked.has_smoothed_closed_form:
            reference_grad = stacked.smoothed_gradient_stacked(x, smoothing.mu)
        else:
            reference_grad = smoothed_gradient_mc(obj, x, smoothing.mu, 10**4, rng)[0]
    reference_grad = np.asarray(reference_grad, dtype=float)
    sq_norms = np.empty(replicates)
    sq_devs = np.empty(replicates)
    for r in range(replicates):
        g = estimate_gradient(oracle, x, smoothing, rng)
        sq_norms[r] = float(g @ g)
        d = g - reference_grad
        sq_devs[r] = float(d @ d)
    bound = obj.lipschitz_l0**2 * (obj.dim + 4) ** 2 / smoothing.samples**2
    return {
        "mean_sq_norm": float(np.mean(sq_norms)),
        "mean_sq_norm_se": float(np.std(sq_norms, ddof=1) / np.sqrt(replicates)),
        "mean_sq_deviation": float(np.mean(sq_devs)),
        "mean_sq_deviation_se": float(np.std(sq_devs, ddof=1) / np.sqrt(replicates)),
        "theoretical_bound": float(bound),
        "replicates": replicates,
        "samples": smoothing.samples,
    }
