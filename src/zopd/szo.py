"""Stochastic zeroth-order oracle and the two-point smoothed-gradient estimator.

A gradient estimate at x draws, per sample, a Gaussian direction phi and one
noise realization xi shared by the two oracle queries of that sample:

    g_j = (H(x + mu phi_j, xi_j) - H(x, xi_j)) / mu * phi_j

and averages the batch. Every routine here draws through one primitive,
`_sample`, in one fixed order: per sample phi, then a fresh phi for each
in-box retry, then xi unless the noise kind is 'none' (a std_dev of 0.0 still
draws). So a batch of J samples consumes the rng stream exactly as J
consecutive single-sample calls do, and the batch mean is bitwise the mean of
those single-sample estimates, near the domain boundary too. The Monte-Carlo
surrogates draw the same way, one chunk at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import LocalObjective

__all__ = [
    "NoiseModel",
    "SmoothingParams",
    "SZOracle",
    "estimate_gradient",
    "measure_gradient_and_value",
    "smoothed_value",
    "smoothed_gradient_mc",
    "smoothed_gradient_reference",
    "estimator_norm_diagnostic",
]


@dataclass(frozen=True)
class NoiseModel:
    """Additive query noise; kind 'none' consumes no rng draws."""

    kind: str = "none"
    std_dev: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "additive_gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.std_dev < 0:
            raise ValueError("std_dev must be nonnegative")
        if self.kind == "none" and self.std_dev != 0.0:
            raise ValueError("noise kind 'none' cannot carry a std_dev")

    def draw(self, rng: np.random.Generator) -> float:
        if self.kind == "none":
            return 0.0
        return self.std_dev * rng.standard_normal()


@dataclass(frozen=True)
class SmoothingParams:
    """Gaussian smoothing radius mu and per-estimate sample count."""

    mu: float
    samples: int

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


class SZOracle:
    """Noisy value access to one local objective, restricted to its box."""

    def __init__(self, objective: LocalObjective, noise: NoiseModel = NoiseModel()):
        self.objective = objective
        self.noise = noise
        self.query_count = 0

    def query(self, x: np.ndarray, rng: np.random.Generator) -> float:
        x = np.asarray(x, dtype=float)
        if not self.objective.box.contains(x):
            raise ValueError("query point outside the domain box")
        self.query_count += 1
        return self.objective.value(x) + self.noise.draw(rng)


def _checked_point(objective: LocalObjective, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (objective.dim,):
        raise ValueError(f"point must have shape ({objective.dim},)")
    if not objective.box.contains(x):
        raise ValueError("query point outside the domain box")
    return x


def _sample(
    objective: LocalObjective,
    noise: NoiseModel,
    x: np.ndarray,
    mu: float,
    count: int,
    rng: np.random.Generator,
    retry_cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one sampling primitive: count in-box directions with their noise.

    Returns (phis, xis, f(x + mu phis)) for a checked point x. Per sample the
    stream yields phi, one fresh phi per box retry, then xi when the noise
    model draws (any kind but 'none', std_dev 0.0 included). All
    count*(dim + k) values of the retry-free case come from one flat draw;
    numpy's normal draws concatenate bitwise, so when every point lands in
    the box the block already holds the per-sample order, and otherwise the
    walk below re-reads it in that order and draws past its end only what the
    retries add.
    """
    dim, box = objective.dim, objective.box
    k = int(noise.kind != "none")
    stream = rng.standard_normal(count * (dim + k))
    block = stream.reshape(count, dim + k)
    phis, raw_xis = block[:, :dim], block[:, dim:]
    pts = x + mu * phis
    if not bool(np.all(box.contains_rows(pts))):
        phis, raw_xis = np.empty((count, dim)), np.empty((count, k))
        pos = 0

        def take(n: int) -> np.ndarray:
            nonlocal stream, pos
            if pos + n > stream.size:
                stream = np.concatenate([stream[pos:], rng.standard_normal(pos + n - stream.size)])
                pos = 0
            pos += n
            return stream[pos - n : pos]

        for s in range(count):
            phi = take(dim)
            tries = 0
            while not box.contains(x + mu * phi):
                tries += 1
                if tries > retry_cap:
                    raise RuntimeError(
                        f"smoothing perturbation left the domain box {tries} times; "
                        "move the point away from the boundary or shrink mu"
                    )
                phi = take(dim)
            phis[s] = phi
            raw_xis[s] = take(k)
        pts = x + mu * phis
    xis = noise.std_dev * raw_xis[:, 0] if k else np.zeros(count)
    return phis, xis, objective.value_many(pts)


def _estimate(
    oracle: SZOracle,
    x: np.ndarray,
    smoothing: SmoothingParams,
    rng: np.random.Generator,
    retry_cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch-averaged two-point estimate plus the noisy perturbed values."""
    obj = oracle.objective
    x = _checked_point(obj, x)
    phis, xis, pert_vals = _sample(
        obj, oracle.noise, x, smoothing.mu, smoothing.samples, rng, retry_cap
    )
    base_val = float(obj.value_many(x.reshape(1, obj.dim))[0])
    oracle.query_count += 2 * smoothing.samples  # two queries per sample, shared xi
    diffs = (pert_vals + xis) - (base_val + xis)
    grads = (diffs / smoothing.mu)[:, None] * phis
    return np.mean(grads, axis=0), pert_vals + xis


def estimate_gradient(
    oracle: SZOracle,
    x: np.ndarray,
    smoothing: SmoothingParams,
    rng: np.random.Generator,
    retry_cap: int = 100,
) -> np.ndarray:
    """Batch-averaged two-point estimate of the smoothed gradient at x."""
    return _estimate(oracle, x, smoothing, rng, retry_cap)[0]


def measure_gradient_and_value(
    oracle: SZOracle,
    x: np.ndarray,
    smoothing: SmoothingParams,
    rng: np.random.Generator,
    retry_cap: int = 100,
) -> tuple[np.ndarray, float]:
    """Gradient estimate plus an unbiased smoothed-value estimate from the
    same samples (mean of the perturbed noisy values)."""
    grad, noisy_vals = _estimate(oracle, x, smoothing, rng, retry_cap)
    return grad, float(np.mean(noisy_vals))


def smoothed_value(
    oracle: SZOracle,
    x: np.ndarray,
    mu: float,
    mc_samples: int,
    rng: np.random.Generator,
    retry_cap: int = 100,
    chunk: int = 1 << 16,
) -> float:
    """Monte-Carlo estimate of E_phi[f(x + mu phi)] from noisy queries,
    drawn in chunks of at most `chunk` samples."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    x = _checked_point(oracle.objective, x)
    total = 0.0
    for done in range(0, mc_samples, chunk):
        c = min(chunk, mc_samples - done)
        _, xis, vals = _sample(oracle.objective, oracle.noise, x, mu, c, rng, retry_cap)
        total += float(np.sum(vals + xis))
        oracle.query_count += c
    return total / mc_samples


def smoothed_gradient_mc(
    objective: LocalObjective,
    x: np.ndarray,
    mu: float,
    mc_samples: int,
    rng: np.random.Generator,
    retry_cap: int = 100,
    chunk: int = 1 << 16,
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free Monte-Carlo reference of the smoothed gradient.

    Averages ((f(x + mu phi) - f(x)) / mu) phi; returns (estimate,
    per-coordinate standard error).
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    x = _checked_point(objective, x)
    base = float(objective.value_many(x.reshape(1, objective.dim))[0])
    acc = np.zeros(objective.dim)
    acc_sq = np.zeros(objective.dim)
    for done in range(0, mc_samples, chunk):
        c = min(chunk, mc_samples - done)
        phis, _, vals = _sample(objective, NoiseModel(), x, mu, c, rng, retry_cap)
        g = ((vals - base) / mu)[:, None] * phis
        acc += np.sum(g, axis=0)
        acc_sq += np.sum(g * g, axis=0)
    mean = acc / mc_samples
    var = np.maximum(acc_sq / mc_samples - mean**2, 0.0)
    stderr = np.sqrt(var / mc_samples)
    return mean, stderr


def smoothed_gradient_reference(
    objective: LocalObjective,
    x: np.ndarray,
    mu: float,
    mc_samples: int = 10**4,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Exact closed form when the objective carries one, else Monte-Carlo."""
    if objective.smoothed_gradient is not None:
        return np.asarray(objective.smoothed_gradient(np.asarray(x, dtype=float), mu))
    if rng is None:
        raise ValueError("objective has no closed form; an rng is required for MC")
    return smoothed_gradient_mc(objective, x, mu, mc_samples, rng)[0]


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
    L0^2 (dim+4)^2 / J^2 for side-by-side inspection.
    """
    if replicates < 100:
        raise ValueError("need at least 100 replicates")
    obj = oracle.objective
    if reference_grad is None:
        reference_grad = smoothed_gradient_reference(
            obj, x, smoothing.mu, mc_samples=10**4, rng=rng
        )
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
