"""Analysis diagnostics: stationarity gap, potential function, parameter
conditions, and the 1/T rate fit.

The gap of a primal-dual pair is the squared norm of the augmented-Lagrangian
primal gradient plus the squared consensus residual:

    gap(x, lam) = || grad_mu(x) + A' lam + rho A'A x ||^2 + || A x ||^2

The potential adds a weighted history term to the smoothed augmented
Lagrangian and is the quantity whose descent the step-size conditions certify.

One trace row comes from one A x: trace_row takes the gap, the violation
||A x|| and the potential from it. stationarity_gap, constraint_violation
and potential are views of the same formulas, each computing its own A x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import NetworkMatrices

__all__ = [
    "MetricRecord",
    "AnalysisConstants",
    "ParamConditionReport",
    "RateFitResult",
    "smoothed_lipschitz",
    "default_potential_weight",
    "derive_constants",
    "trace_row",
    "stationarity_gap",
    "constraint_violation",
    "potential",
    "potential_lower_bound",
    "validate_params",
    "rate_fit",
]


@dataclass
class MetricRecord:
    """One trace row, its fields in the CSV's column order."""

    iteration: int
    stationarity_gap: float
    constraint_violation: float
    potential: float
    objective: float


@dataclass(frozen=True)
class AnalysisConstants:
    """Derived constants the potential and validator share.

    l1 is the smoothed-gradient Lipschitz constant 2 l0 sqrt(Q) / mu; k
    weights the iterate-difference term inside the potential's history block.
    """

    l0: float
    l1: float
    mu: float
    total_dim: int
    rho: float
    c: float
    k: float
    sigma_min: float
    lplus_norm: float


def smoothed_lipschitz(l0: float, mu: float, total_dim: int) -> float:
    """L1 = 2 l0 sqrt(Q) / mu, the Lipschitz constant of the smoothed gradient."""
    return 2.0 * l0 * math.sqrt(total_dim) / mu


def default_potential_weight(mats: NetworkMatrices) -> float:
    """Potential weight c when none is configured: 10% above the sufficient
    bound c > 6 ||L+|| / sigma_min."""
    return 1.1 * 6.0 * mats.lplus_norm / mats.sigma_min


def derive_constants(
    l0: float, mu: float, total_dim: int, mats: NetworkMatrices, c: float, rho: float
) -> AnalysisConstants:
    if l0 <= 0 or mu <= 0 or rho <= 0 or c <= 0:
        raise ValueError("l0, mu, rho, c must be positive")
    l1 = smoothed_lipschitz(l0, mu, total_dim)
    k = 2.0 * (6.0 * l1**2 / (rho * mats.sigma_min) + 1.5 * c * l1)
    return AnalysisConstants(
        l0=l0,
        l1=l1,
        mu=mu,
        total_dim=total_dim,
        rho=rho,
        c=c,
        k=k,
        sigma_min=mats.sigma_min,
        lplus_norm=mats.lplus_norm,
    )


def _incidence(mats, x) -> tuple[np.ndarray, float]:
    """A x and ||A x||^2, the one product every functional reads; the norm
    ||A x|| is its square root, as np.linalg.norm computes it."""
    ax = mats.incidence(x)
    return ax, float(ax @ ax)


def _gap(ax, axax, lam_prev, grad_smoothed, mats, rho) -> float:
    # A' lam + rho A'A x, as one scatter of the edge terms
    primal_grad = grad_smoothed + mats.dual_pressure(lam_prev + rho * ax).reshape(-1)
    return float(primal_grad @ primal_grad + axax)


def _potential(ax, axax, x, x_prev, lam, mats, consts, f_mu_value) -> float:
    lagrangian = f_mu_value + float(lam @ ax) + 0.5 * consts.rho * axax
    d = x - x_prev
    b_quad = float(d @ mats.lplus(d)) + (consts.k / (consts.c * consts.rho)) * float(d @ d)
    history = 0.5 * consts.rho * (axax + b_quad)
    return lagrangian + consts.c * history


def trace_row(
    x: np.ndarray, x_prev: np.ndarray, lam_prev: np.ndarray, lam: np.ndarray,
    grad_smoothed: np.ndarray, f_mu_value: float, mats: NetworkMatrices, consts: AnalysisConstants,
) -> tuple[float, float, float]:
    """(gap at (x, lam_prev), ||A x||, potential at (x, lam)) from one A x."""
    ax, axax = _incidence(mats, x)
    gap = _gap(ax, axax, lam_prev, grad_smoothed, mats, consts.rho)
    pot = _potential(ax, axax, x, x_prev, lam, mats, consts, f_mu_value)
    return gap, math.sqrt(axax), pot


def stationarity_gap(
    x: np.ndarray, lam_prev: np.ndarray, grad_smoothed: np.ndarray, mats: NetworkMatrices, rho: float
) -> float:
    return _gap(*_incidence(mats, x), lam_prev, grad_smoothed, mats, rho)


def constraint_violation(x: np.ndarray, mats: NetworkMatrices) -> float:
    return math.sqrt(_incidence(mats, x)[1])


def potential(
    x: np.ndarray, x_prev: np.ndarray, lam: np.ndarray, mats: NetworkMatrices,
    consts: AnalysisConstants, f_mu_value: float,
) -> float:
    return _potential(*_incidence(mats, x), x, x_prev, lam, mats, consts, f_mu_value)


def potential_lower_bound(consts: AnalysisConstants, f_lower: float, samples: int) -> float:
    """Certified floor for the potential along a run with J-sample estimates."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return f_lower - consts.l0 * (consts.total_dim + 4) ** 2 / (consts.sigma_min * samples**2)


@dataclass(frozen=True)
class ParamConditionReport:
    """Sufficient step-size conditions and the descent coefficients.

    alpha2 is reported in both sign conventions; validity rests only on the
    explicit inequalities (required_c, required_rho).
    """

    c: float
    rho: float
    l1: float
    sigma_min: float
    lplus_norm: float
    required_c: float
    required_rho: float
    valid_c: bool
    valid_rho: bool
    valid: bool
    alpha1: float
    alpha2_as_written: float
    alpha2_flipped: float
    alpha3: float


def validate_params(
    l0: float, mu: float, total_dim: int, mats: NetworkMatrices, c: float, rho: float
) -> ParamConditionReport:
    if l0 <= 0 or mu <= 0:
        raise ValueError("l0 and mu must be positive")
    if c <= 0 or rho <= 0:
        raise ValueError("c and rho must be positive")
    l1 = smoothed_lipschitz(l0, mu, total_dim)
    sg, ln = mats.sigma_min, mats.lplus_norm
    required_c = 6.0 * ln / sg
    b = c * l1 + 0.25 * l1 + 0.25 * l1**2 + 0.25
    required_rho = b + math.sqrt(b**2 + 6.0 * l1**2 / sg)
    alpha1 = rho**2 - (2.0 * c * l1 + 0.5 * l1 + 0.5 * l1**2 + 0.5) * rho - 6.0 * l1**2 / sg
    alpha2_written = 3.0 * rho * ln / sg - 0.5 * c * rho
    alpha3 = 9.0 / (rho * sg) + (6.0 * c + 1.0) / l1
    valid_c = c > required_c
    valid_rho = rho > required_rho
    return ParamConditionReport(
        c=c,
        rho=rho,
        l1=l1,
        sigma_min=sg,
        lplus_norm=ln,
        required_c=required_c,
        required_rho=required_rho,
        valid_c=valid_c,
        valid_rho=valid_rho,
        valid=valid_c and valid_rho,
        alpha1=alpha1,
        alpha2_as_written=alpha2_written,
        alpha2_flipped=-alpha2_written,
        alpha3=alpha3,
    )


@dataclass(frozen=True)
class RateFitResult:
    gamma1: float
    constant: float
    rel_residual: float


def rate_fit(horizons: np.ndarray, mean_gaps: np.ndarray) -> RateFitResult:
    """Least-squares fit of mean gap against gamma1 / T + constant."""
    t = np.asarray(horizons, dtype=float)
    y = np.asarray(mean_gaps, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("horizons and mean_gaps must be matching 1-D arrays")
    if t.size < 3:
        raise ValueError("need at least 3 horizon values for the rate fit")
    if np.unique(t).size != t.size:
        raise ValueError("horizon values must be distinct")
    if np.any(t <= 0):
        raise ValueError("horizon values must be positive")
    design = np.column_stack([1.0 / t, np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    denom = float(np.linalg.norm(y))
    rel = float(np.linalg.norm(y - fitted)) / denom if denom > 0 else 0.0
    return RateFitResult(gamma1=float(coef[0]), constant=float(coef[1]), rel_residual=rel)
