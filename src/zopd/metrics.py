"""Analysis diagnostics: stationarity gap, potential function, parameter
conditions, and the 1/T rate fit.

The gap of a primal-dual pair is the squared norm of the augmented-Lagrangian
primal gradient plus the squared consensus residual:

    gap(x, lam) = || grad_mu(x) + A' lam + rho A'A x ||^2 + || A x ||^2

The potential adds a weighted history term to the smoothed augmented
Lagrangian and is the quantity whose descent the step-size conditions certify.

The formulas are written on the NetworkMatrices operators, which act on a
stack of rows, and on dots taken by one batched matmul. A run grades its
trace in blocks of rows: trace_rows takes every row's gap, violation ||A x||
and potential from one A x of the block. Each row gets the bits of the same
formula on that row alone. stationarity_gap, constraint_violation and
potential are its one-row views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import ConfigError, NetworkMatrices

__all__ = [
    "MetricRecord",
    "AnalysisConstants",
    "ParamConditionReport",
    "RateFitResult",
    "default_potential_weight",
    "derive_constants",
    "trace_rows",
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


def default_potential_weight(mats: NetworkMatrices) -> float:
    """Potential weight c when none is configured: 10% above the sufficient
    bound c > 6 ||L+|| / sigma_min."""
    return 1.1 * 6.0 * mats.lplus_norm / mats.sigma_min


def derive_constants(
    l0: float, mu: float, total_dim: int, mats: NetworkMatrices, c: float, rho: float
) -> AnalysisConstants:
    if l0 <= 0 or mu <= 0 or rho <= 0 or c <= 0:
        raise ValueError("l0, mu, rho, c must be positive")
    l1 = 2.0 * l0 * math.sqrt(total_dim) / mu
    k = 2.0 * (6.0 * l1**2 / (rho * mats.sigma_min) + 1.5 * c * l1)
    return AnalysisConstants(
        l0=l0, l1=l1, mu=mu, total_dim=total_dim, rho=rho, c=c, k=k,
        sigma_min=mats.sigma_min, lplus_norm=mats.lplus_norm,
    )


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's a[...] @ b[...] over the last axis, as a batched matmul of
    (1, n) by (n, 1): the dot routine of the 1-D a @ b, so a row gets that
    product's bits, which einsum("...i,...i->...") would not give."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _gap(ax, axax, lam_prev, grad_smoothed, mats, rho) -> np.ndarray:
    # A' lam + rho A'A x, as one sum over the incidence list
    pressure = mats.dual_pressure(lam_prev + rho * ax)
    primal_grad = grad_smoothed + pressure.reshape(*ax.shape[:-1], -1)
    return _dots(primal_grad, primal_grad) + axax


def _potential(ax, axax, x, x_prev, lam, mats, consts, f_mu_value) -> np.ndarray:
    lagrangian = f_mu_value + _dots(lam, ax) + 0.5 * consts.rho * axax
    d = x - x_prev
    b_quad = _dots(d, mats.lplus(d)) + (consts.k / (consts.c * consts.rho)) * _dots(d, d)
    history = 0.5 * consts.rho * (axax + b_quad)
    return lagrangian + consts.c * history


def trace_rows(
    x: np.ndarray, x_prev: np.ndarray, lam_prev: np.ndarray, lam: np.ndarray,
    grad_smoothed: np.ndarray, f_mu_value: np.ndarray, mats: NetworkMatrices,
    consts: AnalysisConstants,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gap at (x, lam_prev), ||A x||, potential at (x, lam)) of a block of
    rows: row t from row t of each (B, ...) argument and of f_mu_value (B,),
    all from one A x. One row, 1-D arguments and a scalar f_mu_value, gives
    0-d results."""
    ax = mats.incidence(x)
    axax = _dots(ax, ax)
    gap = _gap(ax, axax, lam_prev, grad_smoothed, mats, consts.rho)
    pot = _potential(ax, axax, x, x_prev, lam, mats, consts, f_mu_value)
    return gap, np.sqrt(axax), pot


def stationarity_gap(
    x: np.ndarray, lam_prev: np.ndarray, grad_smoothed: np.ndarray, mats: NetworkMatrices, rho: float
) -> float:
    x, lam_prev, grad = (np.asarray(v, dtype=float).ravel() for v in (x, lam_prev, grad_smoothed))
    ax = mats.incidence(x)
    return float(_gap(ax, _dots(ax, ax), lam_prev, grad, mats, rho))


def constraint_violation(x: np.ndarray, mats: NetworkMatrices) -> float:
    ax = mats.incidence(np.asarray(x, dtype=float).ravel())
    return float(np.sqrt(_dots(ax, ax)))


def potential(
    x: np.ndarray, x_prev: np.ndarray, lam: np.ndarray, mats: NetworkMatrices,
    consts: AnalysisConstants, f_mu_value: float,
) -> float:
    x, x_prev, lam = (np.asarray(v, dtype=float).ravel() for v in (x, x_prev, lam))
    ax = mats.incidence(x)
    return float(_potential(ax, _dots(ax, ax), x, x_prev, lam, mats, consts, f_mu_value))


def potential_lower_bound(consts: AnalysisConstants, f_lower: float, samples: int) -> float:
    """Certified floor for the potential along a run with J-sample estimates."""
    if samples < 1:
        raise ConfigError("samples", f"must be >= 1, got {samples!r}")
    return f_lower - consts.l0 * (consts.total_dim + 4) ** 2 / (consts.sigma_min * samples**2)


@dataclass(frozen=True)
class ParamConditionReport:
    """Sufficient step-size conditions and the descent coefficients.

    alpha2 is reported both as written and negated; validity rests only on the
    explicit inequalities (required_c, required_rho).
    """

    constants: AnalysisConstants
    required_c: float
    required_rho: float
    valid_c: bool
    valid_rho: bool
    valid: bool
    alpha1: float
    alpha2_as_written: float
    alpha2_flipped: float
    alpha3: float


def validate_params(consts: AnalysisConstants) -> ParamConditionReport:
    """Judge consts.rho and consts.c against the sufficient conditions."""
    c, rho, l1, sg, ln = consts.c, consts.rho, consts.l1, consts.sigma_min, consts.lplus_norm
    required_c = 6.0 * ln / sg
    b = c * l1 + 0.25 * l1 + 0.25 * l1**2 + 0.25
    required_rho = b + math.sqrt(b**2 + 6.0 * l1**2 / sg)
    alpha1 = rho**2 - (2.0 * c * l1 + 0.5 * l1 + 0.5 * l1**2 + 0.5) * rho - 6.0 * l1**2 / sg
    alpha2_written = 3.0 * rho * ln / sg - 0.5 * c * rho
    alpha3 = 9.0 / (rho * sg) + (6.0 * c + 1.0) / l1
    valid_c = c > required_c
    valid_rho = rho > required_rho
    return ParamConditionReport(
        constants=consts, required_c=required_c, required_rho=required_rho,
        valid_c=valid_c, valid_rho=valid_rho, valid=valid_c and valid_rho, alpha1=alpha1,
        alpha2_as_written=alpha2_written, alpha2_flipped=-alpha2_written, alpha3=alpha3,
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
