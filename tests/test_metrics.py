"""Diagnostics: gap, potential, parameter validator, rate fit."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zopd.graph import Topology, build_matrices, generate_graph
from zopd.metrics import (
    MetricRecord,
    RateFitResult,
    constraint_violation,
    derive_constants,
    potential,
    potential_lower_bound,
    rate_fit,
    stationarity_gap,
    trace_rows,
    validate_params,
)


def _single_edge(block_dim=1):
    return build_matrices(Topology(2, ((1, 2),), block_dim))


class TestStationarityGap:
    def test_zero_at_origin_with_zero_gradient(self):
        mats = _single_edge()
        gap = stationarity_gap(np.zeros(2), np.zeros(1), np.zeros(2), mats, rho=3.0)
        assert gap == 0.0

    def test_consensual_point_reduces_to_gradient_norm(self):
        # on the consensus subspace both penalty terms vanish
        mats = _single_edge()
        t = 1.7
        x = np.array([t, t])
        grad = 2.0 * x
        gap = stationarity_gap(x, np.zeros(1), grad, mats, rho=5.0)
        assert gap == pytest.approx(8.0 * t * t, rel=1e-14)
        assert constraint_violation(x, mats) == 0.0

    def test_matches_dense_recomputation(self, dense_ops):
        topo = generate_graph("random_connected", 7, block_dim=2, seed=3)
        mats = build_matrices(topo)
        a = dense_ops(topo).incidence
        rng = np.random.default_rng(40)
        for _ in range(10):
            x = rng.standard_normal(mats.total_dim)
            lam = rng.standard_normal(mats.edge_dim)
            grad = rng.standard_normal(mats.total_dim)
            rho = float(rng.uniform(0.5, 10.0))
            pg = grad + a.T @ lam + rho * (a.T @ (a @ x))
            expected = float(pg @ pg + (a @ x) @ (a @ x))
            got = stationarity_gap(x, lam, grad, mats, rho)
            assert got == pytest.approx(expected, rel=1e-12)
            assert constraint_violation(x, mats) == pytest.approx(
                float(np.linalg.norm(a @ x)), rel=1e-12
            )


class TestPotential:
    def _consts(self, mats, l0=1.0, mu=0.5, c=7.0, rho=2.0):
        return derive_constants(l0, mu, mats.total_dim, mats, c, rho)

    def test_consensual_stationary_point_gives_objective(self):
        mats = _single_edge()
        consts = self._consts(mats)
        x = np.array([0.4, 0.4])
        p = potential(x, x, np.zeros(1), mats, consts, f_mu_value=3.25)
        assert p == 3.25

    def test_two_node_symbolic_expansion(self):
        mats = _single_edge()
        consts = self._consts(mats, l0=2.0, mu=0.3, c=8.0, rho=1.5)
        x1, x2 = 0.9, -0.4
        p1, p2 = 0.2, 0.6
        lam = 0.35
        f_mu = 1.234
        d1, d2 = x1 - p1, x2 - p2
        gap_term = x1 - x2
        lagr = f_mu + lam * gap_term + 0.5 * consts.rho * gap_term**2
        hist = gap_term**2 + (d1 + d2) ** 2 + (consts.k / (consts.c * consts.rho)) * (
            d1**2 + d2**2
        )
        expected = lagr + consts.c * 0.5 * consts.rho * hist
        got = potential(
            np.array([x1, x2]),
            np.array([p1, p2]),
            np.array([lam]),
            mats,
            consts,
            f_mu_value=f_mu,
        )
        assert got == pytest.approx(expected, rel=1e-14)

    def test_derived_constants_formulas(self):
        mats = _single_edge()
        l0, mu, c, rho = 2.0, 0.25, 7.0, 3.0
        consts = derive_constants(l0, mu, mats.total_dim, mats, c, rho)
        l1 = 2.0 * l0 * math.sqrt(2) / mu
        assert consts.l1 == pytest.approx(l1, rel=1e-15)
        assert consts.k == pytest.approx(
            2.0 * (6.0 * l1**2 / (rho * mats.sigma_min) + 1.5 * c * l1), rel=1e-15
        )
        with pytest.raises(ValueError, match="positive"):
            derive_constants(0.0, mu, 2, mats, c, rho)

    def test_lower_bound_formula(self):
        mats = _single_edge()
        consts = self._consts(mats, l0=3.0)
        q = consts.total_dim
        expected = -1.5 - 3.0 * (q + 4) ** 2 / (mats.sigma_min * 25)
        assert potential_lower_bound(consts, -1.5, samples=5) == pytest.approx(
            expected, rel=1e-15
        )
        with pytest.raises(ValueError, match="samples"):
            potential_lower_bound(consts, 0.0, samples=0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["ring", "path", "star", "complete", "random_connected"]),
    n=st.integers(2, 40),
    m=st.integers(1, 4),
    graph_seed=st.integers(0, 2**16),
    data_seed=st.integers(0, 2**31 - 1),
)
def test_trace_row_is_the_three_functionals_bitwise(kind, n, m, graph_seed, data_seed):
    assume(kind != "ring" or n >= 3)
    topo = generate_graph(kind, n, extra_edge_prob=0.3, seed=graph_seed, block_dim=m)
    mats = build_matrices(topo)
    rng = np.random.default_rng(data_seed)
    x, x_prev, grad = rng.standard_normal((3, mats.total_dim))
    lam_prev, lam = rng.standard_normal((2, mats.edge_dim))
    f_mu = float(rng.standard_normal())
    c, rho = rng.uniform(0.5, 20.0, 2)
    consts = derive_constants(1.0, 0.5, mats.total_dim, mats, float(c), float(rho))
    # one row: 1-D arguments give 0-d columns
    row = trace_rows(x, x_prev, lam_prev, lam, grad, f_mu, mats, consts)
    assert tuple(float(col) for col in row) == (
        stationarity_gap(x, lam_prev, grad, mats, consts.rho),
        constraint_violation(x, mats),
        potential(x, x_prev, lam, mats, consts, f_mu),
    )


def _one_dimensional_row(x, x_prev, lam_prev, lam, grad, f_mu, mats, consts):
    """A trace row from 1-D products through the NetworkMatrices operators,
    each dot a 1-D a @ b, and the potential grouped as its formula."""
    ax = mats.incidence(x)
    axax = float(ax @ ax)
    pg = grad + mats.dual_pressure(lam_prev + consts.rho * ax).reshape(-1)
    d = x - x_prev
    b_quad = float(d @ mats.lplus(d)) + (consts.k / (consts.c * consts.rho)) * float(d @ d)
    lagrangian = f_mu + float(lam @ ax) + 0.5 * consts.rho * axax
    pot = lagrangian + consts.c * (0.5 * consts.rho * (axax + b_quad))
    return float(pg @ pg + axax), math.sqrt(axax), pot


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["ring", "path", "star", "complete", "random_connected"]),
    n=st.integers(2, 60),
    m=st.integers(1, 12),
    rows=st.integers(1, 9),
    graph_seed=st.integers(0, 2**16),
    data_seed=st.integers(0, 2**31 - 1),
)
def test_trace_rows_are_the_one_dimensional_products_bitwise(
    kind, n, m, rows, graph_seed, data_seed
):
    """Each row of a block gets the bits of 1-D products on that row alone:
    the batched dots are the 1-D dot routine, and every scatter adds its
    row's entries in list order."""
    assume(kind != "ring" or n >= 3)
    topo = generate_graph(kind, n, extra_edge_prob=0.3, seed=graph_seed, block_dim=m)
    mats = build_matrices(topo)
    rng = np.random.default_rng(data_seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, 5)
    x, x_prev, grad = rng.standard_normal((3, rows, mats.total_dim)) * scale[:3, None, None]
    lam_prev, lam = rng.standard_normal((2, rows, mats.edge_dim)) * scale[3:, None, None]
    f_mu = rng.standard_normal(rows)
    c, rho = rng.uniform(0.5, 20.0, 2)
    consts = derive_constants(1.0, 0.5, mats.total_dim, mats, float(c), float(rho))
    block = trace_rows(x, x_prev, lam_prev, lam, grad, f_mu, mats, consts)
    for t in range(rows):
        row = (x[t], x_prev[t], lam_prev[t], lam[t], grad[t], f_mu[t])
        assert tuple(float(col[t]) for col in block) == _one_dimensional_row(*row, mats, consts)


class TestParamValidator:
    def test_single_edge_required_weight(self):
        # one edge: smallest positive eigenvalue 2, doubled-degree norm 2
        mats = _single_edge()
        mu = 2.0 * math.sqrt(2)
        report = validate_params(derive_constants(1.0, mu, 2, mats, c=7.0, rho=20.0))
        assert report.required_c == pytest.approx(6.0, rel=1e-15)
        assert report.valid_c

    def test_unit_l1_hand_values(self):
        # l1 = 2 l0 sqrt(2) / mu = 1 for l0 = 1, mu = 2 sqrt(2)
        mats = _single_edge()
        mu = 2.0 * math.sqrt(2)
        report = validate_params(derive_constants(1.0, mu, 2, mats, c=7.0, rho=16.0))
        assert report.constants.l1 == pytest.approx(1.0, rel=1e-14)
        b = 7.0 + 0.25 + 0.25 + 0.25
        assert report.required_rho == pytest.approx(b + math.sqrt(b * b + 3.0), rel=1e-14)
        assert report.valid_rho  # 16 > 15.69...
        assert report.valid

    def test_alpha1_vanishes_at_threshold(self):
        mats = _single_edge()
        mu = 2.0 * math.sqrt(2)
        probe = validate_params(derive_constants(1.0, mu, 2, mats, c=7.0, rho=1.0))
        report = validate_params(derive_constants(1.0, mu, 2, mats, c=7.0, rho=probe.required_rho))
        assert abs(report.alpha1) < 1e-9 * report.required_rho**2

    def test_alpha_coefficients(self):
        mats = _single_edge()
        mu = 2.0 * math.sqrt(2)
        c, rho = 7.0, 10.0
        report = validate_params(derive_constants(1.0, mu, 2, mats, c=c, rho=rho))
        assert report.alpha2_as_written == pytest.approx(
            3.0 * rho * 2.0 / 2.0 - 0.5 * c * rho, rel=1e-14
        )
        assert report.alpha2_flipped == -report.alpha2_as_written
        assert report.alpha3 == pytest.approx(9.0 / (rho * 2.0) + (6.0 * c + 1.0), rel=1e-14)

    def test_threshold_is_strict(self):
        mats = _single_edge()
        mu = 2.0 * math.sqrt(2)
        at = validate_params(derive_constants(1.0, mu, 2, mats, c=6.0, rho=100.0))
        assert not at.valid_c
        above = validate_params(derive_constants(1.0, mu, 2, mats, c=6.0 + 1e-9, rho=100.0))
        assert above.valid_c

    def test_invalid_small_rho(self):
        mats = _single_edge()
        report = validate_params(derive_constants(1.0, 0.01, 2, mats, c=7.0, rho=1.0))
        assert not report.valid_rho
        assert not report.valid

    def test_rejections(self):
        mats = _single_edge()
        with pytest.raises(ValueError, match="positive"):
            validate_params(derive_constants(0.0, 0.1, 2, mats, 1.0, 1.0))
        with pytest.raises(ValueError, match="positive"):
            validate_params(derive_constants(1.0, 0.1, 2, mats, -1.0, 1.0))


class TestRateFit:
    def test_exact_recovery(self):
        t = np.array([250.0, 1000.0, 4000.0])
        y = 123.4 / t + 0.567
        fit = rate_fit(t, y)
        assert fit.gamma1 == pytest.approx(123.4, abs=1e-9)
        assert fit.constant == pytest.approx(0.567, abs=1e-12)
        assert fit.rel_residual < 1e-12

    def test_constant_series_gives_zero_slope(self):
        t = np.array([10.0, 100.0, 1000.0, 10000.0])
        fit = rate_fit(t, np.full(4, 2.5))
        assert abs(fit.gamma1) < 1e-9
        assert fit.constant == pytest.approx(2.5, abs=1e-12)

    def test_noisy_series_reports_residual(self):
        rng = np.random.default_rng(50)
        t = np.array([50.0, 200.0, 800.0, 3200.0, 12800.0])
        y = 40.0 / t + 1.0 + 0.2 * rng.standard_normal(5)
        fit = rate_fit(t, y)
        assert fit.rel_residual > 0.0
        assert isinstance(fit, RateFitResult)

    def test_all_zero_series(self):
        fit = rate_fit(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        assert fit.rel_residual == 0.0

    def test_rejections(self):
        with pytest.raises(ValueError, match="at least 3"):
            rate_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="distinct"):
            rate_fit(np.array([1.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="positive"):
            rate_fit(np.array([1.0, 2.0, -3.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="matching"):
            rate_fit(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))


def test_metric_record_defaults():
    rec = MetricRecord(3, 0.5, 0.1, 2.0, 1.5)
    assert rec.iteration == 3
