"""Primal-dual iteration: closed-form steps, rng discipline, both executions."""
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import NAN_FAMILY
from zopd import engine, objectives, szo
from zopd.baseline import RGFParams, run_rgf
from zopd.engine import (
    GRADIENT_MODES,
    ROLE_INIT,
    ROLE_STEP,
    AlgoParams,
    dual_step,
    primal_step,
    run_centralized,
    run_distributed,
    substream,
)
from zopd.graph import NetworkMatrices, Topology, build_matrices, generate_graph
from zopd.harness import config_from_dict, replica_b_config
from zopd.metrics import MetricRecord, constraint_violation, potential, stationarity_gap
from zopd.objectives import (
    StackedObjective,
    logistic_regression_objective,
    quadratic_objective,
    random_quadratic,
    synthesize_classification_data,
    toy_objective,
)
from zopd.szo import NoiseModel, SmoothingParams


def _single_edge(block_dim=1):
    topo = Topology(2, ((1, 2),), block_dim)
    return topo, build_matrices(topo)


def _params(**kw):
    base = dict(
        rho=6.0,
        smoothing=SmoothingParams(0.05, 4),
        total_iters=6,
        seed=123,
        init_lo=-1.0,
        init_hi=1.0,
    )
    base.update(kw)
    return AlgoParams(**base)


def _quad_objectives(n, dim, seed=0):
    # roomy boxes keep the early primal-dual transient well interior
    return [random_quadratic(dim, seed=seed + i, box_lo=-50, box_hi=50) for i in range(n)]


def _placing(step, states):
    """step, except that the call that makes iterate r returns states[r]: a
    run placed in a given state at an iteration."""
    calls = []

    def placed(*args):
        calls.append(None)
        r = len(calls)
        return states[r] if r in states else step(*args)

    return placed


def _assert_fresh_step_gradients(result, objs, params):
    """Every g^r of result is, bitwise, a fresh step estimate at x^r on
    iteration r's streams: no draw depends on an earlier iteration."""
    stacked = StackedObjective(objs)
    assert len(result.states_grad) == params.total_iters
    for r, g in enumerate(result.states_grad):
        fresh = engine._Estimator(stacked, params, result.trial, ROLE_STEP, params.smoothing)
        want = fresh(stacked.blocks(result.states_x[r]), r)[0]
        assert g.tobytes() == want.reshape(-1).tobytes(), r


class TestClosedFormSteps:
    def test_two_node_no_dual(self):
        _, mats = _single_edge()
        x_new = primal_step(np.array([1.0, 0.0]), np.zeros(1), np.zeros(2), mats, rho=1.0)
        np.testing.assert_allclose(x_new, [0.5, 0.5], atol=1e-15)

    def test_two_node_with_dual(self):
        _, mats = _single_edge()
        x_new = primal_step(np.array([1.0, 0.0]), np.array([1.0]), np.zeros(2), mats, rho=2.0)
        np.testing.assert_allclose(x_new, [0.25, 0.75], atol=1e-15)

    def test_dual_ascent_example(self):
        _, mats = _single_edge()
        lam_new = dual_step(np.array([1.0, 0.0]), np.array([1.0]), mats, rho=2.0)
        np.testing.assert_allclose(lam_new, [3.0], atol=1e-15)

    def test_step_minimizes_proximal_subproblem(self, dense_ops):
        # oracle: solve the strongly convex subproblem by its normal equations
        rng = np.random.default_rng(60)
        for trial in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 4))
            topo = generate_graph("random_connected", n, block_dim=m, seed=trial)
            mats = build_matrices(topo)
            ref = dense_ops(topo)
            x = rng.standard_normal(mats.total_dim)
            lam = rng.standard_normal(mats.edge_dim)
            grad = rng.standard_normal(mats.total_dim)
            rho = float(rng.uniform(0.3, 8.0))
            lin = grad + ref.incidence.T @ lam + rho * (ref.lminus @ x)
            z_oracle = x - lin / (2.0 * rho * ref.degrees_vector)
            z = primal_step(x, lam, grad, mats, rho)
            np.testing.assert_allclose(z, z_oracle, rtol=1e-12)

    def test_step_agrees_with_numerical_minimizer(self, dense_ops):
        topo = generate_graph("ring", 4, block_dim=2, seed=0)
        mats = build_matrices(topo)
        ref = dense_ops(topo)
        rng = np.random.default_rng(61)
        x = rng.standard_normal(8)
        lam = rng.standard_normal(8)
        grad = rng.standard_normal(8)
        rho = 1.7
        lin = grad + ref.incidence.T @ lam + rho * (ref.lminus @ x)

        def objective(z):
            d = z - x
            return float(lin @ d + rho * d @ (ref.degrees_vector * d))

        res = minimize(objective, x, method="BFGS", tol=1e-14)
        z = primal_step(x, lam, grad, mats, rho)
        assert np.linalg.norm(z - res.x) < 1e-6 * (1.0 + np.linalg.norm(z))

    def test_rho_must_be_positive(self):
        _, mats = _single_edge()
        with pytest.raises(ValueError, match="rho"):
            primal_step(np.zeros(2), np.zeros(1), np.zeros(2), mats, rho=0.0)
        with pytest.raises(ValueError, match="rho"):
            dual_step(np.zeros(2), np.zeros(1), mats, rho=-1.0)


class TestCentralizedRun:
    def test_consensual_zero_objective_is_stationary(self):
        topo, _ = _single_edge()
        objs = [quadratic_objective(np.zeros((1, 1)), np.zeros(1)) for _ in range(2)]
        params = _params(init_lo=0.3, init_hi=0.3, total_iters=5)
        result = run_centralized(topo, objs, params)
        np.testing.assert_array_equal(result.states_x, np.full((6, 2), 0.3))
        np.testing.assert_array_equal(result.states_lam, np.zeros((6, 1)))
        for rec in result.records:
            assert rec.stationarity_gap == 0.0
            assert rec.constraint_violation == 0.0

    def test_single_step_matches_closed_form(self):
        topo, mats = _single_edge()
        objs = [
            quadratic_objective(np.array([[2.0]]), np.array([0.5])),
            quadratic_objective(np.array([[1.0]]), np.array([-0.25])),
        ]
        params = _params(total_iters=1, gradient_mode="reference", seed=9)
        result = run_centralized(topo, objs, params)
        x0 = substream(9, 0, ROLE_INIT).uniform(-1.0, 1.0, 2)
        np.testing.assert_array_equal(result.states_x[0], x0)
        grad = np.array([2.0 * x0[0] + 0.5, 1.0 * x0[1] - 0.25])
        expected = primal_step(x0, np.zeros(1), grad, mats, params.rho)
        np.testing.assert_array_equal(result.states_x[1], expected)
        np.testing.assert_array_equal(
            result.states_lam[1], dual_step(expected, np.zeros(1), mats, params.rho)
        )

    def test_trace_rows_cover_one_through_t(self):
        topo, _ = _single_edge()
        objs = _quad_objectives(2, 1)
        result = run_centralized(topo, objs, _params(total_iters=7))
        assert [r.iteration for r in result.records] == list(range(1, 8))
        assert result.states_x.shape == (8, 2)
        assert result.states_grad.shape == (7, 2)

    def test_deterministic_per_seed(self):
        topo = generate_graph("ring", 3, block_dim=2, seed=0)
        objs = _quad_objectives(3, 2)
        params = _params(noise=NoiseModel("additive_gaussian", 0.1))
        a = run_centralized(topo, objs, params)
        b = run_centralized(topo, objs, params)
        np.testing.assert_array_equal(a.states_x, b.states_x)
        np.testing.assert_array_equal(a.states_lam, b.states_lam)
        assert [r.stationarity_gap for r in a.records] == [
            r.stationarity_gap for r in b.records
        ]
        c = run_centralized(topo, objs, _params(seed=124))
        assert not np.array_equal(a.states_x, c.states_x)

    def test_dual_accumulates_constraint_residuals(self, dense_ops):
        topo = generate_graph("ring", 4, block_dim=1, seed=0)
        mats = build_matrices(topo)
        ref = dense_ops(topo)
        objs = _quad_objectives(4, 1)
        result = run_centralized(topo, objs, _params(total_iters=9), mats=mats)
        running = np.zeros(mats.edge_dim)
        for r in range(1, 10):
            running = running + ref.incidence @ result.states_x[r]
            np.testing.assert_allclose(
                result.states_lam[r], _params().rho * running, rtol=1e-12, atol=1e-14
            )

    def test_dual_update_identity_along_run(self, dense_ops):
        topo = generate_graph("random_connected", 5, block_dim=2, seed=4)
        mats = build_matrices(topo)
        ref = dense_ops(topo)
        objs = _quad_objectives(5, 2)
        params = _params(total_iters=10)
        result = run_centralized(topo, objs, params, mats=mats)
        for r in range(10):
            lhs = np.linalg.norm(ref.incidence @ result.states_x[r + 1])
            rhs = np.linalg.norm(result.states_lam[r + 1] - result.states_lam[r]) / params.rho
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_dual_stays_in_constraint_row_space(self, dense_ops):
        topo = generate_graph("ring", 5, block_dim=1, seed=0)
        mats = build_matrices(topo)
        objs = _quad_objectives(5, 1)
        result = run_centralized(topo, objs, _params(total_iters=12), mats=mats)
        a = dense_ops(topo).incidence
        proj = a @ np.linalg.pinv(a)
        lam = result.states_lam[-1]
        assert np.linalg.norm(lam - proj @ lam) <= 1e-9 * (1.0 + np.linalg.norm(lam))

    def test_step_satisfies_first_order_condition(self, dense_ops):
        topo = generate_graph("ring", 3, block_dim=2, seed=0)
        mats = build_matrices(topo)
        ref = dense_ops(topo)
        objs = _quad_objectives(3, 2)
        params = _params(total_iters=8)
        result = run_centralized(topo, objs, params, mats=mats)
        for r in range(8):
            x, x_new = result.states_x[r], result.states_x[r + 1]
            lam, g = result.states_lam[r], result.states_grad[r]
            foc = (
                g
                + ref.incidence.T @ lam
                + params.rho * (ref.lminus @ x)
                + 2.0 * params.rho * ref.degrees_vector * (x_new - x)
            )
            assert np.linalg.norm(foc) <= 1e-9 * (1.0 + np.linalg.norm(g))

    def test_output_pair_comes_from_uniform_iteration(self):
        topo, _ = _single_edge()
        objs = _quad_objectives(2, 1)
        seen = set()
        for trial in range(12):
            result = run_centralized(topo, objs, _params(total_iters=5), trial=trial)
            assert 0 <= result.output_iteration <= 4
            seen.add(result.output_iteration)
            np.testing.assert_array_equal(
                result.output_x, result.states_x[result.output_iteration]
            )
            np.testing.assert_array_equal(
                result.output_lam, result.states_lam[result.output_iteration]
            )
        assert len(seen) >= 2

    def test_on_record_stream_matches_records(self):
        topo, _ = _single_edge()
        objs = _quad_objectives(2, 1)
        collected = []
        result = run_centralized(
            topo, objs, _params(total_iters=4), on_record=collected.append
        )
        assert collected == result.records


class TestTraceRows:
    """Row r grades the gap at (x^r, lam^{r-1}) and the potential at
    (x^r, x^{r-1}, lam^r), from one A x^r per row."""

    def _setup(self):
        topo = generate_graph("random_connected", 6, extra_edge_prob=0.3, seed=4, block_dim=2)
        objs = _quad_objectives(6, 2, seed=11)
        params = _params(total_iters=12, rho=4.0, gap_gradient="closed_form")
        return topo, build_matrices(topo), objs, params

    def _graded(self, result, objs, mats, mu):
        """The records the functionals give at the run's states."""
        stacked, consts = StackedObjective(objs), result.constants
        xs, lams = result.states_x, result.states_lam
        graded = []
        for r in range(1, len(xs)):
            x = xs[r]
            grad = stacked.smoothed_gradient_stacked(x, mu)
            f_mu = stacked.smoothed_value_stacked(x, mu)
            gap = stationarity_gap(x, lams[r - 1], grad, mats, consts.rho)
            pot = potential(x, xs[r - 1], lams[r], mats, consts, f_mu)
            graded.append(MetricRecord(r, gap, constraint_violation(x, mats), pot, stacked.value(x)))
        return graded

    def test_records_are_the_functionals_at_the_states(self):
        topo, mats, objs, params = self._setup()
        mu = params.smoothing.mu
        cen = run_centralized(topo, objs, params, mats=mats)
        assert cen.records == self._graded(cen, objs, mats, mu)
        rgf = run_rgf(topo, objs, params, RGFParams(step_scale=0.1), mats=mats)
        assert rgf.records == self._graded(rgf, objs, mats, mu)

    @pytest.mark.parametrize("method,per_iteration", [("centralized", 1), ("rgf", 0)])
    def test_one_incidence_product_per_block(self, monkeypatch, method, per_iteration):
        # the centralized dual step takes one A x^{r+1} per iteration, and
        # grading one A x per block: 12 rows of N M = 12 in blocks of 5
        topo, mats, objs, params = self._setup()
        run = {
            "centralized": lambda: run_centralized(topo, objs, params, mats=mats),
            "rgf": lambda: run_rgf(topo, objs, params, RGFParams(step_scale=0.1), mats=mats),
        }[method]
        whole = run()
        calls = []
        incidence = NetworkMatrices.incidence

        def counted(self, x):
            # a step's A x is of one vector, a block's of a stack of rows
            calls.append("step" if np.ndim(x) == 1 else len(x))
            return incidence(self, x)

        monkeypatch.setattr(NetworkMatrices, "incidence", counted)
        monkeypatch.setattr(engine, "_GRADE_BLOCK", 5 * mats.total_dim + 3)
        assert run().records == whole.records
        assert calls.count("step") == per_iteration * params.total_iters
        assert [c for c in calls if c != "step"] == [5, 5, 2]


class TestBlockGrading:
    """Rows are graded in blocks of max(1, _GRADE_BLOCK // (N M)); every
    block gives the bits of the one-row functionals."""

    @staticmethod
    def _views(result, objs, params, role, mats):
        """The run's records from the one-row functionals at its states: the
        closed forms and value of each iterate, or the meter role's estimate
        at its iteration."""
        stacked, consts = StackedObjective(objs), result.constants
        meter = engine._TraceMeter(stacked, params, result.trial, role)
        xs, lams = result.states_x, result.states_lam
        rows = []
        for r in range(1, len(xs)):
            x = xs[r]
            if meter.closed_form:
                grad = stacked.smoothed_gradient_stacked(x, meter.smoothing.mu)
                f_mu = stacked.smoothed_value_stacked(x, meter.smoothing.mu)
                f = stacked.value(x)
            else:
                g, noisy, base = meter(stacked.blocks(x), r)
                grad, f = g.reshape(-1), float(np.sum(base))
                f_mu = float(np.sum(np.mean(noisy, axis=1)))
            gap = stationarity_gap(x, lams[r - 1], grad, mats, consts.rho)
            pot = potential(x, xs[r - 1], lams[r], mats, consts, f_mu)
            rows.append(MetricRecord(r, gap, constraint_violation(x, mats), pot, f))
        return rows

    def test_block_records_are_the_one_row_views_bitwise(self):
        @settings(max_examples=120, derandomize=True, deadline=None)
        @given(
            kind=st.sampled_from(["ring", "path", "star", "complete", "random_connected"]),
            n=st.integers(3, 12),
            m=st.integers(1, 3),
            toy=st.booleans(),
            meter=st.sampled_from(["closed_form", "estimator", "mc"]),
            mode=st.sampled_from(GRADIENT_MODES),
            noisy=st.booleans(),
            block=st.integers(2, 4),
            full_blocks=st.integers(2, 3),
            extra=st.integers(0, 2),
            seed=st.integers(0, 2**31 - 1),
        )
        @example(
            kind="random_connected", n=9, m=3, toy=False, meter="closed_form",
            mode="estimator", noisy=True, block=3, full_blocks=3, extra=1, seed=5,
        )
        def check(kind, n, m, toy, meter, mode, noisy, block, full_blocks, extra, seed):
            m = 1 if toy else m
            topo = generate_graph(kind, n, extra_edge_prob=0.3, seed=seed % 97, block_dim=m)
            mats = build_matrices(topo)
            if toy:
                objs = [toy_objective(box_lo=-50.0, box_hi=50.0)] * n
            else:
                objs = _quad_objectives(n, m, seed=seed % 89)
            horizon = full_blocks * block + 1 + extra % (block - 1)
            params = _params(
                seed=seed, total_iters=horizon, gap_gradient=meter, mc_gap_samples=7,
                gradient_mode=mode,
                noise=NoiseModel("additive_gaussian", 0.05) if noisy else NoiseModel(),
                rho=60.0 if toy else 6.0,
            )
            rgf = RGFParams(step_scale=0.01)
            with mock.patch.object(engine, "_GRADE_BLOCK", block * mats.total_dim):
                runs = (
                    (run_centralized(topo, objs, params, mats=mats), engine.ROLE_METER),
                    (run_distributed(topo, objs, params, mats=mats), engine.ROLE_METER),
                    (run_rgf(topo, objs, params, rgf, mats=mats), engine.ROLE_BASELINE_METER),
                )
            for result, role in runs:
                assert [r.iteration for r in result.records] == list(range(1, horizon + 1))
                assert result.records == self._views(result, objs, params, role, mats)

        check()

    def test_on_record_flushes_hold_one_block(self):
        """A row reaches on_record within one block of its iteration: each
        flush holds at most 8192 // (N M) rows, the stop latency of a pooled
        trial."""
        topo = generate_graph("ring", 4, block_dim=2, seed=0)
        objs = _quad_objectives(4, 2)
        steps, seen = [], []
        primal = engine.primal_step

        def counted(*args):
            steps.append(1)
            return primal(*args)

        params = _params(total_iters=2500)
        with mock.patch.object(engine, "primal_step", counted):
            result = run_centralized(
                topo, objs, params, on_record=lambda rec: seen.append(len(steps))
            )
        assert len(seen) == len(result.records) == 2500
        flushes = [seen.count(k) for k in sorted(set(seen))]
        assert max(flushes) <= 8192 // (4 * 2)
        assert flushes == [1024, 1024, 452]


class TestDistributedRun:
    def test_matches_centralized_on_ring(self):
        topo = generate_graph("ring", 4, block_dim=1, seed=0)
        objs = _quad_objectives(4, 1)
        params = _params(total_iters=50, rho=3.0)
        cen = run_centralized(topo, objs, params)
        dis = run_distributed(topo, objs, params)
        np.testing.assert_array_equal(cen.states_x, dis.states_x)
        np.testing.assert_array_equal(cen.states_lam, dis.states_lam)
        np.testing.assert_array_equal(cen.states_grad, dis.states_grad)
        for a, b in zip(cen.records, dis.records):
            assert a.stationarity_gap == b.stationarity_gap

    def test_matches_centralized_with_noise(self):
        topo = generate_graph("random_connected", 6, block_dim=2, seed=8)
        objs = _quad_objectives(6, 2, seed=30)
        params = _params(total_iters=25, noise=NoiseModel("additive_gaussian", 0.05))
        cen = run_centralized(topo, objs, params)
        dis = run_distributed(topo, objs, params)
        np.testing.assert_array_equal(cen.states_x, dis.states_x)
        np.testing.assert_array_equal(cen.states_lam, dis.states_lam)
        np.testing.assert_array_equal(cen.states_grad, dis.states_grad)

    @pytest.mark.parametrize("kind,n", [("ring", 40), ("path", 64), ("star", 40), ("reversed", 30)])
    def test_matches_centralized_on_large_graphs(self, kind, n):
        # near-regular and degree-skewed graphs alike sum through one bincount;
        # "reversed" lists every edge of a random graph as (larger, smaller),
        # so the larger endpoint owns each dual, where generated graphs list
        # the smaller node first
        if kind == "reversed":
            drawn = generate_graph("random_connected", n, extra_edge_prob=0.2, seed=4)
            topo = Topology(n, tuple((j, i) for i, j in drawn.edges), block_dim=3)
            assert all(i > j for i, j in topo.edges)
        else:
            topo = generate_graph(kind, n, block_dim=3, seed=0)
        objs = _quad_objectives(n, 3, seed=60)
        params = _params(total_iters=12, noise=NoiseModel("additive_gaussian", 0.05))
        cen = run_centralized(topo, objs, params)
        dis = run_distributed(topo, objs, params)
        np.testing.assert_array_equal(cen.states_x, dis.states_x)
        np.testing.assert_array_equal(cen.states_lam, dis.states_lam)
        np.testing.assert_array_equal(cen.states_grad, dis.states_grad)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        n=st.integers(2, 12),
        m=st.integers(1, 4),
        graph_seed=st.integers(0, 2**16),
        extra=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**31 - 1),
        samples=st.integers(1, 8),
        rho=st.sampled_from([3.0, 6.0, 60.0]),
        noisy=st.booleans(),
    )
    def test_bitwise_equal_on_random_graphs(
        self, n, m, graph_seed, extra, seed, samples, rho, noisy
    ):
        topo = generate_graph(
            "random_connected", n, extra_edge_prob=extra, seed=graph_seed, block_dim=m
        )
        noise = NoiseModel("additive_gaussian", 0.05) if noisy else NoiseModel()
        params = _params(
            rho=rho, seed=seed, total_iters=10, smoothing=SmoothingParams(0.05, samples),
            noise=noise,
        )
        objs = _quad_objectives(n, m, seed=graph_seed)
        cen = run_centralized(topo, objs, params)
        dis = run_distributed(topo, objs, params)
        np.testing.assert_array_equal(cen.states_x, dis.states_x)
        np.testing.assert_array_equal(cen.states_lam, dis.states_lam)
        np.testing.assert_array_equal(cen.states_grad, dis.states_grad)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        n=st.integers(2, 8),
        m=st.integers(1, 3),
        graph_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**31 - 1),
        trial=st.integers(0, 3),
        samples=st.integers(1, 6),
        noisy=st.booleans(),
        horizon=st.integers(2, 10),
    )
    def test_step_draws_depend_only_on_seed_trial_role_and_iteration(
        self, n, m, graph_seed, seed, trial, samples, noisy, horizon
    ):
        topo = generate_graph("random_connected", n, seed=graph_seed, block_dim=m)
        noise = NoiseModel("additive_gaussian", 0.05) if noisy else NoiseModel()
        params = _params(
            seed=seed, total_iters=horizon, smoothing=SmoothingParams(0.05, samples),
            noise=noise, gap_gradient="estimator",
        )
        objs = _quad_objectives(n, m, seed=graph_seed)
        for run in (run_centralized, run_distributed):
            _assert_fresh_step_gradients(run(topo, objs, params, trial=trial), objs, params)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        kind=st.sampled_from(["ring", "path", "star", "complete", "random_connected"]),
        n=st.integers(3, 10),
        m=st.integers(1, 3),
        graph_seed=st.integers(0, 2**16),
        reverse=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
        meter=st.sampled_from(["closed_form", "estimator"]),
        noisy=st.booleans(),
    )
    def test_replay_of_the_centralized_run_equals_the_independent_run(
        self, kind, n, m, graph_seed, reverse, seed, meter, noisy
    ):
        # reverse lists every edge as (larger, smaller), so the larger
        # endpoint owns each dual
        topo = generate_graph(kind, n, extra_edge_prob=0.3, seed=graph_seed, block_dim=m)
        if reverse:
            topo = Topology(n, tuple((max(e), min(e)) for e in topo.edges), block_dim=m)
        noise = NoiseModel("additive_gaussian", 0.05) if noisy else NoiseModel()
        params = _params(seed=seed, total_iters=8, gap_gradient=meter, noise=noise)
        objs = _quad_objectives(n, m, seed=graph_seed)
        mats = build_matrices(topo)
        replay = run_distributed(
            topo, objs, params, mats=mats, reference=run_centralized(topo, objs, params, mats=mats)
        )
        alone = run_distributed(topo, objs, params, mats=mats)
        for name in ("states_x", "states_lam", "states_grad", "output_x", "output_lam"):
            assert getattr(replay, name).tobytes() == getattr(alone, name).tobytes(), name
        assert replay.records == alone.records
        assert replay.output_iteration == alone.output_iteration
        assert replay.messages_per_agent == alone.messages_per_agent

    def test_replay_refuses_another_runs_reference(self):
        topo = generate_graph("ring", 3, block_dim=1, seed=0)
        objs, params = _quad_objectives(3, 1), _params()
        cen = run_centralized(topo, objs, params)
        with pytest.raises(ValueError, match="^reference has another horizon$"):
            run_distributed(topo, objs, dataclasses.replace(params, total_iters=7), reference=cen)
        # another trial starts from another x^0
        with pytest.raises(
            RuntimeError,
            match=r"^centralized/distributed mismatch in trial 1: x of agent 1 at iteration 0 ",
        ):
            run_distributed(topo, objs, params, trial=1, reference=cen)

    def test_retries_at_box_face_keep_engines_equal_and_resumable(self, monkeypatch):
        # every agent starts on the face x = 5 of its box, so its first step
        # estimate walks its row and continues from its retry stream
        paths = []

        def recording(*path):
            paths.append(path)
            return substream(*path)

        monkeypatch.setattr(engine, "substream", recording)
        topo = generate_graph("ring", 4, block_dim=1, seed=0)
        objs = [toy_objective()] * 4
        params = _params(
            rho=600.0, init_lo=5.0, init_hi=5.0, total_iters=6,
            smoothing=SmoothingParams(0.01, 8),
        )
        cen = run_centralized(topo, objs, params)
        retry_paths = [p for p in paths if len(p) == 5 and p[2] == ROLE_STEP]
        assert {p[3] for p in retry_paths if p[4] == 0} == {0, 1, 2, 3}
        dis = run_distributed(topo, objs, params)
        np.testing.assert_array_equal(cen.states_x, dis.states_x)
        np.testing.assert_array_equal(cen.states_lam, dis.states_lam)
        np.testing.assert_array_equal(cen.states_grad, dis.states_grad)
        # box retries included
        _assert_fresh_step_gradients(cen, objs, params)

    def test_box_exhaustion_names_role_agent_and_iteration(self):
        # x^3 placed on the box face with no retries allowed: the first
        # agent whose step row holds an outward direction fails
        topo = generate_graph("ring", 3, block_dim=1, seed=0)
        objs = [toy_objective()] * 3
        params = _params(retry_cap=0, smoothing=SmoothingParams(0.01, 4), seed=7)
        block = substream(7, 0, ROLE_STEP, 3).standard_normal((3, 4, 1))
        agent = 1 + int(np.flatnonzero(np.any(block[..., 0] > 0.0, axis=1))[0])
        face = _placing(engine.primal_step, {3: np.full(3, 5.0)})
        with mock.patch.object(engine, "primal_step", face), pytest.raises(
            RuntimeError,
            match=rf"^step estimate of agent {agent} at iteration 3: smoothing perturbation "
            "left the domain box 1 times",
        ):
            run_centralized(topo, objs, params)

    def test_message_traffic_per_round(self):
        topo, _ = _single_edge()
        objs = _quad_objectives(2, 1)
        result = run_distributed(topo, objs, _params(total_iters=7))
        assert result.messages_per_agent == {1: 2, 2: 2}
        star = generate_graph("star", 5, block_dim=1, seed=0)
        r2 = run_distributed(star, _quad_objectives(5, 1), _params(total_iters=3))
        assert r2.messages_per_agent[1] == 8  # hub talks to all four leaves
        assert all(r2.messages_per_agent[i] == 2 for i in range(2, 6))

    def test_output_pick_matches_centralized(self):
        topo = generate_graph("ring", 3, block_dim=1, seed=0)
        objs = _quad_objectives(3, 1)
        params = _params(total_iters=9)
        cen = run_centralized(topo, objs, params)
        dis = run_distributed(topo, objs, params)
        assert cen.output_iteration == dis.output_iteration


class TestMeterModes:
    def test_auto_equals_closed_form_for_quadratics(self):
        topo, _ = _single_edge()
        objs = _quad_objectives(2, 1)
        auto = run_centralized(topo, objs, _params(gap_gradient="auto"))
        closed = run_centralized(topo, objs, _params(gap_gradient="closed_form"))
        assert [r.stationarity_gap for r in auto.records] == [
            r.stationarity_gap for r in closed.records
        ]

    def test_meter_choice_never_perturbs_iterates(self):
        topo, _ = _single_edge()
        objs = _quad_objectives(2, 1)
        a = run_centralized(topo, objs, _params(gap_gradient="closed_form"))
        b = run_centralized(topo, objs, _params(gap_gradient="estimator"))
        c = run_centralized(topo, objs, _params(gap_gradient="mc", mc_gap_samples=200))
        np.testing.assert_array_equal(a.states_x, b.states_x)
        np.testing.assert_array_equal(a.states_x, c.states_x)

    def test_mc_meter_honours_retry_cap(self):
        # the first iterate sits within mu of the box face x = 5, so the
        # 200-sample mc meter needs retries there
        topo, _ = _single_edge()
        objs = [toy_objective(), toy_objective()]
        kw = dict(
            gap_gradient="mc", mc_gap_samples=200, gradient_mode="reference", rho=600.0,
            smoothing=SmoothingParams(0.5, 4), init_lo=5.0, init_hi=5.0, total_iters=1,
        )
        assert len(run_centralized(topo, objs, _params(**kw)).records) == 1
        with pytest.raises(
            RuntimeError,
            match=r"^meter estimate of agent 1 at iteration 1: smoothing perturbation "
            "left the domain box 1 times",
        ):
            run_centralized(topo, objs, _params(retry_cap=0, **kw))
        # only agent 2 sits near its box face: the failure names it, not the
        # single-agent sampler's agent 1
        objs = [toy_objective(box_lo=-10.0, box_hi=10.0), toy_objective()]
        with pytest.raises(RuntimeError, match=r"^meter estimate of agent 2 at iteration 1: "):
            run_centralized(topo, objs, _params(retry_cap=0, **kw))

    def test_mc_meter_draws_in_chunks_on_one_retry_stream(self, monkeypatch):
        """An mc meter above _MC_CHUNK rows takes several draws, none above
        _MC_CHUNK rows, and an agent walked in several of them continues one
        retry stream: no direction repeats."""
        draws = []
        draw = szo._draw

        def recorded(*args):
            out = draw(*args)
            draws.append(out[0])
            return out

        monkeypatch.setattr(szo, "_MC_CHUNK", 4)
        monkeypatch.setattr(szo, "_draw", recorded)
        topo, _ = _single_edge()
        # agent 2 sits within mu of its box face x = 5, so about half its
        # draws leave the box
        objs = [toy_objective(box_lo=-10.0, box_hi=10.0), toy_objective()]
        kw = dict(
            gap_gradient="mc", mc_gap_samples=40, gradient_mode="reference", rho=600.0,
            smoothing=SmoothingParams(0.5, 4), init_lo=5.0, init_hi=5.0, total_iters=1,
        )
        run_centralized(topo, objs, _params(**kw))
        assert len(draws) == 20
        assert max(phis.shape[0] * phis.shape[1] for phis in draws) <= 4
        walked = np.concatenate([phis[1, :, 0] for phis in draws])
        assert walked.size == 40
        assert np.unique(walked).size == walked.size

    def test_mc_meter_memory_is_bounded_by_the_chunk(self, tmp_path):
        """On the Replica B shape (15 logistic agents, 10 dims, 100 rows each)
        at the default 10^4 mc samples, no draw or objective workspace grows
        past a few _MC_CHUNK-row blocks: the run peaks at about 18 MB, where
        65,536-row draws held over 128 MB."""
        raw = replica_b_config(str(tmp_path), trials=1)
        raw["algorithm"].update(iters=2, gap_gradient="mc")
        cfg = config_from_dict(raw)
        tracemalloc.start()
        try:
            run_centralized(cfg.topology, cfg.objectives, cfg.params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_estimator_meter_tracks_closed_form(self):
        topo, _ = _single_edge()
        objs = _quad_objectives(2, 1)
        sm = SmoothingParams(0.05, 400)
        exact = run_centralized(topo, objs, _params(gap_gradient="closed_form", smoothing=sm))
        approx = run_centralized(topo, objs, _params(gap_gradient="estimator", smoothing=sm))
        # gradient estimation error enters the gap squared, so grade the large
        # early gap tightly and the tail only in absolute terms
        assert approx.records[0].stationarity_gap == pytest.approx(
            exact.records[0].stationarity_gap, rel=0.3
        )
        for a, b in zip(exact.records, approx.records):
            assert b.stationarity_gap == pytest.approx(a.stationarity_gap, rel=1.0, abs=0.5)

    def test_estimator_objective_column_is_the_stacked_value(self):
        """The estimator meter's objective column, taken from its noise-free
        base values, equals StackedObjective.value at every graded iterate,
        bitwise, for the primal-dual method and the baseline."""

        @settings(max_examples=30, derandomize=True, deadline=None)
        @given(
            family=st.sampled_from(["logreg", "toy_phases", "toy_shared"]),
            n=st.integers(3, 6),
            iters=st.integers(1, 5),
            samples=st.integers(1, 6),
            noisy=st.booleans(),
            seed=st.integers(0, 2**31 - 1),
        )
        def check(family, n, iters, samples, noisy, seed):
            if family == "logreg":
                m = 3
                data, _ = synthesize_classification_data(n, 8, m, seed)
                objs = [logistic_regression_objective(d, n) for d in data]
            else:
                m = 1
                phases = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
                objs = [toy_objective(float(p)) for p in phases]
                if family == "toy_shared":
                    objs = [toy_objective()] * n
            topo = generate_graph("ring", n, block_dim=m, seed=0)
            noise = NoiseModel("additive_gaussian", 0.1) if noisy else NoiseModel()
            params = _params(
                gap_gradient="estimator", total_iters=iters, seed=seed, noise=noise,
                smoothing=SmoothingParams(0.05, samples),
            )
            stacked = StackedObjective(objs)
            runs = (
                run_centralized(topo, objs, params),
                run_rgf(topo, objs, params, RGFParams(step_scale=0.1, mu=0.05)),
            )
            for run in runs:
                assert [r.iteration for r in run.records] == list(range(1, iters + 1))
                for rec in run.records:
                    assert rec.objective == stacked.value(run.states_x[rec.iteration])

        check()

    def test_closed_form_meter_requires_closed_forms(self):
        topo, _ = _single_edge()
        objs = [toy_objective(phase=0.1), toy_objective(phase=0.2)]
        with pytest.raises(ValueError, match="closed form"):
            run_centralized(topo, objs, _params(gap_gradient="closed_form"))


class TestDivergence:
    @pytest.mark.parametrize("gradient_mode", ["estimator", "reference"])
    @pytest.mark.parametrize("execution", ["centralized", "distributed", "rgf"])
    def test_non_finite_iterate_names_method_iteration_and_agent(
        self, execution, gradient_mode
    ):
        # agent 2 reports NaN values and gradients, so its first step is NaN
        topo = generate_graph("ring", 3, block_dim=2, seed=0)
        objs = _quad_objectives(3, 2)
        objs[1] = dataclasses.replace(objs[1], family=NAN_FAMILY)
        params = _params(gradient_mode=gradient_mode, gap_gradient="closed_form")
        run = {
            "centralized": lambda: run_centralized(topo, objs, params),
            "distributed": lambda: run_distributed(topo, objs, params),
            "rgf": lambda: run_rgf(topo, objs, params, RGFParams()),
        }[execution]
        method = "rgf" if execution == "rgf" else "primal_dual"
        with pytest.raises(
            RuntimeError, match=rf"^{method} diverged at iteration 1: agent 2 has x = \[nan, nan\]$"
        ):
            run()

    def test_non_finite_dual_names_the_edge(self):
        # x^2 = [1, 0, -1] and duals at the float maximum, placed: the duals
        # cancel in A'lam, so the primal step stays finite (x+ is about
        # [0.25, 0, -0.25]), and the ascent by rho A x+ overflows the duals of
        # edges (1, 2) and (2, 3)
        topo = generate_graph("ring", 3, block_dim=1, seed=0)
        top = np.finfo(float).max
        primal = _placing(engine.primal_step, {2: np.array([1.0, 0.0, -1.0])})
        dual = _placing(engine.dual_step, {2: np.full(3, top)})
        params = _params(gradient_mode="reference", rho=1e294)
        with mock.patch.object(engine, "primal_step", primal), mock.patch.object(
            engine, "dual_step", dual
        ), np.errstate(over="ignore"), pytest.raises(
            RuntimeError,
            match=r"^primal_dual diverged at iteration 3: edge \(1, 2\) has lam = \[inf\]$",
        ):
            run_centralized(topo, _quad_objectives(3, 1), params)


class TestValidation:
    def test_objective_count_checked(self):
        topo, _ = _single_edge()
        with pytest.raises(ValueError, match="one objective per node"):
            run_centralized(topo, _quad_objectives(3, 1), _params())

    def test_block_dim_checked(self):
        topo = Topology(2, ((1, 2),), block_dim=2)
        with pytest.raises(ValueError, match="block_dim"):
            run_centralized(topo, _quad_objectives(2, 1), _params())

    def test_init_box_must_fit_domain(self):
        topo, _ = _single_edge()
        with pytest.raises(ValueError, match="initialization box"):
            run_centralized(topo, _quad_objectives(2, 1), _params(init_lo=-100.0, init_hi=100.0))

    def test_init_box_error_names_the_first_agent(self):
        objs = [toy_objective(box_lo=lo) for lo in (-5.0, -5.0, -0.5, -5.0, -0.5)]
        with pytest.raises(ValueError, match="domain box of agent 3$"):
            _params(init_lo=-1.0, init_hi=1.0).check_problem(StackedObjective(objs))
        _params(init_lo=-0.5, init_hi=1.0).check_problem(StackedObjective(objs))

    def test_reference_mode_needs_closed_forms(self):
        topo, _ = _single_edge()
        objs = [toy_objective(phase=0.1), toy_objective(phase=0.2)]
        with pytest.raises(ValueError, match="reference"):
            run_centralized(topo, objs, _params(gradient_mode="reference", init_lo=-1, init_hi=1))

    def test_algo_params_rejections(self):
        sm = SmoothingParams(0.1, 2)
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError, match="rho"):
                _params(rho=bad)
            with pytest.raises(ValueError, match="potential_weight"):
                _params(potential_weight=bad)
        with pytest.raises(ValueError, match="total_iters"):
            _params(total_iters=0)
        with pytest.raises(ValueError, match="gradient_mode"):
            _params(gradient_mode="exact")
        with pytest.raises(ValueError, match="gap_gradient"):
            _params(gap_gradient="magic")
        with pytest.raises(ValueError, match="init box"):
            _params(init_lo=1.0, init_hi=-1.0)
        with pytest.raises(ValueError, match="seed"):
            _params(seed=-1)
        with pytest.raises(ValueError, match="mc_gap_samples"):
            _params(mc_gap_samples=0)
        with pytest.raises(ValueError, match="retry_cap"):
            _params(retry_cap=-1)
        assert _params(smoothing=sm).smoothing is sm


def test_substream_paths_are_independent():
    a = substream(1, 0, 2, 0, 0).standard_normal(4)
    b = substream(1, 0, 2, 0, 1).standard_normal(4)
    c = substream(1, 0, 2, 0, 0).standard_normal(4)
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(a, b)


def test_substream_draws_as_the_tuple_keyed_seed_sequence():
    # entries below 2^32 key SeedSequence with a uint32 array, larger ones
    # with the tuple of ints; both must give the tuple's streams
    entry = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40]), st.integers(0, 2**41))

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(path=st.lists(entry, min_size=1, max_size=5))
    def check(path):
        want = np.random.default_rng(np.random.SeedSequence(tuple(path)))
        got = substream(*path)
        assert got.standard_normal(6).tobytes() == want.standard_normal(6).tobytes()
        assert got.integers(2**62, size=3).tolist() == want.integers(2**62, size=3).tolist()

    check()


# T = 5 iterations: T step estimates, and per graded row one meter estimate,
# or one closed-form call plus, at the last row only, one objective value
@pytest.mark.parametrize(
    "gap_gradient, value_calls, closed_form_calls",
    [("closed_form", 5 + 1, 1), ("estimator", 5 + 5, 0), ("mc", 5 + 5, 0)],
)
def test_one_family_group_makes_one_kernel_call_per_evaluation(
    monkeypatch, gap_gradient, value_calls, closed_form_calls
):
    """One toy object shared by every agent forms one group: each step
    estimate, each estimated row and each graded block calls the family's
    kernels once, on the very points StackedObjective was given. A
    closed-form row takes its objective from the step's values, so only the
    last row evaluates one; the run's 5 rows are one block."""
    calls, given_points = [], []

    def spy(name, kernel):
        def counted(data, params, pts, arg):
            calls.append((name, pts))
            return kernel(data, params, pts, arg)

        return counted

    values = StackedObjective.values

    def recorded_values(self, pts):
        given_points.append(pts)
        return values(self, pts)

    monkeypatch.setattr(objectives, "_toy_rows", spy("values", objectives._toy_rows))
    monkeypatch.setattr(objectives, "_toy_smoothed", spy("closed forms", objectives._toy_smoothed))
    monkeypatch.setattr(StackedObjective, "values", recorded_values)
    n = 4
    objs = [toy_objective()] * n
    calls.clear()
    params = _params(
        total_iters=5, smoothing=SmoothingParams(0.01, 6), gap_gradient=gap_gradient,
        mc_gap_samples=7, init_lo=-1.0, init_hi=1.0, rho=60.0,
    )
    run_centralized(generate_graph("ring", n, seed=0), objs, params)
    counts = {name: sum(c[0] == name for c in calls) for name in ("values", "closed forms")}
    assert counts == {"values": value_calls, "closed forms": closed_form_calls}
    value_points = [pts for name, pts in calls if name == "values"]
    assert len(given_points) == len(value_points)
    for pts, given in zip(value_points, given_points):
        assert pts.shape == (1, given.shape[0] * given.shape[1], 1)
        assert np.shares_memory(pts, given)
