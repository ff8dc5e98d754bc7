"""Mixing-based gradient-free baseline."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zopd.baseline import RGFParams, apply_mixing, build_mixing, mixing_coupling, rgf_step, run_rgf
from zopd import engine
from zopd.engine import ROLE_BASELINE_STEP, AlgoParams, run_centralized, substream
from zopd.graph import Topology, build_matrices, generate_graph
from zopd.metrics import constraint_violation
from zopd.objectives import quadratic_objective, random_quadratic, toy_objective
from zopd.szo import SmoothingParams


def _params(**kw):
    base = dict(
        rho=6.0,
        smoothing=SmoothingParams(0.05, 4),
        total_iters=8,
        seed=77,
        init_lo=-1.0,
        init_hi=1.0,
    )
    base.update(kw)
    return AlgoParams(**base)


class TestMixingMatrix:
    def test_single_edge_weights(self):
        w = build_mixing(Topology(2, ((1, 2),), 1))
        np.testing.assert_allclose(w, [[0.5, 0.5], [0.5, 0.5]])

    def test_triangle_weights(self):
        w = build_mixing(Topology(3, ((1, 2), (2, 3), (1, 3)), 1))
        np.testing.assert_allclose(w, np.full((3, 3), 1.0 / 3.0))

    def test_star_weights(self):
        # hub degree 3 dominates every edge: off-diagonal weight 1/4
        topo = generate_graph("star", 4, block_dim=1, seed=0)
        w = build_mixing(topo)
        assert w[0, 1] == pytest.approx(0.25)
        assert w[0, 0] == pytest.approx(0.25)
        assert w[1, 1] == pytest.approx(0.75)
        assert w[1, 2] == 0.0

    def test_doubly_stochastic_and_sparse(self):
        for kind, n in (("ring", 6), ("random_connected", 9), ("complete", 5)):
            topo = generate_graph(kind, n, block_dim=1, seed=3)
            w = build_mixing(topo)
            np.testing.assert_allclose(w.sum(axis=0), np.ones(n), atol=1e-12)
            np.testing.assert_allclose(w.sum(axis=1), np.ones(n), atol=1e-12)
            np.testing.assert_array_equal(w, w.T)
            assert np.all(w >= 0)
            adjacency = np.eye(n, dtype=bool)
            for i, j in topo.edges:
                adjacency[i - 1, j - 1] = adjacency[j - 1, i - 1] = True
            assert not np.any(w[~adjacency])

    def test_consensual_input_is_exact_fixed_point(self):
        topo = generate_graph("random_connected", 7, block_dim=3, seed=5)
        mats = build_matrices(topo)
        blocks = np.tile(np.array([0.1, -2.7, 3.3]), (7, 1))
        np.testing.assert_array_equal(apply_mixing(mixing_coupling(mats), mats, blocks), blocks)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        kind=st.sampled_from(["ring", "path", "star", "complete", "random_connected"]),
        n=st.integers(2, 64),
        graph_seed=st.integers(0, 2**16),
        value=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4
        ),
    )
    def test_consensual_input_is_fixed_on_generated_graphs(self, kind, n, graph_seed, value):
        # small and large graphs, near-regular and degree-skewed
        assume(kind != "ring" or n >= 3)
        topo = generate_graph(
            kind, n, extra_edge_prob=0.2, seed=graph_seed, block_dim=len(value)
        )
        blocks = np.tile(np.array(value), (n, 1))
        mats = build_matrices(topo)
        mixed = apply_mixing(mixing_coupling(mats), mats, blocks)
        np.testing.assert_array_equal(mixed, blocks)

    def test_difference_form_equals_dense_product(self):
        topo = generate_graph("random_connected", 6, block_dim=2, seed=9)
        w = build_mixing(topo)
        blocks = np.random.default_rng(70).standard_normal((6, 2))
        mats = build_matrices(topo)
        np.testing.assert_allclose(apply_mixing(mixing_coupling(mats), mats, blocks), w @ blocks, atol=1e-13)

    def test_matches_edge_loop_bitwise(self):
        # reference: the per-edge loop, adding each edge's two terms in edge order
        def loop_mixing(w, topo, blocks):
            out = blocks.copy()
            for i, j in topo.edges:
                a, b = i - 1, j - 1
                diff = blocks[b] - blocks[a]
                out[a] = out[a] + w[a, b] * diff
                out[b] = out[b] - w[a, b] * diff
            return out

        rng = np.random.default_rng(71)

        def graphs():
            for k in range(30):
                n, m = int(rng.integers(2, 13)), int(rng.integers(1, 5))
                yield generate_graph("random_connected", n, extra_edge_prob=0.4, seed=k, block_dim=m)
            # large near-regular and degree-skewed graphs
            for kind, n, m in (("ring", 40, 3), ("path", 64, 2), ("star", 40, 3), ("star", 33, 1)):
                yield generate_graph(kind, n, block_dim=m)

        for topo in graphs():
            n, m = topo.num_nodes, topo.block_dim
            w = build_mixing(topo)
            blocks = rng.standard_normal((n, m))
            mats = build_matrices(topo)
            np.testing.assert_array_equal(apply_mixing(mixing_coupling(mats), mats, blocks), loop_mixing(w, topo, blocks))


class TestBaselineStep:
    def test_decay_halves_at_round_four(self):
        topo = Topology(2, ((1, 2),), 1)
        mats = build_matrices(topo)
        blocks = np.full((2, 1), 0.5)  # consensual, so mixing is the identity
        grads = np.array([[1.0], [-2.0]])
        d1 = blocks - rgf_step(blocks, grads, mixing_coupling(mats), mats, 0.3, 1)
        d4 = blocks - rgf_step(blocks, grads, mixing_coupling(mats), mats, 0.3, 4)
        np.testing.assert_allclose(d1, 0.3 * grads)
        np.testing.assert_allclose(d4, 0.15 * grads)

    def test_round_index_counts_from_one(self):
        mats = build_matrices(Topology(2, ((1, 2),), 1))
        with pytest.raises(ValueError, match="round_index"):
            rgf_step(np.zeros((2, 1)), np.zeros((2, 1)), mixing_coupling(mats), mats, 1.0, 0)

    def test_params_rejections(self):
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError, match="step_scale"):
                RGFParams(step_scale=bad)
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="mu"):
                RGFParams(mu=bad)


class TestBaselineRun:
    def test_constant_objective_converges_to_mean(self):
        # zero gradients leave pure consensus averaging, which contracts
        # geometrically onto the initial mean and preserves it
        topo = generate_graph("ring", 5, block_dim=1, seed=0)
        objs = [quadratic_objective(np.zeros((1, 1)), np.zeros(1), -50, 50) for _ in range(5)]
        result = run_rgf(topo, objs, _params(total_iters=100), RGFParams())
        x0 = result.states_x[0]
        target = np.full(5, np.mean(x0))
        assert np.linalg.norm(result.states_x[-1] - target) < 1e-12
        for row in result.states_x:
            assert np.mean(row) == pytest.approx(np.mean(x0), rel=1e-12)
        devs = np.linalg.norm(result.states_x - target, axis=1)
        assert np.all(devs[1:] <= devs[:-1] + 1e-15)

    def test_shares_init_stream_with_algorithm(self):
        topo = generate_graph("ring", 4, block_dim=2, seed=0)
        objs = [random_quadratic(2, seed=40 + i, box_lo=-50, box_hi=50) for i in range(4)]
        params = _params(total_iters=5)
        alg = run_centralized(topo, objs, params)
        base = run_rgf(topo, objs, params, RGFParams(step_scale=0.1))
        np.testing.assert_array_equal(alg.states_x[0], base.states_x[0])
        assert not np.array_equal(alg.states_x[1], base.states_x[1])

    def test_trace_schema(self):
        topo = generate_graph("ring", 3, block_dim=1, seed=0)
        objs = [random_quadratic(1, seed=50 + i, box_lo=-50, box_hi=50) for i in range(3)]
        result = run_rgf(topo, objs, _params(total_iters=6), RGFParams(step_scale=0.1))
        assert result.method == "rgf"
        assert [r.iteration for r in result.records] == list(range(1, 7))
        assert result.output_iteration is None
        assert result.output_x is None
        np.testing.assert_array_equal(result.states_lam, np.zeros((7, 3)))

    def test_violation_recorded_from_states(self):
        topo = generate_graph("ring", 3, block_dim=1, seed=0)
        mats = build_matrices(topo)
        objs = [random_quadratic(1, seed=50 + i, box_lo=-50, box_hi=50) for i in range(3)]
        result = run_rgf(
            topo, objs, _params(total_iters=4), RGFParams(step_scale=0.1), mats=mats
        )
        for rec in result.records:
            expected = constraint_violation(result.states_x[rec.iteration], mats)
            assert rec.constraint_violation == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_deterministic_per_seed(self):
        topo = generate_graph("ring", 3, block_dim=1, seed=0)
        objs = [random_quadratic(1, seed=50 + i, box_lo=-50, box_hi=50) for i in range(3)]
        a = run_rgf(topo, objs, _params(total_iters=5), RGFParams(step_scale=0.1))
        b = run_rgf(topo, objs, _params(total_iters=5), RGFParams(step_scale=0.1))
        np.testing.assert_array_equal(a.states_x, b.states_x)

    @staticmethod
    def _clipping_case():
        # Replica A's baseline settings, with every agent started on the face
        # x = 5 of [-5, 5]. The toy's slope there is 1 - sin 5 + e^5 = 150,
        # so an agent's first single-sample step 0.1 * 150 * phi^2 leaves the
        # box unless |phi| < 0.82, and the next estimate would query outside.
        # An agent on a face draws an outward direction half the time, so
        # its row is walked from its retry stream.
        edges = (
            (1, 3), (1, 5), (2, 6), (2, 7), (3, 7), (3, 9), (4, 5), (4, 8),
            (4, 9), (5, 8), (5, 9), (6, 10), (7, 10), (8, 9), (8, 10),
        )
        topo = Topology(10, edges, 1)
        objs = [toy_objective() for _ in range(10)]
        params = AlgoParams(
            rho=600.0, smoothing=SmoothingParams(0.01, 120), total_iters=200,
            seed=1836330263, init_lo=5.0, init_hi=5.0, gap_gradient="closed_form",
        )
        return topo, objs, params

    def test_iterates_projected_onto_domain_box(self):
        topo, objs, params = self._clipping_case()
        result = run_rgf(topo, objs, params, RGFParams(step_scale=0.1, mu=0.01))
        assert result.states_x.shape == (201, 10)
        assert np.all(np.abs(result.states_x) <= 5.0)
        assert np.any(result.states_x == -5.0)

    def test_clipped_agent_retries_and_reruns_byte_equal(self, monkeypatch):
        # agents on the box face have their rows walked from retry streams
        paths = []

        def recording(*path):
            paths.append(path)
            return substream(*path)

        monkeypatch.setattr(engine, "substream", recording)
        topo, objs, params = self._clipping_case()
        rgf = RGFParams(step_scale=0.1, mu=0.01)
        a = run_rgf(topo, objs, params, rgf)
        assert any(len(p) == 5 and p[2] == ROLE_BASELINE_STEP for p in paths)
        b = run_rgf(topo, objs, params, rgf)
        assert a.states_x.tobytes() == b.states_x.tobytes()
        assert a.states_grad.tobytes() == b.states_grad.tobytes()
        assert [dataclasses.astuple(r)[:-1] for r in a.records] == [
            dataclasses.astuple(r)[:-1] for r in b.records
        ]
