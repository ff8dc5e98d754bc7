"""Acceptance gate: one verdict line per shipped guarantee.

Every test records a single PASS/FAIL line with the measured numbers (the
conftest hook replays them after the run) and asserts the same condition.
The experiment-scale checks share session fixtures to stay inside their
wall-clock budgets.
"""
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from zopd.engine import AlgoParams, run_centralized, run_distributed, primal_step
from zopd.graph import Topology, build_matrices, generate_graph
from zopd.harness import config_from_dict, replica_a_config, replica_b_config, run_experiment, sweep
from zopd.metrics import potential_lower_bound, validate_params
from zopd.objectives import quadratic_objective, random_quadratic, toy_objective
from zopd.szo import (
    NoiseModel,
    SmoothingParams,
    SZOracle,
    estimate_gradient,
    estimator_norm_diagnostic,
)


def _quartic_probe():
    # fixed 4-d SPD quadratic; smoothing is exact so grad_mu = Hx + b
    h = np.array(
        [
            [2.0, 0.3, 0.0, 0.1],
            [0.3, 1.5, -0.2, 0.0],
            [0.0, -0.2, 2.5, 0.4],
            [0.1, 0.0, 0.4, 1.2],
        ]
    )
    b = np.array([0.4, -1.2, 0.7, 0.05])
    obj = quadratic_objective(h, b, box_lo=-6.0, box_hi=6.0)
    x = np.array([0.3, -0.7, 1.1, 0.2])
    return obj, x, h @ x + b


@pytest.fixture(scope="session")
def replica_a(tmp_path_factory):
    cfg = config_from_dict(replica_a_config(str(tmp_path_factory.mktemp("rep_a")), trials=30))
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def replica_b(tmp_path_factory):
    cfg = config_from_dict(replica_b_config(str(tmp_path_factory.mktemp("rep_b")), trials=30))
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - t0


def test_estimator_unbiasedness(verdict):
    obj, x, exact = _quartic_probe()
    mu = 0.1
    t0 = time.perf_counter()
    worst = 0.0
    for tag, noise in (("noiseless", NoiseModel()), ("sigma=0.1", NoiseModel("additive_gaussian", 0.1))):
        oracle = SZOracle(obj, noise)
        rng = np.random.default_rng(np.random.SeedSequence((20260822, len(tag))))
        # 1000 batches of 100 share one draw stream, so their average is
        # exactly the average of the same 1e5 single two-point estimates
        groups = np.array(
            [estimate_gradient(oracle, x, SmoothingParams(mu, 100), rng) for _ in range(1000)]
        )
        grand = groups.mean(axis=0)
        se = groups.std(axis=0, ddof=1) / np.sqrt(groups.shape[0])
        worst = max(worst, float(np.max(np.abs(grand - exact) / se)))
    elapsed = time.perf_counter() - t0
    ok = worst < 4.0 and elapsed < 10.0
    verdict("estimator unbiasedness", ok, f"max |dev|/SE {worst:.2f} < 4, {elapsed:.1f}s < 10s")


def test_estimator_variance_scaling(verdict):
    obj, x, exact = _quartic_probe()
    oracle = SZOracle(obj)
    rng = np.random.default_rng(np.random.SeedSequence(52))
    batches = np.array([1, 4, 16, 64])
    t0 = time.perf_counter()
    msd = [
        estimator_norm_diagnostic(
            oracle, x, SmoothingParams(0.1, int(j)), replicates=10**4, rng=rng,
            reference_grad=exact,
        )["mean_sq_deviation"]
        for j in batches
    ]
    elapsed = time.perf_counter() - t0
    slope = float(np.polyfit(np.log(batches), np.log(msd), 1)[0])
    ok = -1.3 <= slope <= -0.7 and elapsed < 30.0
    verdict("estimator variance scaling", ok, f"log-log slope {slope:.3f} in [-1.3,-0.7], {elapsed:.1f}s < 30s")


def test_primal_step_matches_independent_minimizer(verdict, dense_ops):
    rng = np.random.default_rng(7103)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        topo = generate_graph("random_connected", n, extra_edge_prob=0.5, seed=k, block_dim=m)
        mats = build_matrices(topo)
        x = rng.standard_normal(n * m)
        lam = rng.standard_normal(topo.num_edges * m)
        grad = rng.standard_normal(n * m)
        rho = float(rng.uniform(0.3, 5.0))
        z_lib = primal_step(x, lam, grad, mats, rho)

        # independent route: minimize the linearized degree-weighted proximal
        # model q(z) = <lin, z-x> + rho (z-x)' D (z-x) numerically
        ref = dense_ops(topo)
        lin = grad + ref.incidence.T @ lam + rho * (ref.lminus @ x)
        d = ref.degrees_vector

        def q(z, lin=lin, d=d, x=x, rho=rho):
            s = z - x
            return float(lin @ s + rho * s @ (d * s))

        def dq(z, lin=lin, d=d, x=x, rho=rho):
            return lin + 2.0 * rho * d * (z - x)

        def hq(z, d=d, rho=rho):
            return 2.0 * rho * np.diag(d)

        sol = minimize(q, x, jac=dq, hess=hq, method="trust-exact", options={"gtol": 1e-13})
        rel = float(np.linalg.norm(z_lib - sol.x) / (1.0 + np.linalg.norm(sol.x)))
        worst = max(worst, rel)
    ok = worst < 1e-8
    verdict("primal step optimality", ok, f"max rel residual {worst:.2e} < 1e-8 over 100 instances")


def _equivalence_cases():
    ring = generate_graph("ring", 6, block_dim=2)
    ring_objs = [random_quadratic(2, 40 + i, box_lo=-50.0, box_hi=50.0) for i in range(6)]
    ring_params = AlgoParams(
        rho=6.0, smoothing=SmoothingParams(0.05, 4), total_iters=200, seed=501,
        init_lo=-1.0, init_hi=1.0,
    )
    rand = generate_graph("random_connected", 10, extra_edge_prob=0.2, seed=3, block_dim=1)
    rand_objs = [toy_objective() for _ in range(10)]
    rand_params = AlgoParams(
        rho=60.0, smoothing=SmoothingParams(0.01, 8), total_iters=200, seed=502,
        init_lo=-2.0, init_hi=2.0,
    )
    return [("ring(6)", ring, ring_objs, ring_params), ("random(10)", rand, rand_objs, rand_params)]


def test_centralized_distributed_equivalence(verdict):
    worst = 0.0
    identical = True
    for name, topo, objs, params in _equivalence_cases():
        rc = run_centralized(topo, objs, params)
        rd = run_distributed(topo, objs, params)
        for field in ("states_x", "states_lam", "states_grad"):
            a, b = getattr(rc, field), getattr(rd, field)
            identical = identical and np.array_equal(a, b)
            worst = max(worst, float(np.max(np.abs(a - b))))
    ok = identical
    verdict(
        "centralized/distributed equivalence",
        ok,
        f"iterates, duals and gradients array_equal: {identical}, max per-coordinate drift {worst:.2e}",
    )


def test_dual_step_tracks_consensus_residual(verdict, dense_ops):
    cases = _equivalence_cases()
    star = generate_graph("star", 5, block_dim=2)
    star_objs = [random_quadratic(2, 90 + i, box_lo=-50.0, box_hi=50.0) for i in range(5)]
    star_params = AlgoParams(
        rho=6.0, smoothing=SmoothingParams(0.05, 4), total_iters=200, seed=503,
        init_lo=-1.0, init_hi=1.0, noise=NoiseModel("additive_gaussian", 0.05),
    )
    cases.append(("star(5)+noise", star, star_objs, star_params))
    worst = 0.0
    for name, topo, objs, params in cases:
        res = run_centralized(topo, objs, params)
        inc = dense_ops(topo).incidence
        for r in range(res.states_x.shape[0] - 1):
            a = float(np.linalg.norm(inc @ res.states_x[r + 1]))
            d = float(np.linalg.norm(res.states_lam[r + 1] - res.states_lam[r]) / params.rho)
            scale = max(1.0, a, d, float(np.linalg.norm(res.states_lam[r + 1])) / params.rho)
            worst = max(worst, abs(a - d) / scale)
    ok = worst < 1e-12
    verdict("dual/consensus identity", ok, f"max rel mismatch {worst:.2e} < 1e-12 along 3 runs")


@pytest.fixture(scope="module")
def valid_potential_run():
    # tiny curvature keeps the smoothed-gradient Lipschitz constant small
    # enough that the sufficient step-size conditions are satisfiable, at
    # the graph's default potential weight c; the validator judges the
    # run's own constants
    topo = Topology(2, ((1, 2),), 1)
    pieces = ((1.5e-3, 1e-3), (0.8e-3, -1e-3))
    objs = [
        quadratic_objective(np.array([[h]]), np.array([bb]), -3.0, 3.0) for h, bb in pieces
    ]
    mu, rho, batch = 1.0, 1.0, 30
    params = AlgoParams(
        rho=rho, smoothing=SmoothingParams(mu, batch), total_iters=500, seed=77,
        init_lo=-2.0, init_hi=2.0, gradient_mode="reference", gap_gradient="closed_form",
    )
    res = run_centralized(topo, objs, params)
    report = validate_params(res.constants)
    # the blocks are independent in the objective term, so summing each
    # smoothed local cost's interior minimum bounds it from below
    f_lower = sum(-(bb * bb) / (2 * h) + 0.5 * mu**2 * h for h, bb in pieces)
    lb = potential_lower_bound(res.constants, f_lower, batch)
    return report, res, lb


def test_potential_descends_under_valid_parameters(valid_potential_run, verdict):
    report, res, _ = valid_potential_run
    pot = np.array([r.potential for r in res.records])
    diffs = np.diff(pot)
    ok = report.valid and pot.size == 500 and bool(np.all(diffs <= 1e-9))
    verdict(
        "potential monotonicity",
        ok,
        f"validator valid={report.valid}, max increase {diffs.max():.2e} <= 1e-9 over 500 iters",
    )


def test_potential_stays_above_certified_floor(valid_potential_run, verdict):
    _, res, lb = valid_potential_run
    pot_min = min(r.potential for r in res.records)
    ok = pot_min >= lb
    verdict("potential lower bound", ok, f"min P {pot_min:.3e} >= floor {lb:.3e}")


def _trend_numbers(result):
    rows = result.mean["primal_dual"]
    gap = np.array([r.stationarity_gap for r in rows])
    vio = np.array([r.constraint_violation for r in rows])
    ratio = float(vio[-1] / vio[0])
    ma = np.convolve(gap, np.ones(100) / 100.0, mode="valid")
    max_inc = float(np.diff(ma[-500:]).max())
    return ratio, max_inc


def test_replica_a_trends(replica_a, verdict):
    result, wall = replica_a
    ratio, max_inc = _trend_numbers(result)
    ok = ratio <= 1e-2 and max_inc <= 0.0 and wall < 300.0
    verdict(
        "replica A trends",
        ok,
        f"violation ratio {ratio:.2e} <= 1e-2, max MA increment {max_inc:.2e} <= 0, {wall:.0f}s < 300s",
    )


def test_replica_b_trends(replica_b, verdict):
    result, wall = replica_b
    ratio, max_inc = _trend_numbers(result)
    ok = ratio <= 1e-2 and max_inc <= 0.0 and wall < 600.0
    verdict(
        "replica B trends",
        ok,
        f"violation ratio {ratio:.2e} <= 1e-2, max MA increment {max_inc:.2e} <= 0, {wall:.0f}s < 600s",
    )


def test_beats_gradient_free_baseline(replica_a, replica_b, verdict):
    margins = []
    ok = True
    for name, (result, _) in (("A", replica_a), ("B", replica_b)):
        for col in ("stationarity_gap", "constraint_violation"):
            ours = getattr(result.mean["primal_dual"][-1], col)
            theirs = getattr(result.mean["rgf"][-1], col)
            ok = ok and ours < theirs
            margins.append(f"{name} {col.split('_')[0]} {ours:.1e}<{theirs:.1e}")
    verdict("baseline dominance", ok, ", ".join(margins))


def test_rate_fit(tmp_path, verdict):
    raw = {
        "name": "rate-sweep",
        "topology": {"kind": "ring", "num_nodes": 4, "block_dim": 2},
        "objective": {"kind": "quadratic", "seed": 5, "box": [-50.0, 50.0]},
        "algorithm": {
            "rho": 6.0, "mu": 0.05, "samples": 4, "iters": 100, "seed": 314,
            "init": [-1.0, 1.0], "modes": ["centralized"],
        },
        "baseline": {"enabled": False},
        "trials": 5,
        "output_dir": str(tmp_path / "sweep"),
    }
    report = sweep(config_from_dict(raw), [250, 1000, 4000])
    assert report["samples_per_horizon"] == [16, 32, 64]
    rel = report["fit"]["rel_residual"]
    ok = rel < 0.30
    verdict("inverse-horizon rate fit", ok, f"rel residual {rel:.3f} < 0.30 at T=250/1000/4000")
