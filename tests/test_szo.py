"""Two-point gradient estimator: bias, variance scaling, rng discipline."""
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import linear_objective, zero_objective
from zopd import szo
from zopd.objectives import (
    StackedObjective,
    quadratic_objective,
    random_quadratic,
    toy_objective,
)
from zopd.szo import (
    BoxExhausted,
    NoiseModel,
    OutsideBox,
    SmoothingParams,
    SZOracle,
    estimate_batch,
    estimate_gradient,
    estimator_norm_diagnostic,
    measure_gradient_and_value,
    smoothed_gradient_mc,
    smoothed_gradient_reference,
    smoothed_value,
)


def _rng(*path):
    return np.random.default_rng(np.random.SeedSequence(path))


def _one_agent_batch(obj, noise, x, mu, samples, rng):
    """estimate_batch for the one agent obj at x, retrying from rng itself."""
    xb = np.asarray(x, dtype=float)[None]
    smoothing = SmoothingParams(mu, samples)
    return estimate_batch(StackedObjective([obj]), noise, xb, smoothing, rng, lambda i: rng)


class TestOracleQuery:
    def test_noiseless_values(self):
        sq = quadratic_objective(2.0 * np.eye(1), np.zeros(1))
        assert sq.value_many(np.array([[3.0]]))[0] == pytest.approx(9.0)
        toy = toy_objective()
        assert toy.value_many(np.array([[0.0]]))[0] == pytest.approx(2.0)
        # the estimator's noise-free values are the objective's
        for obj, x in ((sq, [3.0]), (toy, [0.0])):
            base = _one_agent_batch(obj, NoiseModel(), x, 0.1, 2, _rng(0))[2]
            assert base[0] == obj.value_many(np.array(x)[None])[0]

    def test_noisy_mean(self):
        # a linear objective's perturbed values average to its value at x, so
        # the noisy values' mean less the noise-free value is the noise mean
        obj = linear_objective([2.0, -1.0])
        x, mu, n = np.array([1.0, 1.0]), 0.01, 40_000
        noise = NoiseModel("additive_gaussian", 0.5)
        _, noisy, base = _one_agent_batch(obj, noise, x, mu, n, _rng(3))
        assert base[0] == 1.0 and noisy.shape == (1, n)
        se = math.sqrt(0.5**2 + 5.0 * mu**2) / math.sqrt(n)
        assert abs(float(np.mean(noisy[0])) - base[0]) < 3.0 * se

    def test_out_of_box_rejected(self):
        with pytest.raises(OutsideBox, match="agent 1 outside the domain box"):
            _one_agent_batch(toy_objective(), NoiseModel(), [5.1], 0.1, 2, _rng(0))

    def test_noise_model_rejections(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseModel("uniform")
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                NoiseModel("additive_gaussian", bad)
        with pytest.raises(ValueError, match="cannot carry"):
            NoiseModel("none", 0.5)

    def test_smoothing_params_rejections(self):
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError, match="mu"):
                SmoothingParams(bad, 4)
        with pytest.raises(ValueError, match="samples"):
            SmoothingParams(0.1, 0)


class TestEstimatorStatistics:
    def test_unbiased_for_quadratic(self):
        # replicate means against the exact smoothed gradient Hx + b
        dim = 4
        obj = quadratic_objective(np.diag([1.0, 2.0, 0.5, 3.0]), np.array([0.3, 0.0, -1.0, 0.2]))
        x = np.array([0.5, -0.4, 1.0, 0.1])
        exact = obj.smoothed_gradient(x, 0.1)
        for noise in (NoiseModel(), NoiseModel("additive_gaussian", 0.1)):
            oracle = SZOracle(obj, noise)
            rng = _rng(10, noise.kind == "none")
            reps = 2000
            ests = np.array(
                [estimate_gradient(oracle, x, SmoothingParams(0.1, 50), rng) for _ in range(reps)]
            )
            se = np.std(ests, axis=0, ddof=1) / math.sqrt(reps)
            assert np.all(np.abs(ests.mean(axis=0) - exact) < 4.0 * se)

    def test_shared_noise_cancels_exactly(self):
        # both queries of a sample reuse one noise draw, so even absurd noise
        # levels cannot degrade the estimate
        obj = quadratic_objective(np.eye(2), np.zeros(2))
        x = np.array([1.0, -1.0])
        oracle = SZOracle(obj, NoiseModel("additive_gaussian", 1e6))
        rng = _rng(11)
        reps = 50
        ests = np.array(
            [estimate_gradient(oracle, x, SmoothingParams(0.05, 100), rng) for _ in range(reps)]
        )
        se = np.std(ests, axis=0, ddof=1) / math.sqrt(reps)
        exact = obj.smoothed_gradient(x, 0.05)
        assert np.all(np.abs(ests.mean(axis=0) - exact) < 4.0 * se)
        assert np.all(se < 0.1)

    def test_variance_scales_inversely_with_samples(self):
        obj = quadratic_objective(np.diag([1.0, 2.0, 0.5]), np.zeros(3))
        x = np.array([1.0, 0.5, -0.8])
        exact = obj.smoothed_gradient(x, 0.1)
        msd = {}
        for j in (1, 16):
            oracle = SZOracle(obj)
            rng = _rng(12, j)
            reps = 10_000
            devs = np.empty(reps)
            params = SmoothingParams(0.1, j)
            for r in range(reps):
                d = estimate_gradient(oracle, x, params, rng) - exact
                devs[r] = d @ d
            msd[j] = float(np.mean(devs))
        ratio = msd[1] / msd[16]
        assert 8.0 < ratio < 32.0

    def test_linear_deviation_closed_form(self):
        # for f = a'x the single-sample estimate is (a'phi) phi, whose mean
        # squared deviation from a is (dim + 1) ||a||^2 by Wick pairing
        a = np.array([1.0, -2.0, 0.5])
        oracle = SZOracle(linear_objective(a))
        diag = estimator_norm_diagnostic(
            oracle,
            np.zeros(3),
            SmoothingParams(0.5, 1),
            replicates=10_000,
            rng=_rng(13),
            reference_grad=a,
        )
        expected_dev = (3 + 1) * float(a @ a)
        expected_norm = (3 + 2) * float(a @ a)
        assert abs(diag["mean_sq_deviation"] - expected_dev) < 4.0 * diag["mean_sq_deviation_se"]
        assert abs(diag["mean_sq_norm"] - expected_norm) < 4.0 * diag["mean_sq_norm_se"]

    def test_diagnostic_constant_objective(self):
        oracle = SZOracle(quadratic_objective(np.zeros((2, 2)), np.zeros(2)))
        diag = estimator_norm_diagnostic(
            oracle, np.zeros(2), SmoothingParams(0.2, 4), replicates=200, rng=_rng(14)
        )
        assert diag["mean_sq_norm"] == 0.0
        assert diag["mean_sq_deviation"] == 0.0

    def test_diagnostic_bound_field(self):
        obj = toy_objective()
        oracle = SZOracle(obj)
        diag = estimator_norm_diagnostic(
            oracle, np.zeros(1), SmoothingParams(0.1, 5), replicates=150, rng=_rng(15)
        )
        assert diag["theoretical_bound"] == pytest.approx(
            obj.lipschitz_l0**2 * (1 + 4) ** 2 / 25.0
        )
        assert diag["replicates"] == 150
        assert diag["samples"] == 5
        with pytest.raises(ValueError, match="replicates"):
            estimator_norm_diagnostic(
                oracle, np.zeros(1), SmoothingParams(0.1, 5), replicates=99, rng=_rng(15)
            )


class TestRngDiscipline:
    def test_batch_equals_mean_of_singles(self):
        obj = quadratic_objective(np.diag([2.0, 1.0]), np.array([0.5, -0.25]))
        noise = NoiseModel("additive_gaussian", 0.3)
        x = np.array([0.2, -0.1])
        j = 8
        batch = estimate_gradient(
            SZOracle(obj, noise), x, SmoothingParams(0.1, j), _rng(77)
        )
        rng = _rng(77)
        oracle = SZOracle(obj, noise)
        singles = [
            estimate_gradient(oracle, x, SmoothingParams(0.1, 1), rng) for _ in range(j)
        ]
        np.testing.assert_array_equal(batch, np.mean(singles, axis=0))

    def test_deterministic_per_seed(self):
        obj = toy_objective()
        noise = NoiseModel("additive_gaussian", 0.2)
        params = SmoothingParams(0.05, 12)
        x = np.array([0.7])
        a = estimate_gradient(SZOracle(obj, noise), x, params, _rng(4, 2, 1))
        b = estimate_gradient(SZOracle(obj, noise), x, params, _rng(4, 2, 1))
        c = estimate_gradient(SZOracle(obj, noise), x, params, _rng(4, 2, 2))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_query_accounting(self):
        oracle = SZOracle(toy_objective())
        estimate_gradient(oracle, np.array([0.5]), SmoothingParams(0.01, 7), _rng(5))
        assert oracle.query_count == 14
        g, v = measure_gradient_and_value(
            oracle, np.array([0.5]), SmoothingParams(0.01, 3), _rng(6)
        )
        assert oracle.query_count == 14 + 6
        assert g.shape == (1,)
        smoothed_value(oracle, np.array([0.5]), 0.01, 250, _rng(7))
        assert oracle.query_count == 20 + 250

    def test_retry_cap_exhaustion(self):
        tight = zero_objective(1e-9)
        with pytest.raises(RuntimeError, match="left the domain box"):
            estimate_gradient(
                SZOracle(tight), np.zeros(1), SmoothingParams(1.0, 1), _rng(8)
            )

    def test_box_exhausted_survives_pickling(self):
        # a pool worker's exhaustion reaches the parent as itself
        exc = BoxExhausted(1, 3)
        again = pickle.loads(pickle.dumps(exc))
        assert type(again) is BoxExhausted
        assert (again.agent, again.tries) == (1, 3)
        assert str(again) == str(exc)
        assert str(again).startswith("smoothing perturbation left the domain box 3 times")

    def test_retries_near_boundary_succeed(self):
        obj = toy_objective()
        # x close to the box edge forces redraws but must still succeed
        g = estimate_gradient(
            SZOracle(obj), np.array([4.95]), SmoothingParams(0.1, 40), _rng(9)
        )
        assert np.all(np.isfinite(g))

    def test_estimate_point_validation(self):
        oracle = SZOracle(toy_objective())
        with pytest.raises(ValueError, match="shape"):
            estimate_gradient(oracle, np.zeros(2), SmoothingParams(0.1, 1), _rng(1))
        with pytest.raises(ValueError, match="outside the domain box"):
            estimate_gradient(oracle, np.array([6.0]), SmoothingParams(0.1, 1), _rng(1))


def _per_sample_walk(oracle, x, smoothing, rng, retry_cap):
    """Reference draw order: per sample phi, a fresh phi per box retry, then
    the noise draw. Returns (phis, xis, perturbed values, base value) and
    the number of retries."""
    obj = oracle.objective
    j = smoothing.samples
    phis = np.empty((j, obj.dim))
    xis = np.zeros(j)
    retries = 0
    for s in range(j):
        phi = rng.standard_normal(obj.dim)
        tries = 0
        while not obj.box.contains(x + smoothing.mu * phi):
            tries += 1
            if tries > retry_cap:
                raise RuntimeError("left the domain box")
            phi = rng.standard_normal(obj.dim)
        retries += tries
        phis[s] = phi
        if oracle.noise.kind != "none":
            xis[s] = oracle.noise.std_dev * rng.standard_normal()
    pert_vals = obj.value_many(x + smoothing.mu * phis)
    base_val = float(obj.value_many(x.reshape(1, obj.dim))[0])
    oracle.query_count += 2 * j
    return (phis, xis, pert_vals, base_val), retries


def _sample(obj, noise, x, mu, j, rng, retry_cap):
    """The sampling primitive on one agent, retrying from rng itself:
    (phis, xis, f(x + mu phis))."""
    lo, hi = obj.box.lo[None], obj.box.hi[None]
    phis, xis, pts = szo._draw(lo, hi, noise, x[None], mu, j, rng, lambda i: rng, retry_cap)
    return phis[0], xis[0], obj.value_many(pts[0])


def test_sampling_primitive_matches_per_sample_walk():
    retried = []

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        dim=st.integers(1, 4),
        j=st.integers(1, 16),
        noise=st.sampled_from(
            [NoiseModel(), NoiseModel("additive_gaussian", 0.0), NoiseModel("additive_gaussian", 0.3)]
        ),
        mu=st.floats(0.05, 0.5),
        face=st.integers(0, 7),
        depth=st.floats(0.0, 1.0),
        retry_cap=st.sampled_from([1, 100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(dim, j, noise, mu, face, depth, retry_cap, seed):
        obj = quadratic_objective(np.diag(np.arange(1.0, dim + 1)), np.ones(dim), -1.0, 1.0)
        x = np.linspace(-0.5, 0.5, dim)
        # one coordinate within mu of a box face, so that draws leave the box
        x[face % dim] = (1.0 - depth * mu) * (1 if face < 4 else -1)
        smoothing = SmoothingParams(mu, j)
        ref_oracle, ref_rng = SZOracle(obj, noise), _rng(seed)
        try:
            ref, retries = _per_sample_walk(ref_oracle, x, smoothing, ref_rng, retry_cap)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="left the domain box"):
                _sample(obj, noise, x, mu, j, _rng(seed), retry_cap)
            return
        rng = _rng(seed)
        phis, xis, vals = _sample(obj, noise, x, mu, j, rng, retry_cap)
        for got, want in zip((phis, xis, vals), ref[:3]):
            assert got.tobytes() == want.tobytes()
        assert rng.standard_normal() == ref_rng.standard_normal()
        retried.append(retries > 0)

        phis, xis, pert_vals, base_val = ref
        want = np.mean((((pert_vals + xis) - (base_val + xis)) / mu)[:, None] * phis, axis=0)
        oracle = SZOracle(obj, noise)
        grad, value = measure_gradient_and_value(oracle, x, smoothing, _rng(seed), retry_cap)
        assert grad.tobytes() == want.tobytes()
        assert value == float(np.mean(pert_vals + xis))
        assert oracle.query_count == ref_oracle.query_count == 2 * j
        batch = estimate_gradient(oracle, x, smoothing, _rng(seed), retry_cap)
        rng = _rng(seed)
        singles = [
            estimate_gradient(oracle, x, SmoothingParams(mu, 1), rng, retry_cap) for _ in range(j)
        ]
        assert batch.tobytes() == want.tobytes() == np.mean(singles, axis=0).tobytes()

    check()
    assert sum(retried) >= 50  # examples that exercised the retry walk


class _Concat:
    """A generator stand-in whose normal draws read head first, then rng."""

    def __init__(self, head, rng):
        self.head, self.rng = head.reshape(-1), rng

    def standard_normal(self, size):
        n = int(np.prod(size))
        take, self.head = self.head[:n], self.head[n:]
        return np.concatenate([take, self.rng.standard_normal(n - take.size)]).reshape(size)


def test_batch_rows_are_single_agent_estimates():
    """Agent i's row of a batched estimate is the single-agent estimate on
    the stream that reads row i of the block and then i's retry stream; the
    single-agent oracle is charged 2 J queries, retries included."""
    walked = []

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 6),
        dim=st.integers(1, 3),
        j=st.integers(1, 9),
        noisy=st.booleans(),
        on_face=st.lists(st.booleans(), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n, dim, j, noisy, on_face, seed):
        noise = NoiseModel("additive_gaussian", 0.3) if noisy else NoiseModel()
        objs = [random_quadratic(dim, seed=i % 2, box_lo=-1.0, box_hi=1.0) for i in range(n)]
        xb = _rng(seed, 1).uniform(-0.5, 0.5, (n, dim))
        xb[np.array(on_face[:n]), 0] = 1.0  # the agent sits on a box face
        smoothing = SmoothingParams(0.1, j)
        retried = []

        def retry_rng(i):
            retried.append(i)
            return _rng(seed, 2, i)

        grads, noisy_vals, _ = estimate_batch(
            StackedObjective(objs), noise, xb, smoothing, _rng(seed), retry_rng
        )
        block = _rng(seed).standard_normal((n, j, dim + int(noisy)))
        for i, obj in enumerate(objs):
            single = SZOracle(obj, noise)
            stream = _Concat(block[i], _rng(seed, 2, i))
            g, v = measure_gradient_and_value(single, xb[i], smoothing, stream)
            assert g.tobytes() == grads[i].tobytes()
            assert v == float(np.mean(noisy_vals[i]))
            assert single.query_count == 2 * j
        assert set(retried) <= {i for i in range(n) if on_face[i]}
        walked.append(bool(retried))

    check()
    assert sum(walked) >= 20  # examples that walked a row from its retry stream


class TestSmoothedSurrogates:
    def test_value_mc_matches_toy_closed_form(self):
        obj = toy_objective()
        x, mu = np.array([1.0]), 0.01
        closed = obj.smoothed_value(x, mu)
        est = smoothed_value(SZOracle(obj), x, mu, 10**6, _rng(21))
        # per-sample std is about mu |f'(x)|, estimated here analytically
        se = mu * 3.0 / math.sqrt(10**6)
        assert abs(est - closed) < 4.0 * se

    def test_value_mc_matches_quadratic_offset(self):
        obj = quadratic_objective(2.0 * np.eye(3), np.zeros(3))
        x, mu = np.array([1.0, 0.0, -0.5]), 0.2
        closed = obj.smoothed_value(x, mu)  # ||x||^2 + 3 mu^2
        assert closed == pytest.approx(float(x @ x) + 3 * mu**2)
        n = 4 * 10**5
        est = smoothed_value(SZOracle(obj), x, mu, n, _rng(22))
        probe = _rng(23).standard_normal((10**4, 3))
        sample_std = float(np.std(obj.value_many(x + mu * probe)))
        assert abs(est - closed) < 4.0 * sample_std / math.sqrt(n)

    def test_value_mc_with_noise_is_unbiased(self):
        obj = quadratic_objective(np.zeros((1, 1)), np.array([1.0]))
        oracle = SZOracle(obj, NoiseModel("additive_gaussian", 0.5))
        n = 10**5
        est = smoothed_value(oracle, np.array([2.0]), 0.1, n, _rng(24))
        sample_std = math.sqrt(0.1**2 + 0.5**2)
        assert abs(est - 2.0) < 4.0 * sample_std / math.sqrt(n)
        assert oracle.query_count == n

    def test_gradient_mc_matches_toy_closed_form(self):
        obj = toy_objective()
        x, mu = np.array([0.5]), 0.05
        closed = obj.smoothed_gradient(x, mu)
        est, se = smoothed_gradient_mc(obj, x, mu, 10**6, _rng(25))
        assert se[0] > 0
        assert abs(est[0] - closed[0]) < 4.0 * se[0]

    @pytest.mark.parametrize(
        "obj,x,samples",
        [
            (toy_objective(phase=0.3), [5.0 - 0.01], 9),
            (random_quadratic(3, 4, convex=False, box_lo=-1.0, box_hi=1.0), [0.99, 0.0, -0.2], 9),
            (random_quadratic(3, 4, convex=False, box_lo=-1.0, box_hi=1.0), [0.5, 0.0, -0.2], 9000),
        ],
        ids=["toy-face", "quadratic-face", "quadratic-two-draws"],
    )
    def test_gradient_mc_is_the_noise_free_estimate(self, obj, x, samples):
        # both take their terms from one draw order and one formula
        x, mu = np.array(x), 0.05
        est, _ = smoothed_gradient_mc(obj, x, mu, samples, _rng(27))
        grad, _ = measure_gradient_and_value(SZOracle(obj), x, SmoothingParams(mu, samples), _rng(27))
        assert est.tobytes() == grad.tobytes()

    def test_reference_dispatch(self):
        obj = toy_objective()
        x = np.array([0.5])
        np.testing.assert_array_equal(
            smoothed_gradient_reference(obj, x, 0.05), obj.smoothed_gradient(x, 0.05)
        )
        shifted = toy_objective(phase=0.3)
        with pytest.raises(ValueError, match="rng"):
            smoothed_gradient_reference(shifted, x, 0.05)
        a = smoothed_gradient_reference(shifted, x, 0.05, mc_samples=500, rng=_rng(26))
        b = smoothed_gradient_reference(shifted, x, 0.05, mc_samples=500, rng=_rng(26))
        np.testing.assert_array_equal(a, b)

    def test_smoothed_gradient_is_lipschitz(self):
        # difference quotients of the closed-form smoothed gradient stay
        # below the dimension-scaled bound 2 L0 sqrt(dim) / mu
        obj = toy_objective()
        mu = 0.1
        bound = 2.0 * obj.lipschitz_l0 * 1.0 / mu
        rng = _rng(27)
        a = rng.uniform(-5, 5, size=1000)
        b = rng.uniform(-5, 5, size=1000)
        keep = np.abs(a - b) > 1e-9
        quots = np.array(
            [
                abs(obj.smoothed_gradient(np.array([ai]), mu)[0] - obj.smoothed_gradient(np.array([bi]), mu)[0])
                / abs(ai - bi)
                for ai, bi in zip(a[keep], b[keep])
            ]
        )
        assert float(np.max(quots)) <= 1.05 * bound
