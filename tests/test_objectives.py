"""Benchmark objective families and their declared analytic data."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zopd.objectives import (
    Box,
    ClassificationData,
    LocalObjective,
    StackedObjective,
    estimate_lipschitz,
    logistic_regression_objective,
    quadratic_objective,
    random_quadratic,
    read_classification_csv,
    synthesize_classification_data,
    toy_objective,
    write_classification_csv,
)


def _gaussian_smoothed_mc(value_many, x, mu, samples, seed):
    """Independent Monte-Carlo oracle for the smoothed value and gradient.

    Draws its own standard normal perturbations and averages the defining
    expectations directly, without going through the estimator module.
    Returns (value, value_se, grad, grad_se).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, samples)))
    phis = rng.standard_normal((samples, x.size))
    pert = value_many(x[None, :] + mu * phis)
    base = float(value_many(x[None, :])[0])
    val = float(np.mean(pert))
    val_se = float(np.std(pert) / math.sqrt(samples))
    g_samples = ((pert - base) / mu)[:, None] * phis
    grad = g_samples.mean(axis=0)
    grad_se = g_samples.std(axis=0) / math.sqrt(samples)
    return val, val_se, grad, grad_se


class TestToyObjective:
    def test_value_examples(self):
        obj = toy_objective()
        assert obj.value(np.array([0.0])) == pytest.approx(2.0, abs=1e-15)
        expected_pi = abs(math.cos(math.pi) + math.pi + math.exp(math.pi))
        assert obj.value(np.array([math.pi])) == pytest.approx(expected_pi, rel=1e-15)

    def test_kink_at_zero(self):
        # one-sided difference quotients straddling the |x| kink
        obj = toy_objective()
        h = 1e-6
        right = (obj.value(np.array([h])) - obj.value(np.array([0.0]))) / h
        left = (obj.value(np.array([0.0])) - obj.value(np.array([-h]))) / h
        assert right == pytest.approx(2.0, abs=1e-4)
        assert left == pytest.approx(0.0, abs=1e-4)
        assert right - left > 1.5

    @pytest.mark.parametrize("x,mu", [(1.0, 0.5), (-0.7, 0.5), (0.3, 0.8), (1.0, 0.01)])
    def test_closed_smoothed_value_matches_mc(self, x, mu):
        obj = toy_objective()
        val, val_se, _, _ = _gaussian_smoothed_mc(
            obj.value_many, np.array([x]), mu, 2 * 10**6, seed=5
        )
        closed = obj.smoothed_value(np.array([x]), mu)
        assert abs(closed - val) < 4.0 * val_se + 1e-12

    @pytest.mark.parametrize("x,mu", [(1.0, 0.5), (-0.7, 0.5), (0.3, 0.8)])
    def test_closed_smoothed_gradient_matches_mc(self, x, mu):
        obj = toy_objective()
        _, _, grad, grad_se = _gaussian_smoothed_mc(
            obj.value_many, np.array([x]), mu, 4 * 10**6, seed=6
        )
        closed = obj.smoothed_gradient(np.array([x]), mu)
        assert abs(closed[0] - grad[0]) < 4.0 * grad_se[0]

    def test_closed_gradient_differentiates_closed_value(self):
        # the two closed forms must agree as derivative and antiderivative
        obj = toy_objective()
        for x in (-2.0, -0.5, 0.0, 0.4, 1.7):
            for mu in (0.05, 0.3):
                h = 1e-6
                fd = (
                    obj.smoothed_value(np.array([x + h]), mu)
                    - obj.smoothed_value(np.array([x - h]), mu)
                ) / (2 * h)
                g = obj.smoothed_gradient(np.array([x]), mu)[0]
                assert g == pytest.approx(fd, rel=1e-7, abs=1e-7)

    def test_lipschitz_and_lower_bound_audit(self):
        obj = toy_objective()
        sampled = estimate_lipschitz(obj.value_many, obj.box, samples=10**5, seed=91)
        assert sampled <= obj.lipschitz_l0
        rng = np.random.default_rng(12)
        pts = rng.uniform(obj.box.lo, obj.box.hi, size=(10**5, 1))
        assert float(np.min(obj.value_many(pts))) >= obj.lower_bound

    def test_phase_shift_disables_closed_forms(self):
        shifted = toy_objective(phase=0.4)
        assert shifted.smoothed_gradient is None
        assert shifted.smoothed_value is None
        assert shifted.value(np.array([0.0])) == pytest.approx(
            abs(math.cos(0.4) + 1.0), rel=1e-15
        )


class TestLogisticRegression:
    def _tiny(self, batch=4, dim=3, seed=0):
        rng = np.random.default_rng(seed)
        return ClassificationData(
            rng.standard_normal((batch, dim)),
            np.where(rng.uniform(size=batch) < 0.5, 1.0, -1.0),
        )

    def test_value_at_origin_alpha_zero(self):
        data = self._tiny()
        obj = logistic_regression_objective(data, num_agents=3, alpha=0.0)
        assert obj.value(np.zeros(3)) == pytest.approx(math.log(2.0) / 3.0, rel=1e-14)

    def test_value_at_origin_unit_epsilon(self):
        # log(eps + 0) vanishes at eps=1, so the regularizer adds nothing
        data = self._tiny()
        plain = logistic_regression_objective(data, num_agents=3, alpha=0.0)
        reg = logistic_regression_objective(data, num_agents=3, alpha=1.0, epsilon=1.0)
        assert reg.value(np.zeros(3)) == pytest.approx(plain.value(np.zeros(3)), rel=1e-14)

    def test_single_point_margin(self):
        data = ClassificationData(np.array([[1.0, 0.0]]), np.array([1.0]))
        obj = logistic_regression_objective(data, num_agents=5, alpha=0.0)
        expected = math.log(1.0 + math.exp(-10.0)) / 5.0
        assert obj.value(np.array([10.0, 0.0])) == pytest.approx(expected, rel=1e-12)

    def test_matches_plain_python_recomputation(self):
        """Loop-based reimplementation of the same formula as an oracle."""
        data = self._tiny(batch=6, dim=4, seed=3)
        alpha, eps, n = 0.25, 1e-2, 4
        obj = logistic_regression_objective(data, num_agents=n, alpha=alpha, epsilon=eps)
        rng = np.random.default_rng(7)
        for x in rng.uniform(-2, 2, size=(20, 4)):
            loss = 0.0
            for v, y in zip(data.features, data.labels):
                loss += math.log1p(math.exp(-y * float(np.dot(x, v))))
            loss += alpha * math.log(eps + float(np.sum(np.abs(x))))
            expected = loss / (n * data.batch)
            assert obj.value(x) == pytest.approx(expected, rel=1e-12)

    def test_extreme_margins_give_the_linear_asymptote(self):
        # exp(-m) overflows at m = -1e3: softplus(-m) must still be max(-m, 0)
        data = ClassificationData(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0]))
        obj = logistic_regression_objective(data, num_agents=1, alpha=0.0)
        pts = np.array([[1e3, 1e3], [-1e3, -1e3], [1e3, -1e3], [-1e3, 1e3]])
        with np.errstate(over="raise"):
            vals = obj.value_many(pts)
        # margins (1e3, -1e3), (-1e3, 1e3), (1e3, 1e3), (-1e3, -1e3)
        np.testing.assert_array_equal(vals, np.array([1e3, 1e3, 0.0, 2e3]) / 2.0)

    def test_matches_logaddexp_formula(self):
        """The softplus rewrite agrees with log(1 + e^-m) written as
        logaddexp(0, -m) on the unfolded labels, to a relative 1e-14."""

        @settings(max_examples=60, derandomize=True, deadline=None)
        @given(
            batch=st.integers(1, 40),
            dim=st.integers(1, 6),
            rows=st.integers(1, 9),
            spread=st.sampled_from([0.1, 2.0, 50.0]),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(batch, dim, rows, spread, seed):
            data = self._tiny(batch, dim, seed)
            alpha, eps, n = 0.1, 1e-3, 3
            obj = logistic_regression_objective(data, n, alpha=alpha, epsilon=eps)
            pts = np.random.default_rng(seed).uniform(-spread, spread, (rows, dim))
            margins = data.labels * np.einsum("sm,mb->sb", pts, data.features.T)
            loss = np.sum(np.logaddexp(0.0, -margins), axis=1)
            want = (loss + alpha * np.log(eps + np.sum(np.abs(pts), axis=1))) / (n * batch)
            np.testing.assert_allclose(obj.value_many(pts), want, rtol=1e-14, atol=0.0)

        check()

    def test_label_folded_margins_are_exact(self):
        """y (x.v) = x.(y v) bit for bit in the matrix product the kernel
        computes: a sign flip commutes with every product and sum."""
        data = self._tiny(batch=30, dim=5, seed=9)
        obj = logistic_regression_objective(data, num_agents=2)
        signed_t = obj.family.data[0]
        pts = np.random.default_rng(4).uniform(-10.0, 10.0, (25, 5))
        plain = data.labels * np.matmul(pts, np.ascontiguousarray(data.features.T))
        assert np.matmul(pts, signed_t).tobytes() == plain.tobytes()

    def test_lipschitz_and_lower_bound_audit(self):
        data = self._tiny(batch=16, dim=3, seed=5)
        obj = logistic_regression_objective(data, num_agents=2)
        sampled = estimate_lipschitz(obj.value_many, obj.box, samples=10**5, seed=31)
        assert sampled <= obj.lipschitz_l0
        rng = np.random.default_rng(8)
        pts = rng.uniform(obj.box.lo, obj.box.hi, size=(10**5, 3))
        assert float(np.min(obj.value_many(pts))) >= obj.lower_bound

    def test_parameter_rejections(self):
        data = self._tiny()
        with pytest.raises(ValueError, match="epsilon"):
            logistic_regression_objective(data, 2, epsilon=0.0)
        with pytest.raises(ValueError, match="alpha"):
            logistic_regression_objective(data, 2, alpha=-0.1)
        with pytest.raises(ValueError, match="label"):
            ClassificationData(np.zeros((2, 2)), np.array([1.0, 0.5]))


class TestSynthesizedData:
    def test_paper_scale_shapes(self):
        datasets, planted = synthesize_classification_data(15, 100, 10, seed=1)
        assert len(datasets) == 15
        for ds in datasets:
            assert ds.features.shape == (100, 10)
            assert set(np.unique(ds.labels)) <= {-1.0, 1.0}
        assert planted.shape == (10,)
        assert np.count_nonzero(planted) == math.ceil(10 / 4)

    def test_zero_flip_probability_labels_planted(self):
        datasets, planted = synthesize_classification_data(3, 50, 6, seed=2, flip_prob=0.0)
        for ds in datasets:
            np.testing.assert_array_equal(
                ds.labels, np.where(ds.features @ planted >= 0.0, 1.0, -1.0)
            )

    def test_determinism(self):
        a, pa = synthesize_classification_data(4, 20, 8, seed=9)
        b, pb = synthesize_classification_data(4, 20, 8, seed=9)
        np.testing.assert_array_equal(pa, pb)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.features, db.features)
            np.testing.assert_array_equal(da.labels, db.labels)

    def test_csv_round_trip(self, tmp_path):
        datasets, _ = synthesize_classification_data(1, 12, 5, seed=4)
        path = tmp_path / "agent.csv"
        write_classification_csv(datasets[0], path)
        back = read_classification_csv(path)
        np.testing.assert_array_equal(back.features, datasets[0].features)
        np.testing.assert_array_equal(back.labels, datasets[0].labels)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            read_classification_csv(path)


class TestQuadraticFamily:
    def test_isotropic_example(self):
        obj = quadratic_objective(2.0 * np.eye(2), np.zeros(2))
        x = np.array([1.0, 0.0])
        assert obj.value(x) == pytest.approx(1.0)
        np.testing.assert_allclose(obj.smoothed_gradient(x, 0.1), [2.0, 0.0])
        # trace(2 I_2) = 4, so the smoothing offset is mu^2 * 2
        assert obj.smoothed_value(x, 0.1) == pytest.approx(1.0 + 0.01 * 2.0)

    def test_linear_family_is_smoothing_fixed_point(self):
        a = np.array([1.5, -2.0, 0.5])
        obj = quadratic_objective(np.zeros((3, 3)), a)
        x = np.array([0.3, 0.1, -0.2])
        assert obj.smoothed_value(x, 0.7) == pytest.approx(obj.value(x))
        np.testing.assert_allclose(obj.smoothed_gradient(x, 0.7), a)

    def test_indefinite_example(self):
        obj = quadratic_objective(np.diag([1.0, -1.0]), np.zeros(2))
        x = np.array([1.0, 1.0])
        assert obj.value(x) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(obj.smoothed_gradient(x, 0.2), [1.0, -1.0])
        assert obj.smoothed_value(x, 0.2) == pytest.approx(0.0, abs=1e-15)
        assert obj.lower_bound == -math.inf

    def test_rejections(self):
        with pytest.raises(ValueError, match="symmetric"):
            quadratic_objective(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            quadratic_objective(np.eye(2), np.zeros(3))

    def test_lipschitz_and_lower_bound_audit(self):
        obj = random_quadratic(3, seed=11)
        sampled = estimate_lipschitz(obj.value_many, obj.box, samples=10**5, seed=13)
        assert sampled <= obj.lipschitz_l0
        rng = np.random.default_rng(14)
        pts = rng.uniform(obj.box.lo, obj.box.hi, size=(10**5, 3))
        assert float(np.min(obj.value_many(pts))) >= obj.lower_bound

    def test_random_family_determinism(self):
        a = random_quadratic(4, seed=3)
        b = random_quadratic(4, seed=3)
        x = np.array([0.2, -1.1, 0.5, 0.0])
        assert a.value(x) == b.value(x)


def test_stacked_assembly_matches_blockwise_sum():
    locals_ = [random_quadratic(2, seed=s) for s in range(5)]
    stacked = StackedObjective(locals_)
    rng = np.random.default_rng(21)
    for x in rng.uniform(-2, 2, size=(100, 10)):
        parts = [locals_[i].value(x[2 * i : 2 * i + 2]) for i in range(5)]
        assert stacked.value(x) == float(np.sum(parts))


def _families(n):
    """Agents' objectives per family; logreg and the toy with phases give
    each agent its own object, the shared families one object for all, and
    the copies families distinct objects with equal data (the stacked kernel
    call, where the shared ones take the one-object view)."""
    data, _ = synthesize_classification_data(n, 7, 3, seed=2)
    quads = [random_quadratic(3, seed=40 + i) for i in range(n)]
    return {
        "toy-phases": [toy_objective(phase=0.1 * (i + 1)) for i in range(n)],
        "toy-shared": [toy_objective()] * n,
        "toy-copies": [toy_objective() for _ in range(n)],
        "quadratic-copies": [random_quadratic(3, seed=40) for _ in range(n)],
        "logreg": [logistic_regression_objective(d, n) for d in data],
        "quadratic-shared": [quads[0]] * n,
        "quadratic-per-agent": quads,
        "quadratic-interleaved": [quads[i % 2] for i in range(n)],
    }


def test_stacked_values_equal_per_agent_rows():
    families = _families(6)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        family=st.sampled_from(sorted(families)),
        n=st.integers(1, 6),
        s=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(family, n, s, seed):
        locals_ = families[family][:n]
        stacked = StackedObjective(locals_)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2.0, 2.0, (n, s, stacked.block_dim))
        want = np.array([o.value_many(pts[i]) for i, o in enumerate(locals_)])
        assert stacked.values(pts).tobytes() == want.tobytes()
        x = pts[:, 0, :].reshape(-1)
        agents = list(enumerate(locals_))
        assert stacked.value(x) == float(np.sum([o.value(pts[i, 0]) for i, o in agents]))
        if stacked.has_smoothed_closed_form:
            grads = np.concatenate([o.smoothed_gradient(pts[i, 0], 0.1) for i, o in agents])
            vals = [o.smoothed_value(pts[i, 0], 0.1) for i, o in agents]
            assert stacked.smoothed_gradient_stacked(x, 0.1).tobytes() == grads.tobytes()
            assert stacked.smoothed_value_stacked(x, 0.1) == float(np.sum(vals))

    check()


def test_smoothed_pair_is_both_closed_forms():
    """The trace meter's one pass gives, as bytes, the two stacked closed
    forms: through the toy's shared kernel for one group, with the agents
    holding one object or copies of it, and through both kernels otherwise."""
    families = _families(5)
    cases = {name: families[name] for name in ("toy-shared", "toy-copies", "quadratic-shared")}
    cases["toy-and-quadratic"] = [toy_objective(), random_quadratic(1, seed=3)] * 2
    rng = np.random.default_rng(8)
    for name, locals_ in cases.items():
        stacked = StackedObjective(locals_)
        for mu in (0.01, 0.7):
            x = rng.uniform(-2.0, 2.0, stacked.total_dim)
            grad, value = stacked._smoothed_pair(stacked.blocks(x)[:, None, :], mu)
            assert grad.tobytes() == stacked.smoothed_gradient_stacked(x, mu).tobytes(), name
            assert float(value.sum()) == stacked.smoothed_value_stacked(x, mu), name


def _logreg_agents(n, batch, dim, seed, uneven=False):
    """n logistic agents; with uneven, odd agents hold 3 more data points, so
    the agents form two interleaved families."""
    big, _ = synthesize_classification_data(n, batch + 3, dim, seed)
    return [
        logistic_regression_objective(
            d if uneven and i % 2 else ClassificationData(d.features[:batch], d.labels[:batch]), n
        )
        for i, d in enumerate(big)
    ]


def test_logreg_family_rows_equal_agent_views():
    """One family call gives, as bytes, each agent's value_many rows and each
    row's single-point value, at the workload shape too, where every scratch
    array is above malloc's 128 KiB mmap threshold."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 15),
        s=st.integers(1, 31),
        dim=st.integers(1, 10),
        batch=st.integers(1, 100),
        uneven=st.booleans(),
        spread=st.sampled_from([0.1, 2.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=15, s=31, dim=10, batch=100, uneven=False, spread=2.0, seed=1)
    def check(n, s, dim, batch, uneven, spread, seed):
        locals_ = _logreg_agents(n, batch, dim, seed, uneven)
        stacked = StackedObjective(locals_)
        pts = np.random.default_rng(seed).uniform(-spread, spread, (n, s, dim))
        got = stacked.values(pts)
        want = np.array([o.value_many(pts[i]) for i, o in enumerate(locals_)])
        assert got.tobytes() == want.tobytes()
        single = [[o.value(p) for p in pts[i]] for i, o in enumerate(locals_)]
        assert got.tobytes() == np.array(single).tobytes()

    check()


def test_logreg_rows_do_not_depend_on_the_batch():
    """A point's logistic value has the same bits in calls of 1, 2, 3 or a
    drawn number of rows as in one larger call, for the agent alone, and in
    a group whose agents all hold one objective (its rows arrive as one
    (1, N*S, M) block, large enough at the top of the range that the kernel
    splits it into several products). Odd row counts, a single data point
    and the split are where a plain BLAS product changes a row's bits."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 15),
        dim=st.integers(1, 12),
        batch=st.one_of(st.just(1), st.integers(1, 200)),
        s=st.integers(4, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=15, dim=10, batch=100, s=31, seed=1)
    @example(n=15, dim=12, batch=200, s=64, seed=2)
    @example(n=3, dim=5, batch=1, s=7, seed=3)
    @example(n=13, dim=8, batch=193, s=56, seed=4)
    def check(n, dim, batch, s, seed):
        locals_ = _logreg_agents(n, batch, dim, seed)
        stacked = StackedObjective(locals_)
        pts = np.random.default_rng(seed).uniform(-3.0, 3.0, (n, s + 1, dim))
        whole = stacked.values(pts)
        for rows in (1, 2, 3, s):
            part = stacked.values(np.ascontiguousarray(pts[:, :rows]))
            assert part.tobytes() == whole[:, :rows].tobytes()
        for i, o in enumerate(locals_):
            assert o.value_many(pts[i]).tobytes() == whole[i].tobytes()
            assert np.array([o.value(pts[i, -1])]).tobytes() == whole[i, -1:].tobytes()
        one = StackedObjective([locals_[0]] * n).values(pts)
        assert one.tobytes() == np.array([locals_[0].value_many(p) for p in pts]).tobytes()

    check()


def test_family_workspace_reuse_gives_fresh_bytes():
    """Reusing one StackedObjective's workspace across row counts 31, 2, 31,
    and growing it to 40, gives the bytes of fresh per-agent calls."""
    locals_ = _logreg_agents(15, 100, 10, seed=3)
    stacked = StackedObjective(locals_)
    rng = np.random.default_rng(5)
    for s in (31, 2, 31, 40):
        pts = rng.uniform(-3.0, 3.0, (15, s, 10))
        want = np.array([o.value_many(pts[i]) for i, o in enumerate(locals_)])
        assert stacked.values(pts).tobytes() == want.tobytes()


def test_family_rows_ignore_a_replaced_value_many():
    """Families are grouped by their description, not by value_many, so a
    wrapper put on an instance does not change what the stacked call does."""
    locals_ = _logreg_agents(3, 20, 4, seed=2)
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 5, 4))
    want = StackedObjective(locals_).values(pts)
    for o in locals_:
        o.value_many = lambda p: np.zeros(len(p))
    assert StackedObjective(locals_).values(pts).tobytes() == want.tobytes()


def test_objective_needs_value_many_or_family():
    with pytest.raises(ValueError, match="value_many or a family"):
        LocalObjective(dim=1, box=Box.cube(1, -1.0, 1.0), lipschitz_l0=1.0, lower_bound=0.0)


def test_quadratic_rows_are_row_stable():
    """A quadratic's batch rows equal its single-point values bitwise."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        dim=st.integers(1, 10),
        rows=st.integers(1, 40),
        convex=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(dim, rows, convex, seed):
        obj = random_quadratic(dim, seed=seed % 1000, convex=convex)
        pts = np.random.default_rng(seed).uniform(-3.0, 3.0, (rows, dim))
        single = [obj.value(p) for p in pts]
        assert obj.value_many(pts).tobytes() == np.array(single).tobytes()

    check()


def test_stacked_metadata():
    locals_ = [random_quadratic(2, seed=s) for s in range(3)]
    stacked = StackedObjective(locals_)
    assert stacked.num_agents == 3
    assert stacked.total_dim == 6
    assert stacked.lipschitz_l0 == pytest.approx(
        math.sqrt(sum(o.lipschitz_l0**2 for o in locals_))
    )
    assert stacked.has_smoothed_closed_form
    mixed = StackedObjective([toy_objective(), toy_objective(phase=0.3)])
    assert not mixed.has_smoothed_closed_form


def test_box_membership():
    box = Box.cube(2, -1.0, 2.0)
    assert box.contains(np.array([0.0, 1.9]))
    assert not box.contains(np.array([0.0, 2.1]))
    rows = np.array([[0.0, 0.0], [-1.5, 0.0], [1.0, 2.0]])
    np.testing.assert_array_equal(box.contains_rows(rows), [True, False, True])


def test_estimate_lipschitz_recovers_linear_slope():
    a = np.array([3.0, -4.0])

    def value_many(pts):
        return pts @ a

    est = estimate_lipschitz(value_many, Box.cube(2, -1, 1), samples=10**5, seed=2)
    assert est == pytest.approx(5.0, rel=0.05)
    assert est <= 5.0 + 1e-9
