"""Graph operator construction and validation."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zopd.graph import (
    GRAPH_KINDS,
    ConfigError,
    Topology,
    build_matrices,
    check_connected,
    flat_index,
    generate_graph,
    incidence_list,
    scatter_add,
)


def _matrix(op, dim):
    """The matrix of a linear map, built column by column from unit vectors."""
    return np.column_stack([op(e) for e in np.eye(dim)])


def _operators(mats):
    """A, A', L- = A'A and L+ of the edge-list kernel, as matrices."""
    def a_t(lam):
        return mats.dual_pressure(lam).reshape(-1)

    return (
        _matrix(mats.incidence, mats.total_dim),
        _matrix(a_t, mats.edge_dim),
        _matrix(lambda x: a_t(mats.incidence(x)), mats.total_dim),
        _matrix(mats.lplus, mats.total_dim),
    )


def test_two_node_path_operators():
    """Single edge, scalar blocks: every operator is forced by definition."""
    topo = Topology(num_nodes=2, edges=((1, 2),))
    mats = build_matrices(topo)
    inc, inc_t, lminus, lplus = _operators(mats)
    np.testing.assert_array_equal(inc, [[1.0, -1.0]])
    np.testing.assert_array_equal(inc_t, [[1.0], [-1.0]])
    np.testing.assert_array_equal(mats.degree, [1.0, 1.0])
    np.testing.assert_array_equal(lminus, [[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(lplus, [[1.0, 1.0], [1.0, 1.0]])
    assert mats.sigma_min == pytest.approx(2.0, abs=1e-12)
    assert mats.lplus_norm == pytest.approx(2.0, abs=1e-12)
    assert mats.total_dim == 2
    assert mats.edge_dim == 1


def test_triangle_spectrum_against_eigendecomposition():
    # independent oracle: hand-built scalar operators of the 3-cycle
    lminus_hand = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    lplus_hand = 2.0 * 2.0 * np.eye(3) - lminus_hand
    evals = np.linalg.eigvalsh(lminus_hand)
    oracle_sigma = float(evals[evals > 1e-9 * evals[-1]][0])
    oracle_norm = float(np.linalg.eigvalsh(lplus_hand)[-1])
    assert oracle_sigma == pytest.approx(3.0, abs=1e-12)
    assert oracle_norm == pytest.approx(4.0, abs=1e-12)

    topo = Topology(num_nodes=3, edges=((1, 2), (2, 3), (3, 1)))
    mats = build_matrices(topo)
    assert mats.sigma_min == pytest.approx(oracle_sigma, rel=1e-12)
    assert mats.lplus_norm == pytest.approx(oracle_norm, rel=1e-12)


def test_two_node_block_dim_two_is_kronecker_lift():
    base = build_matrices(Topology(num_nodes=2, edges=((1, 2),)))
    lifted = build_matrices(Topology(num_nodes=2, edges=((1, 2),), block_dim=2))
    eye2 = np.eye(2)
    for small, big in zip(_operators(base), _operators(lifted)):
        np.testing.assert_array_equal(big, np.kron(small, eye2))
    assert lifted.sigma_min == base.sigma_min == pytest.approx(2.0)


@pytest.mark.parametrize(
    "kind,n,m",
    [("ring", 5, 1), ("path", 4, 2), ("star", 6, 1), ("complete", 4, 3),
     ("random_connected", 9, 2)],
)
def test_operator_identities(kind, n, m, dense_ops):
    topo = generate_graph(kind, n, extra_edge_prob=0.4, seed=2, block_dim=m)
    mats = build_matrices(topo)
    ref = dense_ops(topo)

    # the edge-list products are the dense lifts, exactly
    inc, inc_t, lminus, lplus = _operators(mats)
    np.testing.assert_array_equal(inc, ref.incidence)
    np.testing.assert_array_equal(inc_t, ref.incidence.T)
    np.testing.assert_array_equal(lminus, ref.lminus)
    np.testing.assert_array_equal(lplus, ref.lplus)
    np.testing.assert_array_equal(mats.degree, np.diag(ref.degree)[::m])

    # each incidence row differences exactly one pair of blocks
    at = ref.scalar_incidence
    np.testing.assert_allclose(at.sum(axis=1), 0.0, atol=0)
    for row in at:
        assert sorted(row[row != 0.0]) == [-1.0, 1.0]

    np.testing.assert_array_equal(lminus + lplus, ref.degree * 2.0)
    for mat in (lminus, lplus):
        np.testing.assert_allclose(mat, mat.T, atol=0)
        assert np.linalg.eigvalsh(mat)[0] > -1e-10

    # consensus nullspace of the lifted Gram operator has dimension block_dim
    evals = np.linalg.eigvalsh(lminus)
    zero_count = int(np.sum(evals <= 1e-9 * max(evals[-1], 1.0)))
    assert zero_count == m

    ones = np.ones(topo.num_nodes * m)
    np.testing.assert_array_equal(mats.incidence(ones), 0.0)

    # sigma_min is the first scalar Laplacian eigenvalue above a 1e-9
    # relative tolerance, bit for bit
    scalar = np.linalg.eigvalsh(at.T @ at)
    assert mats.sigma_min == scalar[scalar > 1e-9 * max(scalar[-1], 1.0)][0]


@pytest.mark.parametrize("m", [1, 2, 4])
def test_sigma_min_independent_of_block_dim(m):
    topo = generate_graph("random_connected", 7, extra_edge_prob=0.3, seed=4, block_dim=m)
    scalar = generate_graph("random_connected", 7, extra_edge_prob=0.3, seed=4, block_dim=1)
    assert build_matrices(topo).sigma_min == build_matrices(scalar).sigma_min


def _random_bipartite(n, prob, seed):
    """A connected graph on the sides 1..a and a+1..n, a = max(1, n // 3),
    every edge across: each node joins a random node of the other side placed
    before it, then each other cross pair is added with probability prob."""
    rng, a = np.random.default_rng(seed), max(1, n // 3)
    placed, edges = [1, a + 1], {(1, a + 1)}
    for v in rng.permutation(np.arange(2, n + 1)).tolist():
        if v != a + 1:
            u = rng.choice([w for w in placed if (w > a) != (v > a)])
            edges.add((min(u, v), max(u, v)))
            placed.append(v)
    cross = [(i, j) for i in range(1, a + 1) for j in range(a + 1, n + 1)]
    edges |= {e for e in cross if rng.uniform() < prob}
    return Topology(n, tuple(sorted(edges)))


def _bipartite_graph(kind, n, seed, prob):
    if kind == "even_ring":
        return generate_graph("ring", 2 * max(2, n // 2))
    if kind == "tree":
        return generate_graph("random_connected", n, seed=seed)
    if kind == "bipartite":
        return _random_bipartite(n, prob, seed)
    return generate_graph(kind, n)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["path", "star", "even_ring", "tree", "bipartite"]),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**16),
    prob=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
)
def test_bipartite_lplus_norm_is_the_signless_top_eigenvalue(kind, n, seed, prob, dense_ops):
    # the one eigvalsh of L- gives sigma_min bit for bit, and ||L+|| to
    # rounding: L+ = S L- S has L-'s spectrum
    topo = _bipartite_graph(kind, n, seed, prob)
    mats, ref = build_matrices(topo), dense_ops(topo)
    assert mats.sigma_min == np.linalg.eigvalsh(ref.lminus)[1]
    assert mats.lplus_norm == pytest.approx(np.linalg.eigvalsh(ref.lplus)[-1], rel=1e-12)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["ring", "complete"]), half=st.integers(1, 25))
def test_odd_cycle_lplus_norm_is_the_dense_value_bitwise(kind, half, dense_ops):
    topo = generate_graph(kind, 2 * half + 1 if kind == "ring" else half + 2)
    mats, ref = build_matrices(topo), dense_ops(topo)
    assert mats.sigma_min == np.linalg.eigvalsh(ref.lminus)[1]
    assert mats.lplus_norm == np.linalg.eigvalsh(ref.lplus)[-1]


def test_second_eigensolve_only_on_an_odd_cycle(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    build_matrices(generate_graph("ring", 400))
    assert shapes == [(400, 400)]
    shapes.clear()
    build_matrices(generate_graph("ring", 401))
    assert shapes == [(401, 401)] * 2


def _sequential_sum(start, rows, terms):
    """Reference accumulation: each entry added to its row in list order."""
    out = np.array(start, dtype=float)
    for row, term in zip(rows, terms):
        out[row] = out[row] + term
    return out


def _extreme_values(rng, shape, zero_share):
    """Normals scaled up to 1e308, so sums overflow to inf and reach NaN,
    with a share of the entries set to -0.0."""
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(0.0, 308.0, shape)
    values[rng.random(shape) < zero_share] = -0.0
    return values


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["ring", "path", "star", "complete", "random_connected"]),
    n=st.integers(2, 64),
    m=st.integers(1, 4),
    rows=st.integers(1, 4),
    graph_seed=st.integers(0, 2**16),
    extra=st.sampled_from([0.0, 0.1, 0.5]),
    data_seed=st.integers(0, 2**31 - 1),
)
def test_scatter_add_is_the_sequential_sum_bitwise(kind, n, m, rows, graph_seed, extra, data_seed):
    """scatter_add, and sum_entries on a stack of rows, give each row the
    sequential sum's bits; every operator gives each row of a stack the bits
    of a one-row call."""
    assume(kind != "ring" or n >= 3)
    topo = generate_graph(kind, n, extra_edge_prob=extra, seed=graph_seed, block_dim=m)
    mats = build_matrices(topo)
    np.testing.assert_array_equal(mats.sum_index, flat_index(mats.node, m))

    rng = np.random.default_rng(data_seed)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _extreme_values(rng, (rows, mats.node.size, m), 0.2)
        start = np.zeros((n, m))
        expected = [_sequential_sum(start, mats.node, t).tobytes() for t in terms]
        assert scatter_add(mats.sum_index, terms[0], n).tobytes() == expected[0]
        assert [s.tobytes() for s in mats.sum_entries(terms)] == expected
        assert mats.sum_entries(terms[None]).tobytes() == b"".join(expected)

        x = _extreme_values(rng, (rows, mats.total_dim), 0.2)
        lam = _extreme_values(rng, (rows, mats.edge_dim), 0.2)
        for op, stack in (
            (mats.incidence, x), (mats.neighbor_sum, x), (mats.lplus, x), (mats.dual_pressure, lam),
        ):
            one_row = b"".join(op(v).tobytes() for v in stack)
            assert op(stack).tobytes() == one_row
            assert op(stack[None]).tobytes() == one_row


def test_check_connected_examples():
    assert check_connected(Topology(2, ((1, 2),)))
    assert not check_connected(Topology(3, ((1, 2),)))
    assert check_connected(generate_graph("ring", 10))


def test_topology_rejections():
    with pytest.raises(ValueError, match="self-loop"):
        Topology(3, ((1, 1),))
    with pytest.raises(ValueError, match="out of range"):
        Topology(3, ((1, 4),))
    with pytest.raises(ValueError, match="duplicate edge"):
        Topology(3, ((1, 2), (2, 1)))
    with pytest.raises(ValueError, match="duplicate edge"):
        Topology(3, ((1, 2), (1, 2)))
    with pytest.raises(ValueError, match="at least 2"):
        Topology(1, ())
    with pytest.raises(ValueError, match="block_dim"):
        Topology(2, ((1, 2),), block_dim=0)


def test_build_matrices_rejections():
    with pytest.raises(ValueError, match="no edges"):
        build_matrices(Topology(2, ()))
    with pytest.raises(ValueError, match="not connected"):
        build_matrices(Topology(4, ((1, 2), (3, 4))))


def test_generate_ring_four():
    topo = generate_graph("ring", 4)
    assert topo.edges == ((1, 2), (2, 3), (3, 4), (4, 1))


def test_generate_random_connected_edge_counts():
    tree = generate_graph("random_connected", 10, extra_edge_prob=0.0, seed=3)
    assert tree.num_edges == 9
    full = generate_graph("random_connected", 10, extra_edge_prob=1.0, seed=3)
    assert full.num_edges == 45


def test_generate_random_connected_is_deterministic_and_connected():
    for seed in range(8):
        a = generate_graph("random_connected", 12, extra_edge_prob=0.2, seed=seed)
        b = generate_graph("random_connected", 12, extra_edge_prob=0.2, seed=seed)
        assert a.edges == b.edges
        assert check_connected(a)


def test_generate_unknown_kind():
    with pytest.raises(ValueError, match="unknown graph kind"):
        generate_graph("torus", 4)


@pytest.mark.parametrize("kind", GRAPH_KINDS)
@pytest.mark.parametrize(
    "num_nodes, prob, field",
    [(4, 2.0, "extra_edge_prob"), (4, -0.1, "extra_edge_prob"), (1, 0.0, "num_nodes")],
)
def test_generate_checks_its_arguments_for_every_kind(kind, num_nodes, prob, field):
    # checked before the kind's edges are built, so a ring is held to the
    # same extra_edge_prob rule as random_connected, the one kind that uses it
    with pytest.raises(ConfigError) as exc:
        generate_graph(kind, num_nodes, extra_edge_prob=prob)
    assert exc.value.field == field


def test_serialization_round_trip():
    topo = generate_graph("random_connected", 6, extra_edge_prob=0.5, seed=9, block_dim=3)
    again = Topology.from_dict(topo.to_dict())
    assert again == topo


def test_neighbors_and_degrees():
    topo = Topology(4, ((1, 2), (1, 3), (2, 3), (3, 4)))
    # 0-based (node, neighbor) entries, each node's in edge order
    node, _, neighbor, _ = incidence_list(topo)
    assert (neighbor[node == 2] + 1).tolist() == [1, 2, 4]
    assert (neighbor[node == 3] + 1).tolist() == [3]
    np.testing.assert_array_equal(topo.degrees(), [2.0, 2.0, 3.0, 1.0])
