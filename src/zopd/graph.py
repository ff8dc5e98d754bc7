"""Undirected communication graphs and their consensus operators.

Nodes are labeled 1..N. Each edge (i, j) contributes one row to the oriented
incidence operator: +1 on node i's block, -1 on node j's. Per-node variables
live in R^M, so stacked operators act on R^{N*M} blockwise; they are never
formed as matrices, only applied through the edge list and the node-major
incidence list.

The operators act on stacks: x of any shape (..., N*M) and lam of any shape
(..., E*M), each leading row on its own. Their sums over the incidence list
all go through NetworkMatrices.sum_entries, one scatter_add: a single
np.bincount over a flat index that adds each node's entries in list order,
on every graph shape, with each leading row's cells offset by N*M. Blocks
are gathered with take along the node (or edge) axis, which copies the same
rows as fancy indexing at a fraction of its per-call cost on small graphs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "GRAPH_KINDS",
    "Topology",
    "NetworkMatrices",
    "check_connected",
    "incidence_list",
    "flat_index",
    "scatter_add",
    "build_matrices",
    "generate_graph",
]

# the families generate_graph builds; config files and the CLI offer these
GRAPH_KINDS = ("ring", "path", "star", "complete", "random_connected")


class ConfigError(ValueError):
    """A value outside its field's domain, at the dotted path `field`.

    The library call that takes a configurable value checks its rules and
    raises this at the field's own name; each config section the harness
    builds prefixes its path, e.g. to `algorithm.noise.std_dev`. A rule
    joining several fields is a plain ValueError. Defined here, in the one
    module that imports no other zopd module, so every module can raise it."""

    def __init__(self, field: str, problem: str):
        self.field, self.problem = field, problem
        super().__init__(f"{field}: {problem}")


def _check_num_nodes(n: int) -> None:
    if n < 2:
        raise ConfigError("num_nodes", f"must be at least 2, got {n!r}")


@dataclass(frozen=True)
class Topology:
    """Graph plus the per-node block dimension."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    block_dim: int = 1

    def __post_init__(self):
        _check_num_nodes(self.num_nodes)
        if self.block_dim < 1:
            raise ConfigError("block_dim", f"must be >= 1, got {self.block_dim!r}")
        norm_edges = tuple((int(i), int(j)) for i, j in self.edges)
        seen = set()
        for i, j in norm_edges:
            if i == j:
                raise ConfigError("edges", f"self-loop at node {i}")
            if not (1 <= i <= self.num_nodes and 1 <= j <= self.num_nodes):
                raise ConfigError(
                    "edges", f"edge ({i},{j}) has node index out of range 1..{self.num_nodes}"
                )
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ConfigError("edges", f"duplicate edge ({i},{j})")
            seen.add(key)
        object.__setattr__(self, "edges", norm_edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        ends = np.asarray(self.edges, dtype=np.intp).reshape(-1) - 1
        return np.bincount(ends, minlength=self.num_nodes).astype(float)

    def to_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "edges": [list(e) for e in self.edges],
            "block_dim": self.block_dim,
        }

    @staticmethod
    def from_dict(d: dict) -> "Topology":
        return Topology(
            num_nodes=int(d["num_nodes"]),
            edges=tuple((int(i), int(j)) for i, j in d["edges"]),
            block_dim=int(d.get("block_dim", 1)),
        )


def check_connected(topo: Topology) -> bool:
    """Breadth-first reachability from node 1."""
    return -1 not in _sides(topo)


def _sides(topo: Topology) -> list[int]:
    """Each node's side, 0 or 1, in a breadth-first two-colouring from node 1
    (its depth's parity), or -1 where node 1 does not reach it. A connected
    graph is bipartite exactly when every edge joins two sides."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, topo.num_nodes + 1)}
    for i, j in topo.edges:
        adj[i].append(j)
        adj[j].append(i)
    side = [-1] * (topo.num_nodes + 1)
    side[1], queue = 0, [1]
    for v in queue:
        for w in adj[v]:
            if side[w] < 0:
                side[w] = 1 - side[v]
                queue.append(w)
    return side[1:]


def incidence_list(topo: Topology) -> tuple[np.ndarray, ...]:
    """(node, edge, neighbor, sign), one entry per node and incident edge,
    sorted by node, then edge; 0-based. sign is +1 where the node is the
    edge's listed-first endpoint, -1 where it is the second, shaped (entries,
    1) to broadcast over the block."""
    ends = np.asarray(topo.edges, dtype=np.intp).reshape(-1, 2) - 1
    order = np.argsort(ends.ravel(), kind="stable")
    sign = np.where(order % 2 == 0, 1.0, -1.0)[:, None]
    return ends.ravel()[order], order // 2, ends[:, ::-1].ravel()[order], sign


def flat_index(rows: np.ndarray, width: int) -> np.ndarray:
    """The scatter_add index of an (entries, width) term array: entry k,
    column c goes to cell rows[k] * width + c of the raveled output."""
    return (rows[:, None] * width + np.arange(width)).ravel()


def scatter_add(index: np.ndarray, terms: np.ndarray, num_rows: int) -> np.ndarray:
    """The (num_rows, width) sums of the rows of terms (entries, width), with
    index the flat_index of their output rows. The one accumulation behind
    every consensus product: np.bincount adds each output cell's entries one
    at a time, in list order, starting from +0.0, so a caller holding only
    one node's slice of the incidence list gets exactly the bits that the
    full product gives that node."""
    width = terms.shape[1]
    return np.bincount(index, terms.ravel(), num_rows * width).reshape(num_rows, width)


@dataclass
class NetworkMatrices:
    """Edge-list consensus operators for one topology.

    A x is the gather x_i - x_j over each edge (tail i, head j); A' lam and
    the neighbor sums in L+ x = D x + sum over neighbors are sum_entries over
    the node-major incidence list, blockwise across M, through sum_index, its
    flat_index at width M, computed once. Each operator takes a stack of
    vectors, (..., N M) or (..., E M), and gives every leading row the bits
    it gets alone. sigma_min is the smallest nonzero eigenvalue of the scalar
    Laplacian L- = A'A, lplus_norm the spectral norm of the scalar signless
    Laplacian L+ = 2D - L- (L-'s own top eigenvalue on a bipartite graph); the
    block operators repeat those spectra M times.
    """

    topology: Topology
    tail: np.ndarray
    head: np.ndarray
    node: np.ndarray
    edge: np.ndarray
    neighbor: np.ndarray
    sign: np.ndarray
    sum_index: np.ndarray
    degree: np.ndarray
    sigma_min: float
    lplus_norm: float

    @property
    def total_dim(self) -> int:
        return self.topology.num_nodes * self.topology.block_dim

    @property
    def edge_dim(self) -> int:
        return self.topology.num_edges * self.topology.block_dim

    def node_blocks(self, x: np.ndarray) -> np.ndarray:
        """x (..., N M) as (..., N, M) blocks."""
        return _blocks(x, self.topology.num_nodes)

    def sum_entries(self, terms: np.ndarray) -> np.ndarray:
        """Each node's sum of its incidence-list entries' terms (..., entries,
        M), as (..., N, M) blocks: one scatter_add, every leading row's cells
        offset by N M, so each cell adds its own row's entries in list order.
        A single row (entries, M) takes sum_index as it is."""
        n = self.topology.num_nodes
        if terms.ndim == 2:
            return scatter_add(self.sum_index, terms, n)
        lead, m = terms.shape[:-2], terms.shape[-1]
        rows = math.prod(lead)
        index = (self.sum_index + n * m * np.arange(rows)[:, None]).ravel()
        return scatter_add(index, terms.reshape(-1, m), rows * n).reshape(*lead, n, m)

    def neighbor_sum(self, x: np.ndarray) -> np.ndarray:
        """Each node's sum of its neighbors' blocks, as (..., N, M) blocks."""
        return self.sum_entries(self.node_blocks(x).take(self.neighbor, -2))

    def dual_pressure(self, lam: np.ndarray) -> np.ndarray:
        """A' lam, as (..., N, M) blocks."""
        lb = _blocks(lam, self.topology.num_edges)
        return self.sum_entries(self.sign * lb.take(self.edge, -2))

    def incidence(self, x: np.ndarray) -> np.ndarray:
        """A x, stacked: (..., E M)."""
        xb = self.node_blocks(x)
        ax = xb.take(self.tail, -2) - xb.take(self.head, -2)
        return ax.reshape(-1) if ax.ndim == 2 else ax.reshape(*ax.shape[:-2], -1)

    def lplus(self, x: np.ndarray) -> np.ndarray:
        """L+ x, stacked: (..., N M)."""
        xb = self.node_blocks(x)
        return (self.degree[:, None] * xb + self.neighbor_sum(x)).reshape(*xb.shape[:-2], -1)


def _blocks(v: np.ndarray, count: int) -> np.ndarray:
    """v (..., count M) as (..., count, M) blocks; one vector, the one-row
    path of every iteration, by a plain reshape."""
    v = np.asarray(v, dtype=float)
    return v.reshape(count, -1) if v.ndim == 1 else v.reshape(*v.shape[:-1], count, -1)


def build_matrices(topo: Topology) -> NetworkMatrices:
    """Assemble the edge-list operators; rejects disconnected topologies.

    sigma_min is entry [1] of one dense eigvalsh of L-. On a bipartite graph
    L+ = S L- S, with S the +-1 diagonal of the sides, so ||L+|| is that
    solve's last entry (Cvetkovic, Rowlinson and Simic, 2007); only a graph
    with an odd cycle solves L+ = 2D - L- as well.
    """
    if topo.num_edges == 0:
        raise ValueError("topology has no edges")
    side = np.array(_sides(topo))
    if (side < 0).any():
        raise ValueError("graph is not connected")
    node, edge, nbr, sign = incidence_list(topo)
    deg = topo.degrees()
    ends = np.asarray(topo.edges, dtype=np.intp) - 1

    scalar_lminus = np.diag(deg)
    scalar_lminus[node, nbr] = -1.0
    evals = np.linalg.eigvalsh(scalar_lminus)
    sigma_min = float(evals[1])  # connected: one zero eigenvalue, then sigma_min
    if (side[ends[:, 0]] == side[ends[:, 1]]).any():  # an odd cycle: L+ has its own spectrum
        evals = np.linalg.eigvalsh(2.0 * np.diag(deg) - scalar_lminus)
    return NetworkMatrices(
        topology=topo, tail=ends[:, 0], head=ends[:, 1], node=node, edge=edge, neighbor=nbr,
        sign=sign, sum_index=flat_index(node, topo.block_dim), degree=deg,
        sigma_min=sigma_min, lplus_norm=float(evals[-1]),
    )


def generate_graph(
    kind: str,
    num_nodes: int,
    extra_edge_prob: float = 0.0,
    seed: int = 0,
    block_dim: int = 1,
) -> Topology:
    """The named families of GRAPH_KINDS: ring, path, star, complete, random_connected.

    random_connected draws a random spanning tree, then adds each remaining
    pair independently with extra_edge_prob (0 -> tree, 1 -> complete).
    num_nodes and extra_edge_prob are checked for every kind.
    """
    n = num_nodes
    _check_num_nodes(n)
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ConfigError("extra_edge_prob", f"must lie in [0, 1], got {extra_edge_prob!r}")
    if kind == "ring":
        if n < 3:
            raise ValueError("ring needs at least 3 nodes")
        edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    elif kind == "path":
        edges = [(i, i + 1) for i in range(1, n)]
    elif kind == "star":
        edges = [(1, i) for i in range(2, n + 1)]
    elif kind == "complete":
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    elif kind == "random_connected":
        rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
        order = rng.permutation(n) + 1
        tree = set()
        for idx in range(1, n):
            anchor = order[rng.integers(idx)]
            a, b = int(order[idx]), int(anchor)
            tree.add((min(a, b), max(a, b)))
        edges = sorted(tree)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) not in tree and rng.uniform() < extra_edge_prob:
                    edges.append((i, j))
        edges = sorted(edges)
    else:
        raise ConfigError("kind", f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")
    return Topology(num_nodes=n, edges=tuple(edges), block_dim=block_dim)

