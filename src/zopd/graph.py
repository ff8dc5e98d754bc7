"""Undirected communication graphs and their consensus operators.

Nodes are labeled 1..N. Each edge (i, j) contributes one row to the oriented
incidence operator: +1 on node i's block, -1 on node j's. Per-node variables
live in R^M, so stacked operators act on R^{N*M} blockwise; they are never
formed as matrices, only applied through the edge list and the node-major
incidence list.

scatter_add sums each node's entries in list order through one np.bincount
over a flat index, on every graph shape. Blocks are gathered with take along
the first axis, which copies the same rows as fancy indexing at a fraction
of its per-call cost on small graphs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Topology",
    "NetworkMatrices",
    "check_connected",
    "incidence_list",
    "flat_index",
    "scatter_add",
    "build_matrices",
    "generate_graph",
]


@dataclass(frozen=True)
class Topology:
    """Graph plus the per-node block dimension."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    block_dim: int = 1

    def __post_init__(self):
        if self.num_nodes < 2:
            raise ValueError("topology needs at least 2 nodes")
        if self.block_dim < 1:
            raise ValueError("block_dim must be >= 1")
        norm_edges = tuple((int(i), int(j)) for i, j in self.edges)
        seen = set()
        for i, j in norm_edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (1 <= i <= self.num_nodes and 1 <= j <= self.num_nodes):
                raise ValueError(f"edge ({i},{j}) has node index out of range 1..{self.num_nodes}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
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
    adj: dict[int, list[int]] = {v: [] for v in range(1, topo.num_nodes + 1)}
    for i, j in topo.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == topo.num_nodes


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
    the neighbor sums in L+ x = D x + sum over neighbors are scatter_add over
    the node-major incidence list, blockwise across M, through sum_index, its
    flat_index at width M, computed once. sigma_min is the smallest nonzero
    eigenvalue of the scalar Laplacian L- = A'A, lplus_norm the spectral norm
    of the scalar L+ = 2D - L-; the block operators repeat those spectra M
    times.
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
        return np.asarray(x, dtype=float).reshape(self.topology.num_nodes, -1)

    def neighbor_sum(self, x: np.ndarray) -> np.ndarray:
        """Each node's sum of its neighbors' blocks, as (N, M) blocks."""
        xb = self.node_blocks(x)
        return scatter_add(self.sum_index, xb.take(self.neighbor, 0), self.topology.num_nodes)

    def dual_pressure(self, lam: np.ndarray) -> np.ndarray:
        """A' lam, as (N, M) blocks."""
        lb = np.asarray(lam, dtype=float).reshape(self.topology.num_edges, -1)
        terms = self.sign * lb.take(self.edge, 0)
        return scatter_add(self.sum_index, terms, self.topology.num_nodes)

    def incidence(self, x: np.ndarray) -> np.ndarray:
        """A x, stacked."""
        xb = self.node_blocks(x)
        return (xb.take(self.tail, 0) - xb.take(self.head, 0)).reshape(-1)

    def lplus(self, x: np.ndarray) -> np.ndarray:
        """L+ x, stacked."""
        xb = self.node_blocks(x)
        return (self.degree[:, None] * xb + self.neighbor_sum(xb)).reshape(-1)


def build_matrices(topo: Topology) -> NetworkMatrices:
    """Assemble the edge-list operators; rejects disconnected topologies."""
    if topo.num_edges == 0:
        raise ValueError("topology has no edges")
    if not check_connected(topo):
        raise ValueError("graph is not connected")
    node, edge, nbr, sign = incidence_list(topo)
    deg = topo.degrees()

    scalar_lminus = np.diag(deg)
    scalar_lminus[node, nbr] = -1.0
    evals = np.linalg.eigvalsh(scalar_lminus)
    tol = 1e-9 * max(float(evals[-1]), 1.0)
    nonzero = evals[evals > tol]
    if nonzero.size != topo.num_nodes - 1:
        raise ValueError("unexpected Laplacian nullspace; graph connectivity is broken")
    lplus_norm = float(np.linalg.eigvalsh(2.0 * np.diag(deg) - scalar_lminus)[-1])

    ends = np.asarray(topo.edges, dtype=np.intp) - 1
    return NetworkMatrices(
        topology=topo, tail=ends[:, 0], head=ends[:, 1], node=node, edge=edge, neighbor=nbr,
        sign=sign, sum_index=flat_index(node, topo.block_dim), degree=deg,
        sigma_min=float(nonzero[0]), lplus_norm=lplus_norm,
    )


def generate_graph(
    kind: str,
    num_nodes: int,
    extra_edge_prob: float = 0.0,
    seed: int = 0,
    block_dim: int = 1,
) -> Topology:
    """Named families: ring, path, star, complete, random_connected.

    random_connected draws a random spanning tree, then adds each remaining
    pair independently with extra_edge_prob (0 -> tree, 1 -> complete).
    """
    n = num_nodes
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
        if not 0.0 <= extra_edge_prob <= 1.0:
            raise ValueError("extra_edge_prob must be in [0, 1]")
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
        raise ValueError(f"unknown graph kind {kind!r}")
    return Topology(num_nodes=n, edges=tuple(edges), block_dim=block_dim)
