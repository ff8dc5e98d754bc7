"""Undirected communication graphs and their consensus operators.

Nodes are labeled 1..N. Each edge (i, j) contributes one row to the oriented
incidence operator: +1 on node i's block, -1 on node j's. Per-node variables
live in R^M, so stacked operators act on R^{N*M} blockwise; they are never
formed as matrices, only applied through the edge list and the node-major
incidence list.

scatter_add sums each node's entries in list order: through a padded
(dmax, N) slot index (the ELLPACK sparse layout) on large near-regular
graphs, through np.add.at on small or degree-skewed ones, with equal bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Topology",
    "NetworkMatrices",
    "check_connected",
    "incidence_list",
    "pad_slots",
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

    def neighbors(self, node: int) -> list[int]:
        out = []
        for i, j in self.edges:
            if i == node:
                out.append(j)
            elif j == node:
                out.append(i)
        return sorted(out)

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


# A graph takes the padded slot layout when it has at least this many nodes
# and the padding at most doubles its entries; below that, np.add.at's
# per-call cost is the smaller one.
PAD_MIN_NODES = 32
PAD_MAX_FILL = 2


def pad_slots(rows: np.ndarray, num_rows: int) -> np.ndarray:
    """The (dmax, num_rows) slot index of a row-sorted entry list: slot k of
    row v holds the list position of v's k-th entry, and an empty slot holds
    len(rows), the position of the pad entry scatter_add appends."""
    counts = np.bincount(rows, minlength=num_rows)
    first = np.cumsum(counts) - counts
    slots = np.full((int(counts.max()), num_rows), rows.size, dtype=np.intp)
    slots[np.arange(rows.size) - first[rows], rows] = np.arange(rows.size)
    return slots


def scatter_add(
    start: np.ndarray, rows: np.ndarray, terms: np.ndarray, slots: np.ndarray | None = None
) -> np.ndarray:
    """A copy of start with each terms[k] added to row rows[k], one entry at
    a time in list order. The one accumulation behind every consensus
    product: each row sums its own entries in sequence, so a caller holding
    only one node's slice of the incidence list gets exactly the bits that
    the full product gives that node.

    With slots (pad_slots of a row-sorted rows), the dmax gathered slices
    are added onto start in order; an empty slot adds -0.0, which leaves the
    bits of every x (signed zeros, infinities, NaN) as they are under
    round-to-nearest. Without slots it is np.add.at."""
    out = np.array(start, dtype=float)
    if slots is None:
        np.add.at(out, rows, terms)
        return out
    pad = np.full((1, *terms.shape[1:]), -0.0)
    for part in np.concatenate((terms, pad)).take(slots, axis=0):
        out += part
    return out


@dataclass
class NetworkMatrices:
    """Edge-list consensus operators for one topology.

    A x is the gather x_i - x_j over each edge (tail i, head j); A' lam and
    the neighbor sums in L+ x = D x + sum over neighbors are scatter_add over
    the node-major incidence list, blockwise across M, through its padded
    slots where the graph's shape favours them (None otherwise). sigma_min is
    the smallest nonzero eigenvalue of the scalar Laplacian L- = A'A,
    lplus_norm the spectral norm of the scalar L+ = 2D - L-; the block
    operators repeat those spectra M times.
    """

    topology: Topology
    tail: np.ndarray
    head: np.ndarray
    node: np.ndarray
    edge: np.ndarray
    neighbor: np.ndarray
    sign: np.ndarray
    slots: np.ndarray | None
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
        return scatter_add(np.zeros_like(xb), self.node, xb[self.neighbor], self.slots)

    def dual_pressure(self, lam: np.ndarray) -> np.ndarray:
        """A' lam, as (N, M) blocks."""
        lb = np.asarray(lam, dtype=float).reshape(self.topology.num_edges, -1)
        start = np.zeros((self.topology.num_nodes, lb.shape[1]))
        return scatter_add(start, self.node, self.sign * lb[self.edge], self.slots)

    def incidence(self, x: np.ndarray) -> np.ndarray:
        """A x, stacked."""
        xb = self.node_blocks(x)
        return (xb[self.tail] - xb[self.head]).reshape(-1)

    def lplus(self, x: np.ndarray) -> np.ndarray:
        """L+ x, stacked."""
        return (self.degree[:, None] * self.node_blocks(x) + self.neighbor_sum(x)).reshape(-1)


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

    n = topo.num_nodes
    padded = n >= PAD_MIN_NODES and deg.max() * n <= PAD_MAX_FILL * node.size
    ends = np.asarray(topo.edges, dtype=np.intp) - 1
    return NetworkMatrices(
        topology=topo, tail=ends[:, 0], head=ends[:, 1], node=node, edge=edge, neighbor=nbr,
        sign=sign, slots=pad_slots(node, n) if padded else None, degree=deg,
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
