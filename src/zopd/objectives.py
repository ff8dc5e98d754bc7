"""Local objective functions for the consensus benchmarks.

Each agent holds a LocalObjective: a scalar function on R^M together with the
metadata the analysis needs (domain box, Lipschitz constant, lower bound) and,
where available, closed forms for the Gaussian-smoothed value and gradient.

An objective that belongs to a Family (logistic regression) also names a
kernel that evaluates many agents' rows in one call; StackedObjective calls it
once for all of the family's agents, and the agent's own value_many is the
N = 1 view of the same kernel. The stacked call writes its scratch arrays into
a reused Workspace: at the logreg shape (15 agents x 31 rows x 100 data points)
each scratch array is 372 KB, above glibc malloc's 128 KiB mmap threshold, so
a fresh temporary is a fresh mapping whose every page faults on first touch.
With fresh arrays the one stacked call was no faster than the per-agent loop;
one perfbench logreg experiment took 30,000-90,000 minor page faults that way
and about 800 with the workspace (2-core x86-64 host, numpy 2.4.6).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Box",
    "Family",
    "LocalObjective",
    "StackedObjective",
    "ClassificationData",
    "toy_objective",
    "logistic_regression_objective",
    "quadratic_objective",
    "random_quadratic",
    "synthesize_classification_data",
    "write_classification_csv",
    "read_classification_csv",
    "estimate_lipschitz",
]

# Batch evaluators must be row-stable: the value computed for a point may not
# depend on which other rows share the batch. einsum contractions and
# elementwise ops satisfy this; plain matmul does not (BLAS reorders sums).


@dataclass(frozen=True)
class Box:
    """Axis-aligned domain box, lo <= x <= hi coordinatewise."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("box lo/hi shapes differ")
        if np.any(lo > hi):
            raise ValueError("box has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def contains_rows(self, pts: np.ndarray) -> np.ndarray:
        return np.logical_and(
            np.all(pts >= self.lo, axis=-1), np.all(pts <= self.hi, axis=-1)
        )

    @staticmethod
    def cube(dim: int, lo: float, hi: float) -> "Box":
        return Box(np.full(dim, float(lo)), np.full(dim, float(hi)))


class Workspace:
    """Scratch arrays reused across calls: one flat buffer per slot, grown when
    a call needs more, handed out as C-contiguous views of the asked shape (a
    fresh Workspace allocates exactly like np.empty)."""

    def __init__(self):
        self._bufs: dict[int, np.ndarray] = {}

    def array(self, slot: int, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._bufs.get(slot)
        if buf is None or buf.size < size:
            buf = self._bufs[slot] = np.empty(size)
        return buf[:size].reshape(shape)


@dataclass(frozen=True)
class Family:
    """One agent's member of a batched objective family.

    kernel(data, params, pts, work) maps (n, S, M) points to (n, S) values
    row-stably, where data stacks the n agents' arrays along a new first axis,
    params are the scalars the agents share and work is a Workspace for its
    scratch arrays. Agents whose kernel, params and array shape agree are
    evaluated in one call.
    """

    kernel: Callable[[np.ndarray, tuple, np.ndarray, Workspace], np.ndarray]
    data: np.ndarray
    params: tuple


def _family_view(data, kernel, params, pts: np.ndarray) -> np.ndarray:
    """The N = 1 view of a family kernel: one agent's (S, M) rows."""
    return kernel(data[None], params, np.asarray(pts, dtype=float)[None], Workspace())[0]


@dataclass
class LocalObjective:
    """One agent's objective with analysis metadata.

    value_many evaluates a (S, dim) batch row-stably. smoothed_gradient /
    smoothed_value, when set, are exact closed forms of the Gaussian-smoothed
    surrogate E_phi[f(x + mu phi)] and its gradient, at a point (dim,) or row
    by row on a batch (K, dim). The factories set them to module-level
    functions or functools.partial bindings of them, so an objective pickles
    and pool workers can receive it. An objective given a family and no
    value_many gets the family's N = 1 view as its value_many.
    """

    dim: int
    box: Box
    lipschitz_l0: float
    lower_bound: float
    value_many: Callable[[np.ndarray], np.ndarray] | None = None
    smoothed_gradient: Callable[[np.ndarray, float], np.ndarray] | None = None
    smoothed_value: Callable[[np.ndarray, float], np.ndarray] | None = None
    name: str = ""
    family: Family | None = None

    def __post_init__(self):
        if self.value_many is None:
            if self.family is None:
                raise ValueError("objective needs value_many or a family")
            fam = self.family
            self.value_many = partial(_family_view, fam.data, fam.kernel, fam.params)
        if self.dim < 1:
            raise ValueError("objective dim must be >= 1")
        if self.box.dim != self.dim:
            raise ValueError("box dim does not match objective dim")
        if self.lipschitz_l0 <= 0:
            raise ValueError("lipschitz_l0 must be positive")

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.value_many(x.reshape(1, self.dim))[0])


@dataclass
class StackedObjective:
    """The sum of per-agent objectives over the stacked variable in R^{N*M}.

    values makes one call per group on all of its agents' rows: a group is the
    agents of one family, whose arrays are stacked once and whose kernel
    writes into the group's Workspace, or the agents that share one objective
    object, evaluated through its value_many. The closed forms make one call
    per shared object. By the row-stability rule the results equal the
    per-agent calls bitwise.
    """

    locals_: Sequence[LocalObjective]
    block_dim: int = field(init=False)
    box_lo: np.ndarray = field(init=False, repr=False)
    box_hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.locals_:
            raise ValueError("need at least one local objective")
        dims = {o.dim for o in self.locals_}
        if len(dims) != 1:
            raise ValueError("all local objectives must share one dim")
        self.block_dim = self.locals_[0].dim
        self.box_lo = np.array([o.box.lo for o in self.locals_])
        self.box_hi = np.array([o.box.hi for o in self.locals_])
        shared: dict[int, tuple[LocalObjective, list[int]]] = {}
        families: dict[tuple, list[int]] = {}
        for i, o in enumerate(self.locals_):
            shared.setdefault(id(o), (o, []))[1].append(i)
            if o.family is not None:
                fam = o.family
                families.setdefault((fam.kernel, fam.params, fam.data.shape), []).append(i)
        self._shared = [(o, np.array(idx)) for o, idx in shared.values()]
        self._evaluated = [(o, rows) for o, rows in self._shared if o.family is None]
        self._families = [
            (self.locals_[idx[0]].family, np.array(idx),
             np.stack([self.locals_[i].family.data for i in idx]), Workspace())
            for idx in families.values()
        ]

    @property
    def num_agents(self) -> int:
        return len(self.locals_)

    @property
    def total_dim(self) -> int:
        return self.num_agents * self.block_dim

    def blocks(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self.num_agents, self.block_dim)

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Agent i's objective at its rows pts[i]: (N, S, M) points to (N, S)
        values, with one call per family and per other distinct objective."""
        n, s, m = pts.shape
        out = np.empty((n, s))
        for fam, rows, data, work in self._families:
            out[rows] = fam.kernel(data, fam.params, pts[rows], work)
        for obj, rows in self._evaluated:
            # value_many is looked up per call: it may be replaced on the instance
            out[rows] = obj.value_many(pts[rows].reshape(-1, m)).reshape(-1, s)
        return out

    def value(self, x: np.ndarray) -> float:
        return float(np.sum(self.values(self.blocks(x)[:, None, :])))

    # Lipschitz constant of the stacked sum: blockwise bound composed in l2.
    @property
    def lipschitz_l0(self) -> float:
        return float(math.sqrt(sum(o.lipschitz_l0 ** 2 for o in self.locals_)))

    @property
    def lower_bound(self) -> float:
        return float(sum(o.lower_bound for o in self.locals_))

    @property
    def has_smoothed_closed_form(self) -> bool:
        return all(o.smoothed_gradient is not None for o in self.locals_) and all(
            o.smoothed_value is not None for o in self.locals_
        )

    def smoothed_gradient_stacked(self, x: np.ndarray, mu: float) -> np.ndarray:
        xb = self.blocks(x)
        out = np.empty_like(xb)
        for obj, rows in self._shared:
            out[rows] = obj.smoothed_gradient(xb[rows], mu)
        return out.reshape(-1)

    def smoothed_value_stacked(self, x: np.ndarray, mu: float) -> float:
        xb = self.blocks(x)
        out = np.empty(self.num_agents)
        for obj, rows in self._shared:
            out[rows] = obj.smoothed_value(xb[rows], mu)
        return float(np.sum(out))


def estimate_lipschitz(
    value_many: Callable[[np.ndarray], np.ndarray],
    box: Box,
    samples: int = 10**5,
    seed: int = 0,
) -> float:
    """Max difference quotient |f(a)-f(b)| / ||a-b|| over sampled box pairs."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, box.dim, samples)))
    a = rng.uniform(box.lo, box.hi, size=(samples, box.dim))
    b = rng.uniform(box.lo, box.hi, size=(samples, box.dim))
    dist = np.linalg.norm(a - b, axis=1)
    keep = dist > 1e-12
    quot = np.abs(value_many(a[keep]) - value_many(b[keep])) / dist[keep]
    return float(np.max(quot))


# ---------------------------------------------------------------------------
# 1-D nonsmooth nonconvex benchmark


def _toy_values(phase: float, pts: np.ndarray) -> np.ndarray:
    x = np.asarray(pts, dtype=float)[:, 0]
    return np.abs(np.cos(x + phase) + np.abs(x) + np.exp(x))


# Closed forms of the phase-0 toy, on a point (1,) or a row batch (K, 1).
# E|N(x, mu^2)| = x erf(x/(mu sqrt2)) + mu sqrt(2/pi) exp(-x^2/(2 mu^2)); its
# derivative telescopes to erf(x/(mu sqrt2)).
def _toy_smoothed_gradient(x: np.ndarray, mu: float) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    return (
        -np.sin(v) * math.exp(-0.5 * mu * mu)
        + erf(v / (mu * math.sqrt(2.0)))
        + np.exp(v + 0.5 * mu * mu)
    )


def _toy_smoothed_value(x: np.ndarray, mu: float) -> np.ndarray:
    v = np.asarray(x, dtype=float)[..., 0]
    abs_part = v * erf(v / (mu * math.sqrt(2.0))) + mu * math.sqrt(2.0 / math.pi) * np.exp(
        -(v * v) / (2.0 * mu * mu)
    )
    return np.cos(v) * math.exp(-0.5 * mu * mu) + abs_part + np.exp(v + 0.5 * mu * mu)


def toy_objective(
    phase: float = 0.0, box_lo: float = -5.0, box_hi: float = 5.0
) -> LocalObjective:
    """f(x) = |cos(x + phase) + |x| + exp(x)| on a 1-D box.

    Nonconvex and nonsmooth (kink at 0 from |x|, plus the outer absolute
    value). For phase 0 the inner expression is positive everywhere, so the
    outer |.| is inactive and the Gaussian-smoothed value and gradient have
    exact closed forms, attached for that phase only.
    """
    value_many = partial(_toy_values, phase)
    box = Box.cube(1, box_lo, box_hi)
    closed = phase == 0.0
    return LocalObjective(
        dim=1,
        box=box,
        # Sampled slope maximization; 1.05 guards the audit re-sampling.
        lipschitz_l0=1.05 * estimate_lipschitz(value_many, box, seed=17),
        lower_bound=0.0,
        value_many=value_many,
        smoothed_gradient=_toy_smoothed_gradient if closed else None,
        smoothed_value=_toy_smoothed_value if closed else None,
        name="toy" if closed else f"toy(phase={phase:g})",
    )


# ---------------------------------------------------------------------------
# Sparse logistic regression with a log-l1 regularizer


@dataclass
class ClassificationData:
    """One agent's batch: features (batch, dim), labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be (batch, dim)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be (batch,)")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    @property
    def batch(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _logreg_rows(signed, params, pts: np.ndarray, work: Workspace) -> np.ndarray:
    """Family kernel: n agents' label-folded (n, M, B) columns y_j v_j and
    (n, S, M) points to (n, S) values."""
    alpha, epsilon, scale = params
    shape = pts.shape[:2] + signed.shape[2:]
    margins = np.einsum("nsm,nmb->nsb", pts, signed, out=work.array(0, shape))  # y_j x.v_j
    # log(1 + exp(-m)) = log1p(exp(-|m|)) - min(m, 0), finite for any m
    loss = work.array(1, shape)
    np.exp(np.negative(np.abs(margins, out=loss), out=loss), out=loss)
    np.log1p(loss, out=loss)
    loss -= np.minimum(margins, 0.0, out=margins)
    reg = alpha * np.log(epsilon + np.sum(np.abs(pts), axis=2))
    return scale * (np.sum(loss, axis=2) + reg)


def logistic_regression_objective(
    data: ClassificationData,
    num_agents: int,
    alpha: float = 0.1,
    epsilon: float = 1e-3,
    box_lo: float = -10.0,
    box_hi: float = 10.0,
) -> LocalObjective:
    """f_i(x) = (1/(N b)) [ sum_j log(1 + exp(-y_j x.v_j)) + alpha log(eps + ||x||_1) ].

    The log-l1 term is a nonconvex sparsity surrogate; the kink set of ||x||_1
    makes the objective nonsmooth.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if num_agents < 1:
        raise ValueError("num_agents must be >= 1")
    n, b, m = num_agents, data.batch, data.dim
    fts = data.features
    scale = 1.0 / (n * b)

    # |logistic'| <= 1 and the regularizer slope peaks at alpha sqrt(M)/eps,
    # so this is a guaranteed upper bound (sampled maxima under-cover the
    # slope spike of the l1 log near the origin).
    l0 = scale * (float(np.sum(np.linalg.norm(fts, axis=1))) + alpha * math.sqrt(m) / epsilon)
    lower = scale * alpha * math.log(epsilon)
    signed_t = np.ascontiguousarray((fts * data.labels[:, None]).T)  # y (x.v) = x.(y v) exactly

    return LocalObjective(
        dim=m,
        box=Box.cube(m, box_lo, box_hi),
        lipschitz_l0=l0,
        lower_bound=min(lower, 0.0),
        family=Family(_logreg_rows, signed_t, (alpha, epsilon, scale)),
        name="logreg",
    )


def synthesize_classification_data(
    num_agents: int,
    batch: int,
    dim: int,
    seed: int,
    flip_prob: float = 0.05,
) -> tuple[list[ClassificationData], np.ndarray]:
    """Per-agent Gaussian features labeled by a planted sparse vector.

    The planted vector has ceil(dim/4) nonzero entries; each label flips
    independently with flip_prob. Returns (datasets, planted_vector).
    """
    for name, size in (("num_agents", num_agents), ("batch", batch), ("dim", dim)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    if not 0.0 <= flip_prob <= 1.0:
        raise ValueError("flip_prob must be in [0, 1]")
    root = np.random.default_rng(np.random.SeedSequence((seed, num_agents, batch, dim)))
    nnz = math.ceil(dim / 4)
    support = root.choice(dim, size=nnz, replace=False)
    planted = np.zeros(dim)
    vals = root.standard_normal(nnz)
    planted[support] = np.where(vals == 0.0, 1e-3, vals)  # support stays nonzero
    datasets = []
    for i in range(num_agents):
        rng = np.random.default_rng(np.random.SeedSequence((seed, num_agents, batch, dim, i)))
        fts = rng.standard_normal((batch, dim))
        raw = fts @ planted
        labels = np.where(raw >= 0.0, 1.0, -1.0)
        flips = rng.uniform(size=batch) < flip_prob
        labels[flips] *= -1.0
        datasets.append(ClassificationData(fts, labels))
    return datasets, planted


def write_classification_csv(data: ClassificationData, path: str | Path) -> None:
    """One row per data point: label, then the feature coordinates."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for y, v in zip(data.labels, data.features):
            writer.writerow([f"{y:.17g}"] + [f"{c:.17g}" for c in v])


def read_classification_csv(path: str | Path) -> ClassificationData:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if rec:
                rows.append([float(c) for c in rec])
    if not rows:
        raise ValueError(f"no data rows in {path}")
    arr = np.asarray(rows, dtype=float)
    return ClassificationData(arr[:, 1:], arr[:, 0])


# ---------------------------------------------------------------------------
# Quadratic family with exact smoothed forms (test / calibration oracle)


def _quadratic_values(h, b, pts: np.ndarray) -> np.ndarray:
    x = np.asarray(pts, dtype=float)
    # two two-operand contractions: a three-operand einsum is not row-stable
    hx = np.einsum("sn,nm->sm", x, h)
    return 0.5 * np.einsum("sm,sm->s", x, hx) + np.einsum("sm,m->s", x, b)


# Closed forms on a point (M,) or a row batch (K, M).
def _quadratic_smoothed_gradient(h, b, x: np.ndarray, mu: float) -> np.ndarray:
    return np.einsum("mn,...n->...m", h, np.asarray(x, dtype=float)) + b


def _quadratic_smoothed_value(h, b, trace_h: float, x: np.ndarray, mu: float) -> np.ndarray:
    xv = np.asarray(x, dtype=float)
    f = _quadratic_values(h, b, xv.reshape(-1, xv.shape[-1])).reshape(xv.shape[:-1])
    return f + 0.5 * mu * mu * trace_h


def quadratic_objective(
    hessian: np.ndarray,
    linear: np.ndarray,
    box_lo: float = -3.0,
    box_hi: float = 3.0,
) -> LocalObjective:
    """f(x) = 0.5 x'Hx + b'x with exact smoothing: grad_mu = Hx + b,
    f_mu = f + (mu^2/2) tr(H)."""
    h = np.asarray(hessian, dtype=float)
    b = np.asarray(linear, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("hessian must be square")
    if not np.array_equal(h, h.T):
        raise ValueError("hessian must be symmetric")
    m = h.shape[0]
    if b.shape != (m,):
        raise ValueError("linear term shape mismatch")
    box = Box.cube(m, box_lo, box_hi)

    # Lipschitz bound on the box: ||Hx + b|| is convex, maximized at a corner.
    if m <= 12:
        corners = np.array(
            np.meshgrid(*[[box.lo[j], box.hi[j]] for j in range(m)], indexing="ij")
        ).reshape(m, -1).T
        l0 = float(np.max(np.linalg.norm(corners @ h.T + b, axis=1)))
    else:
        radius = float(np.linalg.norm(np.maximum(np.abs(box.lo), np.abs(box.hi))))
        l0 = float(np.linalg.norm(h, 2) * radius + np.linalg.norm(b))
    l0 = max(l0, 1e-12)

    # Global lower bound: exact for positive semidefinite H with consistent b,
    # -inf otherwise (an indefinite quadratic is unbounded below).
    eigmin = float(np.linalg.eigvalsh(h)[0])
    if eigmin >= -1e-10:
        xstar, *_ = np.linalg.lstsq(h, -b, rcond=None)
        if np.linalg.norm(h @ xstar + b) <= 1e-8 * (1.0 + np.linalg.norm(b)):
            lower = float(0.5 * xstar @ h @ xstar + b @ xstar) - 1e-9
        else:
            lower = -math.inf
    else:
        lower = -math.inf

    return LocalObjective(
        dim=m,
        box=box,
        lipschitz_l0=l0,
        lower_bound=lower,
        value_many=partial(_quadratic_values, h, b),
        smoothed_gradient=partial(_quadratic_smoothed_gradient, h, b),
        smoothed_value=partial(_quadratic_smoothed_value, h, b, float(np.trace(h))),
        name="quadratic",
    )


def random_quadratic(
    dim: int, seed: int, convex: bool = True, box_lo: float = -3.0, box_hi: float = 3.0
) -> LocalObjective:
    """Seeded random member of the quadratic family (SPD by default)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, dim, int(convex))))
    g = rng.standard_normal((dim, dim))
    if convex:
        h = g @ g.T / dim + 0.5 * np.eye(dim)
    else:
        h = 0.5 * (g + g.T) / math.sqrt(dim)
    h = 0.5 * (h + h.T)
    b = rng.standard_normal(dim)
    return quadratic_objective(h, b, box_lo=box_lo, box_hi=box_hi)
