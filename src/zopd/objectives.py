"""Local objective functions for the consensus benchmarks.

Each agent holds a LocalObjective: a scalar function on R^M together with the
metadata the analysis needs (domain box, Lipschitz constant, lower bound) and,
where available, closed forms for the Gaussian-smoothed value and gradient.

Every built-in objective (the toy, the quadratic, logistic regression) is a
Family member: its value kernel and closed forms act on many agents' stacked
data in one call. StackedObjective makes one such call per family for all of
its agents, and the agent's own value_many, smoothed_gradient and
smoothed_value are N = 1 views of the same kernels. A value kernel writes its
scratch arrays into a reused Workspace: at the logreg shape (15 agents x 31
rows x 100 data points) each scratch array is 372 KB, above glibc malloc's
128 KiB mmap threshold, so a fresh temporary is a fresh mapping whose every
page faults on first touch. With fresh arrays the one stacked call was no
faster than the per-agent loop; one perfbench logreg experiment took
30,000-90,000 minor page faults that way and about 800 with the workspace
(2-core x86-64 host, numpy 2.4.6).
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

    Each kernel maps n agents' (n, S, M) points row-stably, with data the
    agents' arrays stacked along a new first axis and params the scalars
    they share: kernel(data, params, pts, work) to (n, S) values, its scratch
    arrays in the Workspace work; smoothed_gradient / smoothed_value(data,
    params, pts, mu) to the closed forms' (n, S, M) / (n, S), or None.
    Agents whose kernels, params and array shapes agree share one call.
    """

    kernel: Callable
    data: tuple[np.ndarray, ...]
    params: tuple = ()
    smoothed_gradient: Callable | None = None
    smoothed_value: Callable | None = None

    def key(self) -> tuple:
        """What the agents of one kernel call share."""
        shapes = tuple(a.shape for a in self.data)
        return (self.kernel, self.params, shapes, self.smoothed_gradient, self.smoothed_value)

    def view(self, name: str) -> Callable | None:
        """The N = 1 view of kernel `name`, None where that kernel is."""
        kernel = getattr(self, name)
        return kernel and partial(_view, kernel, tuple(a[None] for a in self.data), self.params)


def _view(kernel, data, params, x, mu=None) -> np.ndarray:
    """One agent's points x (..., M) as its rows; a value kernel (mu None)
    gets a fresh Workspace. The output keeps x's leading shape."""
    x = np.asarray(x, dtype=float)
    out = kernel(data, params, x.reshape(1, -1, x.shape[-1]), Workspace() if mu is None else mu)
    return out.reshape(x.shape[:-1] + out.shape[2:])


def _own(name, data, params, pts, arg):
    """Kernel of an objective outside every family: its own callable `name`
    on the group's one row block, looked up per call (it may be replaced on
    the instance)."""
    fn = getattr(params[0], name)
    return np.asarray(fn(pts[0]) if name == "value_many" else fn(pts[0], arg), dtype=float)[None]


@dataclass
class LocalObjective:
    """One agent's objective with analysis metadata.

    value_many evaluates a (S, dim) batch row-stably. smoothed_gradient /
    smoothed_value, when set, are exact closed forms of the Gaussian-smoothed
    surrogate E_phi[f(x + mu phi)] and its gradient, at a point (dim,) or row
    by row on a batch (K, dim). An objective built with a family and none of
    these three gets the family's N = 1 views; one built with its own
    (dataclasses.replace of a member, say) belongs to no family. Callables
    are module-level functions or partials of them, so objectives pickle.
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
        own = (self.value_many, self.smoothed_gradient, self.smoothed_value)
        if self.family is None or any(f is not None for f in own):
            self.family = None
        else:
            views = map(self.family.view, ("kernel", "smoothed_gradient", "smoothed_value"))
            self.value_many, self.smoothed_gradient, self.smoothed_value = views
        if self.value_many is None:
            raise ValueError("objective needs value_many or a family")
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

    Its agents are grouped once, by family description; an objective outside
    every family forms its own group. values and the closed forms make one
    kernel call per group. A group whose agents all hold one object passes
    its data once and all their rows as one agent's rows; any other group
    stacks its agents' arrays once and has its own Workspace. By the
    row-stability rule the results equal the per-agent calls bitwise.
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
        groups: dict[tuple, list[int]] = {}
        for i, o in enumerate(self.locals_):
            key = (id(o),) if o.family is None else o.family.key()
            groups.setdefault(key, []).append(i)
        self._groups = []
        for idx in groups.values():
            objs = [self.locals_[i] for i in idx]
            one = all(o is objs[0] for o in objs)
            fam = objs[0].family or Family(
                partial(_own, "value_many"), (), (objs[0],),
                partial(_own, "smoothed_gradient"), partial(_own, "smoothed_value"),
            )
            members = [fam] if one else [o.family for o in objs]
            data = tuple(np.stack(arrays) for arrays in zip(*(f.data for f in members)))
            self._groups.append((fam, np.array(idx), data, one, Workspace()))

    @property
    def num_agents(self) -> int:
        return len(self.locals_)

    @property
    def total_dim(self) -> int:
        return self.num_agents * self.block_dim

    def blocks(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self.num_agents, self.block_dim)

    @staticmethod
    def _call(kernel: Callable, group: tuple, pts: np.ndarray, mu: float | None):
        """kernel on a group's rows pts (n, S, M); a group whose agents hold
        one object passes them as that object's rows."""
        fam, _, data, one, work = group
        rows = pts.reshape(1, -1, pts.shape[2]) if one else pts
        return kernel(data, fam.params, rows, work if mu is None else mu)

    def _apply(self, name: str, pts: np.ndarray, mu: float | None = None) -> np.ndarray:
        """Every group's kernel `name` on its agents' rows of pts (N, S, M):
        (N, S) values, or (N, S, M) smoothed gradients. A lone group holds
        every agent in order, so its kernel takes pts as given; several are
        gathered and scattered."""
        n, s, m = pts.shape
        shape = (n, s, m) if name == "smoothed_gradient" else (n, s)
        if len(self._groups) == 1:
            # contiguous, as a gathered copy is, so einsum kernels sum alike
            group = self._groups[0]
            got = self._call(getattr(group[0], name), group, np.ascontiguousarray(pts), mu)
            return got.reshape(shape)
        out = np.empty(shape)
        for group in self._groups:
            idx = group[1]
            got = self._call(getattr(group[0], name), group, pts[idx], mu)
            out[idx] = got.reshape((idx.size,) + shape[1:])
        return out

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Agent i's objective at its rows pts[i]: (N, S, M) points to (N, S)
        values, with one kernel call per group."""
        return self._apply("kernel", pts)

    def value(self, x: np.ndarray) -> float:
        return float(self.values(self.blocks(x)[:, None, :]).sum())

    # Lipschitz constant of the stacked sum: blockwise bound composed in l2.
    @property
    def lipschitz_l0(self) -> float:
        return float(math.sqrt(sum(o.lipschitz_l0 ** 2 for o in self.locals_)))

    @property
    def lower_bound(self) -> float:
        return float(sum(o.lower_bound for o in self.locals_))

    @property
    def has_smoothed_closed_form(self) -> bool:
        return all(o.smoothed_gradient and o.smoothed_value for o in self.locals_)

    def smoothed_gradient_stacked(self, x: np.ndarray, mu: float) -> np.ndarray:
        return self._apply("smoothed_gradient", self.blocks(x)[:, None, :], mu).reshape(-1)

    def smoothed_value_stacked(self, x: np.ndarray, mu: float) -> float:
        return float(self._apply("smoothed_value", self.blocks(x)[:, None, :], mu)[:, 0].sum())

    def _smoothed_pair(self, pts: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
        """Both closed forms at agent i's rows pts[i] of (N, S, M) points:
        (N, S, M) smoothed gradients and (N, S) smoothed values; one kernel
        call when the toy, whose two closed forms share their terms, holds
        every agent."""
        group = self._groups[0]
        if len(self._groups) == 1 and group[0].smoothed_gradient is _toy_smoothed_gradient:
            g, v = self._call(_toy_smoothed, group, np.ascontiguousarray(pts), mu)
            return g.reshape(pts.shape), v.reshape(pts.shape[:2])
        return self._apply("smoothed_gradient", pts, mu), self._apply("smoothed_value", pts, mu)


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


def _toy_rows(data, params, pts: np.ndarray, work: Workspace) -> np.ndarray:
    """Family kernel: n agents' (n, 1) phases and (n, S, 1) points to (n, S)."""
    (phases,) = data
    x = pts[..., 0]
    return np.abs(np.cos(x + phases) + np.abs(x) + np.exp(x))


# Closed forms of the phase-0 toy, on (n, S, 1) points. E|N(x, mu^2)| =
# x erf(x/(mu sqrt2)) + mu sqrt(2/pi) exp(-x^2/(2 mu^2)); its derivative
# telescopes to erf(x/(mu sqrt2)).
def _toy_smoothed(data, params, pts: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Both closed forms, (n, S, 1) gradients and (n, S) values, which share
    erf(x/(mu sqrt2)) and exp(x + mu^2/2)."""
    damp, bend = math.exp(-0.5 * mu * mu), erf(pts / (mu * math.sqrt(2.0)))
    grow = np.exp(pts + 0.5 * mu * mu)
    grad = -np.sin(pts) * damp + bend + grow
    v, bend, grow = pts[..., 0], bend[..., 0], grow[..., 0]
    abs_part = v * bend + mu * math.sqrt(2.0 / math.pi) * np.exp(-(v * v) / (2.0 * mu * mu))
    return grad, np.cos(v) * damp + abs_part + grow


def _toy_smoothed_gradient(data, params, pts: np.ndarray, mu: float) -> np.ndarray:
    return _toy_smoothed(data, params, pts, mu)[0]


def _toy_smoothed_value(data, params, pts: np.ndarray, mu: float) -> np.ndarray:
    return _toy_smoothed(data, params, pts, mu)[1]



def toy_objective(
    phase: float = 0.0, box_lo: float = -5.0, box_hi: float = 5.0
) -> LocalObjective:
    """f(x) = |cos(x + phase) + |x| + exp(x)| on a 1-D box.

    Nonconvex and nonsmooth (kink at 0 from |x|, plus the outer absolute
    value). For phase 0 the inner expression is positive everywhere, so the
    outer |.| is inactive and the Gaussian-smoothed value and gradient have
    exact closed forms, attached for that phase only.
    """
    closed = phase == 0.0
    family = Family(
        _toy_rows, (np.array([float(phase)]),), (),
        _toy_smoothed_gradient if closed else None, _toy_smoothed_value if closed else None,
    )
    box = Box.cube(1, box_lo, box_hi)
    return LocalObjective(
        dim=1,
        box=box,
        # Sampled slope maximization; 1.05 guards the audit re-sampling.
        lipschitz_l0=1.05 * estimate_lipschitz(family.view("kernel"), box, seed=17),
        lower_bound=0.0,
        name="toy" if closed else f"toy(phase={phase:g})",
        family=family,
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


def _logreg_rows(data, params, pts: np.ndarray, work: Workspace) -> np.ndarray:
    """Family kernel: n agents' label-folded (n, M, B) columns y_j v_j and
    (n, S, M) points to (n, S) values."""
    (signed,) = data
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
        family=Family(_logreg_rows, (signed_t,), (alpha, epsilon, scale)),
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


def _quadratic_rows(data, params, pts: np.ndarray, work: Workspace | None) -> np.ndarray:
    """Family kernel: n agents' (n, M, M) Hessians, (n, M) linear terms and
    (n,) traces, and (n, S, M) points, to (n, S) values."""
    h, b, _ = data
    # two two-operand contractions: a three-operand einsum is not row-stable
    hx = np.einsum("ksn,knm->ksm", pts, h)
    return 0.5 * np.einsum("ksm,ksm->ks", pts, hx) + np.einsum("ksm,km->ks", pts, b)


# Closed forms on (n, S, M) points.
def _quadratic_smoothed_gradient(data, params, pts: np.ndarray, mu: float) -> np.ndarray:
    h, b, _ = data
    return np.einsum("kmn,ksn->ksm", h, pts) + b[:, None, :]


def _quadratic_smoothed_value(data, params, pts: np.ndarray, mu: float) -> np.ndarray:
    return _quadratic_rows(data, params, pts, None) + 0.5 * mu * mu * data[2][:, None]


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
    lower = -math.inf
    if float(np.linalg.eigvalsh(h)[0]) >= -1e-10:
        xstar, *_ = np.linalg.lstsq(h, -b, rcond=None)
        if np.linalg.norm(h @ xstar + b) <= 1e-8 * (1.0 + np.linalg.norm(b)):
            lower = float(0.5 * xstar @ h @ xstar + b @ xstar) - 1e-9

    return LocalObjective(
        dim=m,
        box=box,
        lipschitz_l0=l0,
        lower_bound=lower,
        name="quadratic",
        family=Family(
            _quadratic_rows, (h, b, np.array(float(np.trace(h)))), (),
            _quadratic_smoothed_gradient, _quadratic_smoothed_value,
        ),
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
