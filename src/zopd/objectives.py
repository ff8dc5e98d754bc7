"""Local objective functions for the consensus benchmarks.

Each agent holds a LocalObjective: a scalar function on R^M together with the
metadata the analysis needs (domain box, Lipschitz constant, lower bound).

Every objective (the toy, the quadratic, logistic regression, or one a caller
writes) is a Family member: a value kernel and, where the family has them, one
kernel for both closed forms of the Gaussian-smoothed surrogate, each acting
on many agents' stacked data in one call. StackedObjective makes one such call
per family for all of its agents, and is the one place a kernel is called: an
agent's own value_many is its rows of a one-agent stack, and the closed forms
are reached only through a stack, which refuses a family without them with a
ValueError. A value kernel writes its scratch arrays into a reused
Workspace: at the logreg shape (15 agents x 31 rows x 100 data points) each
scratch array is 372 KB, above glibc malloc's 128 KiB mmap threshold, so a
fresh temporary is a fresh mapping whose every page faults on first touch.
With fresh arrays the one stacked call was no faster than the per-agent
loop; one perfbench logreg experiment took 30,000-90,000 minor page faults
that way and about 800 with the workspace (2-core x86-64 host, numpy 2.4.6).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .graph import ConfigError

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
]

# Batch evaluators must be row-stable: the value computed for a point may not
# depend on which other rows share the batch. einsum contractions and
# elementwise ops satisfy this. A BLAS matrix product does only where every
# call has the same kind of shape: the logistic kernel makes batched gemm
# calls of an even row count, never one row, each below a size bound (see
# _GEMM_MNK).


@dataclass(frozen=True)
class Box:
    """Axis-aligned domain box, lo <= x <= hi coordinatewise."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape:
            raise ConfigError("box", "lo and hi shapes differ")
        if np.any(lo > hi):
            raise ConfigError("box", "has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

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
    they share:
    - kernel(data, params, pts, work) gives (n, S) values, its scratch arrays
      in the Workspace work;
    - smoothed(data, params, pts, mu) gives the exact closed forms of the
      Gaussian-smoothed surrogate E_phi[f(x + mu phi)] together: (n, S, M)
      gradients and (n, S) values. It is None for a family without them.
    Agents whose kernels, params and array shapes agree share one call.
    Kernels are module-level functions, so objectives pickle.
    """

    kernel: Callable
    data: tuple[np.ndarray, ...]
    params: tuple = ()
    smoothed: Callable | None = None

    def key(self) -> tuple:
        """What the agents of one kernel call share."""
        return (self.kernel, self.params, tuple(a.shape for a in self.data), self.smoothed)


@dataclass
class LocalObjective:
    """One agent's objective: a Family member with analysis metadata.

    value_many evaluates points (..., dim) row-stably to (...) values: this
    agent's rows of a one-agent StackedObjective, so they equal its rows in
    any stack bitwise.
    """

    dim: int
    box: Box
    lipschitz_l0: float
    lower_bound: float
    family: Family
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("objective dim must be >= 1")
        if self.box.dim != self.dim:
            raise ValueError("box dim does not match objective dim")
        if self.lipschitz_l0 <= 0:
            raise ValueError("lipschitz_l0 must be positive")

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        rows = StackedObjective([self]).values(pts.reshape(1, -1, self.dim))
        return rows.reshape(pts.shape[:-1])


@dataclass
class StackedObjective:
    """The sum of per-agent objectives over the stacked variable in R^{N*M}.

    Its agents are grouped once, by family description. values and the
    closed forms make one kernel call per group. A group whose agents all
    hold one object passes its data once and all their rows as one agent's
    rows; any other group stacks its agents' arrays once and has its own
    Workspace. By the row-stability rule the results equal the per-agent
    calls bitwise.
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
            groups.setdefault(o.family.key(), []).append(i)
        self._groups = []
        for idx in groups.values():
            objs = [self.locals_[i] for i in idx]
            one = all(o is objs[0] for o in objs)
            members = [o.family for o in objs[: 1 if one else None]]
            data = tuple(np.stack(arrays) for arrays in zip(*(f.data for f in members)))
            self._groups.append((objs[0].family, np.array(idx), data, one, Workspace()))

    @property
    def num_agents(self) -> int:
        return len(self.locals_)

    @property
    def total_dim(self) -> int:
        return self.num_agents * self.block_dim

    def blocks(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(self.num_agents, self.block_dim)

    def _call(self, name: str, group: tuple, pts: np.ndarray, mu: float | None) -> tuple:
        """Kernel `name` on a group's rows pts (n, S, M), as a tuple of its
        (n, S) or (n, S, M) outputs; a group whose agents hold one object
        passes them as that object's rows. The one call site of a Family
        kernel: a family without closed forms is refused here."""
        fam, idx, data, one, work = group
        kernel, lead = getattr(fam, name), pts.shape[:2]
        if kernel is None:
            who = self.locals_[idx[0]].name
            raise ValueError(f"objective {who!r} has no smoothed closed form")
        rows = pts.reshape(1, -1, pts.shape[2]) if one else pts
        got = kernel(data, fam.params, rows, work if mu is None else mu)
        if isinstance(got, tuple):  # the closed forms' pair
            return tuple([a.reshape(lead + a.shape[2:]) for a in got])
        return (got.reshape(lead),)

    def _apply(self, name: str, pts: np.ndarray, mu: float | None = None) -> tuple:
        """Every group's kernel `name` on its agents' rows of pts (N, S, M),
        as a tuple of its outputs. A lone group holds every agent in order,
        so its kernel takes pts as given; several are gathered and
        scattered."""
        if len(self._groups) == 1:
            # contiguous, as a gathered copy is, so that the einsum and BLAS
            # kernels see the same strides and sum alike
            return self._call(name, self._groups[0], np.ascontiguousarray(pts), mu)
        outs = None
        for group in self._groups:
            idx = group[1]
            got = self._call(name, group, pts[idx], mu)
            outs = outs or tuple(np.empty((len(pts),) + a.shape[1:]) for a in got)
            for out, part in zip(outs, got):
                out[idx] = part
        return outs

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Agent i's objective at its rows pts[i]: (N, S, M) points to (N, S)
        values, with one kernel call per group."""
        return self._apply("kernel", pts)[0]

    def value(self, x: np.ndarray) -> float:
        return float(self.values(self.blocks(x)[:, None, :]).sum())

    # Lipschitz constant of the stacked sum: blockwise bound composed in l2.
    @property
    def lipschitz_l0(self) -> float:
        return float(math.sqrt(sum(o.lipschitz_l0 ** 2 for o in self.locals_)))

    @property
    def has_smoothed_closed_form(self) -> bool:
        return all(group[0].smoothed is not None for group in self._groups)

    def smoothed_gradient_stacked(self, x: np.ndarray, mu: float) -> np.ndarray:
        return self._smoothed_pair(self.blocks(x)[:, None, :], mu)[0].reshape(-1)

    def smoothed_value_stacked(self, x: np.ndarray, mu: float) -> float:
        return float(self._smoothed_pair(self.blocks(x)[:, None, :], mu)[1][:, 0].sum())

    def _smoothed_pair(self, pts: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
        """Both closed forms at agent i's rows pts[i] of (N, S, M) points:
        (N, S, M) smoothed gradients and (N, S) smoothed values, with one
        kernel call per group."""
        return self._apply("smoothed", pts, mu)


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


def toy_objective(
    phase: float = 0.0, box_lo: float = -5.0, box_hi: float = 5.0
) -> LocalObjective:
    """f(x) = |cos(x + phase) + |x| + exp(x)| on a 1-D box.

    Nonconvex and nonsmooth (kink at 0 from |x|, plus the outer absolute
    value). For phase 0 the inner expression is positive everywhere, so the
    outer |.| is inactive and the Gaussian-smoothed value and gradient have
    exact closed forms, attached for that phase only.

    lipschitz_l0 = 2 + exp(box_hi) bounds |f'| for every phase: |sin| + 1 +
    exp(x) bounds the inner slope, and the outer |.| adds none.
    """
    if box_hi > 700.0:
        raise ConfigError("box", "must end at or below 700, where exp(x) is finite")
    closed = phase == 0.0
    phases = np.array([float(phase)])
    return LocalObjective(
        dim=1,
        box=Box.cube(1, box_lo, box_hi),
        lipschitz_l0=2.0 + math.exp(box_hi),
        lower_bound=0.0,
        family=Family(_toy_rows, (phases,), (), _toy_smoothed if closed else None),
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
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
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


# The margins are BLAS matrix products, and a row's bits there depend on the
# product's shape in four ways (OpenBLAS 0.3.31 in numpy 2.4.6):
# - numpy sends a product with one row or one column to gemv, not gemm;
# - the Haswell gemm kernels (used on AVX2 CPUs) sum the last row of an odd
#   row count in another order;
# - above M*N*K = 2**18 gemm splits its rows among threads, which can leave
#   a thread an odd count;
# - on AVX-512 CPUs gemm leaves its small-matrix kernel above 100**3, and the
#   blocked kernels sum some rows in another order.
# So every product has an even row count and at most _GEMM_MNK multiplies
# (two rows where even that is more), the last row of an odd count is the
# second row of a pair, and a single data column is doubled. A row's bits are
# then the same in any (N, S) batch and at any BLAS thread count.
_GEMM_MNK = 2**18


def _logreg_rows(data, params, pts: np.ndarray, work: Workspace) -> np.ndarray:
    """Family kernel: n agents' label-folded (n, M, B) columns y_j v_j and
    (n, S, M) points to (n, S) values."""
    (signed,) = data
    alpha, epsilon, scale = params
    n, s, m = pts.shape
    b = signed.shape[2]
    cols = np.repeat(signed, 2, axis=2) if b == 1 else signed
    prod = work.array(0, (n, s, cols.shape[2]))  # y_j x.v_j, see _GEMM_MNK
    even, step = s - s % 2, 2 * max(1, _GEMM_MNK // (2 * m * cols.shape[2]))
    for i in range(0, even, step):
        j = min(i + step, even)
        np.matmul(pts[:, i:j], cols, out=prod[:, i:j])
    if s % 2:
        prod[:, -1] = np.matmul(pts[:, [max(s - 2, 0), s - 1]], cols)[:, 1]
    margins = prod[..., :b]
    # log(1 + exp(-m)) = log1p(exp(-|m|)) - min(m, 0), finite for any m
    loss = work.array(1, (n, s, b))
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
    if not epsilon > 0:
        raise ConfigError("epsilon", f"must be positive, got {epsilon!r}")
    if not alpha >= 0:
        raise ConfigError("alpha", f"must be nonnegative, got {alpha!r}")
    if num_agents < 1:
        raise ConfigError("num_agents", f"must be >= 1, got {num_agents!r}")
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
            raise ConfigError(name, f"must be >= 1, got {size!r}")
    if not 0.0 <= flip_prob <= 1.0:
        raise ConfigError("flip_prob", f"must lie in [0, 1], got {flip_prob!r}")
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
    """The rows write_classification_csv writes, parsed in one np.loadtxt
    pass; blank lines are skipped, and a ragged row or a cell that is not a
    number is a ValueError."""
    with open(path) as fh:
        lines = [line for line in fh if not line.isspace()]
    if not lines:
        raise ValueError(f"no data rows in {path}")
    arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
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


def _quadratic_smoothed(data, params, pts: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Both closed forms on (n, S, M) points: gradients Hx + b and values
    f + (mu^2/2) tr(H)."""
    h, b, trace = data
    grad = np.einsum("kmn,ksn->ksm", h, pts) + b[:, None, :]
    return grad, _quadratic_rows(data, params, pts, None) + 0.5 * mu * mu * trace[:, None]


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
        raise ConfigError("hessian", f"must be square, got shape {h.shape}")
    if not np.array_equal(h, h.T):
        raise ConfigError("hessian", "must be symmetric")
    m = h.shape[0]
    if b.shape != (m,):
        raise ConfigError("linear", f"shape {b.shape} does not match the hessian's {m} rows")
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
        family=Family(_quadratic_rows, (h, b, np.array(np.trace(h))), (), _quadratic_smoothed),
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
