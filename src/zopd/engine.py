"""Primal-dual consensus iteration driven by zeroth-order gradient estimates.

Each iteration linearizes the local objectives through their smoothed-gradient
estimates and takes a degree-weighted proximal primal step followed by a dual
ascent step on the edge constraints:

    x+ = (1/(2 rho)) D^-1 (rho Lplus x - g - A' lam)
    lam+ = lam + rho A x+

The primal closed form comes from the first-order condition of the proximal
subproblem g + A' lam + rho A'A x + 2 rho D (x+ - x) = 0.

Randomness is hierarchical: every draw comes from a substream keyed by
(seed, trial, role, ...), and every role lays out its draws the same way,
one block per draw with agent i reading its row. x^0 is one (seed, trial,
init) block of N M uniforms, agent i's M entries in its row, shared by all
executions of a trial. Each estimating role draws one block per iteration,
keyed by (seed, trial, role, iteration); an agent whose row needs box
retries continues from (seed, trial, role, agent, iteration). So the
centralized run and the distributed message-passing run consume identical
streams, and a resumed run reproduces the remaining iterations bit for bit.
The message-passing run keeps each agent's inbox and dual copies as arrays
over the node-major incidence list. Both runs sum the consensus operators
through graph.scatter_add, one np.bincount that adds each node's own slice
in list order, so they also agree bit for bit.

One loop drives both runs and the baseline. A step returns fresh arrays,
or an input passed through unchanged, and never writes into an array it was
given or has returned, so the loop keeps each iterate as the step returned
it, with no copy. The step also hands over the noise-free values its
estimate read at x^r, which give the trace row's objective column.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import NetworkMatrices, Topology, build_matrices, scatter_add
from .metrics import (
    AnalysisConstants, MetricRecord, default_potential_weight, derive_constants, trace_row,
)
from .objectives import LocalObjective, StackedObjective
from .szo import BoxExhausted, NoiseModel, OutsideBox, SmoothingParams, estimate_batch

__all__ = [
    "AlgoParams",
    "Checkpoint",
    "RunResult",
    "substream",
    "primal_step",
    "dual_step",
    "run_centralized",
    "run_distributed",
]

# Substream roles. Baseline methods use their own role ids so the two methods
# never share estimator draws; the init role is shared so both methods start a
# trial from the same point.
ROLE_INIT = 0
ROLE_OUTPUT = 1
ROLE_STEP = 2
ROLE_METER = 3
ROLE_BASELINE_STEP = 4
ROLE_BASELINE_METER = 5
_ROLE_NAMES = ("init", "output", "step", "meter", "baseline step", "baseline meter")


def substream(*path: int) -> np.random.Generator:
    """Deterministic generator for a (seed, trial, role, ...) path.

    A path of entries below 2^32 keys SeedSequence with one uint32 array,
    which fills the same entropy pool as the tuple of ints without coercing
    each int on its own."""
    if 0 <= min(path) and max(path) < 1 << 32:
        key = np.array(path, dtype=np.uint32)
    else:
        key = tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass(frozen=True)
class AlgoParams:
    """Step-size, smoothing, horizon, and randomness configuration."""

    rho: float
    smoothing: SmoothingParams
    total_iters: int
    seed: int
    init_lo: float
    init_hi: float
    noise: NoiseModel = NoiseModel()
    gradient_mode: str = "estimator"
    gap_gradient: str = "auto"
    potential_weight: float | None = None
    mc_gap_samples: int = 10**4
    retry_cap: int = 100

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.total_iters < 1:
            raise ValueError("total_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.init_lo > self.init_hi:
            raise ValueError("init box has lo > hi")
        if self.gradient_mode not in ("estimator", "reference"):
            raise ValueError(f"unknown gradient_mode {self.gradient_mode!r}")
        if self.gap_gradient not in ("auto", "closed_form", "estimator", "mc"):
            raise ValueError(f"unknown gap_gradient {self.gap_gradient!r}")
        if self.potential_weight is not None and self.potential_weight <= 0:
            raise ValueError("potential_weight must be positive")
        if self.mc_gap_samples < 1:
            raise ValueError("mc_gap_samples must be >= 1")
        if self.retry_cap < 0:
            raise ValueError("retry_cap must be >= 0")

    def check_init_box(self, objectives: Sequence[LocalObjective]) -> None:
        """The initialization box must lie inside every agent's domain box."""
        lo = np.array([o.box.lo for o in objectives])
        hi = np.array([o.box.hi for o in objectives])
        bad = np.flatnonzero(np.any((lo > self.init_lo) | (hi < self.init_hi), axis=1))
        if bad.size:
            raise ValueError(f"initialization box exceeds the domain box of agent {bad[0] + 1}")

    def potential_weight_for(self, mats: NetworkMatrices) -> float:
        """The configured potential weight c, or the graph's default."""
        if self.potential_weight is None:
            return default_potential_weight(mats)
        return self.potential_weight


@dataclass
class Checkpoint:
    """Resumable snapshot: iteration counter plus the primal-dual pair, and
    the trial and seed whose streams produced it (None: not recorded, so not
    checked on resume)."""

    iteration: int
    x: np.ndarray
    lam: np.ndarray
    trial: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "iteration": int(self.iteration),
            "x": [float(v) for v in np.asarray(self.x).ravel()],
            "lam": [float(v) for v in np.asarray(self.lam).ravel()],
            "trial": self.trial,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "Checkpoint":
        return Checkpoint(
            iteration=int(d["iteration"]),
            x=np.asarray(d["x"], dtype=float),
            lam=np.asarray(d["lam"], dtype=float),
            trial=d.get("trial"),
            seed=d.get("seed"),
        )


@dataclass
class RunResult:
    method: str
    trial: int
    records: list[MetricRecord]
    states_x: np.ndarray
    states_lam: np.ndarray
    states_grad: np.ndarray
    output_iteration: int | None
    output_x: np.ndarray | None
    output_lam: np.ndarray | None
    constants: AnalysisConstants
    start_iteration: int = 0
    messages_per_agent: dict[int, int] | None = None
    seed: int | None = None

    @property
    def final_checkpoint(self) -> Checkpoint:
        return Checkpoint(
            iteration=self.start_iteration + self.states_x.shape[0] - 1,
            x=self.states_x[-1].copy(),
            lam=self.states_lam[-1].copy(),
            trial=self.trial,
            seed=self.seed,
        )


def _primal_update(x, neighbor_sum, dual_pressure, grad, degree, rho):
    """(rho (d x + sum_nbr x) - g - A'lam) / (2 rho d), blockwise.

    The one primal formula, applied by both engines to all (N, M) blocks at
    once: the centralized step on sums gathered from the stacked state, the
    message-passing round on each agent's inbox and dual copies. The same
    scatter_add accumulates each node's own slice in the same order, so the
    two agree bit for bit.
    """
    return (rho * (degree * x + neighbor_sum) - grad - dual_pressure) / (2.0 * rho * degree)


def primal_step(
    x: np.ndarray,
    lam: np.ndarray,
    grad: np.ndarray,
    mats: NetworkMatrices,
    rho: float,
) -> np.ndarray:
    """Minimizer of the linearized degree-weighted proximal subproblem."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    xb = mats.node_blocks(x)
    x_new = _primal_update(
        xb,
        mats.neighbor_sum(xb),
        mats.dual_pressure(lam),
        mats.node_blocks(grad),
        mats.degree[:, None],
        rho,
    )
    return x_new.reshape(-1)


def dual_step(
    x_new: np.ndarray, lam: np.ndarray, mats: NetworkMatrices, rho: float
) -> np.ndarray:
    """Ascent on the edge constraints: lam + rho A x+."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return lam + rho * mats.incidence(x_new)


class _Estimator:
    """Every agent's estimates for one role of a trial, from the role's block
    and retry streams."""

    def __init__(self, stacked: StackedObjective, params: AlgoParams, trial: int, role: int):
        self.stacked, self.params, self.trial, self.role = stacked, params, trial, role

    def __call__(
        self, xb: np.ndarray, smoothing: SmoothingParams, iteration: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(N, M) gradients, (N, J) noisy values and (N,) noise-free values at
        the blocks xb (N, M)."""
        key = (self.params.seed, self.trial, self.role)
        try:
            return estimate_batch(
                self.stacked, self.params.noise, xb, smoothing, substream(*key, iteration),
                lambda i: substream(*key, i, iteration), self.params.retry_cap,
            )
        except (BoxExhausted, OutsideBox) as exc:
            raise RuntimeError(
                f"{_ROLE_NAMES[self.role]} estimate of agent {exc.agent + 1} "
                f"at iteration {iteration}: {exc}"
            ) from exc


class _TraceMeter(_Estimator):
    """Resolves the smoothed gradient/value used by the per-iteration trace.

    Modes: closed_form (exact), estimator (an independent J-sample batched
    estimate on the meter role's streams), mc (the same at mc_gap_samples
    samples). The measurement never feeds the algorithm; it only grades
    iterates.
    """

    def __init__(self, stacked: StackedObjective, params: AlgoParams, trial: int, role: int):
        super().__init__(stacked, params, trial, role)
        mode = params.gap_gradient
        if mode == "auto":
            mode = "closed_form" if stacked.has_smoothed_closed_form else "estimator"
        if mode == "closed_form" and not stacked.has_smoothed_closed_form:
            raise ValueError("gap_gradient=closed_form but the objective has no closed form")
        self.mode, self.smoothing = mode, params.smoothing
        if mode == "mc":
            self.smoothing = SmoothingParams(params.smoothing.mu, params.mc_gap_samples)

    def measure(
        self, x: np.ndarray, iteration: int, values: np.ndarray | None = None
    ) -> tuple[np.ndarray, float, float]:
        """(smoothed gradient, smoothed value, objective value) at x; the
        objective sums the agents' values at x where given, and an estimate
        takes it from its noise-free base values."""
        st, mu = self.stacked, self.smoothing.mu
        if self.mode == "closed_form":
            f = st.value(x) if values is None else float(values.sum())
            return (*st._smoothed_pair(x, mu), f)
        g, noisy, base = self(st.blocks(x), self.smoothing, iteration)
        return g.reshape(-1), float(np.sum(np.mean(noisy, axis=1))), float(np.sum(base))


@dataclass
class _RunContext:
    mats: NetworkMatrices
    stacked: StackedObjective
    estimate: _Estimator
    meter: _TraceMeter
    consts: AnalysisConstants
    x0: np.ndarray
    output_pick: int


def _prepare(
    topo: Topology,
    objectives: Sequence[LocalObjective],
    params: AlgoParams,
    trial: int,
    mats: NetworkMatrices | None,
    roles: tuple[int, int],
) -> _RunContext:
    """Checks and shared state of one execution; roles are its (step, meter)
    substream roles."""
    if len(objectives) != topo.num_nodes:
        raise ValueError(
            f"need one objective per node: got {len(objectives)} for {topo.num_nodes} nodes"
        )
    stacked = StackedObjective(list(objectives))
    if stacked.block_dim != topo.block_dim:
        raise ValueError("objective dim does not match topology block_dim")
    if mats is None:
        mats = build_matrices(topo)
    params.check_init_box(objectives)
    if params.gradient_mode == "reference" and not stacked.has_smoothed_closed_form:
        raise ValueError("gradient_mode=reference needs closed-form smoothed gradients")

    estimate = _Estimator(stacked, params, trial, roles[0])
    meter = _TraceMeter(stacked, params, trial, roles[1])

    consts = derive_constants(
        stacked.lipschitz_l0, params.smoothing.mu, stacked.total_dim, mats,
        params.potential_weight_for(mats), params.rho,
    )

    x0 = substream(params.seed, trial, ROLE_INIT).uniform(
        params.init_lo, params.init_hi, stacked.total_dim
    )
    output_pick = int(substream(params.seed, trial, ROLE_OUTPUT).integers(params.total_iters))
    return _RunContext(mats, stacked, estimate, meter, consts, x0, output_pick)


def _step_gradients(
    ctx: _RunContext, params: AlgoParams, xb: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Every agent's step gradient at its block of xb (N, M), and an
    estimate's (N,) noise-free values there (None for reference gradients);
    both engines call this, and agent i takes row i."""
    if params.gradient_mode == "reference":
        g = ctx.stacked.smoothed_gradient_stacked(xb, params.smoothing.mu)
        return g.reshape(xb.shape), None
    g, _, values = ctx.estimate(xb, params.smoothing, r)
    return g, values


def _check_finite(method: str, r: int, ctx: _RunContext, x: np.ndarray, lam: np.ndarray) -> None:
    """Raise when x^r or lam^r is not finite, naming the first agent (or
    edge) whose block is not, and that block."""
    if np.isfinite(x).all() and np.isfinite(lam).all():
        return
    topo = ctx.mats.topology
    xb, lb = (v.reshape(-1, topo.block_dim) for v in (x, lam))
    bad = ~np.isfinite(xb).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        where = f"agent {i + 1} has x = {xb[i].tolist()}"
    else:
        e = int(np.argmax(~np.isfinite(lb).all(axis=1)))
        where = f"edge {topo.edges[e]} has lam = {lb[e].tolist()}"
    raise RuntimeError(f"{method} diverged at iteration {r}: {where}")


_Step = Callable[[np.ndarray, np.ndarray, int], tuple]


def _drive(
    ctx: _RunContext,
    params: AlgoParams,
    trial: int,
    step: _Step,
    method: str,
    output_pick: int | None,
    resume: Checkpoint | None = None,
    on_record: Callable[[MetricRecord], None] | None = None,
) -> RunResult:
    """The run loop every method shares.

    step(x, lam, r) returns (x^{r+1}, lam^{r+1}, g^r) and the agents'
    noise-free values at x^r that its estimate read, or None; it keeps the
    contract in the module docstring. Emits one metric row per iteration
    start+1..T; row r grades the pair (x^r, lam^{r-1}) and the potential at
    (x^r, lam^r), and takes its objective from step r's values when there
    are any. When step r fails, row r is still recorded before the failure
    is raised. The output pair is the iterate at output_pick, when given. A
    resume checkpoint must match the run's trial and seed, where it records
    them, and its shapes.
    """
    horizon = params.total_iters
    if resume is None:
        start = 0
        x = ctx.x0
        lam = np.zeros(ctx.mats.edge_dim)
    else:
        start = int(resume.iteration)
        if not 0 <= start < horizon:
            raise ValueError("checkpoint iteration outside 0..T-1")
        x = np.array(resume.x, dtype=float).reshape(-1)
        lam = np.array(resume.lam, dtype=float).reshape(-1)
        for what, got, want in (
            ("trial", resume.trial, trial), ("seed", resume.seed, params.seed),
            ("len(x)", len(x), ctx.mats.total_dim), ("len(lam)", len(lam), ctx.mats.edge_dim),
        ):
            if got is not None and got != want:
                raise ValueError(f"checkpoint {what} is {got}, but this run's is {want}")

    xs = [x]
    lams = [lam]
    gs = []
    records: list[MetricRecord] = []
    x_prev = lam_prev = None
    out_x = out_lam = out_iter = None

    for r in range(start, horizon + 1):
        if r == output_pick:
            out_x, out_lam, out_iter = x, lam, r
        values = None
        try:
            if r < horizon:
                x_new, lam_new, g, values = step(x, lam, r)
        finally:
            if r > start:
                grad_gap, f_mu, f = ctx.meter.measure(x, r, values)
                row = trace_row(x, x_prev, lam_prev, lam, grad_gap, f_mu, ctx.mats, ctx.consts)
                rec = MetricRecord(r, *row, f)
                records.append(rec)
                if on_record is not None:
                    on_record(rec)
        if r == horizon:
            break
        _check_finite(method, r + 1, ctx, x_new, lam_new)
        x_prev, lam_prev = x, lam
        x, lam = x_new, lam_new
        xs.append(x)
        lams.append(lam)
        gs.append(g)

    return RunResult(
        method=method,
        trial=trial,
        records=records,
        states_x=np.asarray(xs),
        states_lam=np.asarray(lams),
        states_grad=np.asarray(gs),
        output_iteration=out_iter,
        output_x=out_x,
        output_lam=out_lam,
        constants=ctx.consts,
        start_iteration=start,
        seed=params.seed,
    )


def run_centralized(
    topo: Topology,
    objectives: Sequence[LocalObjective],
    params: AlgoParams,
    trial: int = 0,
    mats: NetworkMatrices | None = None,
    resume: Checkpoint | None = None,
    on_record: Callable[[MetricRecord], None] | None = None,
) -> RunResult:
    """Centralized execution on the stacked state. Emits one metric row per
    iteration 1..T; row r grades the pair (x^r, lam^{r-1}) and the potential
    at (x^r, lam^r)."""
    ctx = _prepare(topo, objectives, params, trial, mats, (ROLE_STEP, ROLE_METER))

    def step(x, lam, r):
        g, values = _step_gradients(ctx, params, ctx.mats.node_blocks(x), r)
        g = g.reshape(-1)
        x_new = primal_step(x, lam, g, ctx.mats, params.rho)
        return x_new, dual_step(x_new, lam, ctx.mats, params.rho), g, values

    return _drive(ctx, params, trial, step, "primal_dual", ctx.output_pick, resume, on_record)


def run_distributed(
    topo: Topology,
    objectives: Sequence[LocalObjective],
    params: AlgoParams,
    trial: int = 0,
    mats: NetworkMatrices | None = None,
    on_record: Callable[[MetricRecord], None] | None = None,
) -> RunResult:
    """Message-passing execution of the same iteration.

    Per entry of the node-major incidence list, the entry's agent holds its
    neighbor's last block (inbox) and its own copy of the edge dual (duals),
    kept as one array over all agents; each agent's update reads only its
    own slice. Per round each agent sends every neighbor two messages: its
    updated primal block and its dual copy. Both endpoints update their
    copies from the exchanged primals, so the copies never diverge; the
    listed-first endpoint's copy assembles the stacked dual, which only the
    observer reads. The observer computes the trace with the centralized
    mode's meter streams.
    """
    ctx = _prepare(topo, objectives, params, trial, mats, (ROLE_STEP, ROLE_METER))
    mats, n, rho = ctx.mats, topo.num_nodes, params.rho
    # Per entry, its edge's listed-first (tail) and second (head) endpoint,
    # one the agent itself and the other its neighbor; per edge, the entry of
    # its tail endpoint, whose dual copy the observer reads.
    tail_of, head_of = mats.tail[mats.edge], mats.head[mats.edge]
    owns = mats.sign[:, 0] > 0
    owner_entry = np.empty(topo.num_edges, dtype=np.intp)
    owner_entry[mats.edge[owns]] = np.flatnonzero(owns)
    blocks = mats.node_blocks(ctx.x0)
    inbox = blocks.take(mats.neighbor, 0)
    duals = np.zeros_like(inbox)

    def step(x, lam, r):
        nonlocal blocks, inbox, duals
        # each agent estimates at its own block and takes its row of the batch
        grads, values = _step_gradients(ctx, params, blocks, r)
        neighbor_sum = scatter_add(mats.sum_index, inbox, n)
        dual_pressure = scatter_add(mats.sum_index, mats.sign * duals, n)
        new = _primal_update(blocks, neighbor_sum, dual_pressure, grads, mats.degree[:, None], rho)
        # exchange round: each agent receives every neighbor's new primal
        # block and updates its dual copies, lam_e + rho (x_tail - x_head)
        blocks, inbox = new, new.take(mats.neighbor, 0)
        duals = duals + rho * (new.take(tail_of, 0) - new.take(head_of, 0))
        return new.reshape(-1), duals.take(owner_entry, 0).reshape(-1), grads.reshape(-1), values

    result = _drive(ctx, params, trial, step, "primal_dual", ctx.output_pick, on_record=on_record)
    messages = 2 * np.bincount(mats.node, minlength=n)
    result.messages_per_agent = dict(zip(range(1, n + 1), messages.tolist()))
    return result
