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
Both runs apply the consensus operators through graph.scatter_add in one
fixed order, so they also agree bit for bit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import NetworkMatrices, Topology, build_matrices, scatter_add
from .metrics import (
    AnalysisConstants,
    MetricRecord,
    constraint_violation,
    default_potential_weight,
    derive_constants,
    potential,
    stationarity_gap,
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
    """Deterministic generator for a (seed, trial, role, ...) path."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(p) for p in path)))


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
    """Resumable snapshot: iteration counter plus the primal-dual pair."""

    iteration: int
    x: np.ndarray
    lam: np.ndarray

    def to_dict(self) -> dict:
        return {
            "iteration": int(self.iteration),
            "x": [float(v) for v in np.asarray(self.x).ravel()],
            "lam": [float(v) for v in np.asarray(self.lam).ravel()],
        }

    @staticmethod
    def from_dict(d: dict) -> "Checkpoint":
        return Checkpoint(
            iteration=int(d["iteration"]),
            x=np.asarray(d["x"], dtype=float),
            lam=np.asarray(d["lam"], dtype=float),
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

    @property
    def final_checkpoint(self) -> Checkpoint:
        return Checkpoint(
            iteration=self.start_iteration + self.states_x.shape[0] - 1,
            x=self.states_x[-1].copy(),
            lam=self.states_lam[-1].copy(),
        )


def _primal_update(x, neighbor_sum, dual_pressure, grad, degree, rho):
    """(rho (d x + sum_nbr x) - g - A'lam) / (2 rho d), blockwise.

    The one primal formula: the centralized step applies it to all (N, M)
    blocks at once, each agent to its own block, on operands that the same
    scatter_add accumulated in the same order, so the two agree bit for bit.
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

    def measure(self, x: np.ndarray, iteration: int) -> tuple[np.ndarray, float, float]:
        """(smoothed gradient, smoothed value, objective value) at x; an
        estimate takes the objective from its noise-free base values."""
        st, mu = self.stacked, self.smoothing.mu
        if self.mode == "closed_form":
            g, f_mu = st.smoothed_gradient_stacked(x, mu), st.smoothed_value_stacked(x, mu)
            return g, f_mu, st.value(x)
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


def _step_gradients(ctx: _RunContext, params: AlgoParams, xb: np.ndarray, r: int) -> np.ndarray:
    """Every agent's step gradient at its block of xb (N, M); both engines
    call this, and agent i takes row i."""
    if params.gradient_mode == "reference":
        return ctx.stacked.smoothed_gradient_stacked(xb, params.smoothing.mu).reshape(xb.shape)
    return ctx.estimate(xb, params.smoothing, r)[0]


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


_Step = Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, np.ndarray, np.ndarray]]


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

    step(x, lam, r) returns (x^{r+1}, lam^{r+1}, g^r). Emits one metric row
    per iteration start+1..T; row r grades the pair (x^r, lam^{r-1})
    and the potential at (x^r, lam^r). The output pair is the iterate at
    output_pick, when given.
    """
    t0 = time.perf_counter()
    horizon = params.total_iters
    if resume is None:
        start = 0
        x = ctx.x0.copy()
        lam = np.zeros(ctx.mats.edge_dim)
    else:
        start = int(resume.iteration)
        if not 0 <= start < horizon:
            raise ValueError("checkpoint iteration outside 0..T-1")
        x = np.asarray(resume.x, dtype=float).copy()
        lam = np.asarray(resume.lam, dtype=float).copy()

    xs = [x.copy()]
    lams = [lam.copy()]
    gs = []
    records: list[MetricRecord] = []
    x_prev = lam_prev = None
    out_x = out_lam = out_iter = None

    for r in range(start, horizon + 1):
        if r == output_pick:
            out_x, out_lam, out_iter = x.copy(), lam.copy(), r
        if r > start:
            grad_gap, f_mu, f = ctx.meter.measure(x, r)
            rec = MetricRecord(
                iteration=r,
                stationarity_gap=stationarity_gap(x, lam_prev, grad_gap, ctx.mats, params.rho),
                constraint_violation=constraint_violation(x, ctx.mats),
                potential=potential(x, x_prev, lam, ctx.mats, ctx.consts, f_mu),
                objective=f,
                wall_time=time.perf_counter() - t0,
            )
            records.append(rec)
            if on_record is not None:
                on_record(rec)
        if r == horizon:
            break
        x_new, lam_new, g = step(x, lam, r)
        _check_finite(method, r + 1, ctx, x_new, lam_new)
        x_prev, lam_prev = x, lam
        x, lam = x_new, lam_new
        xs.append(x.copy())
        lams.append(lam.copy())
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
        g = _step_gradients(ctx, params, ctx.mats.node_blocks(x), r).reshape(-1)
        x_new = primal_step(x, lam, g, ctx.mats, params.rho)
        return x_new, dual_step(x_new, lam, ctx.mats, params.rho), g

    return _drive(ctx, params, trial, step, "primal_dual", ctx.output_pick, resume, on_record)


class _Agent:
    """One node of the message-passing simulation.

    Holds its primal block and its slice of the incidence list: per incident
    edge, in list order, the neighbor's last primal block and its own copy of
    the edge dual. Both endpoints update their copies from the exchanged
    primals, so the copies never diverge; the listed-first endpoint is the
    owner whose copy assembles the stacked dual.
    """

    def __init__(self, index: int, mats: NetworkMatrices, x0: np.ndarray):
        mine = mats.node == index - 1
        self.index = index
        self.x = mats.node_blocks(x0)[index - 1]
        self.neighbors = mats.neighbor[mine]
        self.sign = mats.sign[mine]
        self.owns = self.sign > 0
        self.degree = mats.degree[index - 1]
        self.rows = np.zeros(self.neighbors.size, dtype=np.intp)
        self.neighbor_x = mats.node_blocks(x0)[self.neighbors]
        self.duals = np.zeros_like(self.neighbor_x)

    def primal_update(self, grad: np.ndarray, rho: float) -> np.ndarray:
        start = np.zeros((1, self.x.size))
        neighbor_sum = scatter_add(start, self.rows, self.neighbor_x)[0]
        dual_pressure = scatter_add(start, self.rows, self.sign * self.duals)[0]
        return _primal_update(self.x, neighbor_sum, dual_pressure, grad, self.degree, rho)

    def dual_update(self, x_new: np.ndarray, rho: float) -> None:
        """lam_e + rho (x_tail - x_head) per incident edge, on this copy."""
        tail = np.where(self.owns, x_new, self.neighbor_x)
        head = np.where(self.owns, self.neighbor_x, x_new)
        self.duals = self.duals + rho * (tail - head)


def run_distributed(
    topo: Topology,
    objectives: Sequence[LocalObjective],
    params: AlgoParams,
    trial: int = 0,
    mats: NetworkMatrices | None = None,
    on_record: Callable[[MetricRecord], None] | None = None,
) -> RunResult:
    """Message-passing execution of the same iteration.

    Per round each agent sends every neighbor two messages: its updated
    primal block and its copy of the shared edge dual. The trace is computed
    by an observer from the gathered stacked state, with the same meter
    streams as the centralized mode.
    """
    ctx = _prepare(topo, objectives, params, trial, mats, (ROLE_STEP, ROLE_METER))
    n, m = topo.num_nodes, topo.block_dim
    agents = [_Agent(i + 1, ctx.mats, ctx.x0) for i in range(n)]
    owned_edges = ctx.mats.edge[ctx.mats.sign[:, 0] > 0]

    def step(x, lam, r):
        # each agent estimates at its own block and takes its row of the batch
        grads = _step_gradients(ctx, params, np.array([a.x for a in agents]), r)
        new_blocks = np.empty((n, m))
        for i, agent in enumerate(agents):
            new_blocks[i] = agent.primal_update(grads[i], params.rho)
        # exchange round: each agent receives every neighbor's new primal block
        for i, agent in enumerate(agents):
            agent.neighbor_x = new_blocks[agent.neighbors]
            agent.dual_update(new_blocks[i], params.rho)
            agent.x = new_blocks[i]
        lam_blocks = np.empty((topo.num_edges, m))
        lam_blocks[owned_edges] = np.concatenate([a.duals[a.owns[:, 0]] for a in agents])
        return new_blocks.reshape(-1), lam_blocks.reshape(-1), grads.reshape(-1)

    result = _drive(ctx, params, trial, step, "primal_dual", ctx.output_pick, on_record=on_record)
    result.messages_per_agent = {a.index: 2 * a.neighbors.size for a in agents}
    return result
