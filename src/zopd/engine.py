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
retries continues from (seed, trial, role, agent, iteration). So step r's
draws depend only on (seed, trial, role, r): either run's g^r is a fresh
estimate at x^r on those streams, and the centralized run and the
distributed message-passing run consume identical streams.
The message-passing run keeps each agent's inbox and dual copies as arrays
over the node-major incidence list. Both runs sum the consensus operators
through NetworkMatrices.sum_entries, one np.bincount that adds each node's
own slice in list order, so they also agree bit for bit. The message-passing
run can also replay a centralized result, checking each round against it bit
for bit and taking its step gradients and rows, with no estimate of its own.

One loop drives both runs and the baseline. A step maps (x, lam, r) to
(x', lam', g) and takes its gradients from its role's _Estimator, as the
meter does. It returns fresh arrays, or an input passed through unchanged,
and never writes into an array it was given or has returned, so the loop
keeps each iterate as the step returned it, with no copy.

Each iteration r = 1..T takes one straight path: step from (x^{r-1},
lam^{r-1}), check that x^r and lam^r are finite, record them in the run's
histories, then measure row r. The output pair is read from the histories.
Rows are graded in blocks of max(1, _GRADE_BLOCK // (N M)) rows, from the
histories and each row's meter output. A block is graded when it is full, at
the end of the run and before any failure is raised: a closed-form meter
makes one closed-form call and one values call on its (N, B, M) points, and
then one metrics.trace_rows pass grades the block. Each row gets the bits it
would get graded alone. An estimating meter estimates every iteration, on its
own streams, and takes each row's objective from its estimate's noise-free
values.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .graph import ConfigError, NetworkMatrices, Topology, build_matrices
from .metrics import (
    AnalysisConstants, MetricRecord, default_potential_weight, derive_constants, trace_rows,
)
from .objectives import LocalObjective, StackedObjective
from .szo import BoxExhausted, NoiseModel, OutsideBox, SmoothingParams, estimate_batch

__all__ = [
    "AlgoParams",
    "GAP_GRADIENTS",
    "GRADIENT_MODES",
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

# Elements B N M of a graded block's iterates (see the module docstring).
_GRADE_BLOCK = 8192
# The allowed values of AlgoParams.gradient_mode and AlgoParams.gap_gradient.
GRADIENT_MODES = ("estimator", "reference")
GAP_GRADIENTS = ("auto", "closed_form", "estimator", "mc")


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
    """Step-size, smoothing, horizon, and randomness configuration. Each
    ConfigError names the config field: iters for total_iters, init for
    the init_lo, init_hi range."""

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
        if not self.rho > 0:
            raise ConfigError("rho", f"must be positive, got {self.rho!r}")
        if self.total_iters < 1:
            raise ConfigError("iters", f"must be >= 1, got {self.total_iters!r}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be nonnegative, got {self.seed!r}")
        if self.init_lo > self.init_hi:
            raise ConfigError("init", f"lo {self.init_lo!r} > hi {self.init_hi!r}")
        for field, allowed in (("gradient_mode", GRADIENT_MODES), ("gap_gradient", GAP_GRADIENTS)):
            value = getattr(self, field)
            if value not in allowed:
                raise ConfigError(field, f"unknown value {value!r}; expected one of {allowed}")
        weight = self.potential_weight
        if weight is not None and not weight > 0:
            raise ConfigError("potential_weight", f"must be positive, got {weight!r}")
        if self.mc_gap_samples < 1:
            raise ConfigError("mc_gap_samples", f"must be >= 1, got {self.mc_gap_samples!r}")
        if self.retry_cap < 0:
            raise ConfigError("retry_cap", f"must be >= 0, got {self.retry_cap!r}")

    def check_problem(self, stacked: StackedObjective) -> None:
        """Raise a ConfigError unless these parameters can run on stacked:
        the initialization box lies inside every agent's domain box, and a
        setting that reads the smoothed closed forms finds them."""
        outside = np.any((stacked.box_lo > self.init_lo) | (stacked.box_hi < self.init_hi), axis=1)
        if outside.any():
            k = int(np.argmax(outside)) + 1
            raise ConfigError("init", f"initialization box exceeds the domain box of agent {k}")
        for field, value in (("gradient_mode", "reference"), ("gap_gradient", "closed_form")):
            if getattr(self, field) == value and not stacked.has_smoothed_closed_form:
                raise ConfigError(field, f"{field}={value}: the objective has no closed forms")

    def analysis_constants(
        self, stacked: StackedObjective, mats: NetworkMatrices
    ) -> AnalysisConstants:
        """The problem's constants, at the configured potential weight c or
        else the graph's default."""
        c, mu = self.potential_weight or default_potential_weight(mats), self.smoothing.mu
        return derive_constants(stacked.lipschitz_l0, mu, stacked.total_dim, mats, c, self.rho)


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
    messages_per_agent: dict[int, int] | None = None


def _primal_update(x, neighbor_sum, dual_pressure, grad, degree, rho):
    """(rho (d x + sum_nbr x) - g - A'lam) / (2 rho d), blockwise.

    The one primal formula, applied by both engines to all (N, M) blocks at
    once: the centralized step on sums gathered from the stacked state, the
    message-passing round on each agent's inbox and dual copies. The same
    sum_entries accumulates each node's own slice in the same order, so the
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
        raise ConfigError("rho", f"must be positive, got {rho!r}")
    x_new = _primal_update(
        mats.node_blocks(x),
        mats.neighbor_sum(x),
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
        raise ConfigError("rho", f"must be positive, got {rho!r}")
    return lam + rho * mats.incidence(x_new)


class _Estimator:
    """Every agent's gradients for one role of a trial at the role's
    smoothing: the smoothed closed forms when closed_form, or else estimates
    from the role's block and retry streams."""

    def __init__(
        self, stacked: StackedObjective, params: AlgoParams, trial: int, role: int,
        smoothing: SmoothingParams, closed_form: bool = False,
    ):
        self.stacked, self.params, self.trial, self.role = stacked, params, trial, role
        self.smoothing, self.closed_form = smoothing, closed_form

    def __call__(self, xb: np.ndarray, iteration: int) -> tuple:
        """(N, M) gradients at the blocks xb (N, M), then an estimate's (N, J)
        noisy values and (N,) noise-free values there, or None and None."""
        if self.closed_form:
            g = self.stacked.smoothed_gradient_stacked(xb, self.smoothing.mu)
            return g.reshape(xb.shape), None, None
        key = (self.params.seed, self.trial, self.role)
        try:
            return estimate_batch(
                self.stacked, self.params.noise, xb, self.smoothing, substream(*key, iteration),
                lambda i: substream(*key, i, iteration), self.params.retry_cap,
            )
        except (BoxExhausted, OutsideBox) as exc:
            raise RuntimeError(
                f"{_ROLE_NAMES[self.role]} estimate of agent {exc.agent + 1} "
                f"at iteration {iteration}: {exc}"
            ) from exc


class _TraceMeter(_Estimator):
    """Resolves the smoothed gradient/value used by the per-iteration trace.

    Its mode is gap_gradient: closed_form (exact), estimator (an independent
    J-sample batched estimate on the meter role's streams) or mc (the same at
    mc_gap_samples samples); auto is closed_form when the objective has the
    closed forms, else estimator. The measurement never feeds the algorithm;
    it only grades iterates.
    """

    def __init__(self, stacked: StackedObjective, params: AlgoParams, trial: int, role: int):
        mode = params.gap_gradient
        if mode == "auto":
            mode = "closed_form" if stacked.has_smoothed_closed_form else "estimator"
        smoothing = params.smoothing
        if mode == "mc":
            smoothing = SmoothingParams(smoothing.mu, params.mc_gap_samples)
        super().__init__(stacked, params, trial, role, smoothing, mode == "closed_form")

    def measure(self, x: np.ndarray, iteration: int) -> tuple | None:
        """Row `iteration`'s meter output at x: an estimate, made now on the
        iteration's streams, as (smoothed gradient, smoothed value, its (N,)
        noise-free base values); the closed form waits for the row's block,
        as None."""
        if self.closed_form:
            return None
        g, noisy, base = self(self.stacked.blocks(x), iteration)
        return g.reshape(-1), float(np.sum(np.mean(noisy, axis=1))), base

    def grade(self, xs: np.ndarray, measured: list) -> tuple[np.ndarray, ...]:
        """(B, N M) smoothed gradients, (B,) smoothed values and (B,)
        objectives at the rows of xs (B, N M), from their measure outputs.
        The closed form takes one closed-form call and one values call on the
        block's (N, B, M) points. Every row sums its agents' values over a
        contiguous last axis, pairwise, as numpy sums one row alone."""
        if not self.closed_form:
            grads, f_mu, values = zip(*measured)
            return np.asarray(grads), np.asarray(f_mu), np.array(values).sum(axis=1)
        st = self.stacked
        pts = np.ascontiguousarray(xs.reshape(len(xs), st.num_agents, -1).transpose(1, 0, 2))
        g, v = st._smoothed_pair(pts, self.smoothing.mu)
        row_sums = [np.ascontiguousarray(a.T).sum(axis=1) for a in (v, st.values(pts))]
        return (g.transpose(1, 0, 2).reshape(len(xs), -1), *row_sums)


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
    step_smoothing: SmoothingParams | None = None,
) -> _RunContext:
    """Checks and shared state of one execution; roles are its (step, meter)
    substream roles. The step estimates at step_smoothing, or else takes the
    primal-dual step's gradients: at params.smoothing, by the closed forms
    when gradient_mode is "reference"."""
    if len(objectives) != topo.num_nodes:
        raise ValueError(
            f"need one objective per node: got {len(objectives)} for {topo.num_nodes} nodes"
        )
    stacked = StackedObjective(list(objectives))
    if stacked.block_dim != topo.block_dim:
        raise ValueError("objective dim does not match topology block_dim")
    params.check_problem(stacked)
    if mats is None:
        mats = build_matrices(topo)

    closed = step_smoothing is None and params.gradient_mode == "reference"
    estimate = _Estimator(stacked, params, trial, roles[0], step_smoothing or params.smoothing, closed)
    meter = _TraceMeter(stacked, params, trial, roles[1])
    consts = params.analysis_constants(stacked, mats)

    x0 = substream(params.seed, trial, ROLE_INIT).uniform(
        params.init_lo, params.init_hi, stacked.total_dim
    )
    output_pick = int(substream(params.seed, trial, ROLE_OUTPUT).integers(params.total_iters))
    return _RunContext(mats, stacked, estimate, meter, consts, x0, output_pick)


def _first_bad(topo: Topology, name: str, bad: np.ndarray, *arrays: np.ndarray) -> tuple:
    """The first agent (or edge, for lam) whose block of the mask bad holds a
    True, named for a message, then that block of each of arrays."""
    k = int(np.argmax(bad.reshape(-1, topo.block_dim).any(axis=1)))
    who = f"edge {topo.edges[k]}" if name == "lam" else f"agent {k + 1}"
    return (who, *(v.reshape(-1, topo.block_dim)[k] for v in arrays))


def _check_finite(method: str, r: int, ctx: _RunContext, x: np.ndarray, lam: np.ndarray) -> None:
    """Raise when x^r or lam^r is not finite, naming the first agent (or
    edge) whose block is not, and that block."""
    if np.isfinite(x).all() and np.isfinite(lam).all():
        return
    name, v = ("lam", lam) if np.isfinite(x).all() else ("x", x)
    who, block = _first_bad(ctx.mats.topology, name, ~np.isfinite(v), v)
    raise RuntimeError(f"{method} diverged at iteration {r}: {who} has {name} = {block.tolist()}")


def _check_replay(
    trial: int, topo: Topology, name: str, r: int, got: np.ndarray, want: np.ndarray
) -> None:
    """Raise unless a replay's x^r or lam^r is the reference's, naming the
    first agent (or edge) whose block differs and its largest difference."""
    if (got == want).all():
        return
    who, a, b = _first_bad(topo, name, got != want, got, want)
    raise RuntimeError(
        f"centralized/distributed mismatch in trial {trial}: {name} of {who} at iteration "
        f"{r} differs by {float(np.max(np.abs(a - b))):.3e}"
    )


_Step = Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _drive(
    ctx: _RunContext,
    params: AlgoParams,
    trial: int,
    step: _Step,
    method: str,
    output_pick: int | None,
    on_record: Callable[[MetricRecord], None] | None = None,
) -> RunResult:
    """The run loop every method shares, from (x^0, 0) at iteration 0.

    step(x, lam, r) returns (x^{r+1}, lam^{r+1}, g^r) and keeps the contract
    in the module docstring. Iteration r steps, checks x^r and lam^r, appends
    them to the histories and measures row r, which grades the pair
    (x^r, lam^{r-1}) and the potential at (x^r, lam^r). Rows are graded from
    the histories and passed to on_record a block at a time (see the module
    docstring), so on_record sees row r at most one block after iteration r.
    When step r fails, rows up to r are still recorded before the failure is
    raised. The output pair, when output_pick is given, is read from the
    histories at that iteration.
    """
    xs, lams, gs = [ctx.x0], [np.zeros(ctx.mats.edge_dim)], []
    records: list[MetricRecord] = []
    # The block's pending rows, each row's measure output; the block's
    # iterates are the histories from the iterate before its first row on.
    block = max(1, _GRADE_BLOCK // ctx.mats.total_dim)
    measured: list[tuple] = []

    def grade() -> None:
        nonlocal measured
        if not measured:
            return
        first, count = len(records), len(measured)
        xb, lb = (np.array(h[first : first + count + 1]) for h in (xs, lams))
        grads, f_mu, f = ctx.meter.grade(xb[1:], measured)
        cols = trace_rows(xb[1:], xb[:-1], lb[:-1], lb[1:], grads, f_mu, ctx.mats, ctx.consts)
        rows = range(first + 1, first + 1 + count)
        new = list(map(MetricRecord, rows, *(c.tolist() for c in cols), f.tolist()))
        records.extend(new)
        measured = []
        if on_record is not None:
            for rec in new:
                on_record(rec)

    try:
        for r in range(1, params.total_iters + 1):
            x, lam, g = step(xs[-1], lams[-1], r - 1)
            _check_finite(method, r, ctx, x, lam)
            xs.append(x)
            lams.append(lam)
            gs.append(g)
            measured.append(ctx.meter.measure(x, r))
            if len(measured) == block:
                grade()
    finally:
        # the last rows, also when a step, a check or the meter failed
        grade()

    return RunResult(
        method=method,
        trial=trial,
        records=records,
        states_x=np.asarray(xs),
        states_lam=np.asarray(lams),
        states_grad=np.asarray(gs),
        output_iteration=output_pick,
        output_x=None if output_pick is None else xs[output_pick],
        output_lam=None if output_pick is None else lams[output_pick],
        constants=ctx.consts,
    )


def run_centralized(
    topo: Topology,
    objectives: Sequence[LocalObjective],
    params: AlgoParams,
    trial: int = 0,
    mats: NetworkMatrices | None = None,
    on_record: Callable[[MetricRecord], None] | None = None,
) -> RunResult:
    """Centralized execution on the stacked state. Emits one metric row per
    iteration 1..T; row r grades the pair (x^r, lam^{r-1}) and the potential
    at (x^r, lam^r)."""
    ctx = _prepare(topo, objectives, params, trial, mats, (ROLE_STEP, ROLE_METER))

    def step(x, lam, r):
        g = ctx.estimate(ctx.mats.node_blocks(x), r)[0].reshape(-1)
        x_new = primal_step(x, lam, g, ctx.mats, params.rho)
        return x_new, dual_step(x_new, lam, ctx.mats, params.rho), g

    return _drive(ctx, params, trial, step, "primal_dual", ctx.output_pick, on_record)


def run_distributed(
    topo: Topology,
    objectives: Sequence[LocalObjective],
    params: AlgoParams,
    trial: int = 0,
    mats: NetworkMatrices | None = None,
    on_record: Callable[[MetricRecord], None] | None = None,
    reference: RunResult | None = None,
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

    A reference, run_centralized's full result for the same arguments, is
    replayed instead: round r steps with its g^r, and x^0, x^{r+1} and the
    assembled lam^{r+1} must equal its states bit for bit, or the run raises
    at once, naming the quantity, the iteration, the first agent (or edge)
    and the difference. It returns the reference with the message counts,
    having estimated and graded nothing; on_record is not called.
    """
    ctx = _prepare(topo, objectives, params, trial, mats, (ROLE_STEP, ROLE_METER))
    mats, n, rho = ctx.mats, topo.num_nodes, params.rho
    # Per edge, the entry of its listed-first (tail) endpoint, whose dual copy
    # the observer reads.
    owns = np.flatnonzero(mats.sign[:, 0] > 0)
    owner_entry = owns[np.argsort(mats.edge[owns])]
    blocks = mats.node_blocks(ctx.x0)
    inbox = blocks.take(mats.neighbor, 0)
    duals = np.zeros_like(inbox)
    messages = dict(enumerate((2 * np.bincount(mats.node, minlength=n)).tolist(), start=1))

    def exchange(grads):
        nonlocal blocks, inbox, duals
        neighbor_sum = mats.sum_entries(inbox)
        dual_pressure = mats.sum_entries(mats.sign * duals)
        new = _primal_update(blocks, neighbor_sum, dual_pressure, grads, mats.degree[:, None], rho)
        # exchange round: each agent receives every neighbor's new primal
        # block and updates its dual copies, lam_e + rho sign (own - inbox),
        # which is lam_e + rho (x_tail - x_head) bitwise: negation is exact
        blocks, inbox = new, new.take(mats.neighbor, 0)
        duals = duals + rho * (mats.sign * (new.take(mats.node, 0) - inbox))
        return new.reshape(-1), duals.take(owner_entry, 0).reshape(-1)

    if reference is not None:
        if len(reference.states_x) != params.total_iters + 1:
            raise ValueError("reference has another horizon")
        _check_replay(trial, topo, "x", 0, ctx.x0, reference.states_x[0])
        for r, g in enumerate(reference.states_grad):
            x, lam = exchange(g.reshape(blocks.shape))
            _check_replay(trial, topo, "x", r + 1, x, reference.states_x[r + 1])
            _check_replay(trial, topo, "lam", r + 1, lam, reference.states_lam[r + 1])
        return replace(reference, messages_per_agent=messages)

    def step(x, lam, r):
        # each agent estimates at its own block and takes its row of the batch
        grads = ctx.estimate(blocks, r)[0]
        return *exchange(grads), grads.reshape(-1)

    result = _drive(ctx, params, trial, step, "primal_dual", ctx.output_pick, on_record=on_record)
    result.messages_per_agent = messages
    return result
