"""Shared pytest plumbing: the acceptance-gate verdicts and dense operator
references.

The `verdict` fixture records one PASS/FAIL line per end-to-end guarantee;
the terminal-summary hook replays them after the run so the checklist is
visible even when output capture hides prints from passing tests.

The `dense_ops` fixture builds the lifted consensus matrices straight from a
topology's edge list. The library never forms them; tests compare its
edge-list products against these.

linear_objective, zero_objective and NAN_FAMILY are objectives outside the
built-in families, estimate_lipschitz is the sampled slope that audits
every family's declared lipschitz_l0, and smoothed_pair reads one
objective's closed forms through a one-agent StackedObjective; tests import
them from here.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from zopd.objectives import Box, Family, LocalObjective, StackedObjective


def dense_operators(topo):
    """Dense Kronecker lifts of the incidence, degree and Laplacian operators."""
    n, m = topo.num_nodes, topo.block_dim
    scalar = np.zeros((len(topo.edges), n))
    for k, (i, j) in enumerate(topo.edges):
        scalar[k, i - 1] = 1.0
        scalar[k, j - 1] = -1.0
    deg = np.abs(scalar).sum(axis=0)
    eye = np.eye(m)
    incidence = np.kron(scalar, eye)
    degree = np.kron(np.diag(deg), eye)
    lminus = incidence.T @ incidence
    return SimpleNamespace(
        scalar_incidence=scalar,
        incidence=incidence,
        degree=degree,
        lminus=lminus,
        lplus=2.0 * degree - lminus,
        degrees_vector=np.repeat(deg, m),
    )


@pytest.fixture(scope="session")
def dense_ops():
    return dense_operators


def estimate_lipschitz(value_many, box, samples=10**5, seed=0):
    """Max difference quotient |f(a)-f(b)| / ||a-b|| over sampled box pairs,
    a lower bound on the Lipschitz constant of f on the box."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, box.dim, samples)))
    a = rng.uniform(box.lo, box.hi, size=(samples, box.dim))
    b = rng.uniform(box.lo, box.hi, size=(samples, box.dim))
    dist = np.linalg.norm(a - b, axis=1)
    keep = dist > 1e-12
    quot = np.abs(value_many(a[keep]) - value_many(b[keep])) / dist[keep]
    return float(np.max(quot))


def smoothed_pair(obj, x, mu):
    """obj's closed forms at points x (..., dim), through a one-agent
    StackedObjective: the smoothed gradients (..., dim) and values (...)."""
    x = np.asarray(x, dtype=float)
    grad, val = StackedObjective([obj])._smoothed_pair(x.reshape(1, -1, obj.dim), mu)
    return grad.reshape(x.shape), val.reshape(x.shape[:-1])


# Family kernels are module-level functions, so that these objectives pickle
# as the built-in ones do. Each maps n agents' (n, S, M) points to (n, S)
# values.


def _linear_rows(data, params, pts, work):
    (slope,) = data
    return np.einsum("ksm,km->ks", pts, slope)


def _zero_rows(data, params, pts, work):
    return np.zeros(pts.shape[:2])


def _nan_rows(data, params, pts, work):
    return np.full(pts.shape[:2], np.nan)


def _nan_smoothed(data, params, pts, mu):
    return np.full(pts.shape, np.nan), np.full(pts.shape[:2], np.nan)


def linear_objective(a, half_width=1e6):
    """f(x) = a.x on a wide box, without closed forms."""
    a = np.asarray(a, dtype=float)
    return LocalObjective(
        dim=a.size,
        box=Box.cube(a.size, -half_width, half_width),
        lipschitz_l0=float(np.linalg.norm(a)),
        lower_bound=-math.inf,
        family=Family(_linear_rows, (a,)),
        name="linear",
    )


def zero_objective(half_width):
    """f = 0 on the 1-D box [-half_width, half_width]."""
    return LocalObjective(
        dim=1,
        box=Box.cube(1, -half_width, half_width),
        lipschitz_l0=1.0,
        lower_bound=0.0,
        family=Family(_zero_rows, ()),
    )


# A family whose values and closed forms are NaN everywhere.
NAN_FAMILY = Family(_nan_rows, (), (), _nan_smoothed)

_verdict_lines: list[str] = []


@pytest.fixture(scope="session")
def verdict():
    def record(label: str, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
        _verdict_lines.append(line)
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _verdict_lines:
        terminalreporter.section("acceptance verdicts")
        for line in _verdict_lines:
            terminalreporter.write_line(line)
