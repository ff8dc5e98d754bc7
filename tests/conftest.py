"""Shared pytest plumbing: the acceptance-gate verdicts and dense operator
references.

The `verdict` fixture records one PASS/FAIL line per end-to-end guarantee;
the terminal-summary hook replays them after the run so the checklist is
visible even when output capture hides prints from passing tests.

The `dense_ops` fixture builds the lifted consensus matrices straight from a
topology's edge list. The library never forms them; tests compare its
edge-list products against these.
"""
from types import SimpleNamespace

import numpy as np
import pytest


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
