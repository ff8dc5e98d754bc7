"""Trace-byte pins: the benchmark workloads and both replicas, run serially,
write exactly the bytes recorded in CHANGES.md.

A refactor that claims to move no byte is held to it here. The hashes were
taken under numpy 2.4.6 and scipy 1.17.1 (the versions CI installs): the
logistic traces depend on numpy's exp/log1p kernels and on the GEMM kernels of
the OpenBLAS 0.3.31 that ships with that numpy wheel, so under other versions
the test skips and says why. Both pick their kernels by CPU, and the hashes
were taken on an AVX-512 CPU. The logistic kernel keeps a row's bits the same
at any BLAS thread count, so the logreg and Replica B pins hold with
OPENBLAS_NUM_THREADS=1 too.

The ring-scale pin also depends on OpenBLAS's thread count. On its 400-agent
ring, the dense eigvalsh in build_matrices gives sigma_min
0.00024673503667876494 and ||L+|| 3.9999999999999996 with
OPENBLAS_NUM_THREADS=1, but 0.000246735036678628 and 3.999999999999998 with
2, 3, 4 or 8 threads, where the pin was taken; with one thread its mean.csv
hashes to 04b86ff7... and the test fails. A spectral path that does not go
through the dense eigensolver would end that dependence (ROADMAP item 13).
"""
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from zopd.harness import config_from_dict, replica_a_config, replica_b_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
PINNED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

# SHA-256 of the written traces at perfbench seed 1 (serial) and of replica
# trial 0 (one trial).
WORKLOAD_PINS = {
    "toy-pool": {
        "mean.csv": "d51e07a5a51f9c4b292175b7ad9935f5c0401f4f738823ca8e42eb49b1912966",
        "trial_000.csv": "e2d83990d33db86991c410ae613d95b28be595a7b50be1ea47f182c22f08404b",
    },
    "logreg": {
        "mean.csv": "019ae01bfd333643583a7dae9d90d9bde519ac06adf9f92a64e2960ffae7a84a",
        "trial_000.csv": "ff4714bee2d0f7f91c68c51207fd0b021e11fbc3c6f56b3032c3ae50b8949f02",
    },
    "ring-scale": {
        "mean.csv": "9337f6d3594fbb179eb563f6c87494e12e8cad68a253fa834216f81318ddcd23",
        "trial_000.csv": "a8b7604474acc63f49128e2b7f9cb4789031a1a7506288a4905ccab211c089a3",
    },
}
REPLICA_PINS = {
    "replica-a": (
        replica_a_config, "0169196607d1604a9351e8554f775fa901d5c90c70e3e3b5e5672c052b86c378"
    ),
    "replica-b": (
        replica_b_config, "eacf65a3ce1d9f0627ac104e077d3ff4b2dfa28274bb14886f225570346445b6"
    ),
}

_installed = {"numpy": np.__version__, "scipy": scipy.__version__}
pytestmark = pytest.mark.skipif(
    _installed != PINNED_VERSIONS,
    reason=f"trace pins were taken under {PINNED_VERSIONS}; installed {_installed}",
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _workloads():
    """perfbench/workloads.py, imported under its own name (perfbench is not
    a package)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("name", sorted(WORKLOAD_PINS))
def test_workload_traces_are_pinned(name, tmp_path):
    wl = _workloads().make(name, 1, tmp_path / "data")
    out = tmp_path / "out"
    run_experiment(config_from_dict(wl.with_run(out, workers=1)))
    assert {f: _sha256(out / f) for f in WORKLOAD_PINS[name]} == WORKLOAD_PINS[name]


@pytest.mark.parametrize("name", sorted(REPLICA_PINS))
def test_replica_trial_is_pinned(name, tmp_path):
    make, pin = REPLICA_PINS[name]
    run_experiment(config_from_dict(make(str(tmp_path), trials=1)))
    assert _sha256(tmp_path / "trial_000.csv") == pin
