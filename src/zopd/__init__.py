"""Distributed zeroth-order primal-dual consensus optimization simulator.

Agents on an undirected connected graph cooperatively minimize a sum of
nonconvex nonsmooth local objectives using only noisy function evaluations.
The package provides the graph operators, the two-point gradient estimator,
benchmark objectives, centralized and message-passing engines, a random
gradient-free baseline, convergence diagnostics, and a reproducible
experiment harness with a CLI. Each module's __all__ is the one list of its
public names; the package republishes them all.
"""
from . import baseline, engine, graph, harness, metrics, objectives, szo
from .baseline import *  # noqa: F403
from .engine import *  # noqa: F403
from .graph import *  # noqa: F403
from .harness import *  # noqa: F403
from .metrics import *  # noqa: F403
from .objectives import *  # noqa: F403
from .szo import *  # noqa: F403

_MODULES = (baseline, engine, graph, harness, metrics, objectives, szo)
__all__ = [name for module in _MODULES for name in module.__all__]
__version__ = "0.1.0"
