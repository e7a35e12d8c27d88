"""Registration of the sequential reference model.

The streaming / coordinator / MPC bindings and the baselines self-register
in their own modules (``repro.algorithms``); the sequential driver lives in
``repro.core.clarkson``, which the config layer itself imports, so its
registration lives here to keep the import graph acyclic.
"""

from __future__ import annotations

from ..core.clarkson import _clarkson_solve
from .config import SolverConfig
from .registry import register_model


def _run_sequential(problem, config: SolverConfig, warm_witnesses=None):
    """Runner and warm-runner in one: the session passes ``warm_witnesses``.

    One function serves both registry slots so the cold and warm paths can
    never drift apart in how they unpack the config.
    """
    return _clarkson_solve(
        problem,
        params=config.to_parameters(),
        rng=config.seed,
        warm_witnesses=warm_witnesses,
    )


register_model(
    "sequential",
    _run_sequential,
    config_cls=SolverConfig,
    description=(
        "In-memory Algorithm 1: Clarkson iterative reweighting with explicit "
        "weights (the ground truth the model bindings are tested against)."
    ),
    currencies=("space_peak_items",),
    warm_runner=_run_sequential,
    capabilities=("warm_restart", "ingest"),
)
