"""Registration of the sequential reference model.

The streaming / coordinator / MPC bindings and the baselines self-register
in their own modules (``repro.algorithms``); the sequential model lives in
``repro.core.clarkson``, below the api layer, so its registration lives
here to keep the import graph acyclic.  Like every theorem model, its
runner is :func:`~repro.core.clarkson.run_clarkson` with the model class
bound, which takes ``(problem, config, warm_witnesses=None)``: the cold and
warm paths read the config the same way.
"""

from __future__ import annotations

from functools import partial

from ..core.clarkson import SequentialModel, run_clarkson
from .config import SolverConfig
from .registry import register_model

register_model(
    "sequential",
    partial(run_clarkson, model=SequentialModel),
    config_cls=SolverConfig,
    description=(
        "In-memory Algorithm 1: Clarkson iterative reweighting with explicit "
        "weights (the ground truth the model bindings are tested against)."
    ),
    currencies=("space_peak_items",),
    warm_restart=True,
)
