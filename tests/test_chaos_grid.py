"""The pinned chaos grid: seeded fault injection never changes the answer.

Every cell crosses a problem family with a distributed model and a seeded
:class:`~repro.resilience.FaultPlan`, on both transports.  The contract
under test is the acceptance bar of the resilience layer: a solve running
under any seeded fault scenario either completes **bit-identical** to its
fault-free baseline (same value, witness bytes, iteration story, and
communication ledger) or raises a typed error — injected message drops,
corruptions, delays, slow nodes, and worker crashes are all absorbed by
detect-and-retransmit delivery and journal-replay worker recovery.

A failing cell is replayed exactly by its ``(solver seed, fault seed)``
pair; the plan's :meth:`~repro.resilience.FaultPlan.describe` output names
the scripted scenario.
"""

from __future__ import annotations

import pytest

from test_fabric_transports import (
    PROBLEMS,
    _build_problem,
    _solve,
    assert_bit_identical,
)

from repro import TransportConfig
from repro.core.context import solve_scope
from repro.resilience import FaultPlan, FaultSpec

MODELS = ("coordinator", "mpc")

#: Fault seeds of the pinned grid (one scripted scenario each).
FAULT_SEEDS = (0, 1)

#: Message/node perturbations: enacted by every transport's deliver hop and
#: the topology's per-node probe.
DELIVERY_KINDS = ("message_drop", "message_delay", "payload_corruption", "slow_node")

SUPERVISED = TransportConfig(kind="process", max_workers=2, supervised=True)


def _seeded_plan(seed: int, kinds, *, crash: bool = False) -> FaultPlan:
    specs = list(
        FaultPlan.seeded(seed, kinds=kinds, num_faults=3, delay_s=0.0005).specs
    )
    if crash:
        # Guarantee the recovery path is exercised, not just scripted: one
        # unconditional crash at the first dispatch of the scenario.
        specs.append(FaultSpec(kind="worker_crash", at=1))
    plan = FaultPlan(specs, seed=seed)
    return plan


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("family", PROBLEMS)
def test_inprocess_chaos_is_bit_identical(family, model):
    problem = _build_problem(family)
    baseline = _solve(problem, model, None)
    for seed in FAULT_SEEDS:
        plan = _seeded_plan(seed, DELIVERY_KINDS)
        with solve_scope(fault_plan=plan):
            faulted = _solve(problem, model, None)
        assert_bit_identical(faulted, baseline)
        # The probes really were consulted (the plan saw the solve).
        assert plan._global_counts, plan.describe()


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("family", PROBLEMS)
def test_supervised_process_chaos_is_bit_identical(family, model):
    problem = _build_problem(family)
    baseline = _solve(problem, model, None)
    plan = _seeded_plan(FAULT_SEEDS[0], DELIVERY_KINDS, crash=True)
    with solve_scope(fault_plan=plan):
        faulted = _solve(problem, model, SUPERVISED)
    assert_bit_identical(faulted, baseline)
    assert ("dispatch", 0, "worker_crash") in plan.fired, plan.describe()


def test_streaming_chaos_is_bit_identical():
    # The streaming model rides the same deliver/node probes; one pinned
    # cell keeps it honest without doubling the grid.
    problem = _build_problem("lp")
    baseline = _solve(problem, "streaming", None)
    for seed in FAULT_SEEDS:
        plan = _seeded_plan(seed, DELIVERY_KINDS)
        with solve_scope(fault_plan=plan):
            faulted = _solve(problem, "streaming", None)
        assert_bit_identical(faulted, baseline)
