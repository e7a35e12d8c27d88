"""The per-solve context: one frozen record, installed per ``with`` block."""

from __future__ import annotations

import threading

import pytest

from repro.core.budget import CheckpointStore, ProgressTap
from repro.core.context import SolveContext, solve_context, solve_scope


def test_outside_a_solve_the_context_is_empty():
    assert solve_context() == SolveContext()


def test_scope_replaces_fields_and_restores_on_exit():
    tap = ProgressTap(lambda event: None)
    store = CheckpointStore()
    with solve_scope(tap=tap) as outer:
        assert solve_context() is outer
        with solve_scope(checkpoints=store) as inner:
            assert inner.tap is tap and inner.checkpoints is store
        assert solve_context().checkpoints is None
    assert solve_context() == SolveContext()


def test_none_leaves_a_field_alone():
    tap = ProgressTap(lambda event: None)
    with solve_scope(tap=tap):
        with solve_scope(tap=None, shm_pin=None):
            assert solve_context().tap is tap


def test_unknown_field_is_rejected():
    with pytest.raises(TypeError):
        with solve_scope(bogus=1):
            pass


def test_context_does_not_leak_into_other_threads():
    seen = []
    with solve_scope(shm_pin="pin-test"):
        worker = threading.Thread(target=lambda: seen.append(solve_context().shm_pin))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [None]
