"""Zero-copy data plane: SharedPackStore, the wire codec, and leak surfaces.

Four layers are pinned here:

* **Store unit tests** — export/attach round-trips (views are read-only,
  aliasing survives, small objects opt out).
* **Segment owners** — a segment belongs to the transport's kept value
  that shipped it: it lives while a fabric session or a pin owns that
  value, ends with the last owner (or the pin's object), is shared by
  every session and API session that shares the object, and ends at the
  transport's ``close()``.
* **Wire codec unit tests** — bit-exact round-trips of marked pickle
  frames, NumPy scalar-*type* preservation, payloads in their canonical
  wire form, unmarked and older-format frames refused by the marker, and
  every transport frame passing through the module's ``dumps``/``loads``.
* **Leak surface** — ``/dev/shm`` must hold no ``repro_shm_*`` segment
  after session close, worker SIGKILL + heal, or degrade-to-in-process;
  and a supervised crash-replay with shared memory on stays bit-identical.
"""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest

from repro import TransportConfig, solve
from repro.api.session import Session
from repro.core.context import solve_scope
from repro.core.exceptions import IterationLimitError
from repro.fabric import shm, wirecodec
from repro.fabric.payload import Scalar, Vector
from repro.fabric.transport import ProcessPoolTransport, new_pin_token, transport_for
from repro.problems import LinearProgram
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.workloads import random_feasible_lp

from test_api_facade import FACADE_KWARGS, SEED, _lp_instance
from test_fabric_transports import assert_bit_identical

pytestmark = pytest.mark.skipif(
    not shm.shared_memory_supported(), reason="no working POSIX shared memory"
)

N = 400
SOLVE_KWARGS = dict(
    seed=11, sample_size=60, success_threshold=0.05, max_iterations=300
)


def _assert_no_leaks():
    assert shm.leaked_segments() == []


def _big_lp(n=2000, d=3, seed=2):
    return random_feasible_lp(n, d, seed=seed).problem


# ---------------------------------------------------------------------- #
# SharedPackStore
# ---------------------------------------------------------------------- #


class TestSharedPackStore:
    def test_export_attach_round_trip_is_bit_exact(self):
        problem = _big_lp()
        shipped = shm.store().export(problem, owner="t1")
        try:
            assert isinstance(shipped, shm.ShippedObject)
            # The handle's pickle is tiny: arrays live in the segment.
            assert len(pickle.dumps(shipped)) < problem.a.nbytes
            clone = pickle.loads(pickle.dumps(shipped))
            assert np.array_equal(clone.a, problem.a)
            assert np.array_equal(clone.b, problem.b)
            assert clone.a.tobytes() == problem.a.tobytes()
        finally:
            shm.store().release_owner("t1")
        _assert_no_leaks()

    def test_attached_views_are_read_only(self):
        problem = _big_lp()
        shipped = shm.store().export(problem, owner="t2")
        try:
            clone = shipped.materialize()
            assert clone.a.flags.writeable is False
            with pytest.raises(ValueError):
                clone.a[0, 0] = 1.0
        finally:
            shm.store().release_owner("t2")
        _assert_no_leaks()

    def test_array_aliasing_survives_the_wire(self):
        # LinearProgram's pack rows *are* problem.a; both references must
        # come back as the same shared view, not two copies.
        problem = _big_lp()
        problem.constraint_pack()
        shipped = shm.store().export(problem, owner="t3")
        try:
            clone = shipped.materialize()
            assert clone.constraint_pack().rows is clone.a
        finally:
            shm.store().release_owner("t3")
        _assert_no_leaks()

    def test_small_objects_opt_out(self):
        tiny = np.arange(4, dtype=float)  # far below MIN_SHARED_BYTES
        assert shm.store().export(tiny, owner="t4") is tiny
        shm.store().release_owner("t4")
        _assert_no_leaks()


# ---------------------------------------------------------------------- #
# Segment owners: the transport's kept values
# ---------------------------------------------------------------------- #


def _new_segments(before: set) -> set:
    return set(shm.leaked_segments()) - before


class TestSegmentOwners:
    def test_two_sessions_share_one_segment_until_both_release(self):
        before = set(shm.leaked_segments())
        problem = _big_lp()
        transport = ProcessPoolTransport(max_workers=2)
        try:
            transport.init_shared("a", "problem", problem)
            transport.init_shared("b", "problem", problem)
            [name] = _new_segments(before)
            transport.release("a")
            assert _new_segments(before) == {name}  # "b" still owns it
            transport.release("b")
            assert _new_segments(before) == set()
        finally:
            transport.close()
        _assert_no_leaks()

    def test_repeat_share_reuses_the_kept_segment(self, monkeypatch):
        before = set(shm.leaked_segments())
        problem = _big_lp()
        transport = ProcessPoolTransport(max_workers=2)
        try:
            transport.init_shared("a", "problem", problem)
            segments = _new_segments(before)
            sent = []
            request = transport._request

            def recording(slot, message):
                sent.append(message[0])
                return request(slot, message)

            monkeypatch.setattr(transport, "_request", recording)
            transport.init_shared("b", "problem", problem)
            assert _new_segments(before) == segments and len(segments) == 1
            assert sent == ["bind", "bind"]  # no second keep
            assert transport.health()["kept_values"] == 1
        finally:
            transport.close()
        _assert_no_leaks()

    def test_pin_owns_the_segment_while_its_object_lives(self):
        before = set(shm.leaked_segments())
        problem = _big_lp()
        transport = ProcessPoolTransport(max_workers=1)
        try:
            with solve_scope(shm_pin=new_pin_token()):
                transport.init_shared("solve1", "problem", problem)
            transport.release("solve1")
            # The pin (the API session's token) still owns the segment.
            assert len(_new_segments(before)) == 1
            assert transport.health()["kept_values"] == 1
            del problem
            gc.collect()
            # The object is gone, so the pin no longer owns its value: the
            # transport's next exchange drops it and unlinks the segment.
            transport.init_node("next", 0, {})
            assert _new_segments(before) == set()
            assert transport.health()["kept_values"] == 0
        finally:
            transport.close()
        _assert_no_leaks()

    def test_close_unlinks_the_segments_of_unreleased_sessions(self):
        before = set(shm.leaked_segments())
        transport = ProcessPoolTransport(max_workers=2)
        try:
            transport.init_shared("s", "problem", _big_lp())
            assert len(_new_segments(before)) == 1
        finally:
            transport.close()
        assert _new_segments(before) == set()

    def test_two_api_sessions_keep_one_value_and_one_segment(self):
        before = set(shm.leaked_segments())
        problem = _big_lp()
        config = TransportConfig(kind="process", max_workers=2)  # reuse_pool=True
        transport = transport_for(config)
        kwargs = dict(model="coordinator", transport=config, num_sites=3, **SOLVE_KWARGS)
        with Session(**kwargs) as first, Session(**kwargs) as second:
            assert_bit_identical(first.solve(problem), second.solve(problem))
            assert transport.health()["kept_values"] == 1
            assert len(_new_segments(before)) == 1
            first.close()
            # The second session's pin still owns the value and its segment.
            assert transport.health()["kept_values"] == 1
            assert len(_new_segments(before)) == 1
        assert transport.health()["kept_values"] == 0
        _assert_no_leaks()


# ---------------------------------------------------------------------- #
# Wire codec
# ---------------------------------------------------------------------- #


class TestWireCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**62,
            2**100,  # beyond int64: pickle fallback
            1.5,
            -0.0,
            float("inf"),
            "text",
            "ünïcode",
            b"raw-bytes",
            (1, 2.5, "three"),
            [1, [2, [3]]],
            {"a": 1, "b": (2.0, None)},
            {},
            (),
        ],
    )
    def test_round_trips(self, value):
        assert wirecodec.loads(wirecodec.dumps(value)) == value

    def test_arrays_are_bit_exact(self):
        rng = np.random.default_rng(0)
        for arr in (
            rng.normal(size=(7, 3)),
            np.arange(10, dtype=np.int32),
            np.array([], dtype=float),
            rng.normal(size=(2, 3, 4))[:, ::2],  # non-contiguous
            np.array([[True, False]]),
        ):
            back = wirecodec.loads(wirecodec.dumps(arr))
            assert back.dtype == arr.dtype
            assert back.shape == arr.shape
            assert np.ascontiguousarray(arr).tobytes() == back.tobytes()
            assert back.flags.writeable

    def test_numpy_scalar_types_survive(self):
        for value in (np.float64(3.25), np.int64(-9)):
            back = wirecodec.loads(wirecodec.dumps(value))
            assert type(back) is type(value)
            assert back == value
        # NaN round-trips bit-exactly too.
        back = wirecodec.loads(wirecodec.dumps(np.float64("nan")))
        assert np.isnan(back) and type(back) is np.float64

    def test_payloads_use_their_canonical_wire_form(self):
        payload = Scalar(value=1.25)
        back = wirecodec.loads(wirecodec.dumps(payload))
        assert back == payload
        assert isinstance(back, Scalar)
        # The receiver gets what ``to_bytes`` wrote (float64 coefficients),
        # not the sender's int32 array: the form the ledger measured.
        vector = Vector(values=np.arange(3, dtype=np.int32))
        back = wirecodec.loads(wirecodec.dumps(vector))
        assert isinstance(back, Vector)
        assert back.values.dtype == np.float64
        assert back.values.tolist() == [0.0, 1.0, 2.0]

    def test_raw_pickles_pass_through_loads(self):
        # Every producer writes marked frames, so unmarked bytes (here a raw
        # pickle) are refused before anything unpickles them.
        obj = {"rng": np.random.default_rng(5)}
        with pytest.raises(ValueError, match="marker"):
            wirecodec.loads(pickle.dumps(obj))

    def test_arbitrary_objects_fall_back_to_pickle(self):
        rng = np.random.default_rng(1)
        back = wirecodec.loads(wirecodec.dumps({"rng": rng, "n": 3}))
        assert back["n"] == 3
        assert back["rng"].bit_generator.state == rng.bit_generator.state

    def test_previous_frame_format_is_refused_by_its_marker(self):
        # A peer of an older build writes ``\x93RW1`` frames; they are
        # refused at the marker, before anything unpickles them.
        with pytest.raises(ValueError, match="marker"):
            wirecodec.loads(b"\x93RW1" + pickle.dumps((1, 2.5)))

    def test_arrays_keep_their_order_and_read_only_flag(self):
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        back = wirecodec.loads(wirecodec.dumps(fortran))
        assert back.flags.f_contiguous and np.array_equal(back, fortran)
        frozen = np.arange(4.0)
        frozen.flags.writeable = False
        assert not wirecodec.loads(wirecodec.dumps(frozen)).flags.writeable

    def test_every_frame_goes_through_the_module_functions(self, monkeypatch):
        # The tracer wraps ``wirecodec.dumps``/``loads`` by module attribute
        # for its codec metrics; a transport that bound the functions by
        # name would bypass the wrappers and read zero.
        calls = {"dumps": 0, "loads": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(wirecodec, name, counting(name, getattr(wirecodec, name)))
        result = solve(
            _big_lp(),
            model="coordinator",
            num_sites=3,
            transport=TransportConfig(kind="process", max_workers=2, reuse_pool=False),
            **SOLVE_KWARGS,
        )
        assert result.value is not None
        assert calls["dumps"] > 0 and calls["loads"] > 0


# ---------------------------------------------------------------------- #
# Leak surface + crash replay
# ---------------------------------------------------------------------- #


def _noop_task(state):
    return state, state["tag"]


class TestLeakSurface:
    def test_session_close_unlinks_segments(self):
        problem = _big_lp()
        session = Session(
            model="coordinator",
            transport={"kind": "process", "max_workers": 2, "reuse_pool": False},
            num_sites=3,
            **SOLVE_KWARGS,
        )
        try:
            session.solve(problem)
        finally:
            session.close()
        _assert_no_leaks()

    def test_worker_sigkill_leaks_nothing(self):
        # Workers only *attach*; the creating process owns every name, so a
        # SIGKILLed worker cannot leave a segment behind.
        transport = ProcessPoolTransport(max_workers=2)
        problem = _big_lp()
        try:
            transport.init_shared("s", "problem", problem)
            assert shm.store().segment_names()  # the export is live
            for worker in range(2):
                transport.kill_worker(worker)
        finally:
            transport.close()
        shm.store().release_owner("s")
        _assert_no_leaks()

    def test_degrade_to_in_process_leaks_nothing(self):
        problem = _build_problem_lp()
        baseline = solve(
            problem, model="coordinator", num_sites=3, **SOLVE_KWARGS
        )
        session = Session(
            model="coordinator",
            transport={
                "kind": "process",
                "max_workers": 2,
                "reuse_pool": False,
                "max_restarts": 0,
            },
            num_sites=3,
            **SOLVE_KWARGS,
        )
        try:
            transport = session._transport
            transport.attach_fault_plan(
                FaultPlan([FaultSpec(kind="worker_crash", at=1)])
            )
            result = session.solve(problem)
            assert transport.degraded
            assert_bit_identical(result, baseline)
        finally:
            session.close()
        _assert_no_leaks()

    def test_crash_replay_with_shared_memory_is_bit_identical(self):
        problem = _build_problem_lp()
        baseline = solve(
            problem, model="coordinator", num_sites=3, **SOLVE_KWARGS
        )
        session = Session(
            model="coordinator",
            transport={
                "kind": "process",
                "max_workers": 2,
                "reuse_pool": False,
                "shared_memory": True,
            },
            num_sites=3,
            **SOLVE_KWARGS,
        )
        try:
            transport = session._transport
            assert transport.shared_memory
            plan = FaultPlan([FaultSpec(kind="worker_crash", at=1, node=1)])
            transport.attach_fault_plan(plan)
            result = session.solve(problem)
            # The journal replay re-shipped the ShippedObject pickle: the
            # respawned worker re-mapped the same segment.
            assert ("dispatch", 1, "worker_crash") in plan.fired
            assert transport.total_restarts >= 1
            assert not transport.degraded
            assert_bit_identical(result, baseline)
        finally:
            session.close()
        _assert_no_leaks()

    @pytest.mark.parametrize("model", ["streaming", "coordinator", "mpc"])
    def test_failed_solve_releases_its_nodes(self, model):
        # A solve that runs out of iterations still releases its nodes, and
        # with them the session's pin on the shared-memory export.
        before = shm.leaked_segments()
        with pytest.raises(IterationLimitError):
            solve(
                _lp_instance(),
                model=model,
                seed=SEED,
                sample_size=8,
                success_threshold=0.01,
                max_iterations=1,
                transport=TransportConfig(kind="process", shared_memory=True),
                **FACADE_KWARGS[model],
            )
        assert shm.leaked_segments() == before

    def test_release_in_worker_drops_attachments(self):
        # A long-lived pool must not accumulate segment mappings across
        # sessions: after release, a fresh share round-trips cleanly and the
        # old export can unlink without the worker keeping ghosts.
        transport = ProcessPoolTransport(max_workers=1)
        try:
            for index in range(3):
                session = f"s{index}"
                transport.init_shared(session, "problem", _big_lp(seed=index))
                transport.init_node(session, 0, {"tag": index})
                assert transport.run_nodes(session, [0], _noop_task, [()]) == [index]
                transport.release(session)
                _assert_no_leaks()
        finally:
            transport.close()


def _build_problem_lp() -> LinearProgram:
    return random_feasible_lp(N, 2, seed=3).problem
