"""Membership liveness: a clock-injectable heartbeat monitor.

Liveness is a pure function of timestamps, so — like
:class:`repro.resilience.circuit.CircuitBreaker` — the monitor takes an
injectable ``clock`` and never sleeps or spawns threads itself.  The
registry owns the single thread that calls :meth:`HeartbeatMonitor.evaluate`
periodically; tests drive a fake clock through every transition
deterministically.

States and transitions (per member)::

    joining --ready()--> ready --timeout--> suspect --2x timeout--> dead
       |                   ^                   |
       +--registration     +---late beat-------+        (dead is sticky)
          timeout-> dead

``joining`` covers the registration handshake: a member that never turns
ready within ``registration_timeout_s`` goes straight to ``dead``.  A late
heartbeat rescues a ``suspect`` member back to ``ready``; nothing rescues a
``dead`` one — its journal has already been replayed elsewhere, and a
resurrected twin executing the same nodes would fork the deterministic
history.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LIVENESS_STATES", "MemberClock", "HeartbeatMonitor"]

#: Every liveness state a member can be in, in lifecycle order.
LIVENESS_STATES = ("joining", "ready", "suspect", "dead")


class MemberClock:
    """Per-member liveness bookkeeping: state + last-heartbeat timestamp."""

    __slots__ = ("state", "joined_at", "last_beat", "beats", "reason")

    def __init__(self, now: float) -> None:
        self.state = "joining"
        self.joined_at = now
        self.last_beat = now
        self.beats = 0
        self.reason: Optional[str] = None


class HeartbeatMonitor:
    """Tracks member liveness from heartbeat timestamps.

    Thread-safe; every mutation happens under one lock.  ``evaluate()``
    returns the members that *newly* died during that call so the caller
    (the registry) can trigger recovery exactly once per death.
    """

    def __init__(
        self,
        *,
        heartbeat_timeout_s: float = 2.0,
        registration_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not heartbeat_timeout_s > 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if not registration_timeout_s > 0:
            raise ValueError("registration_timeout_s must be positive")
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.registration_timeout_s = float(registration_timeout_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._members: Dict[str, MemberClock] = {}

    # -- lifecycle ---------------------------------------------------------

    def register(self, member_id: str) -> None:
        with self._lock:
            if member_id in self._members:
                raise ValueError(f"member {member_id!r} already registered")
            self._members[member_id] = MemberClock(self._clock())

    def ready(self, member_id: str) -> None:
        """Handshake completed; the member now participates in liveness."""
        with self._lock:
            member = self._members[member_id]
            if member.state == "dead":
                return
            member.state = "ready"
            member.last_beat = self._clock()

    def beat(self, member_id: str) -> None:
        """Record one heartbeat.  Rescues ``suspect``, never ``dead``."""
        with self._lock:
            member = self._members.get(member_id)
            if member is None or member.state == "dead":
                return
            member.last_beat = self._clock()
            member.beats += 1
            if member.state == "suspect":
                member.state = "ready"

    def mark_dead(self, member_id: str, reason: str = "connection lost") -> bool:
        """Force a member dead (socket EOF, kill).  True if it newly died."""
        with self._lock:
            member = self._members.get(member_id)
            if member is None or member.state == "dead":
                return False
            member.state = "dead"
            member.reason = reason
            return True

    def forget(self, member_id: str) -> None:
        """Drop a member entirely (clean drain — not a failure)."""
        with self._lock:
            self._members.pop(member_id, None)

    # -- queries -----------------------------------------------------------

    def state(self, member_id: str) -> str:
        with self._lock:
            return self._members[member_id].state

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            now = self._clock()
            return {
                member_id: {
                    "state": member.state,
                    "beats": member.beats,
                    "age_s": round(now - member.joined_at, 3),
                    "since_last_beat_s": round(now - member.last_beat, 3),
                    **({"reason": member.reason} if member.reason else {}),
                }
                for member_id, member in self._members.items()
            }

    # -- the periodic sweep ------------------------------------------------

    def evaluate(self) -> List[Tuple[str, str]]:
        """Advance timeouts; return ``[(member_id, reason), ...]`` newly dead."""
        died: List[Tuple[str, str]] = []
        with self._lock:
            now = self._clock()
            for member_id, member in self._members.items():
                if member.state == "dead":
                    continue
                silent = now - member.last_beat
                if member.state == "joining":
                    if now - member.joined_at > self.registration_timeout_s:
                        member.state = "dead"
                        member.reason = "registration timeout"
                        died.append((member_id, member.reason))
                elif silent > 2.0 * self.heartbeat_timeout_s:
                    member.state = "dead"
                    member.reason = (
                        f"heartbeat expired ({silent:.3f}s > "
                        f"{2.0 * self.heartbeat_timeout_s:.3f}s)"
                    )
                    died.append((member_id, member.reason))
                elif silent > self.heartbeat_timeout_s and member.state == "ready":
                    member.state = "suspect"
        return died
