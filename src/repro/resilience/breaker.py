"""Circuit breaker: shed load after consecutive failures, probe, recover.

The classic three-state machine, used by :class:`~repro.gateway.jobs.
GatewayManager` in front of its queue:

* **closed** — everything flows; consecutive failures are counted and
  a success resets the count;
* **open** — entered after ``failure_threshold`` consecutive failures;
  every request is shed (the API maps this to 503 + ``Retry-After``)
  until ``cooldown_seconds`` have passed;
* **half-open** — after the cooldown, exactly one probe request is
  admitted; its success closes the circuit, its failure reopens it
  (restarting the cooldown).

The clock is injectable so tests can drive the transitions without
sleeping, and every method is thread-safe — the pool supervisor
thread reports outcomes while the intake thread asks for admission.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Union

from repro.errors import ConfigurationError, ReproError

__all__ = ["CircuitBreaker", "CircuitOpenError"]


class CircuitOpenError(ReproError):
    """The circuit is open; the request was shed without queueing.

    ``retry_after`` is the seconds remaining until the breaker will
    admit a probe (the API surfaces it as a ``Retry-After`` header).
    """

    def __init__(self, retry_after: float) -> None:
        self.retry_after = max(0.0, retry_after)
        super().__init__(
            f"service is shedding load after repeated worker failures; "
            f"retry in {self.retry_after:.1f}s"
        )


class CircuitBreaker:
    """Thread-safe closed/open/half-open breaker with an injectable clock."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_seconds <= 0:
            raise ConfigurationError(
                f"cooldown_seconds must be > 0, got {cooldown_seconds}"
            )
        self._threshold = failure_threshold
        self._cooldown = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_outstanding = False
        self._opens = 0

    @property
    def state(self) -> str:
        """The current state (recomputing open → half-open lazily)."""
        with self._lock:
            self._refresh_locked()
            return self._state

    @property
    def opens(self) -> int:
        """How many times the circuit has opened over its lifetime."""
        with self._lock:
            return self._opens

    @property
    def consecutive_failures(self) -> int:
        """Current run of uninterrupted failures."""
        with self._lock:
            return self._consecutive_failures

    def _refresh_locked(self) -> None:
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self._cooldown
        ):
            self._state = self.HALF_OPEN
            self._probe_outstanding = False

    def allow(self) -> bool:
        """Whether one request may proceed right now.

        In half-open state exactly one caller gets ``True`` (the probe)
        until its outcome is reported.
        """
        with self._lock:
            self._refresh_locked()
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN and not self._probe_outstanding:
                self._probe_outstanding = True
                return True
            return False

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` unless a request may proceed."""
        if not self.allow():
            raise CircuitOpenError(self.retry_after())

    def retry_after(self) -> float:
        """Seconds until the breaker will next admit a probe (0 if now)."""
        with self._lock:
            self._refresh_locked()
            if self._state == self.OPEN:
                return max(
                    0.0, self._cooldown - (self._clock() - self._opened_at)
                )
            return 0.0

    def record_success(self) -> None:
        """Report one successful request: closes a half-open circuit."""
        with self._lock:
            self._consecutive_failures = 0
            self._probe_outstanding = False
            if self._state != self.CLOSED:
                self._state = self.CLOSED

    def record_failure(self) -> None:
        """Report one failed request: may open (or reopen) the circuit."""
        with self._lock:
            self._refresh_locked()
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN:
                # The probe failed: back to open, cooldown restarts.
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probe_outstanding = False
                self._opens += 1
            elif (
                self._state == self.CLOSED
                and self._consecutive_failures >= self._threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._opens += 1

    def snapshot(self) -> Dict[str, Union[str, int, float]]:
        """JSON-ready view for ``/metrics``."""
        with self._lock:
            self._refresh_locked()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "opens": self._opens,
                "failure_threshold": self._threshold,
                "cooldown_seconds": self._cooldown,
            }
