"""Test doubles for the checkpoint and service-client tests.

These used to live in :mod:`repro.runtime.faults`; once the chaos layer
took over production fault injection, only the test suite still needed
them, so they moved here.

* :class:`FakeClock` — a manually advanced monotonic clock that doubles
  as a sleep function, so deadline and backoff behaviour run in virtual
  time.
* :class:`FlakyCallable` — wraps a callable and raises
  :class:`~repro.errors.FaultInjectedError` on chosen call indices,
  modelling raise-on-Nth-simulation crashes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.errors import FaultInjectedError


class FakeClock:
    """A manually advanced monotonic clock; doubles as a sleep function."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start
        self.sleeps: list = []

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.advance(seconds)


class FlakyCallable:
    """Wraps ``fn``; raises on the given 1-based call indices.

    Args:
        fn: the callable to wrap.
        fail_on: call indices (1-based, across the wrapper's lifetime) that
            raise instead of executing ``fn``.
        error_factory: builds the exception for call ``n`` (defaults to
            :class:`FaultInjectedError`).
    """

    def __init__(
        self,
        fn: Callable,
        fail_on: Iterable[int],
        error_factory: Optional[Callable[[int], BaseException]] = None,
    ) -> None:
        self.fn = fn
        self.fail_on = frozenset(fail_on)
        self.error_factory = error_factory or (
            lambda n: FaultInjectedError(f"injected failure on call {n}")
        )
        self.calls = 0
        self.injected = 0

    def __call__(self, *args: object, **kwargs: object):
        self.calls += 1
        if self.calls in self.fail_on:
            self.injected += 1
            raise self.error_factory(self.calls)
        return self.fn(*args, **kwargs)

