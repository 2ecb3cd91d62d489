"""Cooperative per-job cancellation.

A :class:`CancelToken` is handed to the orchestrator when a job is
created; any thread may :meth:`~CancelToken.cancel` it (the daemon's
``DELETE /jobs/{id}`` handler, a watchdog, a test).  The orchestrator
checks the token at its natural preemption points — between cells on
the serial backend, at task pickup and every future completion on the
pool backends — and raises :class:`ExecutionCancelled`, which rides
the same cleanup rails as Ctrl-C: thread pools cancel queued futures
and process pools terminate and join before the exception reaches the
caller.

Cancellation is cooperative, not preemptive: a cell already simulating
finishes (and is announced) before the token is honoured.  That keeps
the invariant every checkpointing consumer relies on — an announced
outcome is a durable fact.
"""

from __future__ import annotations

import threading


class ExecutionCancelled(Exception):
    """Raised inside an orchestrator run when its token is cancelled."""


class CancelToken:
    """A one-way, thread-safe cancellation flag.

    Tokens only ever go from live to cancelled; there is no reset.
    ``wait`` lets polling loops sleep efficiently against the flag.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, callable from any thread)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until cancelled (or ``timeout``); returns the flag."""
        return self._event.wait(timeout)

    def raise_if_cancelled(self) -> None:
        """Raise :class:`ExecutionCancelled` when the flag is set."""
        if self._event.is_set():
            raise ExecutionCancelled("job cancelled")
