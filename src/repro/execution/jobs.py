"""Named, cancellable execution jobs over the event core.

:class:`JobManager` is the daemon-facing front of the execution layer:
it owns a set of named jobs, runs each on its own worker thread through
an :class:`~repro.experiments.orchestrator.Orchestrator` wired to a
shared :class:`~repro.execution.bus.EventBus`, and buffers every job's
event stream so consumers (the ``repro serve`` NDJSON endpoints, tests)
can read it incrementally — including late joiners, who replay the
buffer from the top.

Jobs on the serial and thread backends share one
:class:`~repro.experiments.executor.ExecutionContext` in dedup mode:
identical scenarios requested by concurrent jobs single-flight into one
execution (see ``ExecutionContext.run``), and everything shares one
warm result front.  The process backend keeps its own worker contexts
and shares through the on-disk store, as always.

Cancellation is the orchestrator's token protocol: ``cancel()`` fires
the job's :class:`~repro.execution.cancel.CancelToken`, the run raises
:class:`~repro.execution.cancel.ExecutionCancelled` at its next
preemption point (after backend cleanup), and
the job's stream terminates with a
:class:`~repro.execution.events.JobCancelled` event.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
import traceback
from typing import Sequence

from repro.execution.bus import EventBus
from repro.execution.cancel import CancelToken, ExecutionCancelled
from repro.execution.events import (
    TERMINAL_EVENTS,
    JobCancelled,
    JobEvent,
    JobFinished,
    JobSubmitted,
)

logger = logging.getLogger(__name__)

#: Job lifecycle states, in order of progression.  ``cancelled`` and
#: ``failed`` are alternative terminals to ``finished``.
JOB_STATES = ("pending", "running", "finished", "failed", "cancelled")


class Job:
    """One named execution: a scenario matrix, its stream, its result.

    All mutation happens under ``_lock`` (held by the manager's bus
    subscriber and the job's worker thread); readers use the snapshot
    accessors, which are safe from any thread.
    """

    def __init__(self, job_id: str, label: str, total: int) -> None:
        self.id = job_id
        self.label = label
        self.total = total
        self.cancel_token = CancelToken()
        self._lock = threading.Lock()
        self._event_arrived = threading.Condition(self._lock)
        self._events: list[JobEvent] = []
        self._state = "pending"
        self._results = None  # ResultSet | None
        self._done = 0
        self._failed = 0
        self._created = time.time()
        self._elapsed: float | None = None

    # --- stream -------------------------------------------------------------
    def _append(self, event: JobEvent) -> None:
        """Buffer one event (the manager's bus subscriber calls this)."""
        with self._lock:
            self._events.append(event)
            kind = event.kind
            if kind == "cell_finished":
                self._done += 1
            elif kind == "cell_failed":
                self._done += 1
                self._failed += 1
            self._event_arrived.notify_all()

    def events_since(self, offset: int, wait: float | None = None) -> list[JobEvent]:
        """The buffered events from ``offset`` on (replayable stream).

        With ``wait``, blocks up to that many seconds for at least one
        new event unless the stream is already terminal — the polling
        primitive behind the NDJSON endpoint.
        """
        with self._lock:
            if wait is not None and offset >= len(self._events) and not self._terminal():
                self._event_arrived.wait(wait)
            return list(self._events[offset:])

    def _terminal(self) -> bool:
        return bool(self._events) and self._events[-1].kind in TERMINAL_EVENTS

    @property
    def finished(self) -> bool:
        """Whether the stream has terminated (any terminal state)."""
        with self._lock:
            return self._terminal()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job's stream terminates; returns that flag."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not self._terminal():
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._event_arrived.wait(remaining)
            return True

    # --- state --------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _set_state(self, state: str, elapsed: float | None = None) -> None:
        with self._lock:
            self._state = state
            if elapsed is not None:
                self._elapsed = elapsed

    @property
    def results(self):
        """The completed run's ResultSet, or None before completion."""
        with self._lock:
            return self._results

    def status_payload(self) -> dict:
        """The job's progress as a JSON-native dict.

        This is the shared shape of the daemon's job-status responses
        and ``repro campaign status --json``: state plus a
        done/failed/total progress triple.
        """
        with self._lock:
            return {
                "id": self.id,
                "label": self.label,
                "state": self._state,
                "total": self.total,
                "done": self._done,
                "failed": self._failed,
                "events": len(self._events),
                "elapsed_s": self._elapsed,
            }


class JobManager:
    """Owns named jobs and runs them over a shared event bus.

    Parameters mirror the orchestrator knobs a daemon fixes per
    process: one cache directory, one scale/seed default, one shared
    dedup execution context for the in-process backends.

    ``submit`` returns immediately with the :class:`Job`; the matrix
    runs on a daemon worker thread.  Every job's events also reach any
    external subscriber on ``bus`` — the manager's own buffering is
    just another subscription.
    """

    def __init__(
        self,
        cache_dir=None,
        use_cache: bool | None = None,
        scale: float | None = None,
        seed: int = 1,
        workers: int | str | None = None,
        bus: EventBus | None = None,
    ) -> None:
        from repro.experiments.executor import ExecutionContext

        self.bus = bus if bus is not None else EventBus()
        self.context = ExecutionContext(
            cache_dir=cache_dir,
            scale=scale,
            seed=seed,
            use_cache=use_cache,
            dedup=True,
        )
        self._cache_dir = cache_dir
        self._use_cache = use_cache
        #: Worker-count default for submissions that leave theirs unset
        #: (the daemon's --workers flag).
        self.default_workers = workers
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._threads: list[threading.Thread] = []
        self.bus.subscribe(self._route)

    # --- bus plumbing -------------------------------------------------------
    def _route(self, event: JobEvent) -> None:
        """Bus subscriber: buffer each event on its job.

        Never raises — a buffering hiccup must not cancel the run the
        way a deliberate subscriber exception does.
        """
        try:
            job = self._jobs.get(event.job)
            if job is not None:
                job._append(event)
        except Exception:  # pragma: no cover - defensive
            logger.exception("job event routing failed for %r", event)

    # --- lifecycle ----------------------------------------------------------
    def submit(
        self,
        matrix,
        label: str = "job",
        backend: str | None = None,
        workers: int | str | None = None,
        batch: int | str | None = None,
        start_method: str | None = None,
    ) -> Job:
        """Run ``matrix`` (a Suite or scenario list) as a named job.

        Validates the matrix and knobs synchronously — a bad backend
        name or empty matrix raises here, before a job id is ever
        allocated — then returns the running :class:`Job`.
        """
        from repro.experiments.orchestrator import Orchestrator
        from repro.experiments.scenario import Suite

        scenarios = list(
            matrix.expand() if isinstance(matrix, Suite) else matrix
        )
        if isinstance(matrix, Suite) and label == "job":
            label = matrix.name
        orchestrator = Orchestrator(
            workers=workers if workers is not None else self.default_workers,
            cache_dir=self._cache_dir,
            scale=self.context.scale,
            seed=self.context.seed,
            use_cache=self._use_cache,
            backend=backend,
            start_method=start_method,
            batch=batch,
            events=self.bus,
            context=self.context,
        )
        with self._lock:
            job_id = f"job-{next(self._ids)}"
            job = self._jobs[job_id] = Job(job_id, label, len(scenarios))
        orchestrator.job_id = job_id
        orchestrator.cancel = job.cancel_token
        self.bus.publish(
            JobSubmitted(job=job_id, label=label, total=len(scenarios))
        )
        thread = threading.Thread(
            target=self._run_job,
            args=(job, orchestrator, scenarios),
            name=f"repro-{job_id}",
            daemon=True,
        )
        with self._lock:
            self._threads.append(thread)
        job._set_state("running")
        thread.start()
        return job

    def _run_job(self, job: Job, orchestrator, scenarios: list) -> None:
        """Worker-thread body: run, then terminate the stream."""
        started = time.perf_counter()
        try:
            results = orchestrator.run(scenarios)
        except ExecutionCancelled:
            elapsed = time.perf_counter() - started
            job._set_state("cancelled", elapsed)
            with job._lock:
                done = job._done
            self.bus.publish(
                JobCancelled(job=job.id, done=done, total=job.total)
            )
            return
        except BaseException:
            # The job died outside any cell (cell failures are outcomes,
            # not exceptions): backend misconfiguration, a subscriber
            # raising, an interpreter-level interrupt.  Terminate the
            # stream with the traceback so consumers see *why*.
            elapsed = time.perf_counter() - started
            job._set_state("failed", elapsed)
            self.bus.publish(
                JobFinished(
                    job=job.id,
                    total=job.total,
                    succeeded=0,
                    failed=job.total,
                    elapsed_s=elapsed,
                    error=traceback.format_exc(),
                )
            )
            return
        elapsed = time.perf_counter() - started
        failed = sum(1 for o in results if not o.ok)
        with job._lock:
            job._results = results
        job._set_state("finished", elapsed)
        self.bus.publish(
            JobFinished(
                job=job.id,
                total=job.total,
                succeeded=job.total - failed,
                failed=failed,
                elapsed_s=elapsed,
            )
        )

    def get(self, job_id: str) -> Job | None:
        """The job under ``job_id``, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Fire ``job_id``'s cancel token; returns whether it existed.

        Cancelling an already-terminal job is a harmless no-op (the
        token fires, nothing is listening any more).
        """
        job = self.get(job_id)
        if job is None:
            return False
        job.cancel_token.cancel()
        return True

    def shutdown(self, timeout: float = 30.0) -> None:
        """Cancel every live job and join the worker threads."""
        for job in self.jobs():
            job.cancel_token.cancel()
        with self._lock:
            threads = list(self._threads)
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    def stats(self) -> dict:
        """Manager-level counters for the daemon's ``/healthz``."""
        jobs = self.jobs()
        return {
            "jobs": len(jobs),
            "running": sum(1 for j in jobs if j.state == "running"),
            "dedup_builds": self.context.dedup_builds,
            "dedup_hits": self.context.dedup_hits,
        }
