"""The asyncio job manager and its JSON-lines TCP front end.

Concurrency model
-----------------

One asyncio event loop owns all bookkeeping; ``workers`` coroutine
tasks pull job ids off a bounded :class:`asyncio.Queue` and run each
attempt in a thread (``loop.run_in_executor``) so the loop stays
responsive while a job compiles, tunes and simulates.  Process-level
parallelism *inside* a job goes through ``map_tasks`` (the tune stage's
``spec.jobs``), never through the service layer — so the service never
holds unpicklable state across a process boundary.

Per-job guarantees:

* **bounded queue** — submits beyond ``queue_limit`` are rejected with
  :class:`QueueFullError` (the client sees ``queue-full``, not an
  unbounded memory ramp);
* **timeout** — each *attempt* runs under ``asyncio.wait_for`` with the
  job's (or server's default) wall-clock budget; a timed-out job ends
  in state ``timeout`` (its straggler thread is abandoned — stage work
  is pure computation over private state, so the orphan is harmless);
* **retry with backoff** — a retryable failure (:class:`WorkerDeath`,
  ``BrokenExecutor``-rooted ``RuntimeError``) re-runs the attempt after
  ``backoff * 2**(attempt-1)`` seconds, up to ``retries`` times;
  semantic errors (:class:`ReproError`: parse/type failures) never
  retry — resubmitting the same bad program cannot help;
* **cancellation** — queued jobs cancel immediately; running jobs have
  their attempt abandoned and any pending retries suppressed.

Every terminal job appends a ``kind="service"`` manifest record
(:func:`repro.service.executor.record_job`).

Wire protocol
-------------

One JSON object per line, both directions.  Requests carry ``op`` plus
op-specific fields; replies carry ``ok`` plus payload (or ``error``).

====================  ======================================================
op                    fields / reply
====================  ======================================================
``ping``              → ``{"ok": true, "pong": true}``
``submit``            ``spec``: JobSpec dict → ``{"ok": true, "id": ...}``
``status``            ``id`` → job summary
``result``            ``id`` → full job record (incl. ``result`` payload)
``wait``              ``id``, ``timeout``? → full record once terminal
``list``              → ``{"jobs": [summaries...]}``
``cancel``            ``id`` → summary after the cancel took effect
``stats``             → queue/served counters + artifact-store stats
``shutdown``          drain and stop the server (CI smoke uses this)
====================  ======================================================
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import os
import time
from typing import Optional

from repro import perf
from repro.errors import ReproError
from repro.service import executor as job_executor
from repro.service.jobs import JobRecord, JobSpec, JobState

log = logging.getLogger("repro.service")

#: Default per-attempt wall-clock budget (seconds).
DEFAULT_TIMEOUT = 300.0
#: Default retry count for retryable failures.
DEFAULT_RETRIES = 2
#: Default submit backlog bound.
DEFAULT_QUEUE_LIMIT = 64
#: First-retry backoff (seconds); doubles per attempt.
DEFAULT_BACKOFF = 0.25

ENV_TIMEOUT = "REPRO_SERVICE_TIMEOUT"
ENV_RETRIES = "REPRO_SERVICE_RETRIES"


class QueueFullError(ReproError):
    """The submit backlog is at its bound."""


def _is_retryable(exc: BaseException) -> bool:
    """Worker death and infrastructure faults retry; semantic errors
    (bad program, bad spec) never do."""
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, (RuntimeError, OSError))


class JobManager:
    """Owns the job table, the bounded queue, and the worker tasks."""

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        retries: Optional[int] = None,
        timeout: Optional[float] = None,
        backoff: float = DEFAULT_BACKOFF,
    ):
        self.jobs: dict[str, JobRecord] = {}
        self.workers = max(int(workers), 1)
        self.queue_limit = max(int(queue_limit), 1)
        self.retries = (
            retries
            if retries is not None
            else int(os.environ.get(ENV_RETRIES, DEFAULT_RETRIES))
        )
        self.default_timeout = (
            timeout
            if timeout is not None
            else float(os.environ.get(ENV_TIMEOUT, DEFAULT_TIMEOUT))
        )
        self.backoff = backoff
        self._queue: asyncio.Queue[str] = asyncio.Queue(self.queue_limit)
        self._ids = itertools.count(1)
        self._tasks: list[asyncio.Task] = []
        self._cancelled: set[str] = set()
        self._terminal_events: dict[str, asyncio.Event] = {}
        self._started = time.time()
        self.served = 0
        self.retried = 0

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        for i in range(self.workers):
            self._tasks.append(
                asyncio.create_task(self._worker(), name=f"job-worker-{i}")
            )

    async def stop(self) -> None:
        for t in self._tasks:
            t.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    # -- client operations ------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        spec.validate()
        job = JobRecord(id=f"job-{next(self._ids)}", spec=spec)
        if self._queue.full():
            perf.add("service.queue_full")
            raise QueueFullError(
                f"job queue at its bound ({self.queue_limit}); retry later"
            )
        self.jobs[job.id] = job
        self._terminal_events[job.id] = asyncio.Event()
        self._queue.put_nowait(job.id)
        perf.add("service.submitted")
        log.info("submitted %s kind=%s label=%s nprocs=%d",
                 job.id, spec.kind, spec.label, spec.nprocs)
        return job

    def get(self, job_id: str) -> JobRecord:
        job = self.jobs.get(job_id)
        if job is None:
            raise ReproError(f"unknown job id {job_id!r}")
        return job

    def cancel(self, job_id: str) -> JobRecord:
        job = self.get(job_id)
        if not job.state.terminal:
            self._cancelled.add(job_id)
            if job.state is JobState.QUEUED:
                self._finish(job, JobState.CANCELLED,
                             error="cancelled while queued")
        return job

    async def wait(self, job_id: str,
                   timeout: Optional[float] = None) -> JobRecord:
        job = self.get(job_id)
        if job.state.terminal:
            return job
        event = self._terminal_events[job_id]
        await asyncio.wait_for(event.wait(), timeout)
        return job

    def stats(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state.value] = states.get(job.state.value, 0) + 1
        return {
            "uptime_seconds": round(time.time() - self._started, 3),
            "workers": self.workers,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.queue_limit,
            "jobs": len(self.jobs),
            "served": self.served,
            "retried": self.retried,
            "states": states,
        }

    # -- execution --------------------------------------------------------------

    def _finish(self, job: JobRecord, state: JobState, *,
                error: Optional[str] = None,
                result: Optional[dict] = None) -> None:
        job.state = state
        job.error = error
        job.result = result
        job.finished_ts = time.time()
        job.stage = state.value
        self.served += 1
        event = self._terminal_events.get(job.id)
        if event is not None:
            event.set()
        try:
            job_executor.record_job(job)
        except Exception:  # manifest writes never fail a job
            log.exception("manifest record failed for %s", job.id)
        log.info("%s -> %s (%.2fs exec, %d retries)%s",
                 job.id, state.value, job.exec_seconds, job.retries,
                 f": {error}" if error else "")

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job_id = await self._queue.get()
            try:
                job = self.jobs[job_id]
                if job.state.terminal:  # cancelled while queued
                    continue
                await self._run_job(loop, job)
            finally:
                self._queue.task_done()

    async def _run_job(self, loop, job: JobRecord) -> None:
        job.state = JobState.RUNNING
        job.started_ts = time.time()
        timeout = job.spec.timeout_seconds or self.default_timeout
        attempt = 0
        while True:
            attempt += 1
            job.stage = f"attempt-{attempt}"
            try:
                result = await asyncio.wait_for(
                    loop.run_in_executor(
                        None, job_executor.execute_job, job.spec, attempt
                    ),
                    timeout,
                )
            except asyncio.TimeoutError:
                perf.add("service.timeouts")
                self._finish(
                    job, JobState.TIMEOUT,
                    error=f"attempt {attempt} exceeded {timeout:.0f}s",
                )
                return
            except Exception as e:
                if job.id in self._cancelled:
                    self._finish(job, JobState.CANCELLED,
                                 error="cancelled while running")
                    return
                if _is_retryable(e) and attempt <= self.retries:
                    job.retries += 1
                    self.retried += 1
                    perf.add("service.retries")
                    delay = self.backoff * (2 ** (attempt - 1))
                    log.warning(
                        "%s attempt %d died (%s: %s); retrying in %.2fs",
                        job.id, attempt, type(e).__name__, e, delay,
                    )
                    await asyncio.sleep(delay)
                    continue
                self._finish(job, JobState.FAILED,
                             error=f"{type(e).__name__}: {e}")
                return
            if job.id in self._cancelled:
                self._finish(job, JobState.CANCELLED,
                             error="cancelled while running")
                return
            self._finish(job, JobState.DONE, result=result)
            return


# ---------------------------------------------------------------------------
# TCP front end
# ---------------------------------------------------------------------------

#: Submit payloads are programs, not datasets; cap a line well above any
#: legitimate spec but below a memory hazard.
MAX_LINE = 8 * 1024 * 1024


async def _handle_request(manager: JobManager, req: dict,
                          shutdown: asyncio.Event) -> dict:
    op = req.get("op")
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "submit":
        spec = JobSpec.from_dict(req.get("spec") or {})
        job = manager.submit(spec)
        return {"ok": True, "id": job.id, "state": job.state.value}
    if op == "status":
        return {"ok": True, "job": manager.get(req.get("id", "")).summary()}
    if op == "result":
        return {"ok": True, "job": manager.get(req.get("id", "")).to_dict()}
    if op == "wait":
        job = await manager.wait(
            req.get("id", ""),
            None if req.get("timeout") is None else float(req["timeout"]),
        )
        return {"ok": True, "job": job.to_dict()}
    if op == "list":
        return {
            "ok": True,
            "jobs": [
                j.summary()
                for j in sorted(
                    manager.jobs.values(), key=lambda j: j.submitted_ts
                )
            ],
        }
    if op == "cancel":
        return {"ok": True, "job": manager.cancel(req.get("id", "")).summary()}
    if op == "stats":
        stats = manager.stats()
        try:
            from repro.runtime import artifacts

            store = artifacts.default_store()
            stats["artifacts"] = store.stats() if store is not None else {}
        except Exception:
            stats["artifacts"] = {}
        return {"ok": True, "stats": stats}
    if op == "shutdown":
        shutdown.set()
        return {"ok": True, "stopping": True}
    raise ReproError(f"unknown op {op!r}")


async def _client_loop(manager: JobManager, shutdown: asyncio.Event,
                       reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            try:
                line = await reader.readline()
            except (ConnectionError, asyncio.LimitOverrunError):
                return
            except asyncio.CancelledError:
                # Server teardown with this connection idle: exit
                # cleanly so loop shutdown doesn't log the cancel.
                return
            if not line:
                return
            try:
                req = json.loads(line.decode())
                if not isinstance(req, dict):
                    raise ValueError("request must be a JSON object")
                reply = await _handle_request(manager, req, shutdown)
            except asyncio.TimeoutError:
                reply = {"ok": False, "error": "wait timed out"}
            except (ReproError, ValueError, KeyError, TypeError) as e:
                reply = {"ok": False, "error": str(e) or type(e).__name__}
            writer.write((json.dumps(reply) + "\n").encode())
            await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    workers: int = 2,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    retries: Optional[int] = None,
    timeout: Optional[float] = None,
    port_file: Optional[str] = None,
    ready: Optional[asyncio.Event] = None,
    manager: Optional[JobManager] = None,
) -> None:
    """Run the service until a client sends ``shutdown``.

    ``port=0`` binds an ephemeral port; ``port_file`` (and the
    ``ready`` event, for in-process tests) publish the bound address so
    clients can find it."""
    mgr = manager if manager is not None else JobManager(
        workers=workers, queue_limit=queue_limit,
        retries=retries, timeout=timeout,
    )
    shutdown = asyncio.Event()
    await mgr.start()
    server = await asyncio.start_server(
        lambda r, w: _client_loop(mgr, shutdown, r, w),
        host, port, limit=MAX_LINE,
    )
    bound = server.sockets[0].getsockname()
    mgr.bound = bound  # type: ignore[attr-defined]
    log.info("serving on %s:%d (%d workers, queue<=%d)",
             bound[0], bound[1], mgr.workers, mgr.queue_limit)
    if port_file:
        tmp = f"{port_file}.tmp"
        with open(tmp, "w") as fh:
            fh.write(f"{bound[0]}:{bound[1]}\n")
        os.replace(tmp, port_file)
    if ready is not None:
        ready.set()
    try:
        async with server:
            await shutdown.wait()
            await self_drain(mgr)
    finally:
        await mgr.stop()
        if port_file:
            try:
                os.unlink(port_file)
            except OSError:
                pass


async def self_drain(mgr: JobManager, timeout: float = 60.0) -> None:
    """Give in-flight jobs a bounded chance to finish before stopping."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        if all(j.state.terminal for j in mgr.jobs.values()):
            return
        await asyncio.sleep(0.05)
