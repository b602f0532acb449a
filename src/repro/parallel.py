"""The one worker-pool construction path (DESIGN.md §13).

Both process pools in the repository — batch synthesis across
workloads (``Session.synthesize_all(parallel=N)``) and the synthesis
service's search workers (``PlanService(workers=N)``) — build their pool
here, so policy lives in exactly one place:

* **escape hatch** — ``REPRO_PARALLEL=0`` forces every pool user serial,
  regardless of any ``workers=`` option (read per call, so tests can
  monkeypatch the environment).  Precedence is deliberate and pinned by
  tests: the environment *always* wins over an explicit ``workers=N`` —
  the hatch exists so an operator can globally disable forking on a
  box where it misbehaves, and an API caller must not be able to
  override that from code;
* **lifecycle** — every live pool is tracked in a module registry;
  :func:`shutdown_all_pools` (registered via :mod:`atexit`) closes
  whatever survived, so an abandoned pool cannot outlive the
  interpreter even when an exception skipped the owner's cleanup;
* **auto sizing** — ``workers=0`` means "one worker per available CPU"
  (scheduling affinity, not raw core count);
* **fork only** — pools use the ``fork`` start method (workers inherit
  interned AST tables and device descriptors for free); on platforms
  without it every user silently degrades to serial, which computes
  the same results in one process;
* **per-worker seeding** — :func:`worker_seed` derives a stable,
  distinct seed per (base seed, index) for callers that need
  reproducible independent random streams.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import weakref
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor

__all__ = [
    "PARALLEL_ENV",
    "parallel_enabled",
    "cpu_count",
    "fork_available",
    "resolve_workers",
    "worker_seed",
    "PoolTaskTimeout",
    "WorkerPool",
    "run_tasks",
    "live_pool_count",
    "shutdown_all_pools",
]

#: setting this to ``0`` (or ``false``/``no``/``off``) disables every
#: process pool in the repository.
PARALLEL_ENV = "REPRO_PARALLEL"


def parallel_enabled() -> bool:
    """Is parallel execution allowed?  Read per call (monkeypatchable)."""
    return os.environ.get(PARALLEL_ENV, "1").strip().lower() not in (
        "0", "false", "no", "off",
    )


def cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def fork_available() -> bool:
    """Can we start workers by forking (required by every pool)?"""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(workers: "int | None", task_count: "int | None" = None) -> int:
    """Effective worker count for one pool user.

    ``None`` and ``1`` mean serial; ``0`` means auto (one worker per
    available CPU); ``N > 1`` means exactly ``N``.  The result is
    clamped to ``task_count`` when given (never more workers than
    units of work), forced to ``1`` when ``REPRO_PARALLEL=0`` or the
    platform cannot fork, and negative counts are rejected.  The
    environment escape hatch outranks every explicit request: with
    ``REPRO_PARALLEL=0`` set, ``workers=8`` still resolves to ``1``.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = cpu_count()
    if task_count is not None:
        workers = min(workers, max(1, int(task_count)))
    if workers > 1 and not (parallel_enabled() and fork_available()):
        return 1
    return max(1, workers)


def worker_seed(base_seed: int, index: int) -> int:
    """A stable, distinct 63-bit seed for worker ``index``."""
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


#: every not-yet-closed :class:`WorkerPool`; weak so a collected pool
#: does not keep the registry growing.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def live_pool_count() -> int:
    """How many worker pools are currently open (lifecycle tests)."""
    return sum(1 for pool in _LIVE_POOLS if not pool.closed)


def shutdown_all_pools() -> int:
    """Close every pool still open; returns how many needed closing.

    Registered with :mod:`atexit` so stray pools (an exception path
    that skipped its owner's cleanup, a user-constructed pool that was
    never closed) cannot leave worker processes behind at interpreter
    exit.  Safe to call any number of times.
    """
    closed = 0
    for pool in list(_LIVE_POOLS):
        if not pool.closed:
            pool.close()
            closed += 1
    return closed


atexit.register(shutdown_all_pools)


class PoolTaskTimeout(RuntimeError):
    """One pool task exceeded its per-task wall-clock budget.

    Carries the index of the task that timed out; the pool has already
    been torn down and respawned (the only way to actually stop a
    running fork worker), so the caller may retry on the same pool.
    """

    def __init__(self, index: int, timeout: float):
        super().__init__(
            f"pool task {index} exceeded its {timeout:g}s budget"
        )
        self.index = index
        self.timeout = timeout


class WorkerPool:
    """The repository's only process-pool wrapper (fork start method).

    Ordered fan-out (:meth:`map_ordered`) over a
    ``ProcessPoolExecutor``.  Use as a context manager or call
    :meth:`close`.

    The pool survives worker death (DESIGN.md §16): a killed child
    breaks a ``ProcessPoolExecutor`` permanently, so on the first
    ``BrokenProcessPool`` the pool respawns its executor once and
    re-runs *only* the tasks that had not finished; if the respawned
    executor breaks too, the remaining tasks run inline (serial) and
    :attr:`degraded` records the downgrade.  Ordinary worker
    exceptions still propagate unchanged — resilience is for dead
    processes, not for failing tasks.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("WorkerPool needs at least 2 workers")
        if not fork_available():  # pragma: no cover - non-posix
            raise OSError("fork start method unavailable")
        self.workers = workers
        self._pool = self._spawn()
        self._closed = False
        #: times the broken executor was replaced with a fresh one.
        self.respawns = 0
        #: set once a fan-out had to finish inline (serial fallback).
        self.degraded = False
        _LIVE_POOLS.add(self)

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
        )

    def _respawn(self) -> None:
        """Replace the (broken) executor; best-effort teardown of the old."""
        old = self._pool
        self._pool = self._spawn()
        self.respawns += 1
        self._terminate(old)

    @staticmethod
    def _terminate(executor: ProcessPoolExecutor) -> None:
        """Tear one executor down, killing workers that will not exit.

        ``shutdown(wait=False)`` alone would leave a wedged worker
        running forever; terminating the child processes is the only
        real cancellation fork workers support.
        """
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (closing is idempotent)."""
        return self._closed

    def submit(self, fn, task) -> Future:
        """Submit one task; returns the executor's future.

        The async service wraps this with ``asyncio.wrap_future`` to
        await fork-pool work without blocking the event loop.  A
        ``BrokenProcessPool`` surfacing from the future is the caller's
        signal to :meth:`reset` (the raw submit path has no re-run
        bookkeeping of its own).
        """
        return self._pool.submit(fn, task)

    def reset(self) -> None:
        """Replace a broken executor so later submits run on live workers."""
        if not self._closed:
            self._respawn()

    def map_ordered(self, fn, tasks, task_timeout: float | None = None) -> list:
        """Run ``fn`` over ``tasks``; results in input order.

        A worker *exception* propagates to the caller (callers that
        need graceful degradation catch inside the worker function and
        return an error marker instead).  Worker *death* does not: lost
        tasks are re-run once on a respawned executor, then inline —
        see the class docstring.  With ``task_timeout`` set, a task
        exceeding the budget raises :class:`PoolTaskTimeout` after the
        stuck workers are killed and the pool respawned.
        """
        tasks = list(tasks)
        results: list = [None] * len(tasks)
        pending = list(range(len(tasks)))
        respawned = False
        while pending:
            broken = False
            completed: list[int] = []
            try:
                futures = {
                    index: self._pool.submit(fn, tasks[index])
                    for index in pending
                }
            except BrokenExecutor:
                broken = True
                futures = {}
            for index in pending:
                if broken:
                    break
                try:
                    results[index] = futures[index].result(
                        timeout=task_timeout
                    )
                    completed.append(index)
                except BrokenExecutor:
                    broken = True
                except TimeoutError:
                    self._respawn()
                    raise PoolTaskTimeout(index, task_timeout) from None
            pending = [i for i in pending if i not in set(completed)]
            if not pending:
                break
            if not broken:  # pragma: no cover - defensive
                raise RuntimeError("pool lost tasks without breaking")
            if not respawned:
                respawned = True
                self._respawn()
                continue
            # Second break: give up on processes, finish inline.
            self.degraded = True
            for index in pending:
                results[index] = fn(tasks[index])
            pending = []
        return results

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _LIVE_POOLS.discard(self)
        self._pool.shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_tasks(
    fn, tasks, workers: int, task_timeout: float | None = None
) -> list:
    """Ordered fan-out with inline serial fallback.

    ``workers`` is clamped to ``len(tasks)``; a resolved count of one
    (including the ``REPRO_PARALLEL=0`` and fork-unavailable cases)
    runs ``fn`` inline in submission order — same results, one process.
    ``task_timeout`` bounds each parallel task's wall clock (inline
    runs are not interruptible and ignore it).
    """
    tasks = list(tasks)
    workers = resolve_workers(workers, task_count=len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    with WorkerPool(workers) as pool:
        return pool.map_ordered(fn, tasks, task_timeout=task_timeout)
