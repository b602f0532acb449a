"""The shared worker-pool utility (``repro.parallel``, DESIGN.md §13).

Both pool users in the codebase — batch synthesis and the synthesis
service — resolve their worker count and build their pool through this
one module, so its contract is pinned here: the ``REPRO_PARALLEL``
escape hatch, order-preserving fan-out, and pool lifecycle.
"""

import os
import signal
import time

import pytest

from repro.parallel import (
    PARALLEL_ENV,
    PoolTaskTimeout,
    WorkerPool,
    cpu_count,
    live_pool_count,
    parallel_enabled,
    resolve_workers,
    run_tasks,
    shutdown_all_pools,
    worker_seed,
)


class TestResolveWorkers:
    def test_none_means_serial(self):
        assert resolve_workers(None) == 1

    def test_one_means_serial(self):
        assert resolve_workers(1) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv(PARALLEL_ENV, raising=False)
        assert resolve_workers(0) in (1, cpu_count())

    def test_clamped_to_task_count(self, monkeypatch):
        monkeypatch.delenv(PARALLEL_ENV, raising=False)
        assert resolve_workers(8, task_count=3) <= 3
        assert resolve_workers(8, task_count=1) == 1

    def test_escape_hatch_forces_serial(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV, "0")
        assert not parallel_enabled()
        assert resolve_workers(8) == 1
        assert resolve_workers(0) == 1

    def test_env_outranks_explicit_workers(self, monkeypatch):
        # Precedence is pinned, not incidental: the escape hatch exists
        # so an operator can globally disable forking on a box where it
        # misbehaves, and an API caller must not be able to override
        # that from code.  REPRO_PARALLEL=0 beats every workers=N.
        monkeypatch.setenv(PARALLEL_ENV, "0")
        for explicit in (2, 8, 64):
            assert resolve_workers(explicit) == 1
        monkeypatch.setenv(PARALLEL_ENV, "1")
        assert resolve_workers(8) == 8

    def test_escape_hatch_off_values(self, monkeypatch):
        for value in ("false", "no", "off", "0"):
            monkeypatch.setenv(PARALLEL_ENV, value)
            assert not parallel_enabled()
        monkeypatch.setenv(PARALLEL_ENV, "1")
        assert parallel_enabled()
        monkeypatch.delenv(PARALLEL_ENV)
        assert parallel_enabled()


class TestWorkerSeed:
    def test_deterministic(self):
        assert worker_seed(7, 3) == worker_seed(7, 3)

    def test_distinct_per_index(self):
        seeds = {worker_seed(7, index) for index in range(16)}
        assert len(seeds) == 16


def _double(x):
    return 2 * x


class TestRunTasks:
    def test_serial_path_preserves_order(self):
        assert run_tasks(_double, [3, 1, 2], workers=1) == [6, 2, 4]

    def test_parallel_path_matches_serial(self, monkeypatch):
        monkeypatch.delenv(PARALLEL_ENV, raising=False)
        tasks = list(range(20))
        assert run_tasks(_double, tasks, workers=2) == [
            2 * t for t in tasks
        ]

    def test_escape_hatch_runs_inline(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV, "0")
        assert run_tasks(_double, [5, 6], workers=4) == [10, 12]


class TestWorkerPool:
    def test_rejects_serial_width(self):
        with pytest.raises(ValueError):
            WorkerPool(1)

    def test_map_ordered(self):
        with WorkerPool(2) as pool:
            assert pool.map_ordered(_double, [4, 5, 6]) == [8, 10, 12]

    def test_submit_returns_a_future(self):
        with WorkerPool(2) as pool:
            assert pool.submit(_double, 21).result() == 42


def _boom(task):
    raise RuntimeError("worker blew up")


class TestPoolLifecycle:
    """No pool may outlive its work — even on the exception path."""

    def test_context_manager_closes(self):
        before = live_pool_count()
        with WorkerPool(2) as pool:
            assert not pool.closed
            assert live_pool_count() == before + 1
        assert pool.closed
        assert live_pool_count() == before

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()
        assert pool.closed

    def test_worker_exception_still_closes_the_pool(self):
        before = live_pool_count()
        with pytest.raises(RuntimeError, match="worker blew up"):
            run_tasks(_boom, [1, 2], workers=2)
        assert live_pool_count() == before

    def test_no_pool_survives_a_failed_synthesize_all(self, monkeypatch):
        from repro.api import Session
        from repro.api import session as session_module

        monkeypatch.setattr(session_module, "_synthesize_task", _boom)
        before = live_pool_count()
        with pytest.raises(RuntimeError, match="worker blew up"):
            Session().synthesize_all(
                ["aggregation", "grace-join"],
                scale="validation",
                parallel=2,
            )
        assert live_pool_count() == before

    def test_shutdown_all_pools_reaps_leaked_pools(self):
        pool = WorkerPool(2)  # deliberately leaked: no close, no with
        assert live_pool_count() >= 1
        closed = shutdown_all_pools()
        assert closed >= 1
        assert pool.closed
        assert live_pool_count() == 0
        # Idempotent: a second sweep finds nothing to do.
        assert shutdown_all_pools() == 0


def _kill_once(task):
    """SIGKILL the worker the first time any worker sees the sentinel
    missing; every later call (post-respawn) computes normally."""
    sentinel, value = task
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return 2 * value


def _die_unless_main(task):
    """SIGKILL every *worker* process; only the inline serial fallback
    (running in the main test process) survives to return a value."""
    main_pid, value = task
    if os.getpid() != main_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return 3 * value


def _sleep_then_return(task):
    time.sleep(30)
    return task


class TestPoolResilience:
    """Worker death and runaway tasks must not take down the caller
    (DESIGN.md §16): one respawn re-running only the lost work, then a
    recorded degrade to serial, and a typed per-task timeout."""

    def test_sigkill_mid_map_respawns_and_completes(self, tmp_path):
        sentinel = str(tmp_path / "killed-once")
        with WorkerPool(2) as pool:
            results = pool.map_ordered(
                _kill_once, [(sentinel, v) for v in (1, 2, 3)]
            )
            assert results == [2, 4, 6]
            assert pool.respawns == 1
            assert not pool.degraded
            # The respawned pool keeps serving ordinary work.
            assert pool.map_ordered(_double, [5]) == [10]

    def test_persistent_worker_death_degrades_to_serial(self):
        main_pid = os.getpid()
        with WorkerPool(2) as pool:
            results = pool.map_ordered(
                _die_unless_main, [(main_pid, v) for v in (1, 2)]
            )
            assert results == [3, 6]
            assert pool.respawns == 1
            assert pool.degraded

    def test_task_timeout_raises_typed_error(self):
        with WorkerPool(2) as pool:
            with pytest.raises(PoolTaskTimeout) as excinfo:
                pool.map_ordered(
                    _sleep_then_return, [0], task_timeout=0.5
                )
            assert excinfo.value.index == 0
            assert excinfo.value.timeout == 0.5
            # The stuck worker was killed and replaced: the pool is
            # immediately usable again.
            assert pool.map_ordered(_double, [9]) == [18]

    def test_worker_exception_is_not_swallowed_by_resilience(self):
        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="worker blew up"):
                pool.map_ordered(_boom, [1])
            assert pool.respawns == 0
            assert not pool.degraded
