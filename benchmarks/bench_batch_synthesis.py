"""Batch synthesis: ``Session.synthesize_all`` serial vs process pool.

The api layer's batching claim, measured: synthesizing a batch of
Table-1 workloads through one Session with ``parallel=4`` worker
processes is faster than the same batch synthesized serially — and
returns exactly the same winners in the same (input) order.

The batch uses the join workloads (the largest search spaces, so the
work dominates the pool's fork/IPC overhead) plus the sort.  On a
single-core runner the pool cannot beat serial execution, so the
speedup gate only applies when the machine actually has ≥2 CPUs; the
determinism gate always applies.  Results are persisted to
``BENCH_batch.json`` at the repository root.
"""

import json
import os
import pathlib
import time

from repro.api import Session

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_batch.json"
)

#: Heaviest synthesis workloads first: the pool balances better when the
#: long pole starts immediately.
BATCH = (
    "bnl-with-cache",
    "grace-join",
    "bnl-join",
    "external-sort",
    "product-writeout-hdd",
    "product-writeout-hdd2",
    "product-writeout-flash",
    "dup-removal",
)

PARALLEL = 4


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def test_parallel_batch_matches_serial_and_is_faster(report):
    started = time.perf_counter()
    serial = Session().synthesize_all(BATCH, scale="table1")
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = Session().synthesize_all(
        BATCH, scale="table1", parallel=PARALLEL
    )
    parallel_seconds = time.perf_counter() - started

    # Determinism: same winners, same order, same costs.
    assert [job.workload for job in parallel] == [
        job.workload for job in serial
    ]
    for a, b in zip(serial, parallel):
        assert a.derivation == b.derivation, a.workload
        assert abs(a.opt_cost - b.opt_cost) <= 1e-9 * max(a.opt_cost, 1.0)

    cpus = _cpus()
    # Names the speed check below as it actually runs on this box.
    speed_gate = "not-slower-1.1x" if cpus >= 2 else "recorded-only"
    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    lines = [
        "Batch synthesis: Session.synthesize_all over "
        f"{len(BATCH)} Table-1 workloads",
        f"  serial:       {serial_seconds:8.2f}s",
        f"  parallel={PARALLEL}:   {parallel_seconds:8.2f}s "
        f"({speedup:.2f}x, {cpus} CPU(s))",
    ]
    report.append("\n".join(lines))
    BENCH_JSON.write_text(
        json.dumps(
            {
                "workloads": list(BATCH),
                "parallel": PARALLEL,
                "cpus": cpus,
                "serial_seconds": serial_seconds,
                "parallel_seconds": parallel_seconds,
                "speedup": speedup,
                "speed_gate": speed_gate,
                "winners": {
                    job.workload: list(job.derivation) for job in serial
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    # The speedup gate: only meaningful when the pool can actually run
    # workers concurrently.  The 10% slack absorbs fork/IPC overhead
    # jitter on contended small runners without hiding a real
    # serialization regression.
    if cpus >= 2:
        assert parallel_seconds < serial_seconds * 1.1, (
            f"parallel={PARALLEL} ({parallel_seconds:.2f}s) not faster "
            f"than serial ({serial_seconds:.2f}s) on {cpus} CPUs"
        )
