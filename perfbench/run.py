"""Request-level benchmark of the out-of-core synthesizer.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` reports per-layer metrics from a traced run, and the
tracing overhead against the run's own untraced passes.  Every
metric is printed with its unit, then a JSON line with the run's
provenance, and last a JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md in this directory for the workloads and
the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from bisect import bisect_left
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: fresh interpreters that time the program's set-up; ``setup_s`` is
#: their median.
SETUP_PROBES = 5

#: seconds :func:`reference_loop` takes in a calm phase of a 2-core
#: Xeon VM at 2.0 GHz: the speed every end-to-end timing is scaled to.
REFERENCE_LOOP_S = 0.0025

#: the block :func:`reference_loop` writes into a pipe and reads back
REFERENCE_BLOCK = b"x" * 4096

#: end-to-end timings of the loop scaled to the reference speed; a rate
#: is divided by the scale, the others multiplied.  Each set-up probe
#: scales its own ``setup_s``.
SCALED = ("latency_p50_s", "latency_p90_s", "miss_latency_mean_s")
SCALED_RATES = ("throughput_rps",)

#: :func:`reference_loop` samples each set-up probe takes after set-up
PROBE_REFERENCES = 25

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_rps": "1/s",
    "miss_latency_mean_s": "s",
    "act_cost_gmean_s": "s",
    "peak_rss_mb": "MB",
}

#: span name -> per-layer metric (mean seconds per traced request).
SPAN_METRICS = {
    "service.canonicalize": "service.canonicalize_s",
    "service.resolve": "service.resolve_s",
    "service.store_get": "service.store_get_s",
    "service.store_put": "service.store_put_s",
    "service.memo_load": "service.memo_load_s",
    "service.memo_dump": "service.memo_dump_s",
    "analysis.verify_spec": "analysis.verify_spec_s",
    "analysis.verify_plan": "analysis.verify_plan_s",
    "search.synthesize": "search.synthesize_s",
    "rules.enumerate": "rules.enumerate_s",
    "cost.estimate": "cost.estimate_s",
    "cost.lower_bound": "cost.lower_bound_s",
    "optimizer.tune": "optimizer.tune_s",
    "codegen.compile": "codegen.compile_s",
    "runtime.execute": "runtime.execute_s",
}

#: counter name -> per-layer metric (mean count per traced request).
COUNT_METRICS = {
    "service.store_hits": "service.store_hits",
    "service.store_misses": "service.store_misses",
    "service.memo_entries_loaded": "service.memo_entries_loaded",
    "service.memo_entries_spilled": "service.memo_entries_spilled",
    "service.memo_spill_bytes": "service.memo_spill_bytes",
    "analysis.errors": "analysis.errors",
    "rules.enumerate": "rules.rewrites",
    "cost.estimates": "cost.estimates",
    "optimizer.tunings": "optimizer.tunings",
}

SEARCH_CHILDREN = (
    "rules.enumerate", "cost.estimate", "cost.lower_bound", "optimizer.tune",
)
SEARCH_COUNTS = ("space", "expanded", "pruned", "costed")
IO_COUNTS = ("reads", "writes", "seeks", "bytes_read", "bytes_written")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def gmean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def reference_loop(pipe: tuple[int, int]) -> float:
    """Seconds a fixed loop takes that calls no ``repro`` code: a sample
    of how fast this machine runs Python and the kernel right now.
    Half of it is list, sort and JSON work, half 4 KB writes and reads
    through ``pipe``: the workloads spend their time in both, and the
    host's slow phases slow the two alike, but not exactly alike."""
    read, write = pipe
    begin = time.perf_counter()
    rows = [{"key": i * 7919 % 1009, "name": f"r{i}"} for i in range(600)]
    rows.sort(key=lambda row: (row["key"], row["name"]))
    json.loads(json.dumps(rows))
    for _ in range(1000):
        os.write(write, REFERENCE_BLOCK)
        os.read(read, len(REFERENCE_BLOCK))
    return time.perf_counter() - begin


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def run_setup_probes(workload: str, seed: int) -> list[dict]:
    """Time the program's set-up in fresh interpreters, one at a time."""
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed:\n{done.stderr[-2000:]}"
            )
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Record:
    __slots__ = ("number", "traced", "reference", "start", "latency",
                 "outcome")

    def __init__(self, number, traced, reference, start, latency, outcome):
        self.number = number
        self.traced = traced
        #: seconds of :func:`reference_loop` just before the request
        self.reference = reference
        self.start = start
        self.latency = latency
        self.outcome = outcome


def run_passes(workload, tracer, seconds: float, trace: bool):
    """Run as many whole cycles of passes as fit ``seconds`` at the
    workload's nominal pass duration, at least one.  The count does not
    depend on how fast this machine is at the moment, so every run of a
    workload does the same work.  A traced run traces every other cycle,
    the first included, and runs at least two: the untraced cycles are
    the baseline for the tracing overhead."""
    from workloads import Outcome

    records: list[Record] = []
    errors: list[str] = []
    cycle = workload.CYCLE
    cycles = max(1 + trace, round(seconds / (workload.PASS_SECONDS * cycle)))
    passes = cycles * cycle
    position = 0
    pipe = os.pipe()
    for number in range(passes):
        traced = trace and (number // cycle) % 2 == 0
        for item in workload.begin_pass(number):
            reference = reference_loop(pipe)
            tracer.active = traced
            begin = time.perf_counter()
            try:
                outcome = workload.request(item)
            # A failed request is counted, and the loop goes on.
            except Exception as error:  # lint: allow-broad-except
                traceback.print_exc()
                outcome = Outcome(ok=False, error=repr(error))
            latency = time.perf_counter() - begin
            tracer.active = False
            if outcome.ok:
                try:
                    workload.check(position, item, outcome)
                except Exception as error:  # lint: allow-broad-except
                    traceback.print_exc()
                    outcome.ok, outcome.error = False, repr(error)
            outcome.raw = None
            if not outcome.ok:
                errors.append(outcome.error)
            records.append(
                Record(number, traced, reference, begin, latency, outcome)
            )
            position += 1
    for end in pipe:
        os.close(end)
    return records, passes, errors


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(records, probes) -> tuple[dict, dict, dict]:
    """Latency percentiles are taken over every request of the run;
    throughput and the mean miss latency are medians over the run's
    passes of their value in one pass, so that a slow spell of the
    machine that spans a pass moves them little.  ``samples`` gives the
    count behind each value, per pass for the medians over passes.

    The host's speed drifts by up to 1.7x over minutes, for every
    workload at once, so the timings are then scaled to the reference
    speed: multiplied by ``REFERENCE_LOOP_S`` over the median of the
    :func:`reference_loop` samples taken before each request of the
    run.  ``machine`` records that median, the scale and the unscaled
    values."""
    passes: dict[int, list[Record]] = {}
    for record in records:
        passes.setdefault(record.number, []).append(record)
    pooled = [r.latency for r in records]
    latencies = [[r.latency for r in group] for group in passes.values()]
    misses = [
        [r.latency for r in group if r.outcome.miss]
        for group in passes.values()
    ]
    completed = [
        sum(r.outcome.ok for r in group) for group in passes.values()
    ]
    acts = [r.outcome.act for r in records if r.outcome.act is not None]
    metrics = {
        "setup_s": statistics.median(
            p["setup_s"] * REFERENCE_LOOP_S / p["reference_loop_s"]
            for p in probes
        ),
        "latency_p50_s": statistics.median(pooled),
        "latency_p90_s": p90(pooled),
        "throughput_rps": statistics.median(
            done / sum(group) for done, group in zip(completed, latencies)
        ),
        "miss_latency_mean_s": statistics.median(
            statistics.fmean(group) for group in misses if group
        ),
        "act_cost_gmean_s": gmean(acts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    samples = {
        "setup_s": len(probes),
        "latency_p50_s": len(pooled),
        "latency_p90_s": len(pooled),
        "beyond_latency_p90_s": sum(
            v > metrics["latency_p90_s"] for v in pooled
        ),
        "throughput_rps": [len(group) for group in latencies],
        "miss_latency_mean_s": [len(group) for group in misses],
        "act_cost_gmean_s": len(acts),
        "reference_loop_s": len(records),
    }
    reference = statistics.median(r.reference for r in records)
    scale = REFERENCE_LOOP_S / reference
    machine = {
        "reference_loop_s": reference,
        "scale": scale,
        "unscaled": {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            **{name: metrics[name] for name in SCALED + SCALED_RATES},
        },
    }
    for name in SCALED:
        metrics[name] *= scale
    for name in SCALED_RATES:
        metrics[name] /= scale
    return metrics, samples, machine


def per_layer(records, tracer) -> dict:
    """Per-layer metrics, as means per traced request."""
    from tracer import covered_seconds

    untraced_latency = statistics.fmean(
        r.latency for r in records if not r.traced
    )
    records = [r for r in records if r.traced]
    n = len(records)
    seconds = tracer.layer_seconds()
    metrics = {
        metric: seconds.get(span, 0.0) / n
        for span, metric in SPAN_METRICS.items()
    }
    metrics["search.self_s"] = (
        seconds.get("search.synthesize", 0.0)
        - tracer.child_seconds("search.synthesize", SEARCH_CHILDREN)
    ) / n
    for counter, metric in COUNT_METRICS.items():
        metrics[metric] = tracer.counts.get(counter, 0) / n

    searches = [r.outcome.search for r in records if r.outcome.search]
    for name in SEARCH_COUNTS:
        metrics[f"search.{name}"] = sum(s[name] for s in searches) / n
    opts = [r.outcome.opt for r in records if r.outcome.opt]
    metrics["search.opt_cost_gmean_s"] = gmean(opts) if opts else 0.0
    for kind, hit, miss in (
        ("memo", "cache_hits", "cache_misses"),
        ("subtree", "subtree_hits", "subtree_misses"),
    ):
        hits = sum(s[hit] for s in searches)
        lookups = hits + sum(s[miss] for s in searches)
        metrics[f"cost.{kind}_hit_rate"] = ratio(hits, lookups)
        metrics[f"cost.{kind}_hits"] = hits / n
        metrics[f"cost.{kind}_lookups"] = lookups / n

    metrics["codegen.compiles"] = sum(r.outcome.compiles for r in records) / n
    program = sum(r.outcome.program_s for r in records) / n
    io = sum(r.outcome.io_s for r in records) / n
    metrics["runtime.program_s"] = program
    metrics["runtime.io_s"] = io
    metrics["runtime.cpu_s"] = program - io
    metrics["runtime.materialize_s"] = (
        metrics["runtime.execute_s"] - program if program else 0.0
    )
    for name in IO_COUNTS:
        metrics[f"runtime.{name}"] = (
            sum(r.outcome.io.get(name, 0) for r in records) / n
        )

    # Coverage: the union of top-level spans inside each request window.
    spans = sorted(tracer.top_level())
    starts = [lo for lo, _ in spans]
    total = covered = 0.0
    for record in records:
        end = record.start + record.latency
        window = spans[bisect_left(starts, record.start):
                       bisect_left(starts, end)]
        covered += covered_seconds(window, record.start, end)
        total += record.latency
    metrics["service.unattributed_s"] = (total - covered) / n
    metrics["trace.coverage"] = ratio(covered, total)
    metrics["trace.traced_latency_mean_s"] = total / n
    metrics["trace.untraced_latency_mean_s"] = untraced_latency
    metrics["trace.overhead_ratio"] = ratio(total / n, untraced_latency)
    metrics["trace.spans"] = len(tracer.spans) / n
    return metrics


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_rate", "_ratio", ".coverage")):
        return "ratio"
    if metric.endswith("_bytes") or metric.startswith("runtime.bytes"):
        return "bytes"
    return "count"


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def revision() -> dict:
    """The git revision when there is one, and a digest of ``src/``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    git = None
    # Only the checkout's own repository: git would otherwise search the
    # directories above it.
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            if head.returncode == 0:
                git = head.stdout.strip()
        except OSError:
            pass
    return {"git_revision": git, "src_sha256": digest.hexdigest()}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the whole run, the server's threads and the set-up
    # probes included: a hand-off between threads then never waits for
    # an idle vCPU to be woken, which on a shared host took up to twice
    # as long in its slow phases and made short requests unsteady.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Everything the program and the benchmark write stays inside the
    # checkout: the file backend's run directories, stores, spills.
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = tempfile.mkdtemp(dir=scratch)
    try:
        return measure(args)
    finally:
        shutil.rmtree(tempfile.tempdir, ignore_errors=True)


def measure(args) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, setup_probe

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        probe = setup_probe(args.workload, args.seed)
        pipe = os.pipe()
        probe["reference_loop_s"] = statistics.median(
            reference_loop(pipe) for _ in range(PROBE_REFERENCES)
        )
        print(json.dumps(probe))
        return 0

    from tracer import Tracer

    probes = run_setup_probes(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-")
    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
    try:
        workload.prepare(probes[-1])
        # The benchmark's own data (inputs, reference bags, plans) is
        # kept out of the collector's scans: every full collection in a
        # request would otherwise walk it, at a cost that depends on the
        # benchmark rather than the program and added up to a fifth to a
        # request's latency at random.
        gc.collect()
        gc.freeze()
        workload.warm_up()
        if args.trace:
            tracer.install()
        records, passes, errors = run_passes(
            workload, tracer, args.seconds, bool(args.trace)
        )
    finally:
        workload.close()
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    consistent = all(
        p.get("plans") == probes[0].get("plans") for p in probes
    )
    metrics, samples, machine = end_to_end(records, probes)
    if args.trace:
        metrics = per_layer(records, tracer)
    failed = sum(not r.outcome.ok for r in records)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed",
        "clients": 1,
        "passes": passes,
        "requests": len(records),
        "samples": samples,
        "machine": machine,
        "latency_mean_s": statistics.fmean(r.latency for r in records),
        "failed_ratio": failed / len(records),
        "errors": sorted(set(errors))[:5],
        "set_up_plans_identical": consistent,
        "inputs_sha256": hashlib.sha256(
            "\n".join(workload.digests).encode()
        ).hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **revision(),
    }
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {unit_of(name)}")
    print(f"{'failed_ratio':32s} {info['failed_ratio']:.6g} ratio")
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
