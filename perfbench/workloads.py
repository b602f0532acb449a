"""The two benchmark workloads: ``execute`` and ``serve``.

Each workload is a closed loop with one client: the runner sends the
next request only after the previous one has returned.  A workload
turns a seed and a pass number into a *pass*, a short list of requests
with a fixed composition (every pass has the same rows and the same
mix of request kinds); a run is a whole number of cycles of passes.
The seed chooses the order of a pass, small RAM jitter and the input
data, while the kinds of request stay the same; so runs with different
seeds measure the same work and the figures stay comparable.

Every workload drives ``repro`` only through public entry points:

* ``execute`` — a plan document synthesized in set-up, loaded with
  ``Job.from_json``, verified with ``verify_job`` and run on the
  ``compiled`` backend, as ``repro exec --plan`` does;
* ``serve`` — ``POST /jobs?wait=1`` to an in-process ``PlanService``.

``repro`` is imported lazily, so that :func:`setup_probe` can time the
program's own imports in a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

__all__ = ["WORKLOADS", "Outcome", "setup_probe"]

KB = 1024
JITTER_LOG2 = 0.1


@dataclass
class Outcome:
    """What one request produced, filled by ``request`` then ``check``."""

    ok: bool = True
    error: str = ""
    #: the request missed a cache: a plan-store miss (a search ran) for
    #: ``serve``, an exec-cache miss (code was generated) for ``execute``
    miss: bool = False
    #: trace-priced cost of the request's plan (``ExecutionResult.elapsed``)
    act: float | None = None
    #: the plan's estimated cost (Table 1's *Opt*)
    opt: float | None = None
    #: ``SearchStats`` document of a request that searched
    search: dict | None = None
    #: per-device counters summed, for ``execute``
    io: dict = field(default_factory=dict)
    #: ``ExecutionResult`` timings for ``execute``
    program_s: float = 0.0
    io_s: float = 0.0
    compiles: int = 0
    #: the raw result, dropped once checked
    raw: object = None


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def ram_size(hierarchy) -> int:
    """Size of the hierarchy's ``RAM`` node, which presets resize."""
    for node in hierarchy.nodes.values():
        if node.name == "RAM":
            return node.size
    return hierarchy.root.size


def preset_for(experiment) -> str:
    """The hierarchy preset that rebuilds ``experiment``'s hierarchy."""
    from repro.hierarchy import hierarchy_preset
    from repro.hierarchy.presets import HIERARCHY_PRESETS

    size = ram_size(experiment.hierarchy)
    wanted = experiment.hierarchy.to_json()
    for name in HIERARCHY_PRESETS:
        if hierarchy_preset(name, size).to_json() == wanted:
            return name
    raise ValueError(f"no hierarchy preset matches {experiment.name!r}")


def make_inputs(inputs: dict, rng: random.Random, card: int | None = None):
    """Seeded concrete data for a plan's input specs.

    Values follow each ``InputSpec`` as the file backend's own generator
    does; ``card`` replaces every cardinality (small interpreter checks).
    """
    from repro.runtime.filestore import Rec
    from repro.workloads.relations import (
        make_singleton_runs,
        make_sorted_multiset,
        make_sorted_unique,
        make_tuples,
    )

    data = {}
    for name, spec in sorted(inputs.items()):
        count = int(spec.card) if card is None else card
        width = int(spec.elem_bytes)
        key_domain = spec.key_domain if card is None else 0
        if spec.nested_runs:
            domain = key_domain or max(4 * count, 4)
            data[name] = make_singleton_runs(count, domain, rng=rng)
        elif width <= 8:
            domain = key_domain or max(4 * count, 4)
            if not spec.sorted:
                data[name] = [rng.randrange(domain) for _ in range(count)]
            elif count <= domain:
                data[name] = make_sorted_unique(count, domain, rng=rng)
            else:
                data[name] = make_sorted_multiset(count, domain, rng=rng)
        else:
            domain = key_domain or max(count, 1)
            rows = [
                Rec(row, (8, width - 8))
                for row in make_tuples(count, domain, rng=rng)
            ]
            data[name] = sorted(rows) if spec.sorted else rows
    return data


def data_digest(data: dict) -> str:
    return hashlib.sha256(repr(sorted(data.items())).encode()).hexdigest()


def pair_swap(job) -> bool:
    """``order-inputs`` derivations are equal up to pair order."""
    return "order-inputs" in job.derivation


def interpreter_agrees(job, rng: random.Random) -> bool:
    """The bound winner and the spec give the same bag on small data."""
    from repro.conformance.oracle import output_bag
    from repro.ocal.interp import evaluate

    data = make_inputs(job.inputs, rng, card=12)
    swap = pair_swap(job)
    want = output_bag(evaluate(job.spec, data), pair_swap=swap)
    return output_bag(evaluate(job.program, data), pair_swap=swap) == want


def sim_act(job) -> float:
    """Table 1's *Act*: the plan priced on the analytic backend."""
    return job.run(backend="sim").elapsed


def jittered(rng: random.Random, size: float) -> int:
    """``size`` times a seeded factor in [2^-0.1, 2^0.1]: enough to
    change the tuned plans and their cost with the seed, too little to
    change what the search does."""
    return int(size * 2.0 ** rng.uniform(-JITTER_LOG2, JITTER_LOG2))


class Workload:
    """A closed loop's request source; the runner calls, in order,
    ``prepare``, ``warm_up``, then per pass ``begin_pass``, and
    ``request`` and ``check`` for each item; and ``close`` last."""

    #: seconds one pass spends in requests on a 2-core x86 box
    PASS_SECONDS: float
    #: passes after which the rotation of sizes over the rows repeats;
    #: a run is a whole number of cycles, so every run covers each
    #: (row, size) pair equally often
    CYCLE: int

    def __init__(self, seed: int, workdir: str, tracer) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        #: what the seed chose (streams, data), for the determinism check
        self.digests: list[str] = []

    def warm_up(self) -> None:
        pass

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# execute
# ----------------------------------------------------------------------
class ExecuteWorkload(Workload):
    """Verified execution of shipped plans on the compiled backend.

    Plans are synthesized in the program's set-up (best-first, as the
    service does), one per row and RAM size, and one per ``PRODUCTS``
    row at 8 KB.  Pass ``k`` runs each product once, row ``j`` of the
    others once at RAM size ``(j + k) % 2``, and the ``MID`` rows at
    both sizes and the pass's size once more (14 requests), in a seeded
    order, on the benchmark's own seeded data.  The exec cache is cleared
    first, so every pass pays its plans' cold code generation once: a
    request that generates code is this workload's miss.
    """

    name = "execute"
    #: write-out-bound rows, run at 8 KB only.  They are the slowest
    #: requests (1.2-2.5 s) and set p90.  At both sizes, half of them ran
    #: at each size, and p90 fell between the slowest 64 KB write-out
    #: and the fastest 8 KB one, which moved it by a fifth between runs.
    PRODUCTS = (
        "product-writeout-hdd",
        "product-writeout-hdd2",
        "product-writeout-flash",
    )
    ROWS = (
        "bnl-join",
        "external-sort",
        "set-union",
        "multiset-union",
        "dup-removal",
        "column-store-5",
        "aggregation",
    )
    RAM_SIZES = (8 * KB, 64 * KB)
    PASS_SECONDS = 6.5
    CYCLE = 2
    #: rows with CPU-bound mid-length plans.  The write-out products take
    #: 1.2-2.5 s, these 0.15-0.35 s and the rest 10-200 ms (set-union
    #: 0.13-0.18 s): with these at both sizes, and the pass's size twice
    #: (the second run from the exec cache), every pass has the same seven
    #: mid-length requests, p50 falls in their middle and p90 among the
    #: products, not in a gap between two groups, and not among the short
    #: scans, whose file-system-bound latency swings most with the
    #: machine's speed.
    MID = ("bnl-join", "column-store-5")

    @classmethod
    def requests(cls) -> list[dict]:
        from repro.api.catalog import default_registry

        registry = default_registry()
        docs = []
        for row in cls.PRODUCTS + cls.ROWS:
            preset = preset_for(registry.experiment(row, "validation"))
            sizes = cls.RAM_SIZES[:1] if row in cls.PRODUCTS else cls.RAM_SIZES
            for ram in sizes:
                docs.append({
                    "workload": row,
                    "scale": "validation",
                    "hierarchy": preset,
                    "ram_size": ram,
                })
        return docs

    @classmethod
    def program_setup(cls, seed: int) -> dict:
        from repro.service.worker import synthesize_request

        return {
            "plans": [
                synthesize_request((doc, None))["plan"]
                for doc in cls.requests()
            ]
        }

    def prepare(self, probe: dict) -> None:
        from repro.api.job import Job
        from repro.conformance.oracle import output_bag
        from repro.ocal.interp import evaluate

        rng = random.Random(f"execute:{self.seed}")
        self.plans = probe["plans"]
        # One data set and one reference bag per (spec, input specs):
        # the interpreter costs about as much as the execution, so the
        # expected bags are computed here, outside the timed loop.
        self.cases = []
        cache: dict[str, tuple] = {}
        for doc in self.plans:
            job = Job.from_json(doc)
            key = json.dumps([doc["spec"], doc["inputs"]], sort_keys=True)
            if key not in cache:
                data = make_inputs(job.inputs, rng)
                self.digests.append(data_digest(data))
                result = evaluate(job.spec, data)
                cache[key] = (
                    data,
                    output_bag(result),
                    output_bag(result, pair_swap=True),
                )
            data, bag, swapped = cache[key]
            self.cases.append((data, swapped if pair_swap(job) else bag))

    def begin_pass(self, number: int) -> list:
        """The pass's plan indices in a seeded order."""
        from repro.codegen.py_codegen import clear_exec_cache

        clear_exec_cache()
        sizes = len(self.RAM_SIZES)
        products = len(self.PRODUCTS)
        order = list(range(products))
        for j, row in enumerate(self.ROWS):
            first = products + j * sizes
            if row in self.MID:
                order += [first + size for size in range(sizes)]
            order.append(first + (j + number) % sizes)
        random.Random(f"execute:{self.seed}:{number}").shuffle(order)
        self.digests.append(json.dumps(order))
        return order

    def request(self, index: int) -> Outcome:
        from repro.analysis import errors, verify_job
        from repro.api.job import Job
        from repro.codegen.py_codegen import exec_cache_size
        from repro.runtime.compiled_backend import CompiledBackend

        cached = exec_cache_size()
        job = Job.from_json(self.plans[index])
        diagnostics = self.tracer.call(
            "analysis.verify_plan", verify_job, job
        )
        if errors(diagnostics):
            raise RuntimeError("plan fails verification")
        backend = CompiledBackend(
            data=self.cases[index][0], capture_output=True
        )
        result = job.run(backend=backend).execution
        compiles = exec_cache_size() - cached
        return Outcome(
            miss=compiles > 0,
            compiles=compiles,
            raw=(job, result, backend.last_output),
        )

    def check(self, position: int, index: int, outcome: Outcome) -> None:
        from repro.conformance.oracle import output_bag

        job, result, output = outcome.raw
        if output_bag(output, pair_swap=pair_swap(job)) != (
            self.cases[index][1]
        ):
            outcome.ok, outcome.error = False, "output bag differs"
            return
        outcome.opt = job.opt_cost
        outcome.act = result.elapsed
        outcome.program_s = result.wall_seconds
        outcome.io_s = result.measured_io_seconds
        io = {"reads": 0, "writes": 0, "seeks": 0,
              "bytes_read": 0, "bytes_written": 0}
        for stats in result.stats.devices.values():
            for name in io:
                io[name] += getattr(stats, name)
        outcome.io = io


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    """The HTTP front door over a fresh plan store per run.

    44 distinct validation requests (11 workloads x 2 RAM sizes x 2
    strategies), a quarter per pass: pass ``k`` sends row ``j`` at
    (RAM size, strategy) ``COMBOS[(j + k) % 4]`` once (its miss: search,
    store put, memo spill) and 27 repeats of the pass's 11 requests,
    Zipf-weighted over a fixed ranking of the rows (hits: canonicalize,
    spec verification, store get), in a seeded order: 38 requests.  RAM
    sizes are 8 KB and 64 KB, jittered by the seed once per (row, size),
    so the second strategy's search of a (row, size) in a later pass
    warm-starts from the memo the first one spilled.
    """

    name = "serve"
    ROWS = (
        "bnl-join",
        "grace-join",
        "product-writeout-hdd",
        "product-writeout-hdd2",
        "product-writeout-flash",
        "external-sort",
        "set-union",
        "multiset-union",
        "dup-removal",
        "column-store-5",
        "aggregation",
    )
    RAM_SIZES = (8 * KB, 64 * KB)
    #: (RAM size, strategy) pairs, rotated over the rows pass by pass
    COMBOS = tuple(
        (ram, strategy)
        for ram in RAM_SIZES
        for strategy in ("best-first", "exhaustive-bfs")
    )
    REPEATS = 27
    ZIPF_S = 1.0
    PASS_SECONDS = 4
    CYCLE = len(COMBOS)

    def __init__(self, seed: int, workdir: str, tracer) -> None:
        super().__init__(seed, workdir, tracer)
        self.service = None

    @staticmethod
    def program_setup(seed: int) -> dict:
        from repro.service.server import PlanService

        store = tempfile.mkdtemp(prefix="probe-store-")
        service = PlanService(store, port=0, workers=1).start_background()
        ready = time.perf_counter()
        service.stop()
        shutil.rmtree(store, ignore_errors=True)
        return {"ready": ready}

    def prepare(self, probe: dict) -> None:
        from repro.api.catalog import default_registry

        registry = default_registry()
        self.presets = [
            (row, preset_for(registry.experiment(row, "validation")))
            for row in self.ROWS
        ]

    def warm_up(self) -> None:
        """Each row once, best-first at its own RAM, through a throwaway
        server, untimed: the first searches in a process fill its
        interning and compiled-expression caches and run up to twice as
        long."""
        self._start()
        try:
            for row in self.ROWS:
                self.request(json.dumps(
                    {"workload": row, "scale": "validation"}
                ))
        finally:
            self._stop()

    def begin_pass(self, number: int) -> list:
        """The pass's requests; the first pass starts a fresh server over
        a fresh store.  Every four passes draw fresh RAM jitter, so no
        problem repeats across passes."""
        cycle, turn = divmod(number, len(self.COMBOS))
        sizes = random.Random(f"serve-ram:{self.seed}:{cycle}")
        distinct = []
        for j, (row, preset) in enumerate(self.presets):
            jitter = {ram: jittered(sizes, ram) for ram in self.RAM_SIZES}
            ram, strategy = self.COMBOS[(j + turn) % len(self.COMBOS)]
            distinct.append(json.dumps({
                "workload": row,
                "scale": "validation",
                "strategy": strategy,
                "hierarchy": preset,
                "ram_size": jitter[ram],
            }, sort_keys=True))
        stream = list(distinct)
        for index, count in enumerate(self.repeat_counts()):
            stream += [distinct[index]] * count
        random.Random(f"serve:{self.seed}:{number}").shuffle(stream)
        self.digests.append("\n".join(stream))
        if self.service is None:
            self._start()
        return stream

    def repeat_counts(self) -> list[int]:
        """Zipf-weighted repeat counts over a fixed ranking of the rows,
        rounded to sum to ``REPEATS``: every pass repeats each row
        equally often, in a seeded order."""
        count = len(self.ROWS)
        ranking = list(range(count))
        random.Random("serve-ranking").shuffle(ranking)
        weights = [0.0] * count
        for rank, index in enumerate(ranking):
            weights[index] = 1.0 / (rank + 1) ** self.ZIPF_S
        quotas = [self.REPEATS * w / sum(weights) for w in weights]
        counts = [int(q) for q in quotas]
        remainders = sorted(
            range(count), key=lambda i: quotas[i] - counts[i], reverse=True
        )
        for index in remainders[: self.REPEATS - sum(counts)]:
            counts[index] += 1
        return counts

    def _start(self) -> None:
        from repro.service.server import PlanService

        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        self.service = PlanService(
            self.store_dir, port=0, workers=1
        ).start_background()
        self.stored = {}

    def _stop(self) -> None:
        self.service.stop()
        self.service = None
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def request(self, body: str) -> Outcome:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=120
        )
        try:
            connection.request(
                "POST", "/jobs?wait=1", body=body.encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {payload[:200]!r}")
        return Outcome(raw=payload)

    def check(self, position: int, body: str, outcome: Outcome) -> None:
        from repro.analysis import errors, verify_job
        from repro.api.job import Job

        doc = json.loads(outcome.raw)
        plan = json.dumps(doc.get("plan"), sort_keys=True)
        # Plans are keyed by the server's digest, not the body: two
        # bodies can resolve to one search problem, and the second is a
        # hit.
        digest = doc.get("digest")
        if doc.get("state") != "done":
            outcome.ok, outcome.error = False, f"job {doc.get('state')}"
        elif doc.get("source") == "search":
            outcome.miss = True
            outcome.search = doc["search"]
            if digest in self.stored:
                outcome.ok, outcome.error = False, "searched twice"
                return
            self.stored[digest] = plan
            job = Job.from_json(doc["plan"])
            if errors(verify_job(job)):
                outcome.ok, outcome.error = False, "plan fails verification"
                return
            rng = random.Random(f"serve-check:{self.seed}:{position}")
            if not interpreter_agrees(job, rng):
                outcome.ok, outcome.error = False, "winner disagrees with spec"
                return
            outcome.opt = job.opt_cost
            outcome.act = sim_act(job)
        elif self.stored.get(digest) != plan:
            outcome.ok, outcome.error = False, "hit differs from stored plan"

    def close(self) -> None:
        if self.service is not None:
            self._stop()


WORKLOADS = {
    workload.name: workload
    for workload in (ExecuteWorkload, ServeWorkload)
}


def setup_probe(name: str, seed: int) -> dict:
    """The program's own set-up for one workload, timed in this fresh
    interpreter: imports, registry, plan synthesis for ``execute`` and
    server start for ``serve``."""
    started = time.perf_counter()
    probe = WORKLOADS[name].program_setup(seed)
    probe["setup_s"] = probe.pop("ready", time.perf_counter()) - started
    return probe
