"""The conformance **chaos lane**: generated programs × injected faults.

The differential oracle (:mod:`repro.conformance.oracle`) checks that
every backend computes the right bag when I/O succeeds.  This lane
checks the complementary contract (DESIGN.md §16): when I/O *fails* —
under a seeded :class:`~repro.runtime.faults.FaultPlan` of transient
errors, torn writes, injected ``ENOSPC`` and latency spikes — every
run must end in exactly one of two states:

* **recovered** — the bounded retry machinery absorbed every fault and
  the output bag is byte-identical to the fault-free run;
* **clean fault** — a typed, positioned
  :class:`~repro.runtime.faults.ExecutionFault` (device, op, offset).

Anything else — a differing bag, a raw traceback, a hang — is a chaos
failure, reported with the exact injected-fault schedule so the pair
replays deterministically.  Entry points: ``python -m repro fuzz
--faults SEED`` and ``tests/conformance/test_chaos.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..parallel import worker_seed
from ..runtime.accounting import ExecutionError
from ..runtime.compiled_backend import CompiledBackend
from ..runtime.faults import CHAOS_RATES, RATE_KEYS, ExecutionFault, FaultPlan
from ..runtime.file_backend import FileBackend
from .generator import GenConfig, ProgramGenerator
from .oracle import Oracle, OracleConfig, output_bag

__all__ = ["LANES", "ChaosFailure", "ChaosResult", "run_chaos"]

#: the execution lanes every fault schedule is run through.
LANES = ("file", "compiled")

#: a plan that injects nothing — used for the fault-free baseline so a
#: ``REPRO_FAULTS`` environment setting cannot leak into the reference.
_ZERO_RATES = {key: 0.0 for key in RATE_KEYS}


@dataclass
class ChaosFailure:
    """One (program, fault-schedule, lane) run that broke the contract."""

    index: int
    lane: str
    variant: int
    kind: str  # "corrupt-bag" | "unclean-error" | "untyped-fault"
    detail: str
    schedule: dict

    def describe(self) -> str:
        return (
            f"case {self.index} lane={self.lane} variant={self.variant}: "
            f"{self.kind} — {self.detail}"
        )


@dataclass
class ChaosResult:
    """Outcome of one chaos batch."""

    seed: int
    fault_seed: int
    programs: int = 0
    skipped: int = 0
    pairs: int = 0
    recovered: int = 0
    faulted: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"chaos: {self.programs} programs (skipped {self.skipped}) × "
            f"{self.pairs} fault-injected runs — {self.recovered} "
            f"recovered, {self.faulted} clean faults, in "
            f"{self.seconds:.1f}s — {status}"
        )

    def to_json(self) -> dict:
        """The schedule artifact (uploaded by CI on failure)."""
        return {
            "seed": self.seed,
            "fault_seed": self.fault_seed,
            "programs": self.programs,
            "skipped": self.skipped,
            "pairs": self.pairs,
            "recovered": self.recovered,
            "faulted": self.faulted,
            "seconds": self.seconds,
            "failures": [
                {
                    "index": failure.index,
                    "lane": failure.lane,
                    "variant": failure.variant,
                    "kind": failure.kind,
                    "detail": failure.detail,
                    "schedule": failure.schedule,
                }
                for failure in self.failures
            ],
        }


def _lane_backend(lane: str, values: dict, plan: FaultPlan):
    common = dict(data=values, capture_output=True, faults=plan)
    if lane == "file":
        return FileBackend(**common)
    if lane == "compiled":
        return CompiledBackend(**common)
    raise ValueError(f"unknown chaos lane {lane!r}")


def _variant_plan(
    fault_seed: int, index: int, lane_index: int, variant: int, rates: dict
) -> FaultPlan:
    """A distinct, reproducible plan per (program, lane, variant)."""
    derived = worker_seed(
        fault_seed, index * 1009 + lane_index * 101 + variant
    )
    return FaultPlan(seed=derived, rates=rates)


def run_chaos(
    seed: int = 0,
    count: int = 25,
    fault_seed: int = 0,
    variants: int = 3,
    max_size: int = 40,
    lanes: tuple = LANES,
    rates: dict | None = None,
    root_bytes: int = 512,
    progress=None,
) -> ChaosResult:
    """Run ``count`` generated programs × ``variants`` fault schedules
    through every lane; every run must recover or fault cleanly.

    The baseline for each program is a fault-free serial FileBackend
    run; programs the baseline cannot execute (generator corner cases
    the oracle also skips) are counted in ``skipped`` and exercise no
    pairs.  ``root_bytes`` deliberately defaults far below the oracle's
    1 MiB: a tiny modeled root forces the generated data out of core,
    so the fault schedule actually lands on device requests instead of
    in-RAM traffic.  ``progress`` is called as ``progress(index,
    result)`` after each program.
    """
    oracle = Oracle(OracleConfig(root_bytes=root_bytes))
    generator = ProgramGenerator(seed, GenConfig(max_size=max(6, max_size)))
    rates = dict(CHAOS_RATES if rates is None else rates)
    result = ChaosResult(seed=seed, fault_seed=fault_seed)
    started = time.perf_counter()
    for index in range(count):
        gen = generator.generate()
        bound = oracle._bind(gen.program)
        specs = oracle._input_specs(gen)
        values = gen.input_values()
        config = oracle._execution_config(gen)
        try:
            baseline = _lane_backend(
                "file",
                values,
                FaultPlan(seed=0, rates=_ZERO_RATES, latency_seconds=0.0),
            )
            baseline.run(bound, specs, config)
            want = output_bag(baseline.last_output)
        except (ExecutionError, ValueError, RecursionError):
            result.skipped += 1
            continue
        result.programs += 1
        for lane_index, lane in enumerate(lanes):
            for variant in range(variants):
                plan = _variant_plan(
                    fault_seed, index, lane_index, variant, rates
                )
                backend = _lane_backend(lane, values, plan)
                result.pairs += 1
                try:
                    backend.run(bound, specs, config)
                except ExecutionFault as fault:
                    if not (fault.device and fault.op):
                        result.failures.append(ChaosFailure(
                            index, lane, variant, "untyped-fault",
                            f"fault without position: {fault}",
                            plan.schedule(),
                        ))
                    else:
                        result.faulted += 1
                    continue
                except Exception as error:  # lint: allow-broad-except
                    # The contract: *never* a raw traceback.  Any
                    # non-ExecutionFault escape under injection is a
                    # failure by definition, whatever its type.
                    result.failures.append(ChaosFailure(
                        index, lane, variant, "unclean-error",
                        f"{type(error).__name__}: {error}",
                        plan.schedule(),
                    ))
                    continue
                got = output_bag(backend.last_output)
                if got == want:
                    result.recovered += 1
                else:
                    result.failures.append(ChaosFailure(
                        index, lane, variant, "corrupt-bag",
                        f"recovered bag differs: {got!r} != {want!r}",
                        plan.schedule(),
                    ))
        if progress is not None:
            progress(index, result)
    result.seconds = time.perf_counter() - started
    return result
