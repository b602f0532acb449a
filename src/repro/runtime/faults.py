"""Deterministic fault injection and the centralized retry policy.

Out-of-core execution lives on devices that fail: transient read/write
errors, torn short writes, full disks, latency spikes.  This module is
the one place the repository models that (DESIGN.md §16):

* :class:`FaultPlan` — a seeded, deterministic injector.  Each logical
  device request (one :meth:`DeviceStore.read <repro.runtime.filestore
  .DeviceStore.read>` / ``write``) consults the plan, which rolls a
  per-device rate table on a private :class:`random.Random` stream and
  either lets the request through, raises a *transient*
  :class:`InjectedFault` (retryable), or raises a *permanent*
  :class:`ExecutionFault`.  Same plan + same request order ⇒ same fault
  schedule, so every chaos failure replays exactly;
* :class:`ExecutionFault` — the typed, positioned failure every backend
  surfaces for a permanent device error: ``(device, op, offset)`` plus
  a one-line reason, never a raw traceback;
* :class:`RetryPolicy` / :func:`backoff_delays` — the bounded
  exponential-backoff schedule the filestore retries transient errors
  under.  :func:`sleep_for_retry` is the repository's **only**
  permitted ``time.sleep`` call site (lint rule LNT004), so retry
  timing stays centralized and testable;
* ``REPRO_FAULTS`` — the environment hook (:meth:`FaultPlan.from_env`)
  the chaos lane and the CLI use.  Unset means no injection and zero
  behavioral change: every counter, winner, and bag stays bit-identical
  to a build without this module.

Injection happens *before* a request's side effects and accounting, and
retries re-issue the full block at the same offset, so a recovered run
finishes with byte-identical output **and** per-device counters to the
fault-free run — the invariant the chaos lane pins.
"""

from __future__ import annotations

import errno
import os
import random
import time
from dataclasses import dataclass

from .accounting import ExecutionError

__all__ = [
    "FAULTS_ENV",
    "RATE_KEYS",
    "DEFAULT_RATES",
    "CHAOS_RATES",
    "ExecutionFault",
    "InjectedFault",
    "RetryPolicy",
    "DEFAULT_RETRY",
    "backoff_delays",
    "sleep_for_retry",
    "FaultPlan",
]

#: environment variable holding a fault spec (see :meth:`FaultPlan.from_spec`);
#: unset or empty means fault injection is disabled everywhere.
FAULTS_ENV = "REPRO_FAULTS"

#: the recognized per-operation fault classes.
RATE_KEYS = ("read_error", "write_error", "torn_write", "enospc", "latency")

#: rates used when a spec gives only a seed (mild: mostly recoverable).
DEFAULT_RATES = {
    "read_error": 0.02,
    "write_error": 0.02,
    "torn_write": 0.01,
    "enospc": 0.0,
    "latency": 0.02,
}

#: rates the chaos lane uses: frequent transients plus rare permanents,
#: so one batch exercises both recovery and clean-fault surfacing.
CHAOS_RATES = {
    "read_error": 0.05,
    "write_error": 0.05,
    "torn_write": 0.02,
    "enospc": 0.004,
    "latency": 0.05,
}


class ExecutionFault(ExecutionError):
    """A permanent, positioned device failure.

    This is what every backend raises when a device request cannot be
    recovered (retries exhausted, disk full): typed fields say *which
    device*, *which operation*, and *at what offset*, so callers (CLI,
    service, chaos lane) can render a one-line diagnosis.
    """

    def __init__(self, device: str, op: str, offset: int, reason: str):
        super().__init__(
            f"device {device}: {op} at offset {offset} failed: {reason}"
        )
        self.device = device
        self.op = op
        self.offset = int(offset)
        self.reason = reason


class InjectedFault(OSError):
    """A transient injected device error; retried like a real ``EIO``."""

    def __init__(self, device: str, op: str, offset: int, kind: str):
        super().__init__(
            errno.EIO,
            f"injected {kind} on {device} ({op} at offset {offset})",
        )
        self.device = device
        self.op = op
        self.offset = int(offset)
        self.kind = kind


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transient device errors.

    ``attempts`` counts total tries (first try included); delays grow
    geometrically from ``base_delay`` by ``factor``, capped at
    ``max_delay``.  The default base of zero keeps test suites fast —
    bounded retry, no real waiting — while services can opt into real
    backoff.
    """

    attempts: int = 4
    base_delay: float = 0.0
    factor: float = 2.0
    max_delay: float = 0.05


DEFAULT_RETRY = RetryPolicy()


def backoff_delays(policy: RetryPolicy, jitter: random.Random | None = None):
    """Yield the ``attempts - 1`` retry delays for *policy*, in order.

    With *jitter*, each delay is scaled by a uniform factor in
    ``[0.5, 1.5)`` so synchronized clients spread out; without it the
    schedule is exact (testable).
    """
    delay = policy.base_delay
    for _ in range(max(0, policy.attempts - 1)):
        bounded = min(delay, policy.max_delay)
        if jitter is not None and bounded > 0:
            bounded *= 0.5 + jitter.random()
        yield bounded
        delay *= policy.factor


def sleep_for_retry(seconds: float) -> None:
    """The one real sleep in the repository (LNT004 anchors here).

    Synchronous retry loops must wait through this helper; the async
    service uses :func:`backoff_delays` with ``asyncio.sleep`` instead.
    """
    if seconds > 0:
        time.sleep(seconds)


class FaultPlan:
    """A seeded, deterministic device-fault schedule.

    One plan serves one run: backends attach it to every
    :class:`~repro.runtime.filestore.DeviceStore`, and each logical
    read/write consults it in request order.  Rates are global with
    optional per-device overrides (``device_rates``) and an optional
    device allow-list (``devices``); ``fail_at`` maps ``(device, op)``
    to a 1-based request ordinal that fails *permanently* — the
    deterministic trigger unit tests aim at exact positions with.

    Latency spikes are **virtual**: they add ``latency_seconds`` to the
    device's measured ``io_time`` without sleeping, so chaos batches
    stay fast and deterministic.

    Everything injected is appended to :attr:`log`, which
    :meth:`schedule` renders as the artifact CI uploads on a chaos
    failure.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: dict | None = None,
        device_rates: dict | None = None,
        devices=None,
        fail_at: dict | None = None,
        latency_seconds: float = 0.001,
        max_faults: int | None = None,
        retry: RetryPolicy = DEFAULT_RETRY,
    ) -> None:
        self.seed = int(seed)
        self.rates = dict(DEFAULT_RATES)
        for key, value in (rates or {}).items():
            if key not in RATE_KEYS:
                raise ValueError(f"unknown fault rate {key!r}")
            self.rates[key] = float(value)
        self.device_rates = {
            device: {key: float(value) for key, value in table.items()}
            for device, table in (device_rates or {}).items()
        }
        for table in self.device_rates.values():
            for key in table:
                if key not in RATE_KEYS:
                    raise ValueError(f"unknown fault rate {key!r}")
        self.devices = frozenset(devices) if devices else None
        self.fail_at = {
            (device, op): int(count)
            for (device, op), count in (fail_at or {}).items()
        }
        self.latency_seconds = float(latency_seconds)
        self.max_faults = max_faults
        self.retry = retry
        self._rng = random.Random(f"repro-faults:{self.seed}")
        self.injected = 0
        self.op_counts: dict[tuple[str, str], int] = {}
        self.log: list[dict] = []

    # -- construction ---------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan | None":
        """Parse a fault spec string; ``None`` for an empty spec.

        A bare integer is a seed with :data:`DEFAULT_RATES`.  Otherwise
        comma-separated ``key=value`` pairs: ``seed``, any rate from
        :data:`RATE_KEYS`, ``latency_seconds``, ``attempts`` (retry
        budget), ``devices=HDD|SSD`` (allow-list), per-device overrides
        ``HDD.read_error=0.1``, and deterministic permanent triggers
        ``HDD.fail_read_at=3`` (the 3rd HDD read fails for good).
        """
        spec = spec.strip()
        if not spec:
            return None
        try:
            return cls(seed=int(spec))
        except ValueError:
            pass
        seed = 0
        rates: dict = {}
        device_rates: dict = {}
        devices = None
        fail_at: dict = {}
        latency_seconds = 0.001
        attempts = DEFAULT_RETRY.attempts
        for part in spec.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key or not value:
                raise ValueError(f"malformed fault spec part {part!r}")
            if "." in key:
                device, _, sub = key.partition(".")
                if sub.startswith("fail_") and sub.endswith("_at"):
                    fail_at[(device, sub[len("fail_"):-len("_at")])] = (
                        int(value)
                    )
                elif sub in RATE_KEYS:
                    device_rates.setdefault(device, {})[sub] = float(value)
                else:
                    raise ValueError(f"unknown fault spec key {key!r}")
            elif key == "seed":
                seed = int(value)
            elif key == "devices":
                devices = [name for name in value.split("|") if name]
            elif key == "latency_seconds":
                latency_seconds = float(value)
            elif key == "attempts":
                attempts = int(value)
            elif key in RATE_KEYS:
                rates[key] = float(value)
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        retry = RetryPolicy(
            attempts=attempts,
            base_delay=DEFAULT_RETRY.base_delay,
            factor=DEFAULT_RETRY.factor,
            max_delay=DEFAULT_RETRY.max_delay,
        )
        return cls(
            seed=seed,
            rates=rates,
            device_rates=device_rates,
            devices=devices,
            fail_at=fail_at,
            latency_seconds=latency_seconds,
            retry=retry,
        )

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """The plan requested by ``REPRO_FAULTS``, or ``None`` if unset."""
        source = os.environ if environ is None else environ
        return cls.from_spec(source.get(FAULTS_ENV, ""))

    def to_doc(self) -> dict:
        """A picklable/JSON description that round-trips via :meth:`from_doc`."""
        return {
            "seed": self.seed,
            "rates": dict(self.rates),
            "device_rates": {
                device: dict(table)
                for device, table in self.device_rates.items()
            },
            "devices": sorted(self.devices) if self.devices else None,
            "fail_at": [
                [device, op, count]
                for (device, op), count in sorted(self.fail_at.items())
            ],
            "latency_seconds": self.latency_seconds,
            "max_faults": self.max_faults,
            "retry": {
                "attempts": self.retry.attempts,
                "base_delay": self.retry.base_delay,
                "factor": self.retry.factor,
                "max_delay": self.retry.max_delay,
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FaultPlan":
        return cls(
            seed=doc.get("seed", 0),
            rates=doc.get("rates"),
            device_rates=doc.get("device_rates"),
            devices=doc.get("devices"),
            fail_at={
                (device, op): count
                for device, op, count in doc.get("fail_at", [])
            },
            latency_seconds=doc.get("latency_seconds", 0.001),
            max_faults=doc.get("max_faults"),
            retry=RetryPolicy(**doc.get("retry", {})),
        )

    # -- injection ------------------------------------------------------
    def _rate(self, device: str, key: str) -> float:
        table = self.device_rates.get(device)
        if table is not None and key in table:
            return table[key]
        return self.rates[key]

    def _applies(self, device: str) -> bool:
        return self.devices is None or device in self.devices

    def _budget_left(self) -> bool:
        return self.max_faults is None or self.injected < self.max_faults

    def _record(self, device: str, op: str, offset: int, kind: str) -> None:
        self.injected += 1
        self.log.append({
            "device": device,
            "op": op,
            "offset": int(offset),
            "kind": kind,
            "ordinal": self.op_counts.get((device, op), 0),
        })

    def _before(self, device: str, op: str, offset: int) -> None:
        """Common pre-request rolls; raises on an injected fault."""
        ordinal = self.op_counts.get((device, op), 0) + 1
        self.op_counts[(device, op)] = ordinal
        if self.fail_at.get((device, op)) == ordinal:
            self._record(device, op, offset, "trigger")
            raise ExecutionFault(
                device, op, offset, "injected trigger fault"
            )
        if not self._budget_left():
            return
        if self._rng.random() < self._rate(device, "enospc"):
            self._record(device, op, offset, "enospc")
            raise ExecutionFault(
                device, op, offset, "device full (injected ENOSPC)"
            )
        if self._rng.random() < self._rate(device, f"{op}_error"):
            self._record(device, op, offset, f"{op}-error")
            raise InjectedFault(device, op, offset, f"{op}-error")

    def on_read(self, device: str, offset: int, nbytes: int) -> None:
        """Consulted before each device read; may raise."""
        if not self._applies(device):
            return
        self._before(device, "read", offset)

    def on_write(self, device: str, offset: int, nbytes: int) -> int | None:
        """Consulted before each device write; may raise.

        Returns a torn-prefix byte count when the write should land
        short (the store writes that prefix, then raises the transient
        error), or ``None`` for a clean write.
        """
        if not self._applies(device):
            return None
        self._before(device, "write", offset)
        if not self._budget_left():
            return None
        if nbytes > 0 and self._rng.random() < self._rate(
            device, "torn_write"
        ):
            self._record(device, "write", offset, "torn-write")
            return self._rng.randrange(nbytes)
        return None

    def latency_penalty(self, device: str) -> float:
        """Virtual seconds of device stall to add to measured io_time."""
        if not self._applies(device) or self.latency_seconds <= 0:
            return 0.0
        if self._rng.random() < self._rate(device, "latency"):
            self._record(device, "latency", -1, "latency-spike")
            return self.latency_seconds
        return 0.0

    # -- reporting ------------------------------------------------------
    def schedule(self) -> dict:
        """The injected-fault schedule (the artifact CI uploads)."""
        return {
            "plan": self.to_doc(),
            "injected": self.injected,
            "op_counts": {
                f"{device}:{op}": count
                for (device, op), count in sorted(self.op_counts.items())
            },
            "log": list(self.log),
        }
