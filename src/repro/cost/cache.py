"""Keyed memoization for the costing pipeline (DESIGN.md §6.3, §11).

Costing a candidate is two-phase: the Section-5 **estimator** walks the
program and produces a symbolic cost with constraints, then the penalty
**optimizer** tunes the block/buffer parameters numerically.  The second
phase dominates (hundreds of expression evaluations per candidate), and
both phases are pure functions of their inputs — so the synthesizer
routes them through a :class:`CostMemo`:

* **estimates** are keyed by the (hash-consed) program itself — repeated
  synthesize calls over the same model, and any strategy that re-visits
  a program, reuse the full symbolic estimate;
* **tunings** are keyed by the *optimization problem* — the cost
  expression, constraints, parameter set and statistics.  The estimator
  interns these expressions (:func:`repro.symbolic.intern_expr`), so the
  key hashes are cached on shared instances and equality probes
  short-circuit on pointer identity.  Distinct programs frequently
  induce the identical problem (block-parameter names are canonicalized
  to ``k1, k2, …``, so e.g. variants that move an annotation without
  changing the transfer structure collide), and the pattern search is
  run once per problem, not once per candidate;
* **subtrees** back incremental re-estimation: per ``(subtree,
  context-bindings)`` visit results plus a replayable side-effect
  journal, so a rewrite-derived candidate only re-walks the spine from
  its rewritten position to the root (see
  :class:`~repro.cost.estimator.CostEstimator`).

Hit/miss counters are exposed as :class:`CacheStats` and surfaced on
``SynthesisResult`` so benchmarks can report cache effectiveness.

**Bounded growth.**  A long ``Session.synthesize_all`` batch funnels
every candidate of every workload through shared memos; each table is
therefore capped at ``maxsize`` entries.  A table at the cap sheds its
*oldest half* (dict insertion order) before the next insert — never the
whole table: wholesale clearing mid-search silently discarded every
byte of amortization the run had built, including entries the
incremental-estimation walk was about to re-use, and turned the
supposedly-amortized tail of a long batch into a cold start.  Eviction
only ever costs recomputation — the tables cache pure functions — so a
capped memo can never change winners or re-estimation results (pinned
by regression tests), only how much gets recomputed.

**Persistence.**  The serving stack spills memo contents to disk so a
restarted server keeps its amortization: :meth:`CostMemo.iter_estimates`
/ :meth:`CostMemo.iter_tunings` expose the tables for encoding, and
:meth:`CostMemo.seed_estimate` / :meth:`CostMemo.seed_tuning` re-insert
decoded entries without touching the hit/miss counters (a warm start is
not a cache hit).  See :mod:`repro.service.memo_disk`.

A ``CostMemo`` must only be shared between runs that cost against the
same :class:`~repro.cost.estimator.CostModel`; the synthesizer keeps one
memo per model fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator

from ..ocal.ast import Node
from ..optimizer.penalty import OptimizationResult, ParameterOptimizer
from .estimator import CostEstimate, EstimatorError

__all__ = ["CacheStats", "CostMemo"]


@dataclass
class CacheStats:
    """Hit/miss counters for one memoization scope.

    ``estimate``/``tune`` count whole-candidate lookups; ``subtree``
    counts the estimator's incremental re-estimation cache (one lookup
    per cacheable subtree visit, so the magnitudes differ).
    """

    estimate_hits: int = 0
    estimate_misses: int = 0
    tune_hits: int = 0
    tune_misses: int = 0
    subtree_hits: int = 0
    subtree_misses: int = 0

    @property
    def lookups(self) -> int:
        """Whole-candidate lookups (estimates + tunings)."""
        return (
            self.estimate_hits
            + self.estimate_misses
            + self.tune_hits
            + self.tune_misses
        )

    @property
    def hits(self) -> int:
        return self.estimate_hits + self.tune_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    @property
    def subtree_hit_rate(self) -> float:
        """Fraction of subtree visits served from cache (0.0 when unused)."""
        lookups = self.subtree_hits + self.subtree_misses
        return self.subtree_hits / lookups if lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.estimate_hits,
            self.estimate_misses,
            self.tune_hits,
            self.tune_misses,
            self.subtree_hits,
            self.subtree_misses,
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated after an earlier :meth:`snapshot`."""
        return CacheStats(
            self.estimate_hits - earlier.estimate_hits,
            self.estimate_misses - earlier.estimate_misses,
            self.tune_hits - earlier.tune_hits,
            self.tune_misses - earlier.tune_misses,
            self.subtree_hits - earlier.subtree_hits,
            self.subtree_misses - earlier.subtree_misses,
        )


#: Sentinel stored for programs whose estimation failed, so the failure
#: is also memoized (uncostable candidates are common during search).
_FAILED = object()


def _trim_oldest_half(table: dict) -> None:
    """Drop the oldest half of *table* (dict order = insertion order).

    Bounded eviction that keeps the still-hot recent half alive; the
    old behaviour (``table.clear()``) threw away a full table of
    amortization in one insert.
    """
    for key in list(islice(iter(table), max(1, len(table) // 2))):
        del table[key]


class CostMemo:
    """Memoization tables for estimates, parameter tunings and subtrees.

    ``maxsize`` caps each table individually; a table at the cap sheds
    its oldest half before the next insert (recomputation, never wrong
    answers — see the module docstring).
    """

    def __init__(self, maxsize: int = 1 << 17) -> None:
        self.maxsize = maxsize
        self._estimates: dict[Node, object] = {}
        self._tunings: dict[object, OptimizationResult] = {}
        #: (subtree, context) -> (Located, CostEvents, journal); read and
        #: written by CostEstimator._visit.
        self.subtrees: dict = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def estimate(
        self, program: Node, compute: Callable[[], CostEstimate]
    ) -> CostEstimate:
        """Return the memoized estimate of *program*, computing on miss.

        :raises EstimatorError: when the (possibly cached) estimation
            failed — failures are memoized too.
        """
        cached = self._estimates.get(program)
        if cached is not None:
            self.stats.estimate_hits += 1
            if cached is _FAILED:
                raise EstimatorError("memoized estimation failure")
            return cached  # type: ignore[return-value]
        self.stats.estimate_misses += 1
        if len(self._estimates) >= self.maxsize:
            _trim_oldest_half(self._estimates)
        try:
            estimate = compute()
        except EstimatorError:
            self._estimates[program] = _FAILED
            raise
        self._estimates[program] = estimate
        return estimate

    # ------------------------------------------------------------------
    def tune(
        self,
        estimate: CostEstimate,
        stats: dict[str, float],
        penalty_rounds: int = 2,
    ) -> OptimizationResult:
        """Tune the parameters of *estimate*, memoized by problem identity.

        The estimator hands over interned expressions, so hashing the
        key reuses cached hashes and equality hits the pointer fast
        path.
        """
        key = (
            estimate.total,
            tuple(estimate.constraints),
            estimate.parameters,
            tuple(sorted(stats.items())),
            penalty_rounds,
        )
        cached = self._tunings.get(key)
        if cached is not None:
            self.stats.tune_hits += 1
            return cached
        self.stats.tune_misses += 1
        if len(self._tunings) >= self.maxsize:
            _trim_oldest_half(self._tunings)
        tuned = ParameterOptimizer(
            cost=estimate.total,
            constraints=estimate.constraints,
            parameters=estimate.parameters,
            stats=dict(stats),
            penalty_rounds=penalty_rounds,
        ).run()
        self._tunings[key] = tuned
        return tuned

    # ------------------------------------------------------------------
    def store_subtree(self, key, value) -> None:
        """Insert one incremental-estimation entry, respecting maxsize."""
        if len(self.subtrees) >= self.maxsize:
            _trim_oldest_half(self.subtrees)
        self.subtrees[key] = value

    # ------------------------------------------------------------------
    # Spill support (repro.service.memo_disk)
    # ------------------------------------------------------------------
    def iter_estimates(self) -> "Iterator[tuple[Node, CostEstimate | None]]":
        """Every cached estimate; ``None`` marks a memoized failure."""
        for program, value in self._estimates.items():
            yield program, (None if value is _FAILED else value)

    def seed_estimate(
        self, program: Node, estimate: "CostEstimate | None"
    ) -> None:
        """Warm-start one estimate (``None`` = failure) without moving
        the hit/miss counters; existing entries are left alone."""
        if program in self._estimates:
            return
        if len(self._estimates) >= self.maxsize:
            _trim_oldest_half(self._estimates)
        self._estimates[program] = _FAILED if estimate is None else estimate

    def iter_tunings(self) -> "Iterator[tuple[object, OptimizationResult]]":
        """Every cached tuning as ``(problem key, result)``."""
        yield from self._tunings.items()

    def seed_tuning(self, key: object, result: OptimizationResult) -> None:
        """Warm-start one tuning without moving the counters."""
        if key in self._tunings:
            return
        if len(self._tunings) >= self.maxsize:
            _trim_oldest_half(self._tunings)
        self._tunings[key] = result

    # ------------------------------------------------------------------
    def sizes(self) -> tuple[int, int, int]:
        """(estimates, tunings, subtrees) cached — introspection."""
        return len(self._estimates), len(self._tunings), len(self.subtrees)

    def clear(self) -> None:
        self._estimates.clear()
        self._tunings.clear()
        self.subtrees.clear()
