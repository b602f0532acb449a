"""Pluggable search strategies over the rewrite graph (DESIGN.md §6).

The paper's search space grows "roughly exponentially with the number of
transformation steps"; the seed synthesizer coped with one hard-capped
exhaustive BFS.  This module factors the exploration *policy* out of the
synthesizer behind the :class:`SearchStrategy` protocol, with three
implementations:

* :class:`ExhaustiveBFS` — the fidelity baseline.  Expands every program
  breadth-first up to the caps; behavior-compatible with the seed
  synthesizer (same candidates, same order, same winner).
* :class:`BeamSearch` — per depth, keeps only the ``width`` cheapest
  frontier programs (tuned cost, insertion-order tie-break).  Cost falls
  monotonically along the paper's derivations, so a modest beam finds
  the same winners at a fraction of the candidates costed.
* :class:`BestFirst` — a priority queue ordered by tuned cost.  Programs
  whose *optimistic* untuned bound (:func:`~repro.cost.optimistic_cost`)
  cannot beat the incumbent are enqueued for expansion but never fully
  tuned — the expensive penalty-search phase is skipped, which is where
  the candidates-costed and wall-clock savings come from.

Strategies consume rewrites lazily (``iter_rewrites``), so a strategy
that stops early never pays for neighborhoods it does not rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, runtime_checkable

from ..ocal.ast import Node
from ..rules.base import Rewrite
from .frontier import (
    FifoFrontier,
    PriorityFrontier,
    SearchItem,
    SearchLimits,
    SearchState,
)
from .result import Candidate

__all__ = [
    "SearchTask",
    "SearchStrategy",
    "ExhaustiveBFS",
    "BeamSearch",
    "BestFirst",
    "resolve_strategy",
    "STRATEGY_NAMES",
]


@dataclass
class SearchTask:
    """Everything a strategy needs, with costing behind closures.

    The synthesizer supplies the closures so strategies stay independent
    of the cost model, the memoization cache and the rule context:

    * ``expand`` — lazily yields the deduplicated single-step rewrites;
    * ``canonical`` — canonicalizes block-parameter names and hash-conses
      the result (the seen-set representation);
    * ``cost`` — full costing: estimate + tuned parameters, memoized;
      ``None`` when the program cannot be costed or tuned feasibly;
    * ``lower_bound`` — optimistic untuned cost, ``inf`` when unusable.
    """

    spec: Node
    spec_candidate: Candidate
    limits: SearchLimits
    keep_top: int
    expand: Callable[[Node], Iterator[Rewrite]]
    canonical: Callable[[Node], Node]
    cost: Callable[[Node, tuple[str, ...]], Candidate | None]
    lower_bound: Callable[[Node], float]


def _cost_all(
    task: "SearchTask", pending: list[tuple[Node, tuple[str, ...]]]
) -> list[Candidate | None]:
    """Cost every (program, chain) pair, in order."""
    return [task.cost(program, chain) for program, chain in pending]


def _bound_all(task: "SearchTask", programs: list[Node]) -> list[float]:
    """Lower-bound every program, in order."""
    return [task.lower_bound(program) for program in programs]


@runtime_checkable
class SearchStrategy(Protocol):
    """The exploration policy of one synthesis run."""

    name: str

    def search(self, task: SearchTask) -> SearchState:
        """Explore the rewrite graph and return the final bookkeeping."""
        ...


# ----------------------------------------------------------------------
# Exhaustive breadth-first search — the fidelity baseline
# ----------------------------------------------------------------------
@dataclass
class ExhaustiveBFS:
    """Expand everything, depth by depth, up to the caps (seed behavior).

    Each depth level runs in two passes: expansion + admission first
    (collecting every admitted program), then one costing sweep over the
    collected batch.  Costing never feeds back into admission or
    truncation, and the batch is processed in admission order, so the
    two-pass form records the same candidates with the same order
    counters as the interleaved seed loop.
    """

    name: str = "exhaustive-bfs"

    def search(self, task: SearchTask) -> SearchState:
        state = SearchState.initial(
            task.spec, task.spec_candidate, task.keep_top
        )
        limits = task.limits
        frontier = FifoFrontier()
        frontier.push(SearchItem(task.spec, (), 0, task.spec_candidate.cost, 0))
        for depth in range(1, limits.max_depth + 1):
            pending: list[tuple[Node, tuple[str, ...]]] = []
            while frontier:
                item = frontier.pop()
                state.expanded += 1
                for rewrite in task.expand(item.program):
                    rewritten = task.canonical(rewrite.program)
                    if not state.admit(rewritten, limits):
                        if state.truncated:
                            break
                        continue
                    pending.append(
                        (rewritten, item.derivation + (rewrite.rule,))
                    )
                if state.truncated:
                    break
            next_frontier = FifoFrontier()
            for (rewritten, chain), candidate in zip(
                pending, _cost_all(task, pending)
            ):
                if candidate is None:
                    continue
                state.record(candidate, depth)
                next_frontier.push(
                    SearchItem(
                        rewritten,
                        chain,
                        depth,
                        candidate.cost,
                        state.next_order(),
                    )
                )
            if not next_frontier:
                break
            frontier = next_frontier
            if state.truncated:
                break
        return state


# ----------------------------------------------------------------------
# Beam search — cost-ranked frontier of bounded width
# ----------------------------------------------------------------------
@dataclass
class BeamSearch:
    """Keep only the ``width`` cheapest programs per depth level."""

    width: int = 8
    name: str = "beam"

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("beam width must be at least 1")

    def search(self, task: SearchTask) -> SearchState:
        state = SearchState.initial(
            task.spec, task.spec_candidate, task.keep_top
        )
        limits = task.limits
        beam: list[SearchItem] = [
            SearchItem(task.spec, (), 0, task.spec_candidate.cost, 0)
        ]
        for depth in range(1, limits.max_depth + 1):
            # Two passes per level, exactly like ExhaustiveBFS: collect
            # the admitted generation, then cost it as one batch in
            # admission order (ranking and order counters are unchanged).
            pending: list[tuple[Node, tuple[str, ...]]] = []
            for item in beam:
                state.expanded += 1
                for rewrite in task.expand(item.program):
                    rewritten = task.canonical(rewrite.program)
                    if not state.admit(rewritten, limits):
                        if state.truncated:
                            break
                        continue
                    pending.append(
                        (rewritten, item.derivation + (rewrite.rule,))
                    )
                if state.truncated:
                    break
            scored: list[SearchItem] = []
            for (rewritten, chain), candidate in zip(
                pending, _cost_all(task, pending)
            ):
                if candidate is None:
                    continue
                state.record(candidate, depth)
                scored.append(
                    SearchItem(
                        rewritten,
                        chain,
                        depth,
                        candidate.cost,
                        state.next_order(),
                    )
                )
            if not scored:
                break
            scored.sort(key=lambda item: item.rank)
            beam = scored[: self.width]
            if state.truncated:
                break
        return state


# ----------------------------------------------------------------------
# Best-first search — tuned-cost priority with lower-bound pruning
# ----------------------------------------------------------------------
@dataclass
class BestFirst:
    """Expand the cheapest known program first; prune hopeless tunings.

    Newly generated programs enter the frontier ranked by their
    *optimistic* untuned bound; the expensive tuning pass is deferred to
    the moment a program surfaces at the head of the queue.  By then the
    incumbent best has usually descended far below the spec cost, and
    the pop-time check ``bound ≥ margin · best`` skips tuning for every
    program the admissible bound proves unable to win.  Pruned programs
    are still *expanded* (their descendants may win), so exploration
    coverage matches exhaustive BFS under the same caps; only tuning
    effort is saved.

    ``margin`` adds slack for the probe granularity of
    :func:`~repro.cost.optimistic_cost`: the per-term relaxation probes
    a geometric ladder, which can overshoot the continuous minimum of a
    unimodal term by a few percent (≤ ~6% for the factor-2 ladder).
    The default ``margin=1.1`` absorbs that, keeping the prune decision
    admissible; ``margin=1.0`` prunes maximally, larger values tune
    more candidates.
    """

    margin: float = 1.1
    name: str = "best-first"

    def __post_init__(self) -> None:
        if self.margin < 1.0:
            raise ValueError("pruning margin must be at least 1.0")

    def search(self, task: SearchTask) -> SearchState:
        state = SearchState.initial(
            task.spec, task.spec_candidate, task.keep_top
        )
        limits = task.limits
        frontier = PriorityFrontier()
        frontier.push(
            SearchItem(task.spec, (), 0, task.spec_candidate.cost, 0)
        )
        # Shortest known derivation depth and ranking priority per
        # program.  Unlike BFS, best-first order can reach a program via
        # a long derivation first; when a shorter path appears later the
        # program is *reopened* so its descendants within ``max_depth``
        # are not cut off (the A* reopening discipline).  ``decided``
        # marks programs whose tune-or-prune decision already happened,
        # so reopened entries do not re-tune.
        depths: dict[Node, int] = {task.spec: 0}
        priorities: dict[Node, float] = {task.spec: task.spec_candidate.cost}
        decided: set[Node] = {task.spec}
        dead: set[Node] = set()  # estimable but untunable: never expanded
        while frontier:
            item = frontier.pop()
            if item.program in dead:
                continue
            if item.depth > depths.get(item.program, item.depth):
                continue  # stale queue entry; a shorter path superseded it
            if not item.tuned and item.program not in decided:
                decided.add(item.program)
                # ``<=`` so a bound that exactly ties the incumbent is
                # still tuned: tied candidates can win the size/pretty
                # tie-break in SearchState._better.
                if item.cost <= state.best.cost * self.margin:
                    candidate = task.cost(item.program, item.derivation)
                    if candidate is None:
                        # Infeasible tuning — BFS drops these unexpanded.
                        dead.add(item.program)
                        continue
                    state.record(candidate, item.depth)
                    priorities[item.program] = candidate.cost
                else:
                    state.pruned += 1
            if item.depth >= limits.max_depth:
                continue
            depth = item.depth + 1
            state.expanded += 1
            # Two passes per expansion.  The first walks the rewrite
            # neighborhood, handling dedup/admission immediately (reopened
            # programs update ``depths`` here so later duplicates in the
            # same neighborhood see the shorter path, exactly as the
            # interleaved loop did); newly admitted programs defer their
            # ``depths`` entry to the second pass because the serial loop
            # only records a program once its bound proves finite.  The
            # second pass lower-bounds the new programs as one batch and
            # performs every push in neighbor order, so the order-counter
            # sequence matches the interleaved loop exactly.
            pending: list[tuple[bool, Node, tuple[str, ...]]] = []
            fresh: list[Node] = []
            for rewrite in task.expand(item.program):
                rewritten = task.canonical(rewrite.program)
                chain = item.derivation + (rewrite.rule,)
                known = depths.get(rewritten)
                if known is not None:
                    if depth < known and rewritten not in dead:
                        depths[rewritten] = depth
                        pending.append((False, rewritten, chain))
                    continue
                if not state.admit(rewritten, limits):
                    if state.truncated:
                        break
                    continue
                pending.append((True, rewritten, chain))
                fresh.append(rewritten)
            bounds = iter(_bound_all(task, fresh))
            for is_new, rewritten, chain in pending:
                if is_new:
                    bound = next(bounds)
                    if bound == math.inf:
                        # Not costable at all — BFS drops these too.
                        continue
                    depths[rewritten] = depth
                    priorities[rewritten] = bound
                    frontier.push(
                        SearchItem(
                            rewritten, chain, depth, bound,
                            state.next_order(), tuned=False,
                        )
                    )
                else:
                    # tuned=False so a program whose original entry is
                    # still queued (and now stale) gets its
                    # tune-or-prune decision when the reopened entry
                    # pops; `decided` prevents double tuning.
                    frontier.push(
                        SearchItem(
                            rewritten, chain, depth,
                            priorities[rewritten],
                            state.next_order(), tuned=False,
                        )
                    )
            if state.truncated:
                break
        return state


# ----------------------------------------------------------------------
# Name-based resolution for the façade
# ----------------------------------------------------------------------
STRATEGY_NAMES: dict[str, Callable[[], "SearchStrategy"]] = {
    "exhaustive-bfs": ExhaustiveBFS,
    "exhaustive": ExhaustiveBFS,
    "bfs": ExhaustiveBFS,
    "beam": BeamSearch,
    "best-first": BestFirst,
    "bestfirst": BestFirst,
}


def resolve_strategy(
    strategy: "SearchStrategy | str | None",
) -> "SearchStrategy":
    """Accept a strategy object, a registered name, or ``None`` (default)."""
    if strategy is None:
        return ExhaustiveBFS()
    if isinstance(strategy, str):
        try:
            return STRATEGY_NAMES[strategy]()
        except KeyError:
            known = ", ".join(sorted(STRATEGY_NAMES))
            raise ValueError(
                f"unknown search strategy {strategy!r} (known: {known})"
            ) from None
    if not isinstance(strategy, SearchStrategy):
        raise TypeError(
            f"{strategy!r} does not implement the SearchStrategy protocol"
        )
    return strategy
