"""The differential conformance oracle (DESIGN.md §9).

For every generated program the oracle establishes ground truth with the
reference interpreter, then checks, in order:

1. **well-typedness** — the program type-checks against its inputs;
2. **rewrite closure soundness** — every program within a bounded
   breadth-first rewrite closure under the default rule library computes
   the same *bag* as the original on the same concrete inputs (modulo
   the pair-component swap that ``order-inputs`` is specified up to);
3. **FileBackend conformance** — the real-file executor, fed the same
   concrete inputs, produces the same bag (the base program plus a
   deterministic sample of closure members);
4. **CompiledBackend conformance** — the generated-Python executor
   produces the same bag *and*, when the FileBackend also ran, identical
   measured per-device byte/seek counters: the lowering must change wall
   clock only, never the I/O schedule (DESIGN.md §12);
5. **SimBackend cardinality soundness** — the analytic backend's
   reported output cardinality is exact for branch-free programs and an
   upper bound otherwise (run with ``cond_probability = 1``, its worst
   case).  Programs whose derivation contains ``hash-part`` are exempt:
   both the simulator and the paper's estimator assume uniform hashing,
   which skewed generated keys legitimately violate;
6. **estimator-vs-simulator cost sanity** — the §4 estimator's predicted
   cost and the simulator's charged cost stay within a (wide) tolerance
   band whenever both are above a noise floor and the program actually
   touches a device.  This is a divergence alarm, not an accuracy claim:
   the estimator is worst-case and CPU-blind by design.

Any violated check yields a :class:`ConformanceFailure` carrying the
bound failing program and its derivation chain — the input the shrinker
minimizes and the corpus persists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cost.annotated import atom, list_annot, tuple_annot
from ..cost.estimator import (
    CostEstimator,
    CostModel,
    EstimatorError,
    optimistic_cost,
)
from ..hierarchy import hdd_ram_hierarchy
from ..ocal.ast import Node, block_params
from ..ocal.interp import InterpreterError, canonicalize_blocks, evaluate, substitute_blocks
from ..ocal.typecheck import OcalTypeError, check_program
from ..rules.base import RuleContext
from ..rules.engine import all_rewrites
from ..rules.registry import default_rules
from ..runtime.accounting import ExecutionConfig, ExecutionError, InputSpec
from ..runtime.backend import SimBackend
from ..runtime.compiled_backend import CompiledBackend
from ..runtime.file_backend import FileBackend, Rec
from ..symbolic import var
from .generator import GenConfig, GeneratedProgram, ProgramGenerator

__all__ = [
    "OracleConfig",
    "ConformanceFailure",
    "ProgramReport",
    "BatchResult",
    "Oracle",
    "run_conformance",
    "output_bag",
]


@dataclass(frozen=True)
class OracleConfig:
    """Tolerances and bounds for one conformance run."""

    root_bytes: int = 1 << 20
    closure_depth: int = 1
    closure_cap: int = 48
    #: closure members (beyond the base program) also run on sim + file.
    backend_sample: int = 3
    block_values: tuple[int, ...] = (2, 3)
    max_treefold_arity: int = 8
    #: predicted/charged cost ratio band (symmetric, multiplicative).
    cost_band: float = 500.0
    cost_floor: float = 1e-7
    card_tol: float = 1e-6
    check_file: bool = True
    check_compiled: bool = True
    check_sim: bool = True
    check_cost: bool = True
    workdir: str | None = None
    file_seed: int = 0


@dataclass
class ConformanceFailure:
    """One violated conformance check."""

    kind: str
    detail: str
    gen: GeneratedProgram
    program: Node
    derivation: tuple[str, ...] = ()

    def describe(self) -> str:
        chain = " -> ".join(self.derivation) or "(base)"
        return f"[{self.kind}] via {chain}: {self.detail}"


@dataclass
class ProgramReport:
    """Outcome of all checks for one generated program."""

    gen: GeneratedProgram
    closure_size: int = 0
    file_runs: int = 0
    compiled_runs: int = 0
    sim_runs: int = 0
    cost_checked: bool = False
    failures: list[ConformanceFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class BatchResult:
    """Aggregate outcome of a fuzzing batch."""

    count: int = 0
    closure_total: int = 0
    file_runs: int = 0
    compiled_runs: int = 0
    sim_runs: int = 0
    cost_checked: int = 0
    cost_skipped: int = 0
    seconds: float = 0.0
    failures: list[ConformanceFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"{self.count} programs, {self.closure_total} closure members, "
            f"{self.file_runs} file runs, {self.compiled_runs} compiled "
            f"runs, {self.sim_runs} sim runs, "
            f"cost checked on {self.cost_checked} "
            f"(skipped {self.cost_skipped}) in {self.seconds:.1f}s — {status}"
        )


# ----------------------------------------------------------------------
# Output canonicalization
# ----------------------------------------------------------------------
def _freeze(value):
    """Canonical hashable form: Rec → tuple, list → tagged tuple."""
    if isinstance(value, Rec):
        return tuple(_freeze(item) for item in tuple(value))
    if isinstance(value, tuple):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, list):
        return ("#list", tuple(_freeze(item) for item in value))
    return value


def _swap_pair(frozen):
    """Normalize a 2-tuple element up to component order."""
    if (
        isinstance(frozen, tuple)
        and len(frozen) == 2
        and frozen[0] != "#list"
    ):
        return tuple(sorted(frozen, key=repr))
    return frozen


def output_bag(value, pair_swap: bool = False):
    """The comparable form of a program output.

    Lists compare as bags (sorted representations of frozen elements);
    scalars compare directly.  ``pair_swap`` additionally identifies
    2-tuple elements up to component order — the equivalence the
    ``order-inputs`` rule is specified up to.
    """
    if isinstance(value, list):
        items = [_freeze(item) for item in value]
        if pair_swap:
            items = [_swap_pair(item) for item in items]
        return tuple(sorted(map(repr, items)))
    frozen = _freeze(value)
    return _swap_pair(frozen) if pair_swap else frozen


def _true_card(value) -> float:
    return float(len(value)) if isinstance(value, list) else 1.0


def _sort_under_loop(program: Node) -> bool:
    """A sort-shaped node (treeFold, merge fold, or 2-way merge) inside
    a loop body?

    The simulator loop-scales the sort's device traffic by the outer
    trip count while the worst-case estimator charges the subexpression
    once, so no fixed band relates the two on this shape — the oracle
    exempts it (DESIGN.md §9.3).
    """
    from ..ocal.ast import (
        Builtin,
        FlatMap,
        FoldL,
        For,
        Lam,
        TreeFold,
        UnfoldR,
        children,
    )

    def is_sortish(node: Node) -> bool:
        if isinstance(node, TreeFold):
            return True
        if isinstance(node, FoldL) and not isinstance(node.fn, Lam):
            return True
        return (
            isinstance(node, UnfoldR)
            and isinstance(node.fn, Builtin)
            and node.fn.name == "mrg"
        )

    def visit(node: Node, in_body: bool) -> bool:
        if in_body and is_sortish(node):
            return True
        if isinstance(node, For):
            return visit(node.source, in_body) or visit(node.body, True)
        if isinstance(node, FlatMap):
            inner = node.fn
            if isinstance(inner, Lam):
                return visit(inner.body, True)
            return visit(inner, True)
        return any(visit(child, in_body) for child in children(node))

    return visit(program, False)


def _has_non_merge_treefold(program: Node) -> bool:
    """Does the program contain a treeFold with a non-merge step?"""
    from ..ocal.ast import Builtin, FuncPow, TreeFold, UnfoldR, walk

    def merge_based(fn: Node) -> bool:
        if not isinstance(fn, UnfoldR):
            return False
        step = fn.fn
        if isinstance(step, Builtin) and step.name == "mrg":
            return True
        return (
            isinstance(step, FuncPow)
            and isinstance(step.fn, Builtin)
            and step.fn.name == "mrg"
        )

    return any(
        isinstance(node, TreeFold) and not merge_based(node.fn)
        for node in walk(program)
    )


# ----------------------------------------------------------------------
class Oracle:
    """Differential checker for generated programs."""

    def __init__(self, config: OracleConfig | None = None) -> None:
        self.config = config or OracleConfig()
        self.hierarchy = hdd_ram_hierarchy(self.config.root_bytes)
        self.root = self.hierarchy.root.name

    # ------------------------------------------------------------------
    def check(self, gen: GeneratedProgram) -> ProgramReport:
        """Run every conformance check; stop at the first failure."""
        report = ProgramReport(gen=gen)
        cfg = self.config

        try:
            check_program(gen.program, gen.input_types())
        except OcalTypeError as error:
            self._fail(report, "typecheck", str(error), gen.program)
            return report

        values = gen.input_values()
        base = self._bind(gen.program)
        try:
            expected_raw = evaluate(base, values)
        except (InterpreterError, RecursionError) as error:
            self._fail(report, "interp-error", str(error), base)
            return report
        expected = output_bag(expected_raw)
        expected_swapped = output_bag(expected_raw, pair_swap=True)
        true_card = _true_card(expected_raw)

        closure = self._closure(gen)
        report.closure_size = len(closure)

        # 1. Interpreter over the full closure: the soundness claim.
        for program, chain in closure:
            bound = self._bind(program)
            try:
                actual = evaluate(bound, values)
            except (InterpreterError, RecursionError) as error:
                self._fail(report, "closure-interp-error", str(error), bound, chain)
                return report
            pair_swap = "order-inputs" in chain
            want = expected_swapped if pair_swap else expected
            got = output_bag(actual, pair_swap=pair_swap)
            if got != want:
                self._fail(
                    report,
                    "closure-divergence",
                    f"interpreter bag mismatch: {got!r} != {want!r}",
                    bound,
                    chain,
                )
                return report

        # 2/3. Backends on the base program plus a closure sample.
        specs = self._input_specs(gen)
        for program, chain in self._backend_sample(closure):
            bound = self._bind(program)
            pair_swap = "order-inputs" in chain
            want = expected_swapped if pair_swap else expected
            file_result = None
            if cfg.check_file:
                file_result = self._check_file(
                    report, gen, bound, chain, specs, values, want
                )
                if file_result is None:
                    return report
            if cfg.check_compiled and not self._check_compiled(
                report, gen, bound, chain, specs, values, want, file_result
            ):
                return report
            if cfg.check_sim:
                sim_result = self._check_sim(
                    report, gen, bound, chain, specs, true_card
                )
                if sim_result is None and report.failures:
                    return report
                if (
                    not chain
                    and cfg.check_cost
                    and sim_result is not None
                ):
                    self._check_cost(report, gen, bound, sim_result)
                    if report.failures:
                        return report
        return report

    def first_failure(self, gen: GeneratedProgram) -> ConformanceFailure | None:
        """Shrinker predicate: the first failure, or ``None`` when clean."""
        report = self.check(gen)
        return report.failures[0] if report.failures else None

    # ------------------------------------------------------------------
    def _fail(
        self,
        report: ProgramReport,
        kind: str,
        detail: str,
        program: Node,
        chain: tuple[str, ...] = (),
    ) -> None:
        report.failures.append(
            ConformanceFailure(
                kind=kind,
                detail=detail,
                gen=report.gen,
                program=program,
                derivation=chain,
            )
        )

    def _bind(self, program: Node) -> Node:
        params = sorted(block_params(program))
        if not params:
            return program
        blocks = self.config.block_values
        bindings = {
            name: blocks[i % len(blocks)] for i, name in enumerate(params)
        }
        return substitute_blocks(program, bindings)

    # ------------------------------------------------------------------
    def _closure(
        self, gen: GeneratedProgram
    ) -> list[tuple[Node, tuple[str, ...]]]:
        """Bounded BFS rewrite closure with derivation chains."""
        cfg = self.config
        ctx = RuleContext(
            hierarchy=self.hierarchy,
            input_locations=gen.input_locations(),
            output_location=None,
            max_treefold_arity=cfg.max_treefold_arity,
        )
        rules = default_rules()
        base_key = canonicalize_blocks(gen.program)
        seen = {base_key}
        out: list[tuple[Node, tuple[str, ...]]] = [(gen.program, ())]
        frontier: list[tuple[Node, tuple[str, ...]]] = [(gen.program, ())]
        for _ in range(cfg.closure_depth):
            next_frontier: list[tuple[Node, tuple[str, ...]]] = []
            for program, chain in frontier:
                if len(out) >= cfg.closure_cap:
                    break
                for rewrite in all_rewrites(program, rules, ctx):
                    key = canonicalize_blocks(rewrite.program)
                    if key in seen:
                        continue
                    seen.add(key)
                    entry = (rewrite.program, chain + (rewrite.rule,))
                    out.append(entry)
                    next_frontier.append(entry)
                    if len(out) >= cfg.closure_cap:
                        break
            frontier = next_frontier
        return out

    def _backend_sample(
        self, closure: list[tuple[Node, tuple[str, ...]]]
    ) -> list[tuple[Node, tuple[str, ...]]]:
        """The base program plus evenly-spaced closure members."""
        if len(closure) <= 1:
            return closure
        sample = [closure[0]]
        rest = closure[1:]
        take = min(self.config.backend_sample, len(rest))
        if take:
            stride = max(1, len(rest) // take)
            sample.extend(rest[::stride][:take])
        return sample

    # ------------------------------------------------------------------
    def _input_specs(self, gen: GeneratedProgram) -> dict[str, InputSpec]:
        return {
            name: InputSpec(
                card=float(len(inp.values)),
                elem_bytes=float(inp.elem_bytes),
                sorted=inp.sorted,
                nested_runs=inp.nested_runs,
            )
            for name, inp in gen.inputs.items()
        }

    def _execution_config(self, gen: GeneratedProgram) -> ExecutionConfig:
        return ExecutionConfig(
            hierarchy=self.hierarchy,
            input_locations=gen.input_locations(),
            output_location=None,
            cond_probability=1.0,
        )

    def _check_file(
        self,
        report: ProgramReport,
        gen: GeneratedProgram,
        bound: Node,
        chain: tuple[str, ...],
        specs: dict[str, InputSpec],
        values: dict[str, list],
        want,
    ):
        """Run the FileBackend; return its result, or ``None`` on failure."""
        backend = FileBackend(
            workdir=self.config.workdir,
            seed=self.config.file_seed,
            data=values,
            capture_output=True,
        )
        try:
            result = backend.run(bound, specs, self._execution_config(gen))
        except (ExecutionError, ValueError, RecursionError) as error:
            self._fail(report, "file-error", str(error), bound, chain)
            return None
        report.file_runs += 1
        got = output_bag(
            backend.last_output, pair_swap="order-inputs" in chain
        )
        if got != want:
            self._fail(
                report,
                "file-divergence",
                f"FileBackend bag mismatch: {got!r} != {want!r}",
                bound,
                chain,
            )
            return None
        return result

    def _check_compiled(
        self,
        report: ProgramReport,
        gen: GeneratedProgram,
        bound: Node,
        chain: tuple[str, ...],
        specs: dict[str, InputSpec],
        values: dict[str, list],
        want,
        file_result,
    ) -> bool:
        backend = CompiledBackend(
            workdir=self.config.workdir,
            seed=self.config.file_seed,
            data=values,
            capture_output=True,
        )
        try:
            result = backend.run(bound, specs, self._execution_config(gen))
        except (ExecutionError, ValueError, RecursionError) as error:
            self._fail(report, "compiled-error", str(error), bound, chain)
            return False
        report.compiled_runs += 1
        got = output_bag(
            backend.last_output, pair_swap="order-inputs" in chain
        )
        if got != want:
            self._fail(
                report,
                "compiled-divergence",
                f"CompiledBackend bag mismatch: {got!r} != {want!r}",
                bound,
                chain,
            )
            return False
        if file_result is not None:
            # Counter parity: lowering may only change wall clock, never
            # the I/O schedule (DESIGN.md §12).
            for device in sorted(
                set(file_result.stats.devices) | set(result.stats.devices)
            ):
                theirs = file_result.stats.device(device)
                ours = result.stats.device(device)
                for counter in (
                    "reads",
                    "writes",
                    "bytes_read",
                    "bytes_written",
                    "seeks",
                ):
                    if getattr(ours, counter) != getattr(theirs, counter):
                        self._fail(
                            report,
                            "compiled-counter-mismatch",
                            f"{device}.{counter}: compiled "
                            f"{getattr(ours, counter)} != file "
                            f"{getattr(theirs, counter)}",
                            bound,
                            chain,
                        )
                        return False
        return True

    def _check_sim(
        self,
        report: ProgramReport,
        gen: GeneratedProgram,
        bound: Node,
        chain: tuple[str, ...],
        specs: dict[str, InputSpec],
        true_card: float,
    ):
        try:
            result = SimBackend().run(
                bound, specs, self._execution_config(gen)
            )
        except (ExecutionError, RecursionError) as error:
            self._fail(report, "sim-error", str(error), bound, chain)
            return None
        report.sim_runs += 1
        tol = self.config.card_tol
        if "hash-part" in chain:
            # Per-bucket cardinalities assume uniform hashing; skewed
            # generated keys legitimately break the bound (§7.3).
            return result
        if _has_non_merge_treefold(bound):
            # The simulator models every treeFold as a list-valued sort:
            # a lambda-step treeFold (fldL-to-trfld / inc-branching over
            # a scalar fold) reports the run count — 0 on an empty input
            # — where the true output is one scalar (DESIGN.md §9.3).
            return result
        if gen.card_exact and not chain:
            if abs(result.output_card - true_card) > tol * max(1.0, true_card):
                self._fail(
                    report,
                    "sim-card-mismatch",
                    f"analytic card {result.output_card} != {true_card} "
                    f"for a branch-free program",
                    bound,
                    chain,
                )
                return None
        elif result.output_card + tol * max(1.0, true_card) < true_card:
            self._fail(
                report,
                "sim-card-unsound",
                f"analytic worst-case card {result.output_card} below "
                f"true card {true_card}",
                bound,
                chain,
            )
            return None
        return result

    def _check_cost(
        self,
        report: ProgramReport,
        gen: GeneratedProgram,
        bound: Node,
        sim_result,
    ) -> None:
        cfg = self.config
        touches_device = any(
            inp.location != self.root and inp.values
            for inp in gen.inputs.values()
        )
        if not touches_device:
            return
        if _sort_under_loop(bound):
            return  # no fixed band holds on this shape; see DESIGN.md §9.3
        annots = {}
        stats = {}
        for name, inp in gen.inputs.items():
            size_var = var(f"n_{name}")
            stats[f"n_{name}"] = float(len(inp.values))
            if inp.kind == "pair":
                annots[name] = list_annot(
                    tuple_annot(atom(8), atom(8)), size_var
                )
            elif inp.kind == "runs":
                annots[name] = list_annot(list_annot(atom(8), 1), size_var)
            else:
                annots[name] = list_annot(atom(8), size_var)
        model = CostModel(
            hierarchy=self.hierarchy,
            input_annots=annots,
            input_locations=gen.input_locations(),
            output_location=None,
            stats=stats,
        )
        try:
            estimate = CostEstimator(model).estimate(bound)
            predicted = optimistic_cost(estimate, stats)
        except EstimatorError:
            return  # not all generated shapes are costable; that is fine
        charged = sim_result.elapsed
        if predicted < cfg.cost_floor:
            # A zero prediction for a device-touching program marks the
            # estimator's modeled-fragment boundary (e.g. bare emission
            # of a device-resident list, which synthesized programs never
            # do) — outside the band's jurisdiction; see DESIGN.md §9.
            if charged < cfg.cost_floor:
                report.cost_checked = True
            return
        report.cost_checked = True
        # One-sided band: the §4 estimator is *worst-case* — it may
        # overshoot the simulated actual without bound (the paper's own
        # Spec column overshoots by 10^7, §7.3) but must never undershoot
        # it by more than the band (its only blind spots are CPU and
        # request overheads, which are band-bounded at generator scale).
        low = charged / cfg.cost_band
        if predicted + cfg.cost_floor < low:
            self._fail(
                report,
                "cost-band",
                f"worst-case prediction {predicted:.3g}s undershoots "
                f"simulated {charged:.3g}s by more than ×{cfg.cost_band}",
                bound,
            )


# ----------------------------------------------------------------------
def run_conformance(
    seed: int = 0,
    count: int = 50,
    gen_config: GenConfig | None = None,
    oracle_config: OracleConfig | None = None,
    on_failure=None,
    progress=None,
) -> BatchResult:
    """Generate *count* programs and run the oracle on each.

    ``on_failure(gen, failure)`` is invoked per failing program (the CLI
    hooks shrinking + corpus persistence there); ``progress(i, report)``
    per checked program.
    """
    oracle = Oracle(oracle_config)
    generator = ProgramGenerator(seed=seed, config=gen_config)
    batch = BatchResult(count=count)
    started = time.perf_counter()
    for index in range(count):
        gen = generator.generate()
        report = oracle.check(gen)
        batch.closure_total += report.closure_size
        batch.file_runs += report.file_runs
        batch.compiled_runs += report.compiled_runs
        batch.sim_runs += report.sim_runs
        if report.cost_checked:
            batch.cost_checked += 1
        else:
            batch.cost_skipped += 1
        if report.failures:
            batch.failures.extend(report.failures)
            if on_failure is not None:
                on_failure(gen, report.failures[0])
        if progress is not None:
            progress(index, report)
    batch.seconds = time.perf_counter() - started
    return batch
