"""``python -m repro`` — synthesize and execute workloads from the shell.

Every subcommand is a thin wrapper over the declarative front door
(:mod:`repro.api`): one :class:`~repro.api.Session`, one
:class:`~repro.api.Job`, one :class:`~repro.api.JobResult`.

Subcommands:

* ``list`` — available workloads (with scales), hierarchy presets, and
  backends;
* ``run <workload>`` — synthesize a named workload and execute the
  winner on a chosen backend (``--backend sim|file|compiled``,
  ``--hierarchy <preset>``), printing a Table-1-style summary row; ``--json`` emits
  the machine-readable :meth:`~repro.api.JobResult.to_json` record
  instead, ``--save-plan`` also persists the tuned plan;
* ``synth <workload>`` — synthesis only: search, tune, print the
  derivation, and (with ``--save-plan``) write the serialized plan so
  it can be shipped and re-executed without re-searching;
* ``exec --plan <file>`` — load a saved plan, statically verify it
  (exit 1 with rendered diagnostics on rejection), and execute it; the
  synthesizer is never invoked (the emitted search counters are zero);
* ``check`` — the static plan verifier (DESIGN.md §15): verify named
  workloads' specifications, or a saved plan via ``--plan`` (optionally
  replayed against a different ``--hierarchy`` preset — a stale plan is
  rejected with positioned diagnostics); exit 0 clean, 1 on
  diagnostics, 2 on usage errors;
* ``serve`` — the synthesis-as-a-service front door (DESIGN.md §14):
  an HTTP job server answering repeated requests from a persistent
  content-addressed plan store instead of re-searching;
* ``validate`` — run the predicted-vs-measured validation bench on both
  backends (optionally ``--parallel N``) and write
  ``BENCH_validation.json``; exits non-zero when the synthesized winner
  is not ranked first on any workload (the CI gate);
* ``fuzz`` — generative conformance testing: random well-typed OCAL
  programs differentially executed on the reference interpreter, the
  analytic simulator, the real-file backend, and the compiled backend
  (with measured-counter parity against the file backend), over a
  bounded rewrite closure; counterexamples are shrunk and persisted to
  the corpus.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Out-of-core algorithm synthesis: synthesize a workload and "
            "run the winner on the simulated or the real-file backend."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, presets, and backends")

    def add_synth_args(cmd, with_execution: bool) -> None:
        cmd.add_argument("workload", help="workload name (see `list`)")
        cmd.add_argument(
            "--scale", default=None, choices=("validation", "table1"),
            help="experiment scale (default: the workload's own default)",
        )
        cmd.add_argument(
            "--strategy", default="best-first",
            help="search strategy: exhaustive-bfs | beam | best-first",
        )
        cmd.add_argument(
            "--save-plan", default=None, metavar="PATH",
            help="write the tuned plan as a JSON document",
        )
        cmd.add_argument(
            "--json", action="store_true",
            help="emit a machine-readable JSON record instead of text",
        )
        if with_execution:
            cmd.add_argument(
                "--backend", default="sim",
                help="execution backend: sim | file | compiled",
            )
            cmd.add_argument(
                "--hierarchy", default=None,
                help="hierarchy preset overriding the workload default",
            )
            cmd.add_argument(
                "--ram-size", type=int, default=None,
                help="root (buffer pool) size in bytes for --hierarchy",
            )
            cmd.add_argument(
                "--seed", type=int, default=7, help="data seed (file)"
            )
            cmd.add_argument(
                "--workdir", default=None,
                help="directory for the file backend's temp files",
            )

    run = sub.add_parser(
        "run", help="synthesize one workload and execute the winner"
    )
    add_synth_args(run, with_execution=True)

    synth = sub.add_parser(
        "synth", help="synthesize only; optionally save the tuned plan"
    )
    add_synth_args(synth, with_execution=False)

    exec_ = sub.add_parser(
        "exec", help="execute a saved plan without re-searching"
    )
    exec_.add_argument(
        "--plan", required=True, help="plan document written by --save-plan"
    )
    exec_.add_argument(
        "--backend", default=None,
        help=(
            "execution backend: sim | file | compiled "
            "(default: the plan's recorded backend, else sim)"
        ),
    )
    exec_.add_argument(
        "--hierarchy", default=None,
        help=(
            "hierarchy preset to execute on instead of the plan's own; "
            "the plan is re-verified against it first and a stale plan "
            "is rejected (exit 1)"
        ),
    )
    exec_.add_argument(
        "--ram-size", type=int, default=None,
        help="root (buffer pool) size in bytes for --hierarchy",
    )
    exec_.add_argument("--seed", type=int, default=7, help="data seed (file)")
    exec_.add_argument(
        "--workdir", default=None,
        help="directory for the file backend's temp files",
    )
    exec_.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON record instead of text",
    )

    check = sub.add_parser(
        "check",
        help="statically verify workload specs or a saved plan",
    )
    check.add_argument(
        "workloads", nargs="*",
        help="workload names to verify (default: every registered one)",
    )
    check.add_argument(
        "--plan", default=None, metavar="PATH",
        help="verify a saved plan document instead of workload specs",
    )
    check.add_argument(
        "--hierarchy", default=None,
        help=(
            "with --plan: replay the plan against this hierarchy preset "
            "instead of the one it was tuned for"
        ),
    )
    check.add_argument(
        "--ram-size", type=int, default=None,
        help="root (buffer pool) size in bytes for --hierarchy",
    )
    check.add_argument(
        "--json", action="store_true",
        help="emit the diagnostics as JSON instead of rendered text",
    )

    serve = sub.add_parser(
        "serve",
        help="HTTP job server over a persistent plan store",
    )
    serve.add_argument(
        "--store", default=".repro-store", metavar="DIR",
        help="plan-store directory (created if missing)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8737,
        help="listen port (0 = pick a free one)",
    )
    serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help=(
            "worker processes for concurrent searches "
            "(0 = one per CPU, 1 = in-process)"
        ),
    )
    serve.add_argument(
        "--queue-cap", type=int, default=8, metavar="N",
        help="max queued jobs before new misses get 429",
    )
    serve.add_argument(
        "--no-persist-memo", action="store_true",
        help="disable the on-disk cost-memo spill",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (default: unbounded)",
    )
    serve.add_argument(
        "--job-retries", type=int, default=1, metavar="N",
        help=(
            "extra attempts after a failed or timed-out search "
            "(exponential backoff with jitter between attempts)"
        ),
    )

    validate = sub.add_parser(
        "validate",
        help="predicted-vs-measured validation on both backends",
    )
    validate.add_argument(
        "--workloads", default=None,
        help="comma-separated workload names (default: the standard set)",
    )
    validate.add_argument(
        "--out", default="BENCH_validation.json", help="report path"
    )
    validate.add_argument("--seed", type=int, default=7)
    validate.add_argument("--workdir", default=None)
    validate.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help=(
            "synthesize the workloads over N worker processes "
            "(0 = one per CPU)"
        ),
    )

    fuzz = sub.add_parser(
        "fuzz",
        help=(
            "differentially test random well-typed OCAL programs across "
            "interpreter, SimBackend, FileBackend, and CompiledBackend"
        ),
    )
    fuzz.add_argument("--seed", type=int, default=0, help="generator seed")
    fuzz.add_argument(
        "--count", type=int, default=200, help="number of programs"
    )
    fuzz.add_argument(
        "--max-size", type=int, default=40,
        help="node-count budget per generated program",
    )
    fuzz.add_argument(
        "--backend", default="both",
        choices=("both", "sim", "file", "compiled", "none"),
        help=(
            "which execution backends to check against the interpreter "
            "(both = sim + file + compiled)"
        ),
    )
    fuzz.add_argument(
        "--depth", type=int, default=1,
        help="rewrite-closure depth checked per program",
    )
    fuzz.add_argument(
        "--closure-cap", type=int, default=48,
        help="max programs per rewrite closure",
    )
    fuzz.add_argument(
        "--corpus", default="tests/conformance/corpus",
        help="directory where shrunk counterexamples are persisted",
    )
    fuzz.add_argument(
        "--no-save", action="store_true",
        help="do not persist counterexamples to the corpus",
    )
    fuzz.add_argument(
        "--progress-every", type=int, default=50,
        help="print a progress line every N programs (0 = quiet)",
    )
    fuzz.add_argument(
        "--faults", type=int, default=None, metavar="SEED",
        help=(
            "chaos mode: run every generated program under seeded "
            "fault injection across the file/compiled lanes; "
            "each run must recover with a byte-identical bag or fail "
            "with a clean positioned ExecutionFault (DESIGN.md §16)"
        ),
    )
    fuzz.add_argument(
        "--fault-variants", type=int, default=3, metavar="N",
        help="fault schedules per (program, lane) in chaos mode",
    )
    fuzz.add_argument(
        "--schedule-out", default="chaos-schedule.json", metavar="PATH",
        help=(
            "where chaos mode writes the batch report with the "
            "injected-fault schedules on failure (CI uploads it)"
        ),
    )
    return parser


def _cmd_list() -> int:
    from .api import default_registry
    from .hierarchy import HIERARCHY_PRESETS
    from .runtime import backend_names

    registry = default_registry()
    print("workloads:")
    for workload in registry:
        scales = ",".join(sorted(workload.scales))
        print(f"  {workload.name:<26} [{scales}] {workload.description}")
    print("hierarchy presets:")
    for name in HIERARCHY_PRESETS:
        print(f"  {name}")
    print("backends:")
    for name in backend_names():
        print(f"  {name}")
    return 0


def _synthesize_job(args, session):
    """Shared synthesis step of ``run`` and ``synth`` (None on error)."""
    from .api import WorkloadError
    from .hierarchy import hierarchy_preset

    try:
        workload = session.registry.get(args.workload)
        experiment = workload.experiment(args.scale)
        scale = args.scale or workload.default_scale
    except WorkloadError as error:
        print(error, file=sys.stderr)
        return None
    if getattr(args, "hierarchy", None) is not None:
        try:
            hierarchy = hierarchy_preset(args.hierarchy, args.ram_size)
        except ValueError as error:
            print(error, file=sys.stderr)
            return None
        # The preset must provide every node the workload names.
        needed = set(experiment.input_locations.values())
        if experiment.output_location is not None:
            needed.add(experiment.output_location)
        missing = sorted(needed - set(hierarchy.nodes))
        if missing:
            print(
                f"hierarchy preset {args.hierarchy!r} has no node(s) "
                f"{missing} required by workload {args.workload!r} "
                f"(preset nodes: {sorted(hierarchy.nodes)})",
                file=sys.stderr,
            )
            return None
        experiment.hierarchy = hierarchy
    job = session.synthesize(
        experiment, scale=scale, strategy=args.strategy
    )
    return job


def _print_run_row(job, result) -> None:
    from .api import format_results

    execution = result.execution
    print(format_results([result]))
    print(f"backend: {execution.backend}  ({execution.summary()})")
    print(f"derivation: {' -> '.join(job.derivation) or '(spec)'}")
    if job.plan.parameter_values:
        tuned = ", ".join(
            f"{name}={value}"
            for name, value in sorted(job.plan.parameter_values.items())
        )
        print(f"tuned parameters: {tuned}")
    report = execution.stats.report()
    if report:
        print(report)


def _resolve_backend(args):
    """Fail fast on a bad backend name *before* paying for synthesis."""
    from .runtime import get_backend

    options = (
        {"seed": args.seed, "workdir": args.workdir}
        if args.backend in ("file", "compiled")
        else {}
    )
    try:
        return get_backend(args.backend, **options)
    except ValueError as error:
        print(error, file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    from .api import Session
    from .codegen.plan import PlanError
    from .runtime.faults import ExecutionFault

    backend = _resolve_backend(args)
    if backend is None:
        return 2
    # The session's default backend is the chosen one, so a job saved
    # with --save-plan records it and `exec` replays on it by default.
    session = Session(strategy=args.strategy, backend=args.backend)
    job = _synthesize_job(args, session)
    if job is None:
        return 2
    try:
        result = job.run(backend=backend)
    except PlanError as error:
        print(error, file=sys.stderr)
        return 2
    except ExecutionFault as fault:
        print(f"execution fault: {fault}", file=sys.stderr)
        return 1
    except OSError as error:
        print(
            f"cannot execute: workdir unusable ({error})", file=sys.stderr
        )
        return 2
    if args.save_plan:
        job.save(args.save_plan)
        if not args.json:
            print(f"plan written to {args.save_plan}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        _print_run_row(job, result)
    return 0


def _cmd_synth(args) -> int:
    from .api import Session

    session = Session(strategy=args.strategy)
    job = _synthesize_job(args, session)
    if job is None:
        return 2
    if args.save_plan:
        job.save(args.save_plan)
    if args.json:
        record = job.to_json()
        record["search"] = job.search.to_json()
        record["synth_seconds"] = job.synth_seconds
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(job.explain())
        if args.save_plan:
            print(f"plan written to {args.save_plan}")
    return 0


def _cmd_exec(args) -> int:
    from .api import Job
    from .codegen.plan import PlanError
    from .runtime.faults import ExecutionFault

    try:
        job = Job.load(args.plan)
    except Exception as error:  # lint: allow-broad-except
        # A missing or corrupt plan file must exit cleanly, never
        # traceback.  Decoding a hostile document can raise nearly
        # anything (AttributeError on a null program, TypeError on a
        # wrong-shaped node, ...), so the net is deliberately wide —
        # there is nothing below this frame to recover.
        print(f"cannot load plan {args.plan!r}: {error}", file=sys.stderr)
        return 2
    from .analysis import errors, render_report, verify_job

    target = None
    if args.hierarchy is not None:
        from .hierarchy import hierarchy_preset

        try:
            target = hierarchy_preset(args.hierarchy, args.ram_size)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    rejected = errors(verify_job(job, hierarchy=target))
    if rejected:
        print(render_report(rejected), file=sys.stderr)
        print(
            f"plan {args.plan!r} failed static verification; not executing",
            file=sys.stderr,
        )
        return 1
    if target is not None:
        import dataclasses

        job.config = dataclasses.replace(job.config, hierarchy=target)
    if args.backend is None:
        # Re-execute on the backend the plan was saved with.
        recorded = job.backend
        args.backend = recorded if isinstance(recorded, str) else "sim"
    backend = _resolve_backend(args)
    if backend is None:
        return 2
    try:
        result = job.run(backend=backend)
    except PlanError as error:
        print(error, file=sys.stderr)
        return 2
    except ExecutionFault as fault:
        print(f"execution fault: {fault}", file=sys.stderr)
        return 1
    except OSError as error:
        print(
            f"cannot execute plan: workdir unusable ({error})",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(result.summary())
        report = result.execution.stats.report()
        if report:
            print(report)
    return 0


def _cmd_check(args) -> int:
    from .analysis import errors, render_report, verify_experiment, verify_job

    targets: list[tuple[str, list]] = []
    if args.plan is not None:
        if args.workloads:
            print(
                "check: give either workload names or --plan, not both",
                file=sys.stderr,
            )
            return 2
        from .api import Job

        try:
            job = Job.load(args.plan)
        except Exception as error:  # lint: allow-broad-except
            # Same wide net as `exec`: a hostile or corrupt document can
            # raise nearly anything while decoding.
            print(f"cannot load plan {args.plan!r}: {error}", file=sys.stderr)
            return 2
        try:
            diagnostics = verify_job(
                job, hierarchy=args.hierarchy, ram_size=args.ram_size
            )
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
        targets.append((args.plan, diagnostics))
    else:
        if args.hierarchy is not None or args.ram_size is not None:
            print(
                "check: --hierarchy/--ram-size only apply to --plan",
                file=sys.stderr,
            )
            return 2
        from .api import WorkloadError, default_registry

        registry = default_registry()
        names = args.workloads or sorted(registry.names())
        for name in names:
            try:
                workload = registry.get(name)
                experiment = workload.experiment(workload.default_scale)
            except WorkloadError as error:
                print(error, file=sys.stderr)
                return 2
            targets.append((name, verify_experiment(experiment)))

    failed = False
    records = []
    for target, diagnostics in targets:
        target_errors = errors(diagnostics)
        failed = failed or bool(target_errors)
        records.append(
            {
                "target": target,
                "ok": not target_errors,
                "diagnostics": [d.to_json() for d in diagnostics],
            }
        )
        if not args.json:
            if diagnostics:
                print(f"{target}:")
                print(render_report(diagnostics))
            else:
                print(f"{target}: ok")
    if args.json:
        print(
            json.dumps(
                {"ok": not failed, "targets": records},
                indent=2,
                sort_keys=True,
            )
        )
    return 1 if failed else 0


def _cmd_serve(args) -> int:
    from .service import PlanService

    service = PlanService(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_cap=args.queue_cap,
        persist_memo=not args.no_persist_memo,
        job_timeout=args.job_timeout,
        job_retries=args.job_retries,
    )
    service.run(announce=print)
    print(
        "served {requests} requests: {hits} store hits, {misses} searches, "
        "{deduped} deduped, {rejected} rejected".format(**service.stats())
    )
    return 0


def _cmd_validate(args) -> int:
    from .api import validation_scale_names
    from .bench.validation import DEFAULT_WORKLOADS, write_validation_report

    names = (
        tuple(
            name.strip()
            for name in args.workloads.split(",")
            if name.strip()
        )
        if args.workloads is not None
        else DEFAULT_WORKLOADS
    )
    if not names:
        print("validate: no workloads selected", file=sys.stderr)
        return 2
    known = validation_scale_names()
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(
            f"validate: unknown workload(s) {unknown}; "
            f"expected one of {sorted(known)}",
            file=sys.stderr,
        )
        return 2
    kwargs = dict(
        path=args.out, names=names, seed=args.seed, workdir=args.workdir
    )
    if args.parallel is not None:
        kwargs["parallel"] = args.parallel
    report = write_validation_report(**kwargs)
    for workload in report["workloads"]:
        status = "ok" if workload["winner_first"] else "DISAGREES"
        print(
            f"{workload['workload']:<26} winner-first: {status:<10} "
            f"act/opt: {workload['act_over_opt']:.2f}"
        )
    print(f"report written to {args.out}")
    if not report["workloads"]:
        print("validate: empty report", file=sys.stderr)
        return 2
    # The exit code *is* the CI gate: non-zero whenever the synthesized
    # winner is not ranked first under the measured cost on any workload.
    return 0 if report["all_winner_first"] else 1


def _cmd_fuzz_chaos(args) -> int:
    """``fuzz --faults SEED`` — the chaos lane (DESIGN.md §16)."""
    from .conformance import run_chaos

    def progress(index, result) -> None:
        if args.progress_every and (index + 1) % args.progress_every == 0:
            print(f"  ... {index + 1}/{args.count} programs chaos-tested")

    result = run_chaos(
        seed=args.seed,
        count=args.count,
        fault_seed=args.faults,
        variants=max(1, args.fault_variants),
        max_size=max(6, args.max_size),
        progress=progress,
    )
    print(result.summary())
    for failure in result.failures:
        print(f"CHAOS FAILURE: {failure.describe()}")
    if not result.ok and args.schedule_out:
        with open(args.schedule_out, "w") as handle:
            json.dump(result.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"fault schedules written to {args.schedule_out}")
    return 0 if result.ok else 1


def _cmd_fuzz(args) -> int:
    if args.faults is not None:
        return _cmd_fuzz_chaos(args)
    from .conformance import (
        GenConfig,
        Oracle,
        OracleConfig,
        run_conformance,
        save_counterexample,
        shrink_counterexample,
    )
    from .ocal.printer import pretty

    oracle_config = OracleConfig(
        closure_depth=max(0, args.depth),
        closure_cap=max(1, args.closure_cap),
        check_file=args.backend in ("both", "file", "compiled"),
        check_compiled=args.backend in ("both", "compiled"),
        check_sim=args.backend in ("both", "sim"),
        check_cost=args.backend in ("both", "sim"),
    )
    gen_config = GenConfig(max_size=max(6, args.max_size))
    shrunk_paths: list[str] = []

    def on_failure(gen, failure) -> None:
        print(f"COUNTEREXAMPLE (case {gen.index}): {failure.describe()}")
        oracle = Oracle(oracle_config)
        small, small_failure = shrink_counterexample(oracle, gen, failure)
        print(f"  shrunk to: {pretty(small.program)}")
        for name, inp in small.inputs.items():
            print(
                f"    {name}: {inp.kind}@{inp.location}"
                f"{' sorted' if inp.sorted else ''} = {inp.values!r}"
            )
        if not args.no_save:
            path = save_counterexample(
                args.corpus, small, small_failure.describe()
            )
            shrunk_paths.append(path)
            print(f"  persisted to {path}")

    def progress(index, report) -> None:
        if args.progress_every and (index + 1) % args.progress_every == 0:
            print(f"  ... {index + 1}/{args.count} programs checked")

    batch = run_conformance(
        seed=args.seed,
        count=args.count,
        gen_config=gen_config,
        oracle_config=oracle_config,
        on_failure=on_failure,
        progress=progress,
    )
    print(batch.summary())
    if shrunk_paths:
        print("replay with: python -m pytest tests/conformance -q")
    return 0 if batch.ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "synth":
        return _cmd_synth(args)
    if args.command == "exec":
        return _cmd_exec(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    raise AssertionError(f"unhandled command {args.command!r}")
