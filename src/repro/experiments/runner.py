"""Command-line runner that regenerates every table and figure.

``kernelgpt-repro --preset quick`` (installed by the package) runs every
experiment and prints the rendered tables; ``--experiment table5`` runs a
single one; ``--output DIR`` additionally writes one text file per result.

The runner is engine-backed: ``--jobs N`` fans independent experiments out
across N workers, and ``--executor {serial,thread,process}`` picks the pool
flavour.  With threads (the default), shared artifacts — kernel, generation
run, baselines — are built exactly once, under the context lock.  With
processes, each worker builds (and caches, per process, across its tasks)
its own evaluation context from the preset name, because contexts hold
locks and engines that cannot cross a process boundary; experiments are
pure functions of the configuration, so the rendered tables are unchanged.
``--profile`` prints the engine's per-stage wall-time breakdown plus cache
statistics.  Results are printed in deterministic experiment order whatever
the job count or executor, and per-experiment timing lines go to stderr, so
``--jobs 4 --executor process`` stdout matches ``--jobs 1`` byte for byte.

``kernelgpt-repro campaign`` runs the same experiments as a DAG-scheduled
campaign with quality gates and a structured event log (see
:mod:`repro.orchestrator`); its stdout matches this runner's byte for byte.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ..engine import ExecutionEngine, TaskSpec
from .ablation_iterative import run_ablation_iterative
from .ablation_llm import run_ablation_llm
from .config import paper, quick
from .context import EvaluationContext
from .figure7 import run_figure7
from .reporting import TableResult
from .table1 import run_correctness_audit, run_table1
from .table2 import run_table2
from .table3 import run_table3
from .table4 import run_table4
from .table5 import run_table5
from .table6 import run_table6

EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "figure7": run_figure7,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "ablation_iterative": run_ablation_iterative,
    "ablation_llm": run_ablation_llm,
}


def run_experiment(name: str, ctx: EvaluationContext) -> TableResult:
    """Run one named experiment against a shared context."""
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise SystemExit(f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}")
    return runner(ctx)


def run_experiment_for_preset(name: str, preset: str, **overrides) -> TableResult:
    """Run one experiment against the process-wide context for ``preset``.

    The process-pool and campaign task payload: module-level, with plain
    string arguments, so it pickles by name.  ``overrides`` are
    :func:`~repro.experiments.context.shared_context`'s keyword-only
    overrides (``backends``, ``pool_schedule``, ``route_table``,
    ``repair_mode``, ``store_spec``, ``resilience_spec``), carrying the
    runner's flags into worker processes.  ``shared_context`` keeps one
    context per configuration and store binding in each process, so a
    worker (or a campaign) that runs several experiments builds the
    kernel/generation artifacts once — the per-process analogue of the
    thread path's shared context.  Experiments are deterministic functions
    of the configuration, so the rendered result is byte-identical to the
    shared-memory path.
    """
    from .context import shared_context

    return run_experiment(name, shared_context(preset, **overrides))


def run_table1_for_preset(preset: str, **overrides) -> "tuple[TableResult, str]":
    """table1 plus its §5.1.3 correctness audit as one process-pool payload.

    The audit needs the full generation run, which in process mode lives in
    a worker context, not the parent's — recomputing it in the parent would
    redo the whole pipeline serially, and a separate audit task would build
    a second context on another worker.  Bundling table + rendered audit
    into one task means exactly one worker pays for the generation run.
    ``overrides`` are those of :func:`run_experiment_for_preset`; the
    context is the same one every other caller in this process gets for
    the same configuration and store binding.
    """
    from .context import shared_context

    ctx = shared_context(preset, **overrides)
    return run_table1(ctx), run_correctness_audit(ctx).render()


def parse_route_table(entries: list[str]) -> tuple[tuple[str, str], ...]:
    """Parse repeated ``--route KIND=PROFILE`` flags into a route table.

    Entries are sorted by kind so that flag order never changes the
    configuration (route tables are lookup maps, not priority lists); a
    kind given twice is an error rather than a silent last-wins.
    """
    from ..llm import PROFILE_FACTORIES

    table: dict[str, str] = {}
    for entry in entries:
        kind, separator, profile = entry.partition("=")
        kind, profile = kind.strip(), profile.strip()
        if not separator or not kind or not profile:
            raise SystemExit(f"--route expects KIND=PROFILE, got {entry!r}")
        if profile not in PROFILE_FACTORIES:
            raise SystemExit(
                f"--route {entry!r}: unknown profile {profile!r}; "
                f"choose from {', '.join(PROFILE_FACTORIES)}"
            )
        if kind in table:
            raise SystemExit(f"--route given twice for kind {kind!r}")
        table[kind] = profile
    return tuple(sorted(table.items()))


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if arguments and arguments[0] == "serve":
        # The serving front door lives in repro.service; imported lazily so
        # the batch CLI pays nothing for it.
        from ..errors import AdmissionError
        from ..service.cli import serve_main

        try:
            return serve_main(arguments[1:])
        except AdmissionError as error:
            print(f"admission refused: {error}", file=sys.stderr)
            return 2
    if arguments and arguments[0] == "campaign":
        # DAG-scheduled campaigns live in repro.orchestrator; same lazy
        # import rule as serve.
        from ..errors import CampaignPlanError
        from ..orchestrator.cli import campaign_main

        try:
            return campaign_main(arguments[1:])
        except CampaignPlanError as error:
            print(f"invalid campaign plan: {error}", file=sys.stderr)
            return 2
    if arguments and arguments[0] == "diff":
        # Differential campaigns live in repro.diffcampaign; same lazy
        # import rule as serve/campaign.
        from ..errors import CampaignPlanError, ConfigError
        from ..diffcampaign.cli import diff_main

        try:
            return diff_main(arguments[1:])
        except (CampaignPlanError, ConfigError) as error:
            print(f"invalid diff campaign: {error}", file=sys.stderr)
            return 2
    parser = argparse.ArgumentParser(description="Regenerate the KernelGPT evaluation tables/figures")
    parser.add_argument("--experiment", "-e", action="append", choices=sorted(EXPERIMENTS) + ["all"],
                        default=None, help="experiment(s) to run (default: all)")
    parser.add_argument("--preset", choices=["quick", "paper"], default="quick")
    parser.add_argument("--output", type=Path, default=None, help="directory to write result text files")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="workers for independent experiments (default: 1)")
    parser.add_argument("--executor", choices=["serial", "thread", "process"], default="thread",
                        help="worker pool flavour for --jobs > 1 (default: thread)")
    parser.add_argument("--backends", default=None, metavar="PROFILES",
                        help="comma-separated capability profiles for the LLM-choice "
                             "ablation's BackendPool, e.g. gpt-4,gpt-3.5 "
                             "(default: the paper's gpt-4,gpt-4o,gpt-3.5 line-up)")
    parser.add_argument("--pool-schedule", choices=["tagged", "round-robin"], default=None,
                        help="BackendPool placement for untagged LLM requests: tagged "
                             "(default member only) or round-robin (budget-aware "
                             "load balancing across pool members)")
    parser.add_argument("--repair-mode", choices=["per-query", "transactional"], default=None,
                        help="validation-repair protocol: per-query (one LLM round-trip "
                             "per broken declaration, the historical loop) or "
                             "transactional (snapshot-batched repair rounds, one "
                             "round-trip per round)")
    parser.add_argument("--route", action="append", default=None, metavar="KIND=PROFILE",
                        help="kind-route table entry, e.g. --route repair=gpt-3.5: wraps "
                             "the analyst in a BackendPool and sends every prompt of "
                             "KIND to the named capability profile (repeatable)")
    parser.add_argument("--store", type=Path, default=None, metavar="DIR",
                        help="persistent artifact store: hydrate LLM/extract/session "
                             "caches from DIR and write fresh computations through")
    parser.add_argument("--freeze", type=Path, default=None, metavar="LOCKFILE",
                        help="after a successful run, snapshot the store manifest to "
                             "LOCKFILE so --frozen can replay it (requires --store)")
    parser.add_argument("--frozen", type=Path, default=None, metavar="LOCKFILE",
                        help="replay a frozen run: resolve every artifact through "
                             "LOCKFILE's pins, refuse live backend traffic with a "
                             "typed FrozenStoreMiss (requires --store)")
    parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="deterministic chaos injection for the analysis backend, "
                             "e.g. rate=0.2,seed=7[,kinds=transient+timeout]: faults "
                             "are a pure function of (route, prompt, occurrence), so "
                             "retried runs converge to fault-free bytes")
    parser.add_argument("--retry", default=None, metavar="SPEC",
                        help="retry policy for the resilient backend wrapper, e.g. "
                             "attempts=6 or off; a --fault-plan without --retry uses "
                             "the default policy (4 attempts, capped backoff)")
    parser.add_argument("--breaker-threshold", type=int, default=None, metavar="N",
                        help="arm per-member circuit breakers in BackendPools: open "
                             "after N consecutive member failures, deterministic "
                             "failover to the remaining members")
    parser.add_argument("--profile", action="store_true",
                        help="print per-stage timings and cache statistics at the end")
    args = parser.parse_args(argv)

    backends = tuple(part.strip() for part in args.backends.split(",") if part.strip()) \
        if args.backends else None
    route_table = parse_route_table(args.route) if args.route else None
    if (args.freeze or args.frozen) and not args.store:
        raise SystemExit("--freeze/--frozen require --store DIR")
    if args.freeze and args.frozen:
        raise SystemExit("--freeze and --frozen are mutually exclusive "
                         "(record first, then replay)")
    config = paper() if args.preset == "paper" else quick()
    if backends:
        config = config.with_overrides(llm_backends=backends)
    if args.pool_schedule:
        config = config.with_overrides(pool_schedule=args.pool_schedule)
    if args.repair_mode:
        config = config.with_overrides(repair_mode=args.repair_mode)
    if route_table:
        config = config.with_overrides(route_table=route_table)
    resilience_spec = None
    if args.fault_plan or args.retry or args.breaker_threshold is not None:
        # Validate specs at the CLI boundary so a typo fails before any
        # kernel assembly, not deep inside a worker process.
        from ..llm import FaultPlan, RetryPolicy

        try:
            if args.fault_plan:
                FaultPlan.parse(args.fault_plan)
            if args.retry and args.retry != "off":
                RetryPolicy.parse(args.retry)
        except ValueError as error:
            raise SystemExit(f"invalid resilience spec: {error}")
        resilience_spec = (args.fault_plan, args.retry, args.breaker_threshold)
        config = config.with_overrides(
            fault_plan=args.fault_plan,
            retry_spec=args.retry,
            breaker_threshold=args.breaker_threshold,
        )
    store = None
    store_binding = None
    if args.store is not None:
        from ..store import ArtifactStore, FrozenBackend, FrozenLock, StoreBinding

        store = ArtifactStore(args.store)
        frozen_lock = FrozenLock.load(args.frozen) if args.frozen else None
        store_binding = StoreBinding(store, frozen=frozen_lock)
    engine = ExecutionEngine(jobs=args.jobs, kind=args.executor, store=store_binding)
    ctx = EvaluationContext(config, engine=engine)
    if args.frozen:
        # Belt and suspenders: even if a code path slips past the store
        # binding, the frozen analyst raises instead of issuing traffic.
        ctx.analysis_backend = FrozenBackend(ctx.build_analysis_backend())
    wanted = args.experiment or ["all"]
    names = sorted(EXPERIMENTS) if "all" in wanted else wanted

    audits: dict[str, str] = {}

    def report(name: str, result: TableResult, elapsed: float) -> None:
        text = result.render()
        print(text)
        print()
        # Timing goes to stderr so stdout stays byte-diffable across runs
        # (the same convention as the --freeze summary and failure lines).
        print(f"[{name}] completed in {elapsed:.1f}s", file=sys.stderr)
        if name == "table1":
            # In process mode the generation run lives in worker contexts;
            # the audit was computed there too (see the task batch below),
            # so the parent never rebuilds the pipeline just to audit it.
            audit_text = audits.get("table1") or run_correctness_audit(ctx).render()
            print("Correctness audit (§5.1.3):", audit_text, "\n")
        if args.output is not None:
            args.output.mkdir(parents=True, exist_ok=True)
            (args.output / f"{name}.txt").write_text(text + "\n")

    failures: list[tuple[str, BaseException]] = []
    started = time.perf_counter()
    if engine.jobs <= 1:
        # Serial: print each table as soon as it finishes.  Failures are
        # collected and reported exactly like the parallel path does.
        for name in names:
            experiment_started = time.perf_counter()
            try:
                with engine.profile.measure("experiments"):
                    result = run_experiment(name, ctx)
            except Exception as error:
                failures.append((name, error))
                continue
            report(name, result, time.perf_counter() - experiment_started)
    else:
        # Parallel: batch through the engine, then print in experiment order.
        # rethrow=False so one failing experiment does not discard the others.
        # Thread workers share the parent context; process workers cannot
        # (contexts hold locks/engines), so their payload is the picklable
        # (experiment name, preset name) pair and each worker process builds
        # its own context once.
        if engine.shares_memory:
            tasks = [TaskSpec(key=name, fn=run_experiment, args=(name, ctx)) for name in names]
        else:
            store_spec = (
                (str(args.store), str(args.frozen) if args.frozen else None)
                if args.store is not None
                else None
            )
            overrides = {
                "backends": backends,
                "pool_schedule": args.pool_schedule,
                "route_table": route_table,
                "repair_mode": args.repair_mode,
                "store_spec": store_spec,
                "resilience_spec": resilience_spec,
            }
            tasks = [
                TaskSpec(key=name, fn=run_table1_for_preset, args=(args.preset,), kwargs=overrides)
                if name == "table1"
                else TaskSpec(
                    key=name, fn=run_experiment_for_preset, args=(name, args.preset),
                    kwargs=overrides,
                )
                for name in names
            ]
        for task_result in engine.run_tasks("experiments", tasks, rethrow=False):
            if task_result.error is not None:
                failures.append((task_result.key, task_result.error))
                continue
            value = task_result.value
            if task_result.key == "table1" and isinstance(value, tuple):
                value, audits["table1"] = value
            report(task_result.key, value, task_result.duration)
    total_elapsed = time.perf_counter() - started

    for name, error in failures:
        print(f"[{name}] FAILED: {error!r}\n", file=sys.stderr)

    if args.freeze is not None and not failures:
        # Snapshot taken after every experiment (and, in process mode, every
        # worker's write — they append to the shared on-disk manifest) so
        # the lockfile pins the complete artifact set of this run.
        from ..store import FrozenLock

        lock = FrozenLock.freeze(store)
        lock.write(args.freeze)
        counts = ", ".join(f"{kind}={count}" for kind, count in lock.kind_counts().items())
        print(f"[store] froze {len(lock)} artifact(s) to {args.freeze} ({counts})",
              file=sys.stderr)

    if args.profile:
        print(engine.profile.render())
        caches = engine.cache_stats()
        print("cache statistics")
        print("----------------")
        for cache in caches.values():
            print(f"{cache['name']:8s}  hits={cache['hits']:6d}  misses={cache['misses']:6d}  "
                  f"hit_rate={cache['hit_rate']:.1%}")
        print(f"total wall time: {total_elapsed:.1f}s with jobs={engine.jobs}\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
