"""Which entry points of ``repro`` the traced run wraps, and the per-layer metrics.

:class:`LayerProbe` installs a :class:`~perfbench.tracer.Tracer` on the
public entry points of every layer named in ``PER_LAYER_METRICS`` and keeps
the counters that need a call's arguments or result (request counts, bytes
written, session outcomes, campaign sizes).  :meth:`LayerProbe.metrics`
turns the spans and counters into the flat per-layer metric dict the
benchmark prints; layers a workload never enters report zero.

Importing this module imports ``repro``: the runner puts ``src/`` on the
path first.
"""

from __future__ import annotations

from collections import Counter

from repro import core, engine, extractor, fuzzer, llm, store, syzlang
from repro.baselines import syzdescribe, syzkaller
from repro.core import session as core_session
from repro.experiments import context as experiments_context
from repro.experiments import runner as experiments_runner
from repro.fuzzer import fuzzer as fuzz_loop
from repro.kernel import codebase, coverage
from repro.orchestrator import scheduler, verifier

from .tracer import Tracer

LAYERS = (
    "kernel", "extractor", "llm", "syzlang", "core", "engine", "store",
    "fuzzer", "orchestrator", "baselines", "experiments",
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER_METRICS = (
    [(f"self.{layer}_s", "s") for layer in LAYERS]
    + [("self.unattributed_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio"),
       ("trace.spans", "count")]
    + [(f"calls.{layer}", "count") for layer in LAYERS]
    + [
        ("llm.round_trips", "count"), ("llm.requests", "count"), ("llm.busy_s", "s"),
        ("llm.requests_per_round_trip", "ratio"),
        ("extractor.index_s", "s"), ("extractor.lookups", "count"), ("extractor.busy_s", "s"),
        ("syzlang.validate_calls", "count"), ("syzlang.validate_busy_s", "s"),
        ("syzlang.parse_busy_s", "s"),
        ("core.identifier_s", "s"), ("core.type_s", "s"), ("core.dependency_s", "s"),
        ("core.secondary_s", "s"), ("core.repair_s", "s"), ("core.valid_ratio", "ratio"),
        ("core.repair_yield", "ratio"),
        ("engine.llm_hit_ratio", "ratio"), ("engine.extract_hit_ratio", "ratio"),
        ("store.puts", "count"), ("store.put_bytes", "bytes"), ("store.put_busy_s", "s"),
        ("store.gets", "count"), ("store.get_busy_s", "s"), ("store.hit_ratio", "ratio"),
        ("fuzzer.generate_calls", "count"), ("fuzzer.mutate_calls", "count"),
        ("fuzzer.execute_calls", "count"), ("fuzzer.generate_busy_s", "s"),
        ("fuzzer.mutate_self_s", "s"), ("fuzzer.execute_busy_s", "s"),
        ("fuzzer.setup_busy_s", "s"), ("fuzzer.merge_busy_s", "s"), ("fuzzer.loop_self_s", "s"),
        ("fuzzer.corpus_yield", "ratio"), ("fuzzer.calls_per_program", "ratio"),
        ("orchestrator.generate_s", "s"), ("orchestrator.fuzz_s", "s"),
        ("orchestrator.report_table1_s", "s"), ("orchestrator.report_table3_s", "s"),
        ("orchestrator.report_table5_s", "s"), ("orchestrator.gate_determinism_s", "s"),
        ("orchestrator.self_s", "s"), ("process.startup_s", "s"),
    ]
)


class MeteredBackend(llm.LLMBackend):
    """A transparent analyst wrapper: the traced run's LLM layer boundary.

    It forwards every batch to the wrapped backend and delegates
    ``store_profile`` so store keys do not change; the probe traces and
    counts its ``complete_batch`` calls.
    """

    def __init__(self, inner: llm.LLMBackend):
        super().__init__(model=inner.model)
        self.inner = inner

    def store_profile(self) -> str:
        return self.inner.store_profile()

    def complete_batch(self, requests):
        return self.inner.complete_batch(requests)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerProbe:
    """The tracer plus the counters the per-layer metrics need."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        self.cache: Counter = Counter()
        self.engines: list = []

    # ------------------------------------------------------------ observers
    def _on_batch(self, args, kwargs, result) -> None:
        self.counts["llm.requests"] += len(args[1])

    def _on_put(self, args, kwargs, result) -> None:
        self.counts["store.put_bytes"] += len(args[2])

    def _on_get(self, args, kwargs, result) -> None:
        self.counts["store.get_hits"] += result is not None

    def _on_session(self, args, kwargs, result) -> None:
        self.counts["core.handlers"] += 1
        self.counts["core.valid"] += bool(result.valid)
        self.counts["core.not_initially_valid"] += not result.initially_valid
        self.counts["core.repaired"] += bool(result.repaired)

    def _on_campaign(self, args, kwargs, result) -> None:
        self.counts["fuzzer.programs"] += result.executed_programs
        self.counts["fuzzer.calls"] += result.executed_calls
        self.counts["fuzzer.corpus"] += result.corpus_size

    def _on_engine(self, args, kwargs, result) -> None:
        self.engines.append(args[0])

    # ------------------------------------------------------------- install
    def install(self, *, wrap_context_backend: bool = False) -> None:
        """Wrap each layer's entry points; optionally meter the context's analyst."""
        t = self.tracer
        t.patch_function(codebase, "build_default_kernel", "kernel/build")
        t.patch_method(coverage.CoverageSpace, "for_kernel", "kernel/coverage_space")

        t.patch_method(extractor.KernelExtractor, "__init__", "extractor/index")
        t.patch_method(extractor.KernelExtractor, "extract_code", "extractor/extract_code")
        t.patch_method(extractor.KernelExtractor, "handler", "extractor/handler")
        t.patch_method(extractor.KernelExtractor, "constants", "extractor/constants")

        t.patch_method(MeteredBackend, "complete_batch", "llm/complete_batch", self._on_batch)

        t.patch_method(syzlang.SpecValidator, "validate", "syzlang/validate")
        t.patch_function(syzlang, "parse_suite", "syzlang/parse_suite")
        t.patch_function(syzlang, "serialize_suite", "syzlang/serialize_suite")

        t.patch_method(core.KernelGPT, "generate_for_handler", "core/generate_for_handler")
        t.patch_method(core.KernelGPT, "generate_for_handlers", "core/generate_for_handlers")
        t.patch_function(core_session, "run_session", "core/session", self._on_session)
        for stage, label in (
            ("identifier_stage", "identifier"),
            ("type_stage", "type"),
            ("dependency_stage", "dependency"),
            ("analyze_secondary_handlers", "secondary"),
            ("validate_and_repair", "repair"),
        ):
            t.patch_method(core.GenerationSession, stage, f"core/{label}")

        t.patch_method(engine.ExecutionEngine, "__init__", "engine/init", self._on_engine)
        for method in ("run_tasks", "cached_query_batch", "cached_extract", "cached_session"):
            t.patch_method(engine.ExecutionEngine, method, f"engine/{method}")

        t.patch_method(store.ArtifactStore, "__init__", "store/open")
        t.patch_method(store.ArtifactStore, "put_bytes", "store/put_bytes", self._on_put)
        t.patch_method(store.ArtifactStore, "get_bytes", "store/get_bytes", self._on_get)
        for method in ("complete_batch_through", "extract_through", "session_through"):
            t.patch_method(store.StoreBinding, method, f"store/{method}")

        t.patch_function(fuzz_loop, "run_campaign", "fuzzer/campaign")
        t.patch_method(fuzzer.Fuzzer, "__init__", "fuzzer/setup")
        t.patch_method(fuzzer.Fuzzer, "run", "fuzzer/run", self._on_campaign)
        t.patch_method(fuzzer.ProgramGenerator, "generate", "fuzzer/generate")
        t.patch_method(fuzzer.ProgramGenerator, "mutate", "fuzzer/mutate")
        t.patch_method(fuzzer.KernelExecutor, "execute_into", "fuzzer/execute")
        t.patch_method(coverage.CoverageBitmap, "from_indices", "fuzzer/merge")
        t.patch_function(fuzz_loop, "merge_campaigns", "fuzzer/merge")
        t.patch_function(fuzz_loop, "union_coverage", "fuzzer/merge")

        t.patch_method(scheduler.CampaignScheduler, "run", "orchestrator/run")
        t.patch_function(scheduler, "execute_campaign_task", "orchestrator/task")
        t.patch_function(verifier, "run_gate", "orchestrator/gate")

        t.patch_function(syzkaller, "build_syzkaller_corpus", "baselines/syzkaller_corpus")
        t.patch_method(syzdescribe.SyzDescribe, "analyze_all", "baselines/syzdescribe")

        t.patch_function(experiments_runner, "run_experiment_for_preset", "experiments/report")
        t.patch_function(experiments_runner, "run_table1_for_preset", "experiments/report")
        for name in list(experiments_runner.EXPERIMENTS):
            t.patch_item(experiments_runner.EXPERIMENTS, name, "experiments/experiment")

        if wrap_context_backend:
            build = experiments_context.EvaluationContext.build_analysis_backend

            def metered(context):
                return MeteredBackend(build(context))

            experiments_context.EvaluationContext.build_analysis_backend = metered
            t._patches.append((experiments_context.EvaluationContext, "build_analysis_backend", build, False))

    def uninstall(self) -> None:
        """Restore the wrapped entry points and fold in the traced engines' cache stats."""
        self.tracer.uninstall()
        self._fold_engines()

    def _fold_engines(self) -> None:
        # Holding every traced engine (and its memo caches) until the run
        # ends made each per-operation gc.collect() scan all of them.
        for traced_engine in self.engines:
            for kind, stats in traced_engine.cache_stats().items():
                self.cache[f"{kind}.hits"] += stats["hits"]
                self.cache[f"{kind}.calls"] += stats["hits"] + stats["misses"]
        self.engines.clear()

    # -------------------------------------------------------------- metrics
    def metrics(
        self, *, operations: int = 1, overhead_ratio: float = 0.0, index_s: float | None = None
    ) -> dict[str, float]:
        """Every ``PER_LAYER_METRICS`` value except the orchestrator event-log rows.

        Times and counts are per traced operation: totals over the probe's
        ``operations`` traced operations, divided by their number, so they do
        not grow with how many operations fit in a run.  Ratios are ratios
        of the totals.  ``index_s`` overrides the extractor index time when
        the index was built once, under a separate set-up tracer.
        """
        summary = self.tracer.summary()
        names = summary["names"]

        def row(name: str) -> dict:
            return names.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        values: dict[str, float] = {}
        for layer in LAYERS:
            layer_row = summary["layers"].get(layer, {"calls": 0, "self_s": 0.0})
            values[f"self.{layer}_s"] = layer_row["self_s"]
            values[f"calls.{layer}"] = layer_row["calls"]
        values["self.unattributed_s"] = summary["unattributed_s"]
        values["trace.wall_s"] = summary["wall_s"]
        values["trace.overhead_ratio"] = overhead_ratio
        values["trace.spans"] = summary["spans"]

        batches = row("llm/complete_batch")
        values["llm.round_trips"] = batches["calls"]
        values["llm.requests"] = self.counts["llm.requests"]
        values["llm.busy_s"] = batches["total_s"]
        values["llm.requests_per_round_trip"] = _ratio(self.counts["llm.requests"], batches["calls"])

        values["extractor.index_s"] = row("extractor/index")["total_s"]
        values["extractor.lookups"] = row("extractor/extract_code")["calls"]
        values["extractor.busy_s"] = row("extractor/extract_code")["total_s"]

        values["syzlang.validate_calls"] = row("syzlang/validate")["calls"]
        values["syzlang.validate_busy_s"] = row("syzlang/validate")["total_s"]
        values["syzlang.parse_busy_s"] = row("syzlang/parse_suite")["total_s"]

        for label in ("identifier", "type", "dependency", "secondary", "repair"):
            values[f"core.{label}_s"] = row(f"core/{label}")["self_s"]
        values["core.valid_ratio"] = _ratio(self.counts["core.valid"], self.counts["core.handlers"])
        values["core.repair_yield"] = _ratio(
            self.counts["core.repaired"], self.counts["core.not_initially_valid"]
        )

        self._fold_engines()
        cache = self.cache
        values["engine.llm_hit_ratio"] = _ratio(cache["llm.hits"], cache["llm.calls"])
        values["engine.extract_hit_ratio"] = _ratio(cache["extract.hits"], cache["extract.calls"])

        puts, gets = row("store/put_bytes"), row("store/get_bytes")
        values["store.puts"] = puts["calls"]
        values["store.put_bytes"] = self.counts["store.put_bytes"]
        values["store.put_busy_s"] = puts["total_s"]
        values["store.gets"] = gets["calls"]
        values["store.get_busy_s"] = gets["total_s"]
        values["store.hit_ratio"] = _ratio(self.counts["store.get_hits"], gets["calls"])

        values["fuzzer.generate_calls"] = row("fuzzer/generate")["calls"]
        values["fuzzer.mutate_calls"] = row("fuzzer/mutate")["calls"]
        values["fuzzer.execute_calls"] = row("fuzzer/execute")["calls"]
        values["fuzzer.generate_busy_s"] = row("fuzzer/generate")["total_s"]
        values["fuzzer.mutate_self_s"] = row("fuzzer/mutate")["self_s"]
        values["fuzzer.execute_busy_s"] = row("fuzzer/execute")["total_s"]
        values["fuzzer.setup_busy_s"] = row("fuzzer/setup")["total_s"]
        values["fuzzer.merge_busy_s"] = row("fuzzer/merge")["total_s"]
        values["fuzzer.loop_self_s"] = row("fuzzer/run")["self_s"]
        values["fuzzer.corpus_yield"] = _ratio(self.counts["fuzzer.corpus"], self.counts["fuzzer.programs"])
        values["fuzzer.calls_per_program"] = _ratio(
            self.counts["fuzzer.calls"], self.counts["fuzzer.programs"]
        )
        units = dict(PER_LAYER_METRICS)
        for name in values:
            if units[name] != "ratio":
                values[name] /= operations
        if index_s is not None:
            values["extractor.index_s"] = index_s
        return values


ORCHESTRATOR_TASK_METRICS = {
    "generate": "orchestrator.generate_s",
    "fuzz": "orchestrator.fuzz_s",
    "report:table1": "orchestrator.report_table1_s",
    "report:table3": "orchestrator.report_table3_s",
    "report:table5": "orchestrator.report_table5_s",
    "gate:determinism": "orchestrator.gate_determinism_s",
}


def orchestrator_metrics(events: list[dict], spawned_at: float) -> dict[str, float]:
    """Orchestrator rows from one campaign's own JSONL event log.

    ``spawned_at`` is the wall-clock time the process was started;
    ``process.startup_s`` is the gap until the log's ``campaign_started``.
    """
    values = {name: 0.0 for name in ORCHESTRATOR_TASK_METRICS.values()}
    task_time = 0.0
    wall = started = 0.0
    for record in events:
        kind = record["type"]
        if kind == "campaign_started":
            started = record["ts"]
        elif kind == "task_finished":
            task_time += record["duration"]
            metric = ORCHESTRATOR_TASK_METRICS.get(record["task_id"])
            if metric is not None:
                values[metric] += record["duration"]
        elif kind == "campaign_finished":
            wall = record["wall"]
    values["orchestrator.self_s"] = wall - task_time
    values["process.startup_s"] = started - spawned_at if started else 0.0
    return values


__all__ = [
    "LAYERS",
    "PER_LAYER_METRICS",
    "LayerProbe",
    "MeteredBackend",
    "orchestrator_metrics",
]
