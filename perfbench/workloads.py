"""The two workloads: each a closed loop driven by one client in one process.

Every workload function takes a :class:`RunSpec` and returns an
:class:`Outcome`.  A plain run (``trace=False``) times the operations with
no wrapper installed and fills the end-to-end metrics.  A traced run
alternates untraced and traced operations, so it yields both the per-layer
metrics (from the traced ones) and the tracing overhead (traced against
untraced).  Output checks and digests run between operations, outside
every timed interval.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.baselines import build_syzkaller_corpus
from repro.core import KernelGPT, select_target_handlers
from repro.engine import ExecutionEngine
from repro.extractor import KernelExtractor
from repro.kernel import build_default_kernel
from repro.llm import OracleBackend
from repro.store import ArtifactStore, StoreBinding

from . import checks
from .layers import PER_LAYER_METRICS, LayerProbe, MeteredBackend, orchestrator_metrics
from .stats import median, percentile_if_supported, tail_percentile

clock = time.perf_counter

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: The campaign subprocess is killed after this long (a run must end in 180 s).
CAMPAIGN_TIMEOUT_S = 150.0

CAMPAIGN_ARGS = (
    "campaign", "--preset", "quick", "-e", "table1", "-e", "table3", "-e", "table5", "--jobs", "1",
)


@dataclass
class RunSpec:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    work_dir: Path
    expected: dict


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Generic end-to-end metrics: name -> (value, unit).
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: The workload's own named metrics: (name, value, unit, note).
    named: list[tuple[str, float, str, str]] = field(default_factory=list)
    #: Per-layer metrics of the traced operations (traced runs only).
    layers: dict[str, float] = field(default_factory=dict)

    def name(self, metric: str, value: float, unit: str, note: str = "") -> None:
        self.named.append((metric, value, unit, note))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(spec: RunSpec, build):
    """Build the workload's inputs; returns ``(env, setup_s, index_s)``.

    A plain run sets up ``SETUP_REPEATS`` times and reports the median time.
    A traced run reports no set-up time, so it sets up once, under the
    tracer, for the extractor's index time.
    """
    if spec.trace:
        probe = LayerProbe()
        probe.install()
        probe.tracer.start()
        try:
            env = build()
        finally:
            probe.tracer.stop()
            probe.uninstall()
        return env, None, probe.metrics()["extractor.index_s"]
    durations = []
    env = None
    for _ in range(SETUP_REPEATS):
        env = None
        gc.collect()
        start = clock()
        env = build()
        durations.append(clock() - start)
    return env, median(durations), None


def name_setup(outcome: Outcome, setup_s: float | None) -> None:
    if setup_s is not None:
        outcome.name("setup_s", setup_s, "s", f"median of {SETUP_REPEATS}")


def alternate(spec: RunSpec, run_op) -> tuple[list[float], list[float]]:
    """Call ``run_op(traced)`` until the timed total reaches ``spec.seconds``.

    Plain runs only call it untraced.  Traced runs alternate untraced and
    traced calls, and stop only after at least one of each.  ``run_op``
    returns the seconds it timed; the lists of those come back as
    ``(untraced, traced)``.

    Operations leave cyclic garbage behind; a full collection before every
    operation (untimed) keeps one operation from paying for the last and
    keeps peak RSS independent of timing.  It also resets the collector's
    count of objects awaiting a full collection, so no automatic full
    collection lands inside an operation: collecting before only every
    fourth specgen-store warm pass put a 0.25-0.35 s stall into every second
    pass.  The set-up heap is frozen first, so those collections skip its
    ~350k objects: unfrozen, each took about 0.44 s, longer than a
    specgen-store warm pass.
    """
    untraced: list[float] = []
    traced: list[float] = []
    total = 0.0
    gc.collect()
    gc.freeze()
    try:
        while True:
            as_traced = spec.trace and len(traced) < len(untraced)
            gc.collect()
            elapsed = run_op(as_traced)
            (traced if as_traced else untraced).append(elapsed)
            total += elapsed
            if total >= spec.seconds and (not spec.trace or (traced and len(traced) == len(untraced))):
                return untraced, traced
    finally:
        gc.unfreeze()


def overhead_ratio(untraced: list[float], traced: list[float]) -> float:
    return median(traced) / median(untraced) - 1.0


def finish_layers(outcome: Outcome, probe: LayerProbe, untraced, traced, **extra) -> None:
    """Per-layer metrics per traced operation; ``probe`` traced every one of ``traced``."""
    values = {name: 0.0 for name, _ in PER_LAYER_METRICS}
    values.update(probe.metrics(operations=len(traced), overhead_ratio=overhead_ratio(untraced, traced), **extra))
    outcome.layers = values


# ------------------------------------------------------------ generation
@dataclass
class GenerationEnv:
    kernel: object
    extractor: KernelExtractor
    handlers: list[str]


def build_generation_env() -> GenerationEnv:
    kernel = build_default_kernel("full")
    extractor = KernelExtractor(kernel)
    selection = select_target_handlers(kernel, build_syzkaller_corpus(kernel))
    return GenerationEnv(kernel, extractor, list(selection.all_handlers))


def generation_pass(env: GenerationEnv, order, outcome: Outcome, *, traced: bool, store_root=None):
    """One pass over ``order`` with a fresh backend, generator and serial engine.

    Returns ``(seconds, per-handler latencies, results, backend)``; the
    generator, engine and store handle are built inside the timed interval.
    """
    oracle = OracleBackend()
    backend = MeteredBackend(oracle) if traced else oracle
    latencies: list[float] = []
    results = {}
    start = clock()
    binding = StoreBinding(ArtifactStore(store_root)) if store_root is not None else None
    engine = ExecutionEngine(jobs=1, store=binding)
    gpt = KernelGPT(env.kernel, backend, extractor=env.extractor, engine=engine)
    for handler in order:
        began = clock()
        try:
            results[handler] = gpt.generate_for_handler(handler)
        except Exception:  # one handler's failure is counted, the loop goes on
            outcome.problems.append(f"handler {handler} raised:\n{traceback.format_exc()}")
            outcome.failed += 1
        latencies.append(clock() - began)
    seconds = clock() - start
    outcome.attempted += len(order)
    return seconds, latencies, results, oracle


class GenerationChecks:
    """Checks every pass; compares suite digests on the first pass of each kind and the last.

    Serialising 130 suites costs about half a pass, so the cheap checks
    (handler set, valid count, query total) run on every pass and the
    digest comparison on the first untraced, first traced and final pass.
    """

    def __init__(self, expected: dict, outcome: Outcome):
        self.expected = expected
        self.outcome = outcome
        self._digested: set[str] = set()
        self.last: dict | None = None

    def check(self, results: dict, queries: int | None, label: str, *, full: bool | None = None) -> None:
        if full is None:
            full = label not in self._digested
        self._digested.add(label)
        digests = (
            {handler: checks.handler_digest(r.valid, r.suite_text()) for handler, r in results.items()}
            if full else None
        )
        valid = sum(1 for result in results.values() if result.valid)
        problems = checks.check_specgen_pass(self.expected, results, valid, queries, digests)
        self.outcome.problems.extend(f"{label}: {problem}" for problem in problems)
        self.last = results

    def check_last(self) -> None:
        self.check(self.last, None, "last pass", full=True)


def report_handler_latency(outcome: Outcome, latencies: list[float], prefix: str) -> None:
    count = len(latencies)
    outcome.name(f"{prefix}_p50_ms", median(latencies) * 1000, "ms", f"n={count}")
    p90 = percentile_if_supported(latencies, 90.0)
    if p90 is not None:
        outcome.name(f"{prefix}_p90_ms", p90 * 1000, "ms", f"n={count}")
    tail = tail_percentile(latencies)
    if tail is not None:
        pct, value, _ = tail
        outcome.name(f"{prefix}_tail_ms", value * 1000, "ms",
                     f"p{pct:g}, the highest percentile with >=10 of n={count} beyond it")


#: Per-layer rows specgen-store reports from its one cold pass; every other
#: row is per warm pass, and warm passes write nothing.
COLD_PASS_METRICS = ("store.puts", "store.put_bytes", "store.put_busy_s")


def specgen_store(spec: RunSpec) -> Outcome:
    """``generate_for_handler`` over the 130 §5.1 targets through a store.

    One cold pass writes through into a fresh empty store, then warm passes
    hydrate from it.

    The cold pass fsyncs about 5.8k blobs; on a shared virtual disk its time
    varied 8.7-25 s between identical passes, so it is reported by name but
    the gated end-to-end metrics come from the warm passes that follow it.
    The cold pass also fills the caches a warm-up pass would.
    """
    outcome = Outcome()
    expected = spec.expected["specgen"]
    env, setup_s, index_s = set_up(spec, build_generation_env)
    rng = random.Random(spec.seed)
    cold_probe = LayerProbe()
    store_root = spec.work_dir / "store"
    order = list(env.handlers)
    rng.shuffle(order)
    if spec.trace:
        cold_probe.install()
        cold_probe.tracer.start()
    try:
        cold_s, cold_latencies, cold, cold_oracle = generation_pass(
            env, order, outcome, traced=spec.trace, store_root=store_root
        )
    finally:
        if spec.trace:
            cold_probe.tracer.stop()
            cold_probe.uninstall()
    probe = LayerProbe()
    passes = GenerationChecks(expected, outcome)
    passes.check(cold, cold_oracle.usage.queries, "cold pass")

    warm_latencies: list[float] = []

    def run_op(traced: bool) -> float:
        order = list(env.handlers)
        rng.shuffle(order)
        if traced:
            probe.install()
            probe.tracer.start()
        try:
            warm_s, latencies, warm, warm_oracle = generation_pass(
                env, order, outcome, traced=traced, store_root=store_root
            )
        finally:
            if traced:
                probe.tracer.stop()
                probe.uninstall()
        label = "traced warm pass" if traced else "warm pass"
        passes.check(warm, None, label)
        if warm_oracle.usage.queries != 0:
            outcome.problems.append(f"{label}: {warm_oracle.usage.queries} backend queries, want 0")
        if not traced:
            warm_latencies.extend(latencies)
        return warm_s

    untraced, traced = alternate(spec, run_op)
    passes.check_last()
    verify_store(outcome, store_root)
    warm_per_s = len(env.handlers) * len(untraced) / sum(untraced)
    outcome.end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (warm_per_s, "1/s"),
        "op_p50_ms": (median(warm_latencies) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    name_setup(outcome, setup_s)
    outcome.name("handlers_per_s", len(env.handlers) / cold_s, "1/s",
                 "one cold write-through pass" + (", traced" if spec.trace else ""))
    report_handler_latency(outcome, cold_latencies, prefix="cold_handler")
    outcome.name("warm_s", median(untraced), "s", f"median of {len(untraced)} warm pass(es)")
    outcome.name("warm_handlers_per_s", warm_per_s, "1/s", f"over all {len(untraced)} warm passes")
    report_handler_latency(outcome, warm_latencies, prefix="warm_handler")
    outcome.name("llm_queries", cold_oracle.usage.queries, "count", "cold pass; every warm pass makes 0")
    outcome.name("peak_rss_mb", outcome.end_to_end["peak_rss_mb"][0], "MB")
    if spec.trace:
        finish_layers(outcome, probe, untraced, traced, index_s=index_s)
        if outcome.layers["store.puts"]:
            outcome.problems.append(f"warm passes wrote {outcome.layers['store.puts']:g} blobs per pass, want 0")
        cold_layers = cold_probe.metrics()
        for name in COLD_PASS_METRICS:
            outcome.layers[name] = cold_layers[name]
    return outcome


def verify_store(outcome: Outcome, store_root: Path) -> None:
    try:
        entries = ArtifactStore(store_root).verify()
    except Exception as error:  # a corrupt store is a failed check, not a crash
        outcome.problems.append(f"store verify failed: {error!r}")
    else:
        if entries == 0:
            outcome.problems.append("store is empty after the cold pass")


# -------------------------------------------------------------- campaign
def child_env(root: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    spawned_at: float


def spawn(command: list[str], root: Path, stdout_path: Path, stderr_path: Path) -> ChildRun:
    """Run ``command`` to completion from ``root``; wall time and its own peak RSS."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawned_at = time.time()
        start = clock()
        process = subprocess.Popen(command, cwd=root, env=child_env(root), stdout=out, stderr=err)
        watchdog = threading.Timer(CAMPAIGN_TIMEOUT_S, process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            watchdog.cancel()
        wall = clock() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(process.returncode, wall, usage.ru_maxrss / 1024.0, spawned_at)


def campaign(spec: RunSpec) -> Outcome:
    """A fresh ``kernelgpt-repro campaign`` subprocess per operation."""
    outcome = Outcome()
    expected = spec.expected["campaign"]
    python = sys.executable
    probe_command = [python, "-c", "import repro.experiments.runner, repro.orchestrator.cli"]
    setup_times = []
    # One untimed import first: it reads the package's files into the page
    # cache, as any earlier use of the CLI would have.
    for index in range(SETUP_REPEATS + 1):
        run = spawn(probe_command, spec.root, spec.work_dir / "probe.out", spec.work_dir / "probe.err")
        if run.returncode != 0:
            raise RuntimeError(f"importing the package failed: {(spec.work_dir / 'probe.err').read_text()}")
        if index:
            setup_times.append(run.wall_s)
    setup_s = median(setup_times)

    walls: list[float] = []
    rss: list[float] = []
    layer_values: dict[str, float] = {}
    runs = [0]

    def run_op(traced: bool) -> float:
        runs[0] += 1
        stem = spec.work_dir / f"campaign-{runs[0]}"
        events_path = stem.with_suffix(".events.jsonl")
        trace_path = stem.with_suffix(".trace.json")
        campaign_args = [*CAMPAIGN_ARGS, "--events", str(events_path)]
        if traced:
            command = [python, str(Path(__file__).resolve().parent / "campaign_child.py"),
                       "--trace-out", str(trace_path), *campaign_args]
        else:
            command = [python, "-m", "repro.experiments.runner", *campaign_args]
        run = spawn(command, spec.root, stem.with_suffix(".out"), stem.with_suffix(".err"))
        events, problems = checks.read_campaign_events(events_path)
        stdout = stem.with_suffix(".out").read_text()
        problems += checks.check_campaign_run(expected, run.returncode, stdout, events)
        if problems:
            tail = stem.with_suffix(".err").read_text()[-2000:]
            problems.append(f"campaign stderr tail:\n{tail}")
        label = "traced campaign" if traced else "campaign"
        outcome.problems.extend(f"{label}: {problem}" for problem in problems)
        started = [record for record in events if record["type"] == "campaign_started"]
        outcome.attempted += started[0]["tasks"] if started else 1
        outcome.failed += sum(1 for record in events if record["type"] == "task_failed")
        outcome.failed += run.returncode != 0
        if traced:
            if trace_path.exists():
                layer_values.update(json.loads(trace_path.read_text())["metrics"])
            else:
                outcome.problems.append("traced campaign wrote no trace")
        else:
            walls.append(run.wall_s)
            rss.append(run.peak_rss_mb)
            layer_values.update(orchestrator_metrics(events, run.spawned_at))
        return run.wall_s

    untraced, traced = alternate(spec, run_op)
    wall_s = median(walls)
    outcome.end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "op_p50_ms": (wall_s * 1000, "ms"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    outcome.name("setup_s", setup_s, "s",
                 f"package import in a fresh interpreter, median of {SETUP_REPEATS} after one untimed")
    outcome.name("wall_s", wall_s, "s", f"subprocess wall time, median of {len(walls)}")
    outcome.name("peak_rss_mb", max(rss), "MB", "campaign subprocess")
    if spec.trace:
        values = {name: 0.0 for name, _ in PER_LAYER_METRICS}
        values.update(layer_values)
        values["trace.overhead_ratio"] = overhead_ratio(untraced, traced)
        outcome.layers = values
    return outcome


WORKLOADS = {
    "specgen-store": specgen_store,
    "campaign": campaign,
}
