"""One evaluation context per configuration and store binding per process.

Stage tasks, report tasks and the determinism gate all resolve their
context through ``shared_context``; these tests pin that every spelling of
one configuration reaches the same object, that concurrent first lookups
build it once, that a quick campaign builds its kernel, extractor index and
generation run once, and that the CLI import path stays free of the layers
it loads lazily.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.experiments import context as context_module
from repro.experiments.context import shared_context
from repro.orchestrator.scheduler import TaskPayload

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh_contexts(monkeypatch):
    """An empty process-wide context cache for one test."""
    monkeypatch.setattr(context_module, "_CONTEXTS", OrderedDict())


def _payload(kind: str, params: dict, store_spec=None) -> TaskPayload:
    return TaskPayload(
        task_id=kind, kind=kind, params=tuple(params.items()), preset="quick", attempt=1,
        store_spec=store_spec,
    )


class _Rendered:
    def render(self) -> str:
        return "rendered"


def test_every_entry_point_resolves_one_context(fresh_contexts, monkeypatch):
    from repro.diffcampaign import tasks as diff_tasks
    from repro.experiments import runner
    from repro.orchestrator import scheduler, verifier

    seen = []

    def record(*args):
        seen.append(args[-1])
        return _Rendered()

    for name in ("run_experiment", "run_table1", "run_correctness_audit"):
        monkeypatch.setattr(runner, name, record)

    stage = _payload("stage", {"stage": "generate"})
    seen.append(scheduler._context(stage))
    seen.append(diff_tasks._context(stage))
    runner.run_experiment_for_preset("table3", "quick")
    runner.run_table1_for_preset("quick", repair_mode="per-query", resilience_spec=(None, None, None))
    scheduler._run_report(_payload("report", {"experiment": "table1"}))
    scheduler._run_report(_payload("report", {"experiment": "table5"}))
    recorded = {"experiment": "table1", "text": "recorded", "audit": "recorded"}
    verifier.determinism_gate("quick", {"report:table1": recorded})

    assert len(seen) == 10
    assert all(context is seen[0] for context in seen)
    assert isinstance(seen[0], context_module.EvaluationContext)


def test_store_binding_and_overrides_key_the_context(fresh_contexts, tmp_path):
    from repro.orchestrator import scheduler

    unbound = shared_context("quick")
    store_spec = (str(tmp_path / "store"), None)
    bound = shared_context("quick", store_spec=store_spec)
    assert bound is not unbound
    assert bound.engine.store is not None and unbound.engine.store is None
    assert shared_context("quick", store_spec=store_spec) is bound
    assert scheduler._context(_payload("stage", {"stage": "generate"}, store_spec)) is bound
    assert shared_context("quick", repair_mode="transactional") is not unbound
    assert shared_context("paper") is not unbound


def test_least_recently_used_context_is_evicted(fresh_contexts):
    first = shared_context("quick")
    transactional = shared_context("quick", repair_mode="transactional")
    shared_context("quick", pool_schedule="round-robin")
    shared_context("paper")
    assert shared_context("quick") is first  # a hit refreshes its recency
    shared_context("paper", repair_mode="transactional")
    assert len(context_module._CONTEXTS) == context_module._CONTEXTS_LIMIT
    assert shared_context("quick") is first
    assert shared_context("quick", repair_mode="transactional") is not transactional


def test_concurrent_first_lookups_build_one_context(fresh_contexts, monkeypatch):
    build = context_module._build_context
    builds = []

    def slow_build(*args):
        builds.append(args)
        time.sleep(0.05)
        return build(*args)

    monkeypatch.setattr(context_module, "_build_context", slow_build)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def lookup(index):
        barrier.wait()
        results[index] = shared_context("quick")

    threads = [threading.Thread(target=lookup, args=(index,)) for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert all(result is results[0] for result in results)


@pytest.mark.parametrize("jobs", [1, 4])
def test_quick_campaign_builds_each_artifact_once(counted_campaign, jobs):
    run = counted_campaign(jobs)
    assert run.code == 0
    assert run.builds == {"kernel": 1, "extractor index": 1, "generation run": 1}
    assert run.table1 == counted_campaign(1).table1


def test_cli_import_path_stays_lean():
    probe = (
        "import sys, repro.experiments.runner, repro.orchestrator.cli\n"
        "print('\\n'.join(sorted(name for name in sys.modules if name.startswith('repro'))))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stdout.split()
    assert "repro.orchestrator.cli" in loaded
    lazy = ("repro.service", "repro.diffcampaign", "repro.kconfig")
    eager = [
        name for name in loaded
        if name == "repro.fuzzer.reference" or any(
            name == package or name.startswith(package + ".") for package in lazy
        )
    ]
    assert eager == []
