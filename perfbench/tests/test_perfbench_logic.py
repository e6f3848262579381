"""Tests of the benchmark's own logic: statistics, span arithmetic, checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import checks
from perfbench.stats import failure_share, percentile, percentile_if_supported, tail_percentile
from perfbench.tracer import Tracer, self_times, summarize, union_length

BENCH_ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ percentiles
@pytest.mark.parametrize(
    "count, expected_pct",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected_pct):
    samples = [float(value) for value in range(1, count + 1)]
    tail = tail_percentile(samples)
    if expected_pct is None:
        assert tail is None
        return
    pct, value, reported_count = tail
    assert pct == expected_pct
    assert reported_count == count
    assert sum(1 for sample in samples if sample > value) >= 10


def test_percentile_is_nearest_rank_and_p90_needs_a_hundred_samples():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile_if_supported(samples, 90) == 90
    assert percentile_if_supported(samples[:99], 90) is None


# -------------------------------------------------------------- self time
def _span(name_id, parent, start, end):
    return [name_id, parent, start, end]


def test_self_time_with_nested_children():
    root = _span(0, None, 0.0, 10.0)
    child = _span(1, root, 1.0, 4.0)
    grandchild = _span(2, child, 2.0, 3.0)
    second = _span(1, root, 5.0, 7.0)
    spans = [root, child, grandchild, second]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    summary = summarize(spans, ["a/root", "b/child", "c/leaf"], wall=12.0)
    assert summary["unattributed_s"] == pytest.approx(2.0)
    total = sum(layer["self_s"] for layer in summary["layers"].values()) + summary["unattributed_s"]
    assert total == pytest.approx(12.0)
    assert summary["names"]["b/child"]["calls"] == 2
    assert summary["layers"]["b"]["self_s"] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    root = _span(0, None, 0.0, 10.0)
    left = _span(1, root, 1.0, 4.0)
    right = _span(1, root, 3.0, 6.0)
    beyond = _span(1, root, 9.0, 12.0)  # clipped to the parent's end
    assert self_times([root, left, right, beyond])[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert union_length([(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(6.0)


def test_overlapping_top_level_spans_leave_less_unattributed():
    spans = [_span(0, None, 0.0, 4.0), _span(0, None, 2.0, 6.0)]
    assert summarize(spans, ["a/x"], wall=10.0)["unattributed_s"] == pytest.approx(4.0)


def test_tracer_wraps_methods_and_functions_and_restores_them(monkeypatch):
    class Worker:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    module = types.ModuleType("fakepkg.mod")

    def helper():
        return Worker().outer()

    module.helper = helper
    monkeypatch.setitem(sys.modules, "fakepkg.mod", module)
    original_outer = Worker.__dict__["outer"]

    tracer = Tracer()
    tracer.patch_method(Worker, "outer", "w/outer")
    tracer.patch_method(Worker, "inner", "w/inner")
    tracer.patch_function(module, "helper", "h/helper", package="fakepkg")
    assert module.helper() == 2  # not started: no spans
    assert tracer.spans == []
    tracer.start()
    assert module.helper() == 2
    tracer.stop()
    tracer.uninstall()
    assert Worker.__dict__["outer"] is original_outer
    assert module.helper is helper

    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names == ["h/helper", "w/outer", "w/inner"]
    helper_span, outer_span, inner_span = tracer.spans
    assert helper_span[1] is None and outer_span[1] is helper_span and inner_span[1] is outer_span
    summary = tracer.summary()
    total = sum(layer["self_s"] for layer in summary["layers"].values()) + summary["unattributed_s"]
    assert total == pytest.approx(summary["wall_s"])


def test_per_layer_metrics_do_not_grow_with_the_number_of_traced_operations():
    from perfbench.layers import LayerProbe, MeteredBackend

    class Echo:
        model = "echo"

        def complete_batch(self, requests):
            return list(requests)

    def traced_metrics(operations):
        probe = LayerProbe()
        probe.install()
        try:
            for _ in range(operations):
                probe.tracer.start()
                backend = MeteredBackend(Echo())
                for _ in range(3):
                    backend.complete_batch(["a", "b"])
                probe.tracer.stop()
        finally:
            probe.tracer.uninstall()
        return probe.metrics(operations=operations, index_s=1.5)

    one, three = traced_metrics(1), traced_metrics(3)
    for name in ("llm.round_trips", "llm.requests", "calls.llm", "trace.spans", "llm.requests_per_round_trip"):
        assert one[name] == three[name]
    assert (three["llm.round_trips"], three["llm.requests"], three["llm.requests_per_round_trip"]) == (3, 6, 2)
    assert three["extractor.index_s"] == 1.5  # built once in set-up, not per operation
    self_total = sum(value for name, value in three.items() if name.startswith("self."))
    assert self_total == pytest.approx(three["trace.wall_s"])


# --------------------------------------------------------------- failures
def test_failure_share():
    assert failure_share(10, 2) == pytest.approx(0.2)
    assert failure_share(0, 0) == 0.0
    with pytest.raises(ValueError):
        failure_share(3, 4)


# ------------------------------------------------------------------ checks
def _specgen_expected():
    texts = {"a": (True, "syscall_a()"), "b": (False, "syscall_b()")}
    digests = {name: checks.handler_digest(valid, text) for name, (valid, text) in texts.items()}
    return {"suite_digests": digests, "valid": 1, "llm_queries": 7}, digests


def test_specgen_check_passes_on_recorded_output_and_fails_on_altered_output():
    expected, digests = _specgen_expected()
    assert checks.check_specgen_pass(expected, digests, 1, 7, digests) == []
    altered = dict(digests, a=checks.handler_digest(True, "syscall_a(x int32)"))
    problems = checks.check_specgen_pass(expected, altered, 1, 7, altered)
    assert any("handler a" in problem for problem in problems)
    assert checks.check_specgen_pass(expected, digests, 1, 8, digests)
    assert checks.check_specgen_pass(expected, digests, 2, 7)
    assert checks.check_specgen_pass(expected, ["a"], 1, 7)


def test_campaign_check_fails_on_altered_cli_output():
    events = [
        {"type": "campaign_started", "tasks": 2},
        {"type": "gate_passed", "gate": "determinism"},
        {"type": "campaign_finished", "passed": True, "wall": 1.0},
    ]
    cli_expected = {"stdout_sha256": checks.sha256_text("table\n"), "gates": ["determinism"]}
    assert checks.check_campaign_run(cli_expected, 0, "table\n", events) == []
    assert checks.check_campaign_run(cli_expected, 0, "tab1e\n", events)
    assert checks.check_campaign_run(cli_expected, 1, "table\n", events)
    assert checks.check_campaign_run(cli_expected, 0, "table\n", events[:1] + events[2:])


def test_campaign_event_log_is_read_with_the_program_schema(tmp_path):
    events, problems = checks.read_campaign_events(tmp_path / "missing.jsonl")
    assert events == [] and problems
    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text(json.dumps({"type": "no_such_event"}) + "\n")
    events, problems = checks.read_campaign_events(malformed)
    assert events == [] and "malformed" in problems[0]


def test_recorded_expectations_match_the_paper_targets():
    expected = checks.load_expected()
    assert len(expected["specgen"]["suite_digests"]) == expected["specgen"]["handlers"] == 130
    assert expected["specgen"]["valid"] == 96
    assert expected["specgen"]["llm_queries"] == 3428
    assert expected["campaign"]["gates"]


# ------------------------------------------------------------ definition
def test_benchmark_json_lists_every_metric_and_workload():
    from perfbench.layers import PER_LAYER_METRICS
    from perfbench.run import WORKLOAD_NAMES

    bench = json.loads((BENCH_ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER_METRICS)
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOAD_NAMES
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_orchestrator_metrics_from_event_log():
    from perfbench.layers import orchestrator_metrics

    events = [
        {"type": "campaign_started", "ts": 101.5},
        {"type": "task_finished", "task_id": "generate", "duration": 2.0},
        {"type": "task_finished", "task_id": "report:table3", "duration": 3.0},
        {"type": "task_finished", "task_id": "validate", "duration": 0.5},
        {"type": "campaign_finished", "wall": 6.0},
    ]
    values = orchestrator_metrics(events, spawned_at=100.0)
    assert values["orchestrator.generate_s"] == 2.0
    assert values["orchestrator.report_table3_s"] == 3.0
    assert values["orchestrator.self_s"] == pytest.approx(0.5)
    assert values["process.startup_s"] == pytest.approx(1.5)


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copy(BENCH_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "specgen-store", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
