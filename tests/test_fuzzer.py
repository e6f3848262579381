"""Tests for the fuzzing substrate: generation, execution, campaigns."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ExecutionEngine, ThreadPoolExecutor
from repro.fuzzer import (
    Fuzzer, KernelExecutor, ProgramGenerator, StructValue, run_campaign_matrix,
    run_repeated_campaigns,
)
from repro.fuzzer.generation import _choice_plan, _randint_plan, below
from repro.kernel import build_default_kernel
from repro.syzlang import parse_suite


def test_program_generation_respects_dependencies(small_kernel, dm_result):
    generator = ProgramGenerator(dm_result.suite, small_kernel.constants, seed=3)
    program = generator.generate()
    assert program.calls, "producer-rooted programs must not be empty"
    assert program.calls[0].syscall in ("openat", "socket")


def test_executor_requires_correct_device_path(small_kernel, dm_result):
    executor = KernelExecutor(small_kernel)
    generator = ProgramGenerator(dm_result.suite, small_kernel.constants, seed=1)
    program = generator.generate()
    baseline = executor.execute(program)
    assert baseline.coverage
    # Corrupt the device path: coverage must collapse to nothing.
    program.calls[0].args["file"] = "/dev/wrong-node"
    broken = executor.execute(program)
    assert not broken.coverage


def test_executor_rejects_wrong_command_values(small_kernel, dm_result):
    executor = KernelExecutor(small_kernel)
    generator = ProgramGenerator(dm_result.suite, small_kernel.constants, seed=2)
    program = generator.generate()
    covered = executor.execute(program).labels()
    deep = {block for block in covered if ":base:" in block}
    for call in program.calls[1:]:
        if "cmd" in call.args:
            call.args["cmd"] = 0xDEADBEEF
    shallow = executor.execute(program).labels()
    assert not {block for block in shallow if ":base:" in block}
    assert deep, "the uncorrupted program must reach per-command base blocks"


def test_typed_payloads_unlock_guard_blocks(small_kernel, dm_result, syzdescribe):
    executor = KernelExecutor(small_kernel)
    kg_campaign = Fuzzer(small_kernel, dm_result.suite, seed=7, executor=executor).run(400)
    guard_blocks = {b for b in kg_campaign.coverage if ":guard" in b}
    assert guard_blocks, "typed specs should reach guarded blocks"


def test_kernelgpt_spec_finds_dm_bugs(small_kernel, dm_result):
    campaign = Fuzzer(small_kernel, dm_result.suite, seed=11).run(1500)
    assert campaign.unique_crashes >= 1
    assert any(bug.startswith("dm-") for bug in campaign.crash_log.bug_ids())


def test_syzkaller_specs_cannot_find_dm_bugs(small_kernel, syzkaller_corpus):
    suite = syzkaller_corpus.flatten()
    campaign = Fuzzer(small_kernel, suite, seed=11).run(800)
    assert not any(bug.startswith("dm-") for bug in campaign.crash_log.bug_ids())


def test_repeated_campaigns_are_seed_deterministic(small_kernel, dm_result):
    first = run_repeated_campaigns(small_kernel, dm_result.suite, repetitions=2, budget_programs=150)
    second = run_repeated_campaigns(small_kernel, dm_result.suite, repetitions=2, budget_programs=150)
    assert [c.coverage_count for c in first] == [c.coverage_count for c in second]
    assert first[0].coverage == second[0].coverage


def test_campaign_metrics(small_kernel, rds_result):
    campaign = Fuzzer(small_kernel, rds_result.suite, seed=5).run(500)
    assert campaign.executed_programs == 500
    assert campaign.coverage_count == len(campaign.coverage)
    assert campaign.unique_coverage_vs(set()) == campaign.coverage_count


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_property_unknown_commands_never_crash(small_kernel, value):
    """No single ioctl with an arbitrary command can crash the simulated kernel
    without a typed payload — crashes require spec-guided arguments."""
    from repro.fuzzer import Call, Program, ResourceValue

    executor = KernelExecutor(small_kernel)
    program = Program([
        Call("openat", "openat$dm", {"file": "/dev/mapper/control"}),
        Call("ioctl", "ioctl$X", {"fd": ResourceValue(0), "cmd": value, "arg": None}),
    ])
    result = executor.execute(program)
    assert not result.crashes


# ------------------------------------------------------------------ draws
@pytest.mark.parametrize("seed", [0, 1, 13, 2024])
def test_inline_draws_equal_random_methods(seed):
    """The inline draws are ``Random.choice``/``randint``/``randrange``, bit
    for bit: same values and same rng state, for every n in 1..300.  A change
    in the standard library's draw algorithm fails here first."""
    reference, inline = random.Random(seed), random.Random(seed)
    getrandbits = inline.getrandbits
    for n in range(1, 301):
        pool = tuple(range(100, 100 + n))
        assert pool[below(n, getrandbits)] == reference.choice(pool)
        assert -7 + below(n, getrandbits) == reference.randint(-7, n - 8)
        assert 3 + below(n, getrandbits) == reference.randrange(3, 3 + n)
        assert _choice_plan(pool)(None, getrandbits) == reference.choice(pool)
        assert _randint_plan(5, 4 + n)(None, getrandbits) == reference.randint(5, 4 + n)
        assert inline.getstate() == reference.getstate(), n


# ------------------------------------------------------------- plan cache
_LAYOUT_SPEC = """
resource fd_lay[fd]
openat$lay(fd const[AT_FDCWD, int64], file ptr[in, string["/dev/lay"]], flags const[O_RDWR, int32]) fd_lay
ioctl$LAY(fd fd_lay, cmd const[{cmd}, int32], arg ptr[in, lay_args])
"""


def _layout_suite(name, *definitions, cmd="0x10"):
    return parse_suite(_LAYOUT_SPEC.format(cmd=cmd) + "\n".join(definitions), name)


def _payloads(suite, constants, *, seed=3, programs=20):
    """Every ioctl call of ``programs`` generated programs."""
    generator = ProgramGenerator(suite, constants, seed=seed)
    return [
        call
        for _ in range(programs)
        for call in generator.generate().calls
        if call.syscall == "ioctl"
    ]


def test_plan_cache_keeps_each_suites_struct_layout(small_kernel):
    """One struct name, several layouts in one process: each suite gets its
    own fields, and a suite whose nested struct is larger gets its own size."""
    constants = small_kernel.constants
    narrow = _layout_suite("narrow", "lay_args {\n\tlen int32\n\tflags int32\n}")
    wide = _layout_suite("wide", "lay_args {\n\tcount int64\n}")
    nested_small = _layout_suite(
        "nested-small", "lay_args {\n\tinner lay_inner\n}", "lay_inner {\n\tp int32\n}"
    )
    nested_large = _layout_suite(
        "nested-large", "lay_args {\n\tinner lay_inner\n}", "lay_inner {\n\tp int32\n\tq int64\n}"
    )
    for suite in (narrow, wide, nested_small, nested_large, narrow):
        size = suite.get_type_def("lay_args").byte_size(suite.size_resolver())
        fields = set(suite.get_type_def("lay_args").field_names())
        calls = _payloads(suite, constants)
        assert calls, suite.name
        for call in calls:
            payload = call.args["arg"]
            assert isinstance(payload, StructValue), suite.name
            assert set(payload.fields) == fields, suite.name
            assert payload.byte_size == size, suite.name
    sizes = {suite.name: _payloads(suite, constants)[0].args["arg"].byte_size
             for suite in (nested_small, nested_large)}
    assert sizes == {"nested-small": 4, "nested-large": 12}


def test_constant_defined_after_a_campaign_resolves_in_the_next(small_kernel):
    constants = small_kernel.constants.copy()
    suite = _layout_suite("late", "lay_args {\n\tflags int32\n}", cmd="LAY_LATE_CMD")
    assert {call.args["cmd"] for call in _payloads(suite, constants)} == {0}
    constants.define("LAY_LATE_CMD", 0xC0DE)
    assert {call.args["cmd"] for call in _payloads(suite, constants)} == {0xC0DE}


def test_threaded_campaign_matrix_equals_serial(dm_result, rds_result, syzkaller_corpus):
    """Campaigns on four threads share one plan cache, built cold from a
    fresh kernel, and still equal a serial run campaign for campaign."""
    kernel = build_default_kernel("small")
    suites = {
        "dm": dm_result.suite,
        "rds": rds_result.suite,
        "syzkaller": syzkaller_corpus.flatten("syzkaller"),
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-compile as often as possible
    try:
        threaded = run_campaign_matrix(
            kernel, suites, repetitions=2, budget_programs=150,
            engine=ExecutionEngine(jobs=4, executor=ThreadPoolExecutor(4)),
        )
    finally:
        sys.setswitchinterval(interval)
    serial = run_campaign_matrix(kernel, suites, repetitions=2, budget_programs=150)
    assert list(threaded) == list(serial)
    for label in suites:
        for ours, theirs in zip(threaded[label], serial[label]):
            assert ours.coverage == theirs.coverage, label
            assert ours.crash_log.observations == theirs.crash_log.observations, label
            assert ours.corpus_size == theirs.corpus_size, label
            assert ours.executed_calls == theirs.executed_calls, label
