"""Coverage bitmaps: interning stability, set algebra, legacy equivalence.

Three contracts:

* **Interning stability** — a :class:`CoverageSpace` assigns indices in
  codebase construction order, so two identically-built kernels produce the
  same label ↔ index mapping and digest (the invariant that lets bitmaps
  cross process boundaries as plain integers).
* **Set algebra** — :class:`CoverageBitmap` union/difference/equality over
  empty, disjoint and superset operands, including the overflow label set
  and pickling by digest.
* **Legacy equivalence** — for every suite of the determinism matrix, a
  bitmap campaign's ``labels()`` (and crashes, corpus growth, call counts)
  equal the string-set reference implementation preserved verbatim in
  ``repro.fuzzer.reference`` — which also generates through the pre-plan
  ladder generator, so the compiled value plans are pinned to the exact
  legacy rng call sequence.  A stream test pins the generator step by step:
  same programs and same rng state after every generate and mutate.
"""

import copy
import pickle
import random

import pytest

from repro.errors import CoverageSpaceMismatch
from repro.fuzzer import (
    Call, Fuzzer, KernelExecutor, Program, ProgramGenerator, ResourceValue, run_campaign,
)
from repro.fuzzer.reference import LadderProgramGenerator, run_reference_campaign
from repro.kconfig import CONFIG_PRESETS, prune_coverage_space
from repro.kernel import (
    CoverageBitmap,
    CoverageSpace,
    allyesconfig,
    build_default_kernel,
    enumerate_kernel_labels,
)

#: Matches tests/test_determinism_matrix.py: a repair-heavy driver, a
#: delegating driver, a socket handler and a plain driver.
MATRIX_HANDLERS = ["dm_ctl_fops", "cec_devnode_fops", "rds_proto_ops", "udmabuf_fops"]


@pytest.fixture(scope="module")
def space(small_kernel):
    return small_kernel.coverage_space()


# ------------------------------------------------------- interning stability
def test_space_indices_follow_construction_order(small_kernel, space):
    labels = list(dict.fromkeys(enumerate_kernel_labels(small_kernel)))
    assert [space.label_of(index) for index in range(len(space))] == labels
    assert [space.index_of(label) for label in labels] == list(range(len(space)))


def test_space_is_stable_across_identical_builds(small_kernel, space):
    rebuilt = build_default_kernel("small")
    other = CoverageSpace.for_kernel(rebuilt)
    assert other is not space                      # distinct kernels, distinct spaces
    assert other.digest == space.digest            # ...but identical interning
    assert other.size == space.size
    assert [other.label_of(i) for i in range(other.size)] == \
           [space.label_of(i) for i in range(space.size)]


def test_space_is_cached_per_kernel(small_kernel, space):
    assert small_kernel.coverage_space() is space
    assert CoverageSpace.for_kernel(small_kernel) is space
    assert CoverageSpace.by_digest(space.digest) is space


def test_space_covers_every_executed_label(small_kernel, space):
    """Everything the executor reports for a ground-truth driver interns."""
    executor = KernelExecutor(small_kernel)
    program = Program([
        Call("openat", "openat$dm", {"file": "/dev/mapper/control"}),
    ])
    result = executor.execute(program)
    assert result.coverage and not result.extras
    for label in result.labels():
        assert label in space


# ------------------------------------------------------------- set algebra
def test_empty_bitmap_identity():
    empty = CoverageBitmap()
    assert len(empty) == 0
    assert not empty
    assert empty == CoverageBitmap()
    assert empty.labels() == set()
    assert list(empty) == []
    assert empty.difference_count(empty) == 0


def test_empty_is_identity_for_union_and_difference(space):
    bitmap = CoverageBitmap.from_indices(space, {0, 2, 5})
    empty = CoverageBitmap()
    assert (bitmap | empty) == bitmap
    assert (empty | bitmap) == bitmap
    assert bitmap.difference_count(empty) == 3
    assert empty.difference_count(bitmap) == 0
    assert (empty | bitmap).digest == space.digest


def test_disjoint_union_and_difference(space):
    left = CoverageBitmap.from_indices(space, {0, 1})
    right = CoverageBitmap.from_indices(space, {2, 3, 4})
    union = left | right
    assert len(union) == 5
    assert union.labels() == left.labels() | right.labels()
    assert left.difference_count(right) == 2
    assert right.difference_count(left) == 3
    assert len(left - right) == 2


def test_superset_difference_is_zero(space):
    subset = CoverageBitmap.from_indices(space, {1, 3})
    superset = CoverageBitmap.from_indices(space, {0, 1, 2, 3})
    assert subset.difference_count(superset) == 0
    assert superset.difference_count(subset) == 2
    assert (subset | superset) == superset
    assert subset != superset


def test_extras_participate_in_algebra(space):
    with_extras = CoverageBitmap.from_indices(space, {0}, extras=("rds:weird:entry",))
    plain = CoverageBitmap.from_indices(space, {0})
    assert len(with_extras) == 2
    assert "rds:weird:entry" in with_extras
    assert with_extras.difference_count(plain) == 1
    assert with_extras.labels() - plain.labels() == {"rds:weird:entry"}
    assert (with_extras | plain).extras == frozenset({"rds:weird:entry"})


def test_mixed_space_operations_are_rejected(space, small_kernel):
    other_space = CoverageSpace(["a:open:0", "a:open:1"])
    left = CoverageBitmap.from_indices(space, {0})
    right = CoverageBitmap.from_indices(other_space, {1})
    with pytest.raises(ValueError):
        left | right
    with pytest.raises(ValueError):
        left.difference_count(right)


def test_mixed_space_error_is_typed_and_carries_digests(space):
    other_space = CoverageSpace(["a:open:0", "a:open:1"])
    left = CoverageBitmap.from_indices(space, {0})
    right = CoverageBitmap.from_indices(other_space, {1})
    with pytest.raises(CoverageSpaceMismatch) as excinfo:
        left | right
    assert excinfo.value.left_digest == space.digest
    assert excinfo.value.right_digest == other_space.digest
    with pytest.raises(CoverageSpaceMismatch):
        left - right


def test_bitmap_pickles_by_digest(space):
    bitmap = CoverageBitmap.from_indices(space, {0, 7, 31}, extras=("x:y:entry",))
    payload = pickle.dumps(bitmap)
    # The pickle carries bits + digest, not thousands of label strings.
    assert len(payload) < 200 + len(space.digest)
    clone = pickle.loads(payload)
    assert clone == bitmap
    assert clone.labels() == bitmap.labels()       # re-bound via the digest registry


def test_executor_reports_overflow_sockcall_labels(small_kernel):
    """A sockcall syscall outside the interned space lands in extras."""
    executor = KernelExecutor(small_kernel)
    socket = small_kernel.socket("rds")
    program = Program([
        Call("socket", "socket$rds",
             {"domain": socket.family_value, "type": socket.sock_type, "proto": socket.protocol}),
        Call("frobnicate", "frobnicate$rds", {"fd": ResourceValue(0)}),
    ])
    result = executor.execute(program)
    assert "rds:frobnicate:entry" in result.extras
    assert "rds:frobnicate:entry" in result.labels()


# ------------------------------------------------------- legacy equivalence
#: SyzDescribe's untyped ``array[int8]`` arguments are the only inputs that
#: reach the BytesValue mutation path; uinput's buffer-length guards make
#: the buffer lengths that path draws show up in a campaign's results.
SYZDESCRIBE_HANDLERS = MATRIX_HANDLERS + ["uinput_fops"]


def _matrix_suites(small_kernel, kernelgpt, syzdescribe, syzkaller_corpus):
    """The Syzkaller corpus plus KernelGPT's and SyzDescribe's suites."""
    suites = {"syzkaller": syzkaller_corpus.flatten("syzkaller")}
    for handler in MATRIX_HANDLERS:
        result = kernelgpt.generate_for_handler(handler)
        if result.valid:
            suites[handler] = result.suite
    for handler in SYZDESCRIBE_HANDLERS:
        described = syzdescribe.analyze_handler(handler)
        if described.valid:
            suites[f"syzdescribe:{handler}"] = described.suite
    return suites


@pytest.mark.parametrize("seed,budget", [(13, 150), (1022, 400)])
def test_campaign_labels_equal_legacy_string_sets(
    small_kernel, kernelgpt, syzdescribe, syzkaller_corpus, seed, budget
):
    """The property the whole rewrite hangs on: for every matrix suite, the
    bitmap campaign is *exactly* the legacy string-set campaign."""
    suites = _matrix_suites(small_kernel, kernelgpt, syzdescribe, syzkaller_corpus)
    assert any(label.startswith("syzdescribe:") for label in suites)
    for label, suite in suites.items():
        reference = run_reference_campaign(small_kernel, suite, seed, budget)
        campaign = run_campaign(small_kernel, suite, seed, budget)
        assert campaign.coverage.labels() == reference.coverage, label
        assert campaign.coverage_count == len(reference.coverage), label
        assert sorted(campaign.crash_log.bug_ids()) == sorted(reference.crash_log.bug_ids()), label
        assert campaign.crash_log.observations == reference.crash_log.observations, label
        assert campaign.corpus_size == reference.corpus_size, label
        assert campaign.executed_calls == reference.executed_calls, label
        assert campaign.executed_programs == reference.executed_programs, label


@pytest.mark.parametrize("seed", [5, 1022])
def test_generator_stream_equals_ladder_oracle(
    small_kernel, kernelgpt, syzdescribe, syzkaller_corpus, seed
):
    """Step by step, the compiled generator is the ladder oracle.

    Generate and mutate calls interleave over a growing corpus, so mutation
    also sees programs that share calls with earlier ones.  After every step
    the programs and the rng states are equal, and no program — the mutated
    input included — has changed since it was made.
    """
    suites = _matrix_suites(small_kernel, kernelgpt, syzdescribe, syzkaller_corpus)
    for label, suite in suites.items():
        generator = ProgramGenerator(suite, small_kernel.constants, seed=seed)
        oracle = LadderProgramGenerator(suite, small_kernel.constants, seed=seed)
        picker = random.Random(seed)
        corpus: list[Program] = []
        snapshots: list[Program] = []
        for step in range(300):
            if corpus and picker.random() < 0.6:
                source = corpus[picker.randrange(len(corpus))]
                before = copy.deepcopy(source)
                program = generator.mutate(source)
                expected = oracle.mutate(source)
                assert source == before, (label, step)
            else:
                program = generator.generate()
                expected = oracle.generate()
            assert program == expected, (label, step)
            assert generator.rng.getstate() == oracle.rng.getstate(), (label, step)
            corpus.append(program)
            snapshots.append(copy.deepcopy(program))
        assert corpus == snapshots, label


def test_campaign_bitmap_survives_pickling(small_kernel, dm_result):
    """Campaigns round-trip through pickle (the engine task result path)."""
    campaign = Fuzzer(small_kernel, dm_result.suite, seed=3).run(200)
    clone = pickle.loads(pickle.dumps(campaign))
    assert clone.coverage == campaign.coverage
    assert clone.coverage.labels() == campaign.coverage.labels()
    assert clone.coverage_count == campaign.coverage_count


# ------------------------------------------------- config-pruned spaces
def _space_labels(space):
    return [space.label_of(index) for index in range(space.size)]


def test_prune_allyes_equals_full_space(small_kernel, space):
    pruned = prune_coverage_space(small_kernel, allyesconfig())
    assert pruned.digest == space.digest
    assert pruned.size == space.size
    assert _space_labels(pruned) == _space_labels(space)


def test_pruned_labels_match_loaded_owner_reference(small_kernel):
    """Per preset, the pruned space is exactly the full enumeration filtered
    to owners (drivers + their secondaries, sockets) the config loads —
    computed here independently, label by label, preserving order (rule 6)."""
    for preset in CONFIG_PRESETS.values():
        config = preset.kernel_config()
        owners = set()
        for driver in small_kernel.drivers.values():
            if config.loads(
                config_option=driver.config_option,
                hardware_gated=driver.hardware_gated,
                debug_only=driver.debug_only,
            ):
                owners.add(driver.name)
                owners.update(s.name for s in driver.secondary_handlers)
        for socket in small_kernel.sockets.values():
            if config.loads(
                config_option=socket.config_option,
                hardware_gated=socket.hardware_gated,
                debug_only=False,
            ):
                owners.add(socket.name)
        reference = [
            label
            for label in enumerate_kernel_labels(small_kernel)
            if label.split(":", 1)[0] in owners
        ]
        pruned = prune_coverage_space(small_kernel, preset)
        assert _space_labels(pruned) == reference, preset.name


def test_preset_flags_drop_guard_and_requires_blocks(small_kernel):
    base = CONFIG_PRESETS["fs-ioctl"]
    slim = type(base)(
        name=base.name,
        axes=base.axes,
        include_guards=False,
        include_requires=False,
    )
    full = prune_coverage_space(small_kernel, base)
    pruned = prune_coverage_space(small_kernel, slim)
    full_labels = set(_space_labels(full))
    slim_labels = set(_space_labels(pruned))
    dropped = full_labels - slim_labels
    assert dropped and not slim_labels - full_labels
    assert all(":guard" in label or label.endswith(":requires-missing") for label in dropped)
    assert full.digest != pruned.digest


def test_bitmaps_from_different_pruned_spaces_refuse_to_mix(small_kernel):
    left_space = prune_coverage_space(small_kernel, CONFIG_PRESETS["netlink"])
    right_space = prune_coverage_space(small_kernel, CONFIG_PRESETS["fs-ioctl"])
    assert left_space.digest != right_space.digest
    left = CoverageBitmap.from_indices(left_space, {0, 1})
    right = CoverageBitmap.from_indices(right_space, {0, 1})
    with pytest.raises(CoverageSpaceMismatch):
        left | right
    with pytest.raises(CoverageSpaceMismatch):
        left.difference_count(right)
    # The supported cross-config comparison: plain label sets.
    assert isinstance(left.labels() - right.labels(), set)
