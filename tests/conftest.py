"""Shared fixtures: a small kernel, its extractor, generation artifacts, and a
counted quick campaign.

Everything expensive is session-scoped so the suite stays fast while every
module exercises the real end-to-end stack (no mocks of our own substrates).
"""

import pytest

from repro.baselines import SyzDescribe, build_syzkaller_corpus
from repro.core import KernelGPT
from repro.extractor import KernelExtractor
from repro.kernel import build_default_kernel
from repro.llm import OracleBackend


@pytest.fixture(scope="session")
def small_kernel():
    return build_default_kernel("small")


@pytest.fixture(scope="session")
def extractor(small_kernel):
    return KernelExtractor(small_kernel)


@pytest.fixture(scope="session")
def kernelgpt(small_kernel, extractor):
    return KernelGPT(small_kernel, OracleBackend(), extractor=extractor)


@pytest.fixture(scope="session")
def syzdescribe(small_kernel, extractor):
    return SyzDescribe(small_kernel, extractor=extractor)


@pytest.fixture(scope="session")
def syzkaller_corpus(small_kernel):
    return build_syzkaller_corpus(small_kernel)


@pytest.fixture(scope="session")
def dm_result(kernelgpt):
    return kernelgpt.generate_for_handler("dm_ctl_fops")


@pytest.fixture(scope="session")
def kvm_result(kernelgpt):
    return kernelgpt.generate_for_handler("kvm_fops")


@pytest.fixture(scope="session")
def rds_result(kernelgpt):
    return kernelgpt.generate_for_handler("rds_proto_ops")


def _counted_campaign(jobs: int, work_dir):
    """One quick ``campaign -e table1`` run from an empty context cache.

    Counts kernel builds, extractor indexes and generation runs, and records
    every ``(code, macro)`` pair the oracle slices a case block for.
    """
    from collections import Counter, OrderedDict
    from types import SimpleNamespace

    from repro.experiments import context as context_module
    from repro.llm import oracle
    from repro.orchestrator.cli import campaign_main

    builds: Counter = Counter()
    case_pairs: list[tuple[str, str]] = []

    def counting(what, fn):
        def counted(*args, **kwargs):
            builds[what] += 1
            return fn(*args, **kwargs)

        return counted

    slice_case_block = oracle.slice_case_block

    def recording_slice(code, macro):
        case_pairs.append((code, macro))
        return slice_case_block(code, macro)

    (work_dir / "bench").mkdir()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(context_module, "_CONTEXTS", OrderedDict())
        patch.setattr(context_module, "build_default_kernel",
                      counting("kernel", context_module.build_default_kernel))
        patch.setattr(KernelExtractor, "__init__", counting("extractor index", KernelExtractor.__init__))
        patch.setattr(KernelGPT, "generate_for_handlers",
                      counting("generation run", KernelGPT.generate_for_handlers))
        patch.setattr(oracle, "slice_case_block", recording_slice)
        code = campaign_main([
            "--preset", "quick", "-e", "table1", "--jobs", str(jobs), "--executor", "thread",
            "--bench", str(work_dir / "bench"), "--events", str(work_dir / "events.jsonl"),
            "--output", str(work_dir / "out"),
        ])
    return SimpleNamespace(
        code=code,
        builds=dict(builds),
        case_pairs=case_pairs,
        table1=(work_dir / "out" / "table1.txt").read_text(),
    )


@pytest.fixture(scope="session")
def counted_campaign(tmp_path_factory):
    """``counted_campaign(jobs)``: a counted quick campaign, run once per job count."""
    runs = {}

    def run(jobs: int):
        if jobs not in runs:
            runs[jobs] = _counted_campaign(jobs, tmp_path_factory.mktemp(f"campaign-jobs{jobs}"))
        return runs[jobs]

    return run
