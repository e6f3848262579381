"""Output digests and the checks each run makes against ``expected.json``.

Every check returns a list of human-readable mismatch strings; an empty
list means the output is correct.  Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


# ------------------------------------------------------------------ specgen
def handler_digest(valid: bool, suite_text: str) -> str:
    """One handler's outcome: its validity and its rendered syzlang suite."""
    return sha256_text(f"valid={bool(valid)}\n{suite_text}")


def check_specgen_pass(
    expected: dict, handlers, valid: int, queries: int | None, digests: dict[str, str] | None = None
) -> list[str]:
    """A full generation pass: handler set, valid count, backend queries, suite digests.

    ``queries=None`` skips the query total (a warm pass checks for zero
    itself); ``digests=None`` skips the per-handler suite comparison, which
    costs a serialisation of every suite.
    """
    problems = []
    wanted = expected["suite_digests"]
    missing = sorted(set(wanted) - set(handlers))
    extra = sorted(set(handlers) - set(wanted))
    if missing or extra:
        problems.append(f"handler set differs: {len(missing)} missing, {len(extra)} unexpected")
    for handler, digest in sorted((digests or {}).items()):
        if wanted.get(handler) != digest:
            problems.append(f"handler {handler}: suite digest {digest[:12]} != {str(wanted.get(handler))[:12]}")
    if valid != expected["valid"]:
        problems.append(f"valid handlers {valid} != {expected['valid']}")
    if queries is not None and queries != expected["llm_queries"]:
        problems.append(f"backend queries {queries} != {expected['llm_queries']}")
    return problems


# ----------------------------------------------------------------- campaign
def check_campaign_run(expected: dict, returncode: int, stdout: str, events: list[dict]) -> list[str]:
    """One ``campaign`` subprocess: exit code, stdout digest, gates and tasks."""
    problems = []
    if returncode != 0:
        problems.append(f"campaign exited {returncode}")
    digest = sha256_text(stdout)
    if digest != expected["stdout_sha256"]:
        problems.append(f"campaign stdout digest {digest[:12]} != {expected['stdout_sha256'][:12]}")
    passed = sorted(record["gate"] for record in events if record["type"] == "gate_passed")
    if passed != sorted(expected["gates"]):
        problems.append(f"gates passed {passed} != {sorted(expected['gates'])}")
    failed = [record["task_id"] for record in events if record["type"] == "task_failed"]
    if failed:
        problems.append(f"tasks failed: {failed}")
    finished = [record for record in events if record["type"] == "campaign_finished"]
    if not finished or not finished[-1].get("passed"):
        problems.append("campaign_finished missing or not passed")
    return problems


def read_campaign_events(path: Path) -> tuple[list[dict], list[str]]:
    """The campaign's event log, schema-validated by the program's own reader.

    A missing or malformed log reads as no events plus a problem.
    """
    from repro.errors import EventLogError
    from repro.orchestrator.events import read_events

    if not path.exists():
        return [], ["campaign wrote no event log"]
    try:
        return read_events(path), []
    except EventLogError as error:
        return [], [f"campaign event log is malformed: {error}"]
