"""Record the outputs every benchmark run is checked against.

Usage, from the repository root::

    python3 perfbench/record.py

Writes ``perfbench/expected.json`` (per-handler suite digests, the valid
count and query total of one generation pass; the campaign's stdout digest
and gates) and refreshes the machine fingerprint in
``perfbench/provenance.json``.  Re-record only when a change is meant to
alter outputs; a change meant to keep them must pass against the old file.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

def machine_fingerprint() -> dict:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import checks
    from perfbench.workloads import CAMPAIGN_ARGS, Outcome, build_generation_env, generation_pass, spawn

    env = build_generation_env()
    _, _, results, oracle = generation_pass(env, env.handlers, Outcome(), traced=False)
    specgen = {
        "handlers": len(results),
        "valid": sum(1 for result in results.values() if result.valid),
        "llm_queries": oracle.usage.queries,
        "suite_digests": {
            handler: checks.handler_digest(result.valid, result.suite_text())
            for handler, result in sorted(results.items())
        },
    }
    print(f"specgen: {specgen['handlers']} handlers, {specgen['valid']} valid, "
          f"{specgen['llm_queries']} queries", file=sys.stderr)

    work_dir = ROOT / ".perfbench_work" / "record"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        events_path = work_dir / "events.jsonl"
        run = spawn([sys.executable, "-m", "repro.experiments.runner", *CAMPAIGN_ARGS,
                     "--events", str(events_path)],
                    ROOT, work_dir / "out.txt", work_dir / "err.txt")
        if run.returncode != 0:
            print((work_dir / "err.txt").read_text(), file=sys.stderr)
            return 1
        events, problems = checks.read_campaign_events(events_path)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        campaign = {
            "stdout_sha256": checks.sha256_text((work_dir / "out.txt").read_text()),
            "gates": sorted(record["gate"] for record in events if record["type"] == "gate_passed"),
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    expected = {"specgen": specgen, "campaign": campaign}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    provenance_path = HERE / "provenance.json"
    provenance = json.loads(provenance_path.read_text())
    provenance["machine"] = machine_fingerprint()
    provenance_path.write_text(json.dumps(provenance, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
