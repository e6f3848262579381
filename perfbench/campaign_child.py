"""The traced ``campaign`` process: the CLI campaign with every layer wrapped.

Usage: ``python3 perfbench/campaign_child.py --trace-out FILE <campaign args>``.
It runs ``repro.experiments.runner.main(["campaign", ...])`` exactly as the
console script would, with a :class:`~perfbench.layers.LayerProbe`
installed, then writes the per-layer metrics to ``FILE`` as JSON and exits
with the campaign's own exit code.  Stdout carries only the campaign's
output, so it is checked against the same digest as an untraced run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: campaign_child.py --trace-out FILE <campaign args>", file=sys.stderr)
        return 2
    trace_out, campaign_args = Path(argv[1]), argv[2:]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.layers import LayerProbe
    from repro.experiments.runner import main as cli_main

    probe = LayerProbe()
    probe.install(wrap_context_backend=True)
    probe.tracer.start()
    try:
        code = cli_main(campaign_args)
    finally:
        probe.tracer.stop()
        probe.uninstall()
    trace_out.write_text(json.dumps({"returncode": code, "metrics": probe.metrics()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
