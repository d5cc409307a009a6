"""Run hnf CLI commands in a fresh process and report time, RSS and spans.

Usage: ``python3 perfbench/child.py SPEC_JSON`` where the spec holds
``root`` (the checkout whose ``src/hnf`` is imported), ``commands`` (a list
of argv lists for ``hnf.cli.main``), ``trace`` and ``out`` (the result file).
Commands run in order and stop at the first non-zero exit code. Each runs
in-process through ``hnf.cli.main`` with its standard output captured; the
process's peak RSS so far is read after each, so in a fresh process the
value after the first command is that command's peak.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def main(spec_json: str) -> int:
    spec = json.loads(spec_json)
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import hnf.cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    for argv in spec["commands"]:
        buf = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buf):
            if tracer is None:
                rc = hnf.cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    rc = hnf.cli.main(argv)
        seconds = time.perf_counter() - start
        results.append({
            "argv": argv, "rc": rc, "seconds": seconds, "stdout": buf.getvalue(),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        })
        if rc != 0:
            break

    result = {
        "commands": results,
        "spans": tracer.spans if tracer else [],
        "untraced": tracer.missing if tracer else [],
    }
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
