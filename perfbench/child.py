"""Child processes of the benchmark.

    python3 perfbench/child.py setup <workload> <seed>
        Fresh interpreter to ready: imports what the workload needs, runs its
        warm-up, then prints "ready".  The parent times spawn to that line.

    python3 perfbench/child.py cli <trace.json> <operation id> -- <curvop arguments>
        One traced command: installs the benchmark's span wrappers, calls
        curvop.cli.main with the arguments, and writes the span aggregates
        and its spans to the trace file before exiting with main's code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv):
    mode = argv[0]
    if mode == "setup":
        from workloads import warm_up

        warm_up(argv[1], int(argv[2]))
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    if mode == "cli":
        trace_path = Path(argv[1])
        command = argv[argv.index("--") + 1:]
        import curvop.cli
        from tracer import Tracer

        tracer = Tracer()
        tracer.op = int(argv[2])
        tracer.install()
        try:
            code = curvop.cli.main(command)
        finally:
            tracer.uninstall()
            trace_path.write_text(json.dumps(tracer.snapshot(with_spans=True)))
        return code
    raise SystemExit(f"unknown child mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
