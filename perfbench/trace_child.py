"""Run one `tamari` CLI command with the package traced from outside.

    python perfbench/trace_child.py OUT.json <tamari arguments...>

Used by the cli workload's traced run: stdout and the exit code are the
command's own; the tracer's aggregates and the lattice_elements cache
counts are written to OUT.json when the command returns.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tamari import cli, shelling  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    lru = shelling.lattice_elements
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("bench.cli", cli.main, argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        info = lru.cache_info()
        snap = tracer.snapshot()
        snap.update(lru_hits=info.hits, lru_misses=info.misses)
        out.write_text(json.dumps(snap))
    return code


if __name__ == "__main__":
    sys.exit(main())
