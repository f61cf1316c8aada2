"""Traced CLI child: runs `cavityvdw <args>` with the layer tracer on and
writes its spans and counts as JSON to <trace.json>.

    python3 perfbench/trace_child.py <trace.json> <subcommand> --config ...
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from cavityvdw import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.start()
try:
    code = cli.main(sys.argv[2:])
finally:
    tracer.stop()
spans, counts = tracer.take()
Path(sys.argv[1]).write_text(json.dumps({"spans": spans, "counts": counts}))
sys.exit(code)
