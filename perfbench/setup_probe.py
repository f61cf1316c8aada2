"""Set-up probe: a fresh interpreter that imports cavityvdw.cli and builds
one workload's inputs, then prints 'ready'. run.py times it from spawn to
that line.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import cavityvdw.cli  # noqa: E402,F401  (the import is what set-up pays for)
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), BENCH.parent)
print("ready", flush=True)
