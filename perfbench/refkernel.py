"""Fixed reference kernel used to rescale every timed operation.

The kernel is the benchmark's own code and calls nothing from cavityvdw, so
no change to the program can move it. It mixes the three kinds of work the
program does: pure-Python object work (dicts, float formatting), small numpy
array expressions, and one scipy quadrature of a fixed integrand. Running it
right before and right after an operation samples how fast the machine is
at that moment; the operation's time is then rescaled to the nominal kernel
time below.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad

# Median raw kernel time measured on the reference machine (see README.md).
# Rescaled time = raw time * REF_NOMINAL_S / (mean of the two adjacent
# kernel times). Changing this constant rescales every reported time, so it
# stays fixed for the life of the benchmark.
REF_NOMINAL_S = 0.0120

# Same idea for set-up: a fresh interpreter that imports only numpy and yaml.
SETUP_REF_NOMINAL_S = 0.230
SETUP_REF_CODE = "import numpy, yaml; print('ready', flush=True)"

_X = np.linspace(0.0, 1.0, 256)


def _integrand(t: float) -> float:
    return math.exp(-0.3 * t) * math.cos(25.0 * t) / (1.0 + t * t)


def kernel() -> float:
    """Run the fixed work once and return a checksum (kept so the work
    cannot be skipped)."""
    rows = []
    for i in range(3000):
        z = i * 1.0e-3
        rows.append({"z": z, "s": math.sin(3.0 * z), "c": format(z * 1.1, ".17g")})
    acc = sum(r["s"] for r in rows) + len(rows[-1]["c"])
    for k in range(300):
        y = np.sin(_X * (1.0 + 1e-3 * k)) ** 2 + np.cos(_X)
        acc += float(y.sum())
    val, _ = quad(_integrand, 0.0, 40.0, limit=400, epsabs=0.0, epsrel=1e-10)
    return acc + val


def timed_kernel() -> float:
    """Raw seconds of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
