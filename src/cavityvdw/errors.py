"""Exception types shared across the package, and its one domain check.

Every float field of a value class and every float argument of a public
function is finite, and positive or >= 0 where its physics says so; else
require() raises a DomainError that names it and its first bad value.
Checks that carry physics (Cauchy-Schwarz, |r| < 1, a narrow line, points
between the mirrors) are written by hand beside its calls.
"""

import math

import numpy as np


class DomainError(ValueError):
    """Input outside the physical or mathematical domain of an operation."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the achieved absolute-error estimate and the target so callers
    can decide whether the partial result is usable.
    """

    def __init__(self, message, achieved=None, target=None, value=None):
        super().__init__(message)
        self.achieved = achieved
        self.target = target
        self.value = value


class FitError(RuntimeError):
    """Least-squares fit failed to converge or produced unphysical parameters."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(ValueError):
    """Configuration file is malformed or violates a constraint."""


# rule -> (lower bound, whether it is allowed, upper bound, wording)
_RULES = {"finite": (-math.inf, False, math.inf, "finite"),
          "positive": (0.0, False, math.inf, "positive and finite"),
          "nonnegative": (0.0, True, math.inf, ">= 0 and finite")}


def require(what: str, name: str, value, rule="finite"):
    """value if every entry of it obeys rule, else DomainError("<what> must
    be <rule>, got <name>=<first entry that does not>"). rule is "finite",
    "positive", "nonnegative" (both also finite) or an open interval
    (lo, hi), each checked by comparisons that NaN fails. A Python int or
    float (numpy float64 included) is compared as it is and returned;
    anything else is checked, and returned, as a float array (complex under
    "finite")."""
    lo, closed, hi, wording = _RULES[rule] if isinstance(rule, str) else (
        rule[0], False, rule[1], f"inside ({rule[0]:g}, {rule[1]:g})")
    if isinstance(value, (float, int)):
        if (lo <= value if closed else lo < value) and value < hi:
            return value
        bad = value
    else:
        arr = np.asarray(value)
        arr = arr if arr.dtype.kind in "fc" else arr.astype(float)
        ok = np.isfinite(arr) if rule == "finite" else (
            (arr >= lo if closed else arr > lo) & (arr < hi))
        if ok.all():
            return arr
        bad = arr[~ok].flat[0]
    raise DomainError(f"{what} must be {wording}, got {name}={bad}")
