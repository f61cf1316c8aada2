"""Run configuration loading.

Every YAML key is declared once, as one row of SETTINGS: its path and
RunConfig field, parser, default, constraint and scenario. load_config
resolves a YAML file and the CLI's subcommand and flags through those rows,
in their order. Unknown keys are rejected by name, and so are keys of the
other scenario; physics parameters with no safe default (scenario, cavity
geometry, free-space transition frequency) are required; a failed check
names the key and the violated constraint; every value carries a
provenance tag, "user" (YAML or flag) or "default". The subcommand is the
mode's default, and a YAML mode that differs is an error. A flag replaces
its key's YAML value once that value has passed its own checks."""

from __future__ import annotations

import math
import re
from collections import namedtuple
from pathlib import Path
from typing import Any, Callable, Mapping

from .constants import C
from .errors import ConfigError
from .planarcavity import DELTA_BOUND
from .record import Record
from .weakfield import KK_MIN_OFFSET_WIDTHS

SCENARIOS = ("free-space", "planar")
MODES = ("scan-rabi", "dressed", "potential", "force", "weak-limit", "kk-check", "xcheck")
VARIANTS = ("corrected", "as-printed")
FORMATS = ("csv", "jsonl")
SWEEP_TARGETS = ("joint", "A", "B")

# modes that need a cavity mode behind them
PLANAR_ONLY_MODES = ("scan-rabi", "dressed", "force", "weak-limit", "kk-check")

_REQUIRED = object()

# SHA-256 without hashlib, whose sha256 loads OpenSSL's _hashlib: _sha2 from
# CPython 3.12 on, _sha256 before
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

# The block subset the program's configs are written in, which _read_block
# reads without PyYAML: printable ASCII lines, block mappings two levels
# deep, block sequences (indented, or indentless as yaml.safe_dump writes
# them) and one-line flow sequences of scalars, with comments on their own
# line or after a value and a space. Its plain scalars are decimal ints
# without leading zeros, floats with a point and an optional signed
# exponent, and words that no implicit resolver of PyYAML's SafeLoader
# matches, keys included. Every other document is declined (duplicate keys,
# tabs, CRs, tags, anchors, "---", quoted and multi-line scalars, spaces
# inside a scalar, unsigned exponents such as 2.0e15 ...) and read by
# yaml.safe_load, so every result and every parse error is PyYAML's
_PRINTABLE = bytes(range(0x20, 0x7F)) + b"\n"
_SCALAR = re.compile(r"(?P<int>[-+]?(?:0|[1-9][0-9]*))|[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?"
                     r"|(?P<word>[A-Za-z_/][A-Za-z0-9_./+-]*)")
# the words SafeLoader reads as a bool or as null
_RESERVED = frozenset("yes Yes YES no No NO true True TRUE false False FALSE on On ON off Off "
                      "OFF null Null NULL".split())
_NOTHING = object()  # no value after a line's indicator


class _Declined(Exception):
    """A document outside the block subset."""


class RunConfig(Record):
    """Fully resolved run description; every field is validated."""

    scenario: str
    mode: str
    variant: str
    seed: int
    cavity_d: float | None
    cavity_delta: float | None
    cavity_nu: int | None
    z_a: float | None
    z_b: float | None
    position_a: tuple[float, float, float] | None
    position_b: tuple[float, float, float] | None
    omega10: float
    dipole_norm: float
    orientation: tuple[float, float, float]
    sweep_points: int
    sweep_target: str
    sweep_span: tuple[float, float]
    kk_offsets: tuple[float, ...]
    weak_ratios: tuple[float, ...]
    theta: float
    tol_quadrature: float
    tol_xcheck: float | None
    out_path: str | None
    out_format: str
    source_sha256: str
    provenance: dict[str, str]


def _fail(path: str, constraint: str) -> None:
    raise ConfigError(f"{path}: {constraint}")


# ------------------------------------------------------------------ parsers

def _num(path: str, value: Any) -> float:
    # YAML 1.1 reads "2.0e15" (no exponent sign) as a string; accept such
    # strings when they parse cleanly as floats
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            _fail(path, "expected a number")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    v = float(value)
    if not math.isfinite(v):
        _fail(path, "must be finite")
    return v


def _intval(path: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    return int(value)


def _strval(path: str, value: Any) -> str:
    if not isinstance(value, str):
        _fail(path, "expected a string")
    return value


def _enum(allowed: tuple[str, ...]) -> Callable[[str, Any], str]:
    def parse(path: str, value: Any) -> str:
        v = _strval(path, value)
        if v not in allowed:
            _fail(path, f"must be one of {', '.join(allowed)}")
        return v

    return parse


def _vec3(path: str, value: Any) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        _fail(path, "expected a list of 3 numbers")
    return tuple(_num(f"{path}[{i}]", v) for i, v in enumerate(value))


def _floats(path: str, value: Any) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a non-empty list of numbers")
    return tuple(_num(f"{path}[{i}]", v) for i, v in enumerate(value))


def _span(path: str, value: Any) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(path, "expected a list [low, high]")
    lo = _num(f"{path}[0]", value[0])
    hi = _num(f"{path}[1]", value[1])
    if not lo < hi:
        _fail(path, "must satisfy low < high")
    return lo, hi


def _orientation(path: str, value: Any) -> tuple[float, float, float]:
    if isinstance(value, str):
        axes = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
        if value not in axes:
            _fail(path, "expected 'x', 'y', 'z', or a list of 3 numbers")
        return axes[value]
    vec = _vec3(path, value)
    norm = math.sqrt(sum(v * v for v in vec))
    if norm == 0.0:
        _fail(path, "must be a nonzero direction")
    return tuple(v / norm for v in vec)


# ----------------------------------------------------------------- settings

class _Setting(namedtuple("_Setting", ("path", "field", "parse", "default", "checks",
                                       "scenario", "instead"),
                          defaults=(_REQUIRED, (), None, ""))):
    """One YAML key: its dotted path, the RunConfig field it sets and the
    parse(path, value) that reads it.

    default is a value, _REQUIRED, or a function of the fields resolved
    before it (the CLI subcommand, or None, under "command"). checks is a
    tuple of (ok(value, fields), violated constraint); "{v}" and "{<field>}"
    in the constraint are filled in. A row of one scenario is refused in the
    other unless a row of that scenario has the same path; instead names
    the key to use there. A collections.namedtuple, since typing.NamedTuple
    compiles each of its string annotations when the module is imported."""

    __slots__ = ()


_POSITIVE = ((lambda v, f: v > 0.0, "must be > 0"),)
_IN_CAVITY = ((lambda v, f: 0.0 <= v <= f["cavity_d"], "must lie within [0, cavity.d]"),)

SETTINGS = (
    _Setting("scenario", "scenario", _enum(SCENARIOS)),
    _Setting("mode", "mode", _enum(MODES),
             lambda f: f["command"] or ("scan-rabi" if f["scenario"] == "planar" else "potential"),
             ((lambda v, f: f["scenario"] == "planar" or v not in PLANAR_ONLY_MODES,
               "'{v}' requires scenario 'planar'"),
              (lambda v, f: f["command"] in (None, v),
               "config sets '{v}' but the subcommand is '{command}'"))),
    _Setting("variant", "variant", _enum(VARIANTS), "corrected"),
    _Setting("seed", "seed", _intval, 0, ((lambda v, f: v >= 0, "must be >= 0"),)),
    _Setting("cavity.d", "cavity_d", _num, _REQUIRED, _POSITIVE, "planar"),
    _Setting("cavity.delta", "cavity_delta", _num, _REQUIRED,
             ((lambda v, f: 0.0 < v < DELTA_BOUND,
               f"must satisfy 0 < delta < {DELTA_BOUND:g} (model-validity bound)"),), "planar"),
    _Setting("cavity.nu", "cavity_nu", _intval, _REQUIRED,
             ((lambda v, f: v >= 1, "must be >= 1"),), "planar"),
    _Setting("atoms.z_a", "z_a", _num, lambda f: f["cavity_d"] / 2.0, _IN_CAVITY,
             "planar", "atoms.position_a"),
    _Setting("atoms.z_b", "z_b", _num, lambda f: f["cavity_d"] / 2.0, _IN_CAVITY,
             "planar", "atoms.position_b"),
    _Setting("atoms.position_a", "position_a", _vec3, (0.0, 0.0, 0.0), (),
             "free-space", "atoms.z_a"),
    _Setting("atoms.position_b", "position_b", _vec3, (0.0, 0.0, 1.0e-7),
             ((lambda v, f: v != f["position_a"], "must differ from atoms.position_a"),),
             "free-space", "atoms.z_b"),
    _Setting("atoms.omega10", "omega10", _num,
             lambda f: f["cavity_nu"] * math.pi * C / f["cavity_d"], _POSITIVE, "planar"),
    _Setting("atoms.omega10", "omega10", _num, _REQUIRED, _POSITIVE, "free-space"),
    _Setting("atoms.dipole_norm", "dipole_norm", _num, 1.0e-29, _POSITIVE),
    _Setting("atoms.orientation", "orientation", _orientation, (1.0, 0.0, 0.0),
             ((lambda v, f: f["scenario"] != "planar" or v[1:] == (0.0, 0.0),
               "scenario 'planar' supports x-aligned dipoles only"),)),
    _Setting("sweep.points", "sweep_points", _intval, 200,
             ((lambda v, f: v >= 1, "must be >= 1"),)),
    _Setting("sweep.target", "sweep_target", _enum(SWEEP_TARGETS), "joint"),
    _Setting("sweep.span", "sweep_span", _span, (0.001, 0.999),
             ((lambda v, f: v[0] >= 0.0 and v[1] <= 1.0,
               "must lie within [0, 1] (fractions of cavity.d)"),), "planar"),
    _Setting("sweep.span", "sweep_span", _span, (0.5, 2.0),
             ((lambda v, f: v[0] > 0.0,
               "must be > 0 (multiples of the configured separation)"),), "free-space"),
    _Setting("sweep.kk_offsets", "kk_offsets", _floats,
             (-1.0e3, -3.0e2, -1.0e2, 1.0e2, 3.0e2, 1.0e3),
             ((lambda v, f: all(abs(o) >= KK_MIN_OFFSET_WIDTHS for o in v),
               f"offsets must be at least {KK_MIN_OFFSET_WIDTHS:g} mode widths from resonance "
               "(asymptotic-regime comparison)"),)),
    _Setting("sweep.weak_ratios", "weak_ratios", _floats, (1.0e1, 1.0e2, 1.0e3, 1.0e4),
             ((lambda v, f: all(r > 0.0 for r in v), "ratios must be > 0"),)),
    _Setting("sweep.theta", "theta", _num, 0.6,
             ((lambda v, f: 0.0 <= v < math.pi, "must lie within [0, pi)"),)),
    _Setting("tolerances.quadrature_rel", "tol_quadrature", _num, 1.0e-9, _POSITIVE),
    _Setting("tolerances.xcheck", "tol_xcheck", _num, None, _POSITIVE),
    _Setting("output.path", "out_path", _strval, None),
    _Setting("output.format", "out_format", _enum(FORMATS), "csv"),
)

_PATHS = {s.path for s in SETTINGS}
_SECTIONS = tuple(dict.fromkeys(s.path.split(".")[0] for s in SETTINGS if "." in s.path))
_TOP_KEYS = tuple(s.path for s in SETTINGS if "." not in s.path) + _SECTIONS
# the paths each scenario reads
_APPLIES = {scn: {s.path for s in SETTINGS if s.scenario in (None, scn)} for scn in SCENARIOS}


def _sections(data: Mapping[str, Any]) -> dict[str, Mapping[str, Any]]:
    """data's sections by name, "" for the top level, each checked to be a
    mapping of known keys."""
    for key in data:
        if key not in _TOP_KEYS:
            _fail(str(key), "unknown key")
    sections = {"": data}
    for name in _SECTIONS:
        raw = data.get(name)
        if raw is None:
            raw = {}
        elif not isinstance(raw, Mapping):
            _fail(name, "expected a mapping of settings")
        for key in raw:
            if f"{name}.{key}" not in _PATHS:
                _fail(f"{name}.{key}", "unknown key")
        sections[name] = raw
    return sections


def _scalar(token: str) -> Any:
    match = _SCALAR.fullmatch(token)
    # PyYAML refuses a simple key of over 1024 characters
    if match is None or token in _RESERVED or len(token) > 1024:
        raise _Declined
    return token if match["word"] else int(token) if match["int"] else float(token)


def _entry(text: str) -> tuple[Any, Any]:
    """(key, value) of a "key: value" line, (_NOTHING, value) of a "- value"
    line; the value is _NOTHING where the line ends after its indicator."""
    if text[:2] == "- ":
        key, rest = _NOTHING, text[2:]
    else:
        key, colon, rest = text.partition(":")
        if not colon or rest[:1] not in ("", " "):
            raise _Declined
        key = _scalar(key)
    rest = rest.lstrip(" ")
    if not rest or rest[0] == "#":
        return key, _NOTHING
    if rest[0] == "[":
        inner, bracket, after = rest[1:].partition("]")
        if not bracket:
            raise _Declined
        value = [_scalar(item.strip(" ")) for item in inner.split(",")] if inner.strip(" ") \
            else []
    else:
        token = rest.partition(" ")[0]
        value, after = _scalar(token), rest[len(token):]
    if after[:1] not in ("", " ") or after.lstrip(" ")[:1] not in ("", "#"):
        raise _Declined
    return key, value


def _read_block(raw: bytes) -> Any:
    """raw's data, as yaml.safe_load gives it, where raw is written in the
    block subset; raises _Declined otherwise."""
    if raw.translate(None, _PRINTABLE):
        raise _Declined
    # (indent, key, value) per line that is neither blank nor a comment
    lines = [(len(line) - len(text), *_entry(text)) for line in raw.decode("ascii").split("\n")
             if (text := line.lstrip(" ")) and text[0] != "#"]
    if not lines:
        return None
    lines.append((-1, None, None))

    def sequence(i: int, indent: int) -> tuple[list, int]:
        items = []
        while lines[i][0] == indent and lines[i][1] is _NOTHING:
            if lines[i][2] is _NOTHING:
                raise _Declined
            items.append(lines[i][2])
            i += 1
        return items, i

    def mapping(i: int, indent: int, nested: bool) -> tuple[dict, int]:
        data = {}
        while lines[i][0] == indent and lines[i][1] is not _NOTHING:
            _, key, value = lines[i]
            if key in data:
                raise _Declined
            below, below_key, _ = lines[i + 1]
            if value is not _NOTHING:
                i += 1
            elif below_key is _NOTHING and below >= indent:
                value, i = sequence(i + 1, below)
            elif below > indent and not nested:
                value, i = mapping(i + 1, below, True)
            else:
                value, i = None, i + 1
            data[key] = value
        return data, i

    data, i = mapping(0, 0, False)
    if i != len(lines) - 1:
        raise _Declined
    return data


def _parse_yaml(raw: bytes) -> Any:
    """raw's data, or the exception yaml.safe_load raises for it: read by
    _read_block where raw is in the block subset, by safe_load otherwise."""
    try:
        return _read_block(raw)
    except _Declined:
        import yaml
    return yaml.safe_load(raw)


def _check(s: _Setting, value: Any, fields: dict) -> None:
    if value is None:  # an optional key left unset has nothing to check
        return
    for ok, constraint in s.checks:
        if not ok(value, fields):
            _fail(s.path, constraint.format(v=value, **fields))


def load_config(path: str | Path, command: str | None = None,
                flags: Mapping[str, Any] | None = None) -> RunConfig:
    """Read and validate a YAML run configuration.

    command is the CLI subcommand, which the config's mode must match;
    flags maps key paths to the values the CLI flags set, which replace
    the YAML's."""
    p = Path(path)
    try:
        raw = p.read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {p}") from None
    except OSError as exc:
        raise ConfigError(f"config: unreadable: {p}: {exc}") from None

    # only yaml.safe_load raises here, as _read_block declines instead; its
    # constructor's IndexError and ValueError are parse errors too
    try:
        data = _parse_yaml(raw)
    except Exception as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None)
        raise ConfigError(f"config: parse error{where}: {problem or exc}") from None

    if data is None:
        data = {}
    if not isinstance(data, Mapping):
        raise ConfigError("config: top level must be a mapping")
    return _resolve(_sections(data), _sha256(raw).hexdigest(), command, flags or {})


def _resolve(sections: dict[str, Mapping[str, Any]], sha: str, command: str | None,
             flags: Mapping[str, Any]) -> RunConfig:
    fields: dict[str, Any] = {"command": command}
    provenance: dict[str, str] = {}
    for s in SETTINGS:
        section, _, key = s.path.rpartition(".")
        given = sections[section]
        if s.scenario is not None and s.scenario != fields["scenario"]:
            if s.path not in _APPLIES[fields["scenario"]]:
                if key in given:
                    use = f" (use {s.instead})" if s.instead else ""
                    _fail(s.path, f"not applicable to scenario '{fields['scenario']}'{use}")
                fields[s.field] = None
            continue
        if given.get(key) is not None:
            value, origin = s.parse(s.path, given[key]), "user"
        elif s.default is _REQUIRED:
            _fail(s.path, "required but not set")
        else:
            value = s.default(fields) if callable(s.default) else s.default
            origin = "default"
        if s.path in flags:
            # the YAML value a flag replaces must still be valid
            _check(s, value, fields)
            value, origin = s.parse(s.path, flags[s.path]), "user"
        _check(s, value, fields)
        fields[s.field] = value
        provenance[s.path] = origin
    del fields["command"]
    return RunConfig(**fields, source_sha256=sha, provenance=provenance)
