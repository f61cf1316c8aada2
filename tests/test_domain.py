"""Non-finite input is rejected by name, over every value class and every
public function at once.

From a valid baseline, each test replaces one numeric field or argument, or
one entry of a numeric tuple or array, with NaN, +inf or -inf, and expects a
DomainError whose message contains "<name>=". A value class or public
function added to the package joins the walk and fails it until it has a
baseline here, or an exemption with its reason.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

import cavityvdw
import cavityvdw.cli  # noqa: F401  (defines RunResult)
from cavityvdw import (
    AtomSpec,
    ComplexDyad,
    DomainError,
    DressedSystem,
    FreeSpaceGreens,
    ModeModel,
    NarrowModeGreens,
    PlanarCavity,
    PlanarCavityGreens,
    PlanarScenario,
    QuadratureControl,
    RabiBreakdown,
    ResonantPotentialBreakdown,
    RunConfig,
    SpectralFunction,
)
from cavityvdw.cli import RunResult
from cavityvdw.dressed import theta_force
from cavityvdw.record import Record
from cavityvdw.weakfield import lorentzian_spectral_function

BAD = (math.nan, math.inf, -math.inf)

CAV = PlanarCavity(d=1.0e-6, delta=1.0e-3, nu=1)
ATOM_A = AtomSpec((0.0, 0.0, 0.3e-6), CAV.omega_nu, (1.0e-29, 0.0, 0.0))
ATOM_B = AtomSpec((0.0, 0.0, 0.6e-6), CAV.omega_nu, (1.0e-29, 0.0, 0.0))
MODE = ModeModel(omega_nu=1.0e15, gamma_nu=1.0e11, g2_aa=1.0, g2_bb=4.0, g2_ab=-2.0)
SCN = PlanarScenario.resonant(CAV, 0.3e-6, 0.6e-6)
SYS = DressedSystem.from_coupling(4.0e9, 3.0e9)

RECORD_BASELINES = {
    ComplexDyad: {"matrix": np.eye(3, dtype=complex)},
    PlanarCavity: {"d": 1.0e-6, "delta": 1.0e-3, "nu": 1},
    QuadratureControl: {"rel_tol": 1.0e-8},
    SpectralFunction: {"func": lambda w: 1.0, "support": (1.0e14, 2.0e14),
                       "hint_points": (1.2e14, 1.5e14)},
    AtomSpec: {"position": (0.0, 0.0, 3.0e-7), "omega10": 2.0e15,
               "dipole": (1.0e-29, 0.0, 0.0)},
    ModeModel: {"omega_nu": 1.0e15, "gamma_nu": 1.0e11, "g2_aa": 1.0, "g2_bb": 4.0,
                "g2_ab": -2.0},
    DressedSystem: {name: getattr(SYS, name) for name in DressedSystem._fields},
    RabiBreakdown: {"omega2_a": 1.0, "omega2_b": 2.0, "omega2_ab": 2.0, "omega2_total": 5.0},
    ResonantPotentialBreakdown: {"single_a": -1.0e-28, "single_b": -2.0e-28,
                                 "interaction": 3.0e-28, "total": 0.0},
}
RECORD_EXEMPT = {
    RunConfig: "built only by load_config, which refuses non-finite numbers",
    RunResult: "no float fields",
    PlanarScenario: "no float fields; its cavity and atoms are checked as classes",
}

# the public functions of cavityvdw.__all__ with their numeric arguments,
# the module functions the CLI calls with them, and the Green's providers
FUNCTION_BASELINES = {
    "coupling_angle": (cavityvdw.coupling_angle, {"omega_r": 4.0e9, "detuning": 3.0e9}),
    "coupling_strength_sq": (cavityvdw.coupling_strength_sq,
                             {"a1": ATOM_A, "a2": ATOM_B, "omega": CAV.omega_nu,
                              "greens": FreeSpaceGreens()}),
    "eigenenergies": (cavityvdw.eigenenergies, {"omega_r": 4.0e9, "detuning": 3.0e9}),
    "fit_lorentzian": (cavityvdw.fit_lorentzian,
                       {"samples": np.array([(w, 1.0 / (1.0 + w * w))
                                             for w in np.linspace(-3.0, 3.0, 9)])}),
    "force_theta": (cavityvdw.force_theta, {"scenario": SCN, "theta": 0.3}),
    "free_decay_rate": (cavityvdw.free_decay_rate, {"omega10": 2.0e15, "dipole_norm": 1.0e-29}),
    "free_space_green": (cavityvdw.free_space_green, {"k": 1.0e7, "r": (0.0, 0.0, 1.0e-7)}),
    "free_space_im_green_coincident": (cavityvdw.free_space_im_green_coincident, {"k": 1.0e7}),
    "free_space_resonant_potential": (cavityvdw.free_space_resonant_potential,
                                      {"d_a": (1.0e-29, 0.0, 0.0), "d_b": (1.0e-29, 0.0, 0.0),
                                       "k": 1.0e7, "r": (0.0, 0.0, 1.0e-7)}),
    "kk_real_from_imag": (cavityvdw.kk_real_from_imag,
                          {"f": lorentzian_spectral_function(1.0, 1.0e15, 1.0e11),
                           "omega": 1.0e15 + 3.0e11}),
    "lorentzian_profile": (cavityvdw.lorentzian_profile,
                           {"peak": 1.0, "omega_nu": 1.0e15, "gamma_nu": 1.0e11,
                            "omega": 1.0e15 + 1.0e11}),
    "narrow_mode_real_contraction": (cavityvdw.narrow_mode_real_contraction,
                                     {"g2_peak": 1.0, "gamma_nu": 1.0e11, "omega_nu": 1.0e15,
                                      "omega": 0.9e15}),
    "planar_cavity_green": (cavityvdw.planar_cavity_green,
                            {"cav": CAV, "z": 0.3e-6, "zp": 0.6e-6, "omega": CAV.omega_nu}),
    "planar_resonant_im_gxx": (cavityvdw.planar_resonant_im_gxx,
                               {"cav": CAV, "z_a": 0.3e-6, "z_b": 0.6e-6,
                                "omega": CAV.omega_nu}),
    "planar_scattering_components": (cavityvdw.planar_scattering_components,
                                     {"d": 1.0e-6, "r_s": -0.99, "r_p": 0.99, "z": 0.3e-6,
                                      "zp": 0.6e-6, "omega": 2.0e15}),
    "potential_pm": (cavityvdw.potential_pm, {"omega": 5.0e9}),
    "potential_theta": (cavityvdw.potential_theta, {"theta": 0.3, "sys": SYS}),
    "rabi_frequency": (cavityvdw.rabi_frequency, {"mode_norm": 1.0, "gamma_nu": 1.0e11}),
    "scan_rabi": (cavityvdw.scan_rabi, {"scn": SCN, "sweep": "joint",
                                        "grid": np.linspace(0.1e-6, 0.9e-6, 5)}),
    "weak_limit_potentials": (cavityvdw.weak_limit_potentials,
                              {"gamma_nu": 1.0e11, "mode_norm": 1.0, "detuning": 1.0e12}),
    "weak_theta_force": (cavityvdw.weak_theta_force,
                         {"theta": 0.3, "omega_r": 7.0e9, "grad_omega_r": (0.0, 0.0, 1.0e15),
                          "detuning": 1.0e12}),
    "weak_theta_potential": (cavityvdw.weak_theta_potential,
                             {"theta": 0.3, "omega_r": 7.0e9, "detuning": 1.0e12}),
    "dressed.theta_force": (theta_force, {"theta": 0.3, "grad_omega_r": 1.0}),
    "dressed.theta_force as-printed": (theta_force, {"theta": 0.3, "grad_omega_r": 1.0,
                                                     "omega_r": 7.0e9, "detuning": 1.0e10,
                                                     "variant": "as-printed"}),
    "FreeSpaceGreens.tensor": (FreeSpaceGreens().tensor,
                               {"r1": ATOM_A.position, "r2": ATOM_B.position,
                                "omega": CAV.omega_nu}),
    "PlanarCavityGreens.tensor": (PlanarCavityGreens(CAV).tensor,
                                  {"r1": ATOM_A.position, "r2": ATOM_B.position,
                                   "omega": CAV.omega_nu}),
    "NarrowModeGreens.tensor": (NarrowModeGreens(MODE, ATOM_A, ATOM_B).tensor,
                                {"r1": ATOM_A.position, "r2": ATOM_B.position,
                                 "omega": 1.0e15 + 1.0e11}),
}
FUNCTION_EXEMPT = {
    "load_config": "reads a file; its numbers are refused there when not finite",
    "grad_rabi": "takes a scenario, whose classes are checked, and an atom label",
    "mode_norm": "takes a ModeModel",
    "mode_overlap": "takes a ModeModel",
    "rabi_contributions": "takes a PlanarScenario",
    "resonant_potential": "takes two AtomSpecs and a provider",
}


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("cavityvdw."):
            yield sub
        yield from _record_classes(sub)


def _numeric(value) -> bool:
    if isinstance(value, (int, float)):
        return True
    arr = np.asarray(value) if isinstance(value, (tuple, list, np.ndarray)) else None
    return arr is not None and arr.size > 0 and arr.dtype.kind in "ifc"


def _replacements(value):
    """(label, value with one entry made bad) for each bad value: the value
    itself when scalar, else its first and its last entry."""
    for bad in BAD:
        if isinstance(value, (int, float)):
            yield f"{bad}", bad
            continue
        arr = np.array(value)
        if arr.dtype.kind != "c":
            arr = arr.astype(float)
        for index in sorted({0, arr.size - 1}):
            out = arr.copy()
            out.flat[index] = bad
            yield f"{index}-{bad}", tuple(out.tolist()) if isinstance(value, tuple) else out


def _cases(baselines):
    return [pytest.param(key, name, bad, id=f"{getattr(key, '__name__', key)}-{name}-{label}")
            for key, fields in baselines.items()
            for name, value in fields.items() if _numeric(value)
            for label, bad in _replacements(value)]


def test_every_value_class_has_a_baseline_or_an_exemption():
    assert set(_record_classes()) == set(RECORD_BASELINES) | set(RECORD_EXEMPT)


@pytest.mark.parametrize("cls", list(RECORD_BASELINES), ids=lambda cls: cls.__name__)
def test_value_class_baseline_is_valid(cls):
    cls(**RECORD_BASELINES[cls])


@pytest.mark.parametrize("cls,field,value", _cases(RECORD_BASELINES))
def test_value_class_rejects_non_finite_field_by_name(cls, field, value):
    with pytest.raises(DomainError, match=f"{field}="):
        cls(**{**RECORD_BASELINES[cls], field: value})


def test_resonant_potential_singles_may_be_none():
    # a provider without a finite coincident Re G (free space) omits them
    ResonantPotentialBreakdown(None, None, 3.0e-28, 3.0e-28)


def test_every_public_function_has_a_baseline_or_an_exemption():
    functions = {name for name in cavityvdw.__all__
                 if inspect.isfunction(getattr(cavityvdw, name))}
    assert functions == (set(FUNCTION_BASELINES) & functions) | set(FUNCTION_EXEMPT)


@pytest.mark.parametrize("key", list(FUNCTION_BASELINES))
def test_function_baseline_is_valid(key):
    func, args = FUNCTION_BASELINES[key]
    func(**args)


@pytest.mark.parametrize("key,arg,value",
                         _cases({key: args for key, (_, args) in FUNCTION_BASELINES.items()}))
def test_function_rejects_non_finite_argument_by_name(key, arg, value):
    func, args = FUNCTION_BASELINES[key]
    with pytest.raises(DomainError, match=f"{arg}="):
        func(**{**args, arg: value})
