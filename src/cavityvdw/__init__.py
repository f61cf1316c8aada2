"""Two correlated atoms in a cavity: Green's tensors, mode couplings,
dressed-state energetics and van der Waals forces, with a deterministic
CLI for tabular sweeps.

Each public name imports its module on first access (PEP 562), so
`import cavityvdw` loads no submodule, and a process loads only the
modules of the names it uses."""

import importlib

# the module of every public name
_MODULES = {
    "config": ("RunConfig", "load_config"),
    "constants": ("C", "EPS0", "HBAR", "MU0"),
    "dressed": ("DressedSystem", "coupling_angle", "eigenenergies", "force_theta", "grad_rabi",
                "potential_pm", "potential_theta"),
    "errors": ("ConfigError", "DomainError", "FitError", "QuadratureError"),
    "greens": ("ComplexDyad", "FreeSpaceGreens", "PlanarCavityGreens", "free_space_green",
               "free_space_im_green_coincident", "planar_cavity_green", "planar_resonant_im_gxx",
               "planar_scattering_components"),
    "modecoupling": ("LorentzianFit", "ModeModel", "coupling_strength_sq", "fit_lorentzian",
                     "mode_norm", "mode_overlap"),
    "planarcavity": ("AtomSpec", "PlanarCavity", "PlanarScenario", "RabiBreakdown",
                     "free_decay_rate", "rabi_contributions", "scan_rabi"),
    "quadrature": ("QuadratureControl", "SpectralFunction", "kk_real_from_imag"),
    "tabular": ("Table",),
    "weakfield": ("ResonantPotentialBreakdown", "free_space_resonant_potential",
                  "lorentzian_profile", "narrow_mode_real_contraction", "resonant_potential",
                  "weak_limit_potentials"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
