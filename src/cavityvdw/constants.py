"""Physical constants (SI, CODATA 2018 exact/recommended values).

All numerical routines in the package read these values from here so that
every code path shares one constants table.
"""

C = 299792458.0                 # speed of light in vacuum [m/s]
HBAR = 1.054571817e-34          # reduced Planck constant [J s]
MU0 = 1.25663706212e-6          # vacuum permeability [N/A^2]
# SI fixes eps0 mu0 c^2 = 1; CODATA's 8.8541878128e-12 is this value rounded
EPS0 = 1 / (MU0 * C**2)         # vacuum permittivity [F/m]

CONSTANTS = {
    "c": C,
    "hbar": HBAR,
    "eps0": EPS0,
    "mu0": MU0,
}
