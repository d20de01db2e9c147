"""Invariant-preserving error correction for time-stepped PDE solvers.

Given any flux-form, RHS-form, discrete-increment, DG, or spectral update,
the correctors in this package apply a closed-form per-step transformation
so that discrete mass/energy are conserved, the discrete l2-norm or entropy
changes at a prescribed rate, and density/pressure stay positive.
"""

from .core import (DgField, EulerState1D, FvField1D, FvField2D, SpectralField,
                   UniformGrid1D, UniformGrid2D, VorticityState2D, bracket,
                   coarse_grain, coarse_grain_2d, volume_mean)
from .correctors import (AntiDiffusiveTargetWarning, EntropyRateTarget,
                         L2RateTarget, TrackedRateSource,
                         correct_dg_l2, correct_entropy_euler1d,
                         correct_euler2d_mass_energy_l2, correct_flux_l2_1d,
                         correct_flux_l2_2d, correct_increment_mass_l2,
                         correct_rhs_mass_l2, correct_spectral_mass_l2,
                         entropy_variables_euler1d,
                         estimate_boundary_entropy_flux,
                         limit_positivity_euler1d)
from .errors import (CflViolation, ConfigurationError, DegenerateCorrection,
                     InfeasibleTarget, InvariantGuardError, NonFiniteState,
                     NumericalBlowup, PositivityViolation)
from .schemes import (BoundaryFluxes2D, FluxScheme, advective_fluxes_2d,
                      euler1d_muscl_flux, euler1d_rhs, face_velocities,
                      ftcs_increment, fv_rhs_1d, fv_rhs_2d, numerical_flux_1d,
                      poisson_solve, spectral_rhs_advection)
from .timeloop import StepPlan, Trajectory, cfl_dt, discrete_step, run, ssprk3_step

__version__ = "0.1.0"


def backend_name():
    """Name of the kernel implementation; the numpy kernels are the only one."""
    return "numpy"
