"""Hot numeric kernels, vectorized with numpy: the MC slope limiter, the
scalar 1D and 2D MUSCL fluxes, the Godunov-Burgers flux, and the 1D Euler
characteristic MUSCL flux with its local Lax-Friedrichs fallback.
"""

from .limiter import mc_limited_slopes
from .scalar1d import godunov_burgers_flux, muscl_fluxes_advection, muscl_fluxes_burgers
from .scalar2d import muscl_advective_fluxes_2d
from .euler1d import characteristic_muscl_fluxes, local_lax_friedrichs_fluxes

__all__ = [
    "mc_limited_slopes",
    "godunov_burgers_flux",
    "muscl_fluxes_advection",
    "muscl_fluxes_burgers",
    "muscl_advective_fluxes_2d",
    "characteristic_muscl_fluxes",
    "local_lax_friedrichs_fluxes",
]
