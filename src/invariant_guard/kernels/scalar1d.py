"""Scalar 1D MUSCL kernels (periodic): MC-limited reconstruction + upwinding."""

import numpy as np

from ..core import shift
from .limiter import mc_limited_slopes


def muscl_fluxes_advection(u, c):
    """Interface fluxes f_{j+1/2} (j = 0..N-1, wrapping) for f(u) = c*u."""
    u = np.asarray(u, dtype=np.float64)
    sig = mc_limited_slopes(u)
    if c >= 0.0:
        face = u + 0.5 * sig
    else:
        face = shift(u, 1) - 0.5 * shift(sig, 1)
    return c * face


def godunov_burgers_flux(ul, ur):
    """Exact Riemann flux for f(u) = u^2/2 between states ``ul`` and ``ur``."""
    fl = 0.5 * ul * ul
    fr = 0.5 * ur * ur
    rarefaction = ul <= ur
    fmin = np.where((ul <= 0.0) & (ur >= 0.0), 0.0, np.minimum(fl, fr))
    return np.where(rarefaction, fmin, np.maximum(fl, fr))


def muscl_fluxes_burgers(u):
    """Interface fluxes for the inviscid Burgers flux f(u) = u^2/2."""
    u = np.asarray(u, dtype=np.float64)
    sig = mc_limited_slopes(u)
    ul = u + 0.5 * sig
    ur = shift(u, 1) - 0.5 * shift(sig, 1)
    return godunov_burgers_flux(ul, ur)
