"""Scalar 1D MUSCL kernels (periodic): MC-limited reconstruction + upwinding.

A kernel pads the cells once, one ghost on the left and two on the right,
and reads every neighbour from slices of that copy.  Each face state goes
through the operations of u_j + sig_j/2 and u_{j+1} - sig_{j+1}/2 in their
order, so the fluxes are those of the rolled-neighbour formulas bit for bit.
"""

import numpy as np

from .limiter import mc_limit


def _half_slopes(u):
    """``(p, h)``: ``p[j + 1] = u_j`` for j = -1..N+1 (wrapping) and the half
    MC slope ``h[j] = sig_j / 2`` of cells j = 0..N (cell N is cell 0)."""
    p = np.empty(len(u) + 3)
    p[1:-2] = u
    p[0] = u[-1]
    p[-2:] = u[:2]
    d = p[1:] - p[:-1]   # d[j] = u_j - u_{j-1}, j = 0..N+1
    d *= 2.0
    h = mc_limit(0.5 * (p[2:] - p[:-2]), d[1:], d[:-1])
    h *= 0.5
    return p, h


def muscl_fluxes_advection(u, c):
    """Interface fluxes f_{j+1/2} (j = 0..N-1, wrapping) for f(u) = c*u."""
    p, h = _half_slopes(np.asarray(u, dtype=np.float64))
    face = p[1:-2] + h[:-1] if c >= 0.0 else p[2:-1] - h[1:]
    face *= c
    return face


def godunov_burgers_flux(faces):
    """Exact Riemann flux for f(u) = u^2/2 of a stacked (2, N) face pair:
    ``faces[0]`` left of each face, ``faces[1]`` right of it."""
    sq = 0.5 * faces * faces
    ul, ur, fl, fr = faces[0], faces[1], sq[0], sq[1]
    fmin = np.where((ul <= 0.0) & (ur >= 0.0), 0.0, np.minimum(fl, fr))
    return np.where(ul <= ur, fmin, np.maximum(fl, fr))


def muscl_fluxes_burgers(u):
    """Interface fluxes for the inviscid Burgers flux f(u) = u^2/2."""
    p, h = _half_slopes(np.asarray(u, dtype=np.float64))
    faces = np.empty((2, len(h) - 1))
    np.add(p[1:-2], h[:-1], out=faces[0])
    np.subtract(p[2:-1], h[1:], out=faces[1])
    return godunov_burgers_flux(faces)
