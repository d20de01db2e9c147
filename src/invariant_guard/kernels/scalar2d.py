"""2D MUSCL vorticity-flux kernel (periodic, unsplit, dimension by dimension).

``ux[i, j]`` is the face-normal velocity at the vertical face (i+1/2, j) and
``uy[i, j]`` at the horizontal face (i, j+1/2); fluxes are returned at the
same locations.
"""

import numpy as np

from .limiter import mc_limited_slopes


def muscl_advective_fluxes_2d(chi, ux, uy):
    """MC-limited upwinded fluxes (u*chi) at vertical and horizontal faces."""
    chi = np.asarray(chi, dtype=np.float64)
    ux = np.asarray(ux, dtype=np.float64)
    uy = np.asarray(uy, dtype=np.float64)
    sx = mc_limited_slopes(chi, 0)
    sy = mc_limited_slopes(chi, 1)
    up_x = chi + 0.5 * sx
    dn_x = np.roll(chi, -1, axis=0) - 0.5 * np.roll(sx, -1, axis=0)
    fx = ux * np.where(ux >= 0.0, up_x, dn_x)
    up_y = chi + 0.5 * sy
    dn_y = np.roll(chi, -1, axis=1) - 0.5 * np.roll(sy, -1, axis=1)
    fy = uy * np.where(uy >= 0.0, up_y, dn_y)
    return fx, fy
