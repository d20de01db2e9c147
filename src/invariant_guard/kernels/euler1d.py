"""Characteristic-variable MUSCL flux kernel for the 1D Euler equations.

Input is the ghost-extended conserved array ``u_ext`` of shape (N+4, 3) with
two ghost cells per side; output is the C-contiguous (N+1, 3) interface flux
array where face k sits between extended cells k+1 and k+2.  Reconstruction
happens in local characteristic variables of the Roe-averaged Jacobian; the
face flux is the Roe flux of the reconstructed pair, with Harten's entropy fix
on the acoustic fields.  Interfaces whose reconstructed density or pressure is
non-positive fall back to the first-order local Lax-Friedrichs flux.

Layout: ``u_ext`` is transposed once into component rows, a (3, N+4) array
whose rows rho, rho*v and E are contiguous.  Every face quantity is a row of
N+1 values, and a quantity of the two cells or reconstructed states at a face
is a (2, N+1) pair, left then right, so each formula runs once for both sides.
The jump across face k is both the forward slope of its left cell and the
backward slope of its right cell, and both slopes are taken in face k's
characteristic variables.  So the jumps across faces k-1, k and k+1 are each
projected once with face k's left eigenvectors (three projections where a
per-cell slope needs four), and the six characteristic slopes of the face's
two cells are limited in one call.  The result is bit for bit the per-cell
formulation's: every elementwise operation keeps its operands and order.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .limiter import mc_limit


def _physical_flux(rho, m, e, gamma):
    """Physical flux rows (m, m*v + p, v*(E + p)) of conserved rows (rho, m, E)."""
    v = m / rho
    p = (gamma - 1.0) * (e - 0.5 * m * v)
    return m, m * v + p, v * (e + p)


def euler_physical_flux(u, gamma):
    """Physical flux (rho*v, rho*v^2+p, v*(E+p)) for conserved rows (..., 3)."""
    u = np.asarray(u, dtype=np.float64)
    return np.stack(_physical_flux(u[..., 0], u[..., 1], u[..., 2], gamma), axis=-1)


def characteristic_muscl_fluxes(u_ext, gamma):
    """MUSCL fluxes at the N+1 interfaces of an (N+4, 3) extended state."""
    q = np.ascontiguousarray(np.asarray(u_ext, dtype=np.float64).T)
    gamma = float(gamma)
    n_faces = q.shape[1] - 3
    uL, uR = q[:, 1:-2], q[:, 2:-1]   # cells left and right of each face

    # primitives of every extended cell; face k reads cells k+1 and k+2
    rho = q[0]
    v = q[1] / rho
    p = (gamma - 1.0) * (q[2] - 0.5 * rho * v**2)
    h = (q[2] + p) / rho
    sq = np.sqrt(rho)
    sv, sh = sq * v, sq * h

    # Roe average of the cell pair of each face
    den = sq[1:-2] + sq[2:-1]
    vh = (sv[1:-2] + sv[2:-1]) / den
    hh = (sh[1:-2] + sh[2:-1]) / den
    vh2 = vh**2
    c2 = (gamma - 1.0) * (hh - 0.5 * vh2)
    ok = c2 > 0.0
    ch = np.sqrt(np.where(ok, c2, 1.0))

    b1 = (gamma - 1.0) / np.where(ok, c2, 1.0)
    b2 = 0.5 * b1 * vh2
    # left eigenvectors of face k's Roe Jacobian: lc[j] holds the coefficient
    # of conserved component j for the three characteristic fields, with the
    # sign folded in (x - a*d and x + (-a)*d round alike)
    vc, ic, bv = vh / ch, 1.0 / ch, b1 * vh
    lc = np.empty((3, 3, 1, n_faces))
    lc[0, 0] = 0.5 * (b2 + vc)
    lc[0, 1] = 1.0 - b2
    lc[0, 2] = 0.5 * (b2 - vc)
    lc[1, 0] = -(0.5 * (bv + ic))
    lc[1, 1] = bv
    lc[1, 2] = -(0.5 * (bv - ic))
    lc[2, 0] = 0.5 * b1
    lc[2, 1] = -b1
    lc[2, 2] = 0.5 * b1

    # jumps across faces k-1, k and k+1 (a window view, no copy), each
    # projected once onto face k's characteristic fields
    jump = q[:, 1:] - q[:, :-1]
    d = sliding_window_view(jump, n_faces, axis=1)
    w = lc[0] * d[0] + lc[1] * d[1] + lc[2] * d[2]
    # limited characteristic slopes of the left (0) and right (1) cell
    back, fwd = w[:, :2], w[:, 1:]
    sw = mc_limit(0.5 * (back + fwd), 2.0 * fwd, 2.0 * back)

    vmc, vpc = vh - ch, vh + ch
    slope = np.empty((3, 2, n_faces))
    slope[0] = sw[0] + sw[1] + sw[2]
    slope[1] = sw[0] * vmc + sw[1] * vh + sw[2] * vpc
    slope[2] = sw[0] * (hh - vh * ch) + sw[1] * 0.5 * vh2 + sw[2] * (hh + vh * ch)
    # reconstructed pair: left cell + slope/2, right cell - slope/2
    face = np.empty((3, 2, n_faces))
    face[:, 0] = uL + 0.5 * slope[:, 0]
    face[:, 1] = uR - 0.5 * slope[:, 1]

    rho_f = face[0]
    p_pos = (gamma - 1.0) * (face[2] - 0.5 * face[1] ** 2
                             / np.where(rho_f > 0, rho_f, 1.0))
    good = ok & ((rho_f > 0.0) & (p_pos > 0.0)).all(axis=0)
    bad = ~good
    np.copyto(face[:, 0], uL, where=bad)
    np.copyto(face[:, 1], uR, where=bad)

    # Roe flux of the face pair
    v_f = face[1] / rho_f
    p_f = (gamma - 1.0) * (face[2] - 0.5 * rho_f * v_f**2)
    h_f = (face[2] + p_f) / rho_f
    c_f = np.sqrt(gamma * p_f / rho_f)
    sq_f = np.sqrt(rho_f)
    sv_f, sh_f = sq_f * v_f, sq_f * h_f

    den = sq_f[0] + sq_f[1]
    vm = (sv_f[0] + sv_f[1]) / den
    hm = (sh_f[0] + sh_f[1]) / den
    vm2 = vm**2
    cm2 = (gamma - 1.0) * (hm - 0.5 * vm2)
    roe_ok = cm2 > 0.0
    cm = np.sqrt(np.where(roe_ok, cm2, 1.0))

    dq = face[:, 1] - face[:, 0]
    a2 = (gamma - 1.0) / np.where(roe_ok, cm2, 1.0) * (
        dq[0] * (hm - vm2) + vm * dq[1] - dq[2])
    a1 = 0.5 * (dq[0] - a2 - (dq[1] - vm * dq[0]) / cm)
    a3 = dq[0] - a1 - a2

    vmc, vpc = vm - cm, vm + cm
    lam1 = np.abs(vmc)
    lam2 = np.abs(vm)
    lam3 = np.abs(vpc)
    # Harten fix against expansion shocks in the acoustic fields
    slow, fast = v_f - c_f, v_f + c_f
    d1 = np.maximum(0.0, slow[1] - slow[0])
    d3 = np.maximum(0.0, fast[1] - fast[0])
    fix1 = lam1 < d1
    fix3 = lam3 < d3
    lam1 = np.where(fix1, 0.5 * (lam1**2 / np.where(fix1, d1, 1.0) + d1), lam1)
    lam3 = np.where(fix3, 0.5 * (lam3**2 / np.where(fix3, d3, 1.0) + d3), lam3)

    s1, s2, s3 = a1 * lam1, a2 * lam2, a3 * lam3
    diss = (s1 + s2 + s3,
            s1 * vmc + s2 * vm + s3 * vpc,
            s1 * (hm - vm * cm) + s2 * 0.5 * vm2 + s3 * (hm + vm * cm))
    phys = _physical_flux(face[0], face[1], face[2], gamma)
    flux = np.empty((n_faces, 3))
    for j in range(3):
        flux[:, j] = 0.5 * (phys[j][0] + phys[j][1]) - 0.5 * diss[j]

    # local Lax-Friedrichs wherever the Roe average itself degenerated
    lf_bad = bad | ~roe_ok
    if np.any(lf_bad):
        speed = np.abs(v) + np.sqrt(gamma * p / rho)
        alpha = np.maximum(speed[1:-2], speed[2:-1])
        fl = _physical_flux(*uL, gamma)
        fr = _physical_flux(*uR, gamma)
        for j in range(3):
            lf = 0.5 * (fl[j] + fr[j]) - 0.5 * alpha * (uR[j] - uL[j])
            flux[lf_bad, j] = lf[lf_bad]
    return flux
