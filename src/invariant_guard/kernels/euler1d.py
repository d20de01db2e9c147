"""Characteristic-variable MUSCL flux kernel for the 1D Euler equations.

Input is the ghost-extended conserved array ``u_ext`` of shape (N+4, 3) with
two ghost cells per side; output is the (N+1, 3) interface flux array where
face k sits between extended cells k+1 and k+2.  Reconstruction happens in
local characteristic variables of the Roe-averaged Jacobian; the face flux is
the Roe flux of the reconstructed pair, with Harten's entropy fix on the
acoustic fields.  Interfaces whose reconstructed density or pressure is
non-positive fall back to the first-order local Lax-Friedrichs flux.
"""

import numpy as np

from .limiter import mc_limit


def euler_physical_flux(u, gamma):
    """Physical flux (rho*v, rho*v^2+p, v*(E+p)) for conserved rows (..., 3)."""
    u = np.asarray(u, dtype=np.float64)
    rho = u[..., 0]
    v = u[..., 1] / rho
    p = (gamma - 1.0) * (u[..., 2] - 0.5 * u[..., 1] * v)
    return np.stack([u[..., 1], u[..., 1] * v + p, v * (u[..., 2] + p)], axis=-1)


def characteristic_muscl_fluxes(u_ext, gamma):
    """MUSCL fluxes at the N+1 interfaces of an (N+4, 3) extended state."""
    u_ext = np.asarray(u_ext, dtype=np.float64)
    gamma = float(gamma)
    n_faces = u_ext.shape[0] - 3
    li = np.arange(1, 1 + n_faces)   # extended index of the left cell
    uL, uR = u_ext[li], u_ext[li + 1]

    rhoL, rhoR = uL[:, 0], uR[:, 0]
    vL, vR = uL[:, 1] / rhoL, uR[:, 1] / rhoR
    pL = (gamma - 1.0) * (uL[:, 2] - 0.5 * rhoL * vL**2)
    pR = (gamma - 1.0) * (uR[:, 2] - 0.5 * rhoR * vR**2)
    hL = (uL[:, 2] + pL) / rhoL
    hR = (uR[:, 2] + pR) / rhoR

    sqL, sqR = np.sqrt(rhoL), np.sqrt(rhoR)
    vh = (sqL * vL + sqR * vR) / (sqL + sqR)
    hh = (sqL * hL + sqR * hR) / (sqL + sqR)
    c2 = (gamma - 1.0) * (hh - 0.5 * vh**2)
    ok = c2 > 0.0
    ch = np.sqrt(np.where(ok, c2, 1.0))

    b1 = (gamma - 1.0) / np.where(ok, c2, 1.0)
    b2 = 0.5 * b1 * vh**2

    def to_char(d):
        w1 = 0.5 * (b2 + vh / ch) * d[:, 0] - 0.5 * (b1 * vh + 1.0 / ch) * d[:, 1] \
            + 0.5 * b1 * d[:, 2]
        w2 = (1.0 - b2) * d[:, 0] + b1 * vh * d[:, 1] - b1 * d[:, 2]
        w3 = 0.5 * (b2 - vh / ch) * d[:, 0] - 0.5 * (b1 * vh - 1.0 / ch) * d[:, 1] \
            + 0.5 * b1 * d[:, 2]
        return w1, w2, w3

    def from_char(w1, w2, w3):
        d0 = w1 + w2 + w3
        d1 = w1 * (vh - ch) + w2 * vh + w3 * (vh + ch)
        d2 = w1 * (hh - vh * ch) + w2 * 0.5 * vh**2 + w3 * (hh + vh * ch)
        return np.stack([d0, d1, d2], axis=1)

    def limited_slope(cell_idx):
        dm = u_ext[cell_idx] - u_ext[cell_idx - 1]
        dp = u_ext[cell_idx + 1] - u_ext[cell_idx]
        wm = to_char(dm)
        wp = to_char(dp)
        lim = [mc_limit(0.5 * (a + b), 2.0 * b, 2.0 * a) for a, b in zip(wm, wp)]
        return from_char(*lim)

    uLf = uL + 0.5 * limited_slope(li)
    uRf = uR - 0.5 * limited_slope(li + 1)

    def positive(u):
        rho = u[:, 0]
        p = (gamma - 1.0) * (u[:, 2] - 0.5 * u[:, 1] ** 2 / np.where(rho > 0, rho, 1.0))
        return (rho > 0.0) & (p > 0.0)

    good = ok & positive(uLf) & positive(uRf)
    uLf = np.where(good[:, None], uLf, uL)
    uRf = np.where(good[:, None], uRf, uR)

    # Roe flux of the face pair
    rho_a, rho_b = uLf[:, 0], uRf[:, 0]
    v_a, v_b = uLf[:, 1] / rho_a, uRf[:, 1] / rho_b
    p_a = (gamma - 1.0) * (uLf[:, 2] - 0.5 * rho_a * v_a**2)
    p_b = (gamma - 1.0) * (uRf[:, 2] - 0.5 * rho_b * v_b**2)
    h_a = (uLf[:, 2] + p_a) / rho_a
    h_b = (uRf[:, 2] + p_b) / rho_b
    c_a = np.sqrt(gamma * p_a / rho_a)
    c_b = np.sqrt(gamma * p_b / rho_b)

    sq_a, sq_b = np.sqrt(rho_a), np.sqrt(rho_b)
    vm = (sq_a * v_a + sq_b * v_b) / (sq_a + sq_b)
    hm = (sq_a * h_a + sq_b * h_b) / (sq_a + sq_b)
    cm2 = (gamma - 1.0) * (hm - 0.5 * vm**2)
    roe_ok = cm2 > 0.0
    cm = np.sqrt(np.where(roe_ok, cm2, 1.0))

    d = uRf - uLf
    a2 = (gamma - 1.0) / np.where(roe_ok, cm2, 1.0) * (
        d[:, 0] * (hm - vm**2) + vm * d[:, 1] - d[:, 2])
    a1 = 0.5 * (d[:, 0] - a2 - (d[:, 1] - vm * d[:, 0]) / cm)
    a3 = d[:, 0] - a1 - a2

    lam1 = np.abs(vm - cm)
    lam2 = np.abs(vm)
    lam3 = np.abs(vm + cm)
    # Harten fix against expansion shocks in the acoustic fields
    d1 = np.maximum(0.0, (v_b - c_b) - (v_a - c_a))
    d3 = np.maximum(0.0, (v_b + c_b) - (v_a + c_a))
    fix1 = lam1 < d1
    fix3 = lam3 < d3
    lam1 = np.where(fix1, 0.5 * (lam1**2 / np.where(fix1, d1, 1.0) + d1), lam1)
    lam3 = np.where(fix3, 0.5 * (lam3**2 / np.where(fix3, d3, 1.0) + d3), lam3)

    diss0 = a1 * lam1 + a2 * lam2 + a3 * lam3
    diss1 = a1 * lam1 * (vm - cm) + a2 * lam2 * vm + a3 * lam3 * (vm + cm)
    diss2 = (a1 * lam1 * (hm - vm * cm) + a2 * lam2 * 0.5 * vm**2
             + a3 * lam3 * (hm + vm * cm))
    diss = np.stack([diss0, diss1, diss2], axis=1)

    flux = 0.5 * (euler_physical_flux(uLf, gamma) + euler_physical_flux(uRf, gamma)) \
        - 0.5 * diss

    # local Lax-Friedrichs wherever the Roe average itself degenerated
    lf_bad = ~(good & roe_ok)
    if np.any(lf_bad):
        alpha = np.maximum(np.abs(vL) + np.sqrt(gamma * pL / rhoL),
                           np.abs(vR) + np.sqrt(gamma * pR / rhoR))
        lf = 0.5 * (euler_physical_flux(uL, gamma) + euler_physical_flux(uR, gamma)) \
            - 0.5 * alpha[:, None] * (uR - uL)
        flux = np.where(lf_bad[:, None], lf, flux)
    return flux
