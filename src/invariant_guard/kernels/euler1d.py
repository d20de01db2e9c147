"""Characteristic-variable MUSCL flux kernel for the 1D Euler equations.

Input is the ghost-extended state as component rows ``q`` of shape (3, N+4),
rho, rho*v and E with two ghost cells per side (``schemes.ghost_rows``);
output is the C-contiguous (N+1, 3) interface flux array where face k sits
between extended cells k+1 and k+2.  Reconstruction happens in local
characteristic variables of the Roe-averaged Jacobian; the face flux is the
Roe flux of the reconstructed pair, with Harten's entropy fix on the acoustic
fields.  Interfaces whose reconstructed density or pressure is
non-positive fall back to the first-order local Lax-Friedrichs flux of
``local_lax_friedrichs_fluxes``, which the positivity limiter blends toward.

Layout: the rows of ``q`` are read as they are, without a copy.  Every face
quantity is a row of N+1 values, and a quantity of the two cells or
reconstructed states at a face is a (2, N+1) pair, left then right, so each
formula runs once for both sides.
Rows that enter the same formula are stacked so one numpy call serves them
all: (v, h) of a state, the three left eigenvectors, the three characteristic
fields' slopes or wave strengths.  The jump across face k is both the forward
slope of its left cell and the backward slope of its right cell, and both
slopes are taken in face k's characteristic variables.  So the jumps across
faces k-1, k and k+1 are each projected once with face k's left eigenvectors
(three projections where a per-cell slope needs four), and the six
characteristic slopes of the face's two cells are limited in one call.  The
result is bit for bit the per-cell formulation's: every elementwise operation
keeps its operands and rounding order (a product may swap its two factors,
which rounds alike), and ``tests/test_kernels.py`` pins the output bytes.
"""

import numpy as np

from .limiter import mc_limit


def _physical_flux(m, e, v, gamma, out):
    """Physical flux rows (m, m*v + p, v*(E + p)) of states with momentum
    ``m``, energy ``e`` and velocity ``v``, written into ``out[0..2]``."""
    p = (gamma - 1.0) * (e - 0.5 * m * v)
    out[0] = m
    # out[i, ...] is a view even where out[i] would be a scalar
    np.add(m * v, p, out=out[1, ...])
    np.multiply(v, e + p, out=out[2, ...])
    return out


def _eigen_rows(v, h, c, n):
    """Right eigenvectors as (3, 3, n) rows: entry [r, f] takes field f's
    coefficient into conserved component r.  Row 0 is ones, row 1 the
    eigenvalues v - c, v, v + c, row 2 the energy entries h - v*c,
    0.5 * v**2, h + v*c.  Entry [2, 1] holds only the 0.5: callers multiply
    its product by v**2 afterwards, which rounds as s * 0.5 * v**2 does."""
    e = np.empty((3, 3, n))
    e[0] = 1.0
    np.subtract(v, c, out=e[1, 0])
    e[1, 1] = v
    np.add(v, c, out=e[1, 2])
    vc = v * c
    np.subtract(h, vc, out=e[2, 0])
    e[2, 1] = 0.5
    np.add(h, vc, out=e[2, 2])
    return e


def local_lax_friedrichs_fluxes(q, gamma):
    """First-order fluxes (3, M-1) between the columns of component rows
    ``q`` (3, M).  Face k's dissipation alpha is the larger |v| + c of
    columns k and k+1, so the flux keeps rho and p positive while
    dt/dx * alpha <= 1/2 (Perthame & Shu 1996; Zhang & Shu 2010)."""
    rho = q[0]
    v = q[1] / rho
    p = (gamma - 1.0) * (q[2] - 0.5 * rho * v**2)
    speed = np.abs(v) + np.sqrt(gamma * p / rho)
    alpha = np.maximum(speed[:-1], speed[1:])
    fc = _physical_flux(q[1], q[2], v, gamma, np.empty(q.shape))
    return 0.5 * (fc[:, :-1] + fc[:, 1:]) - 0.5 * alpha * (q[:, 1:] - q[:, :-1])


def characteristic_muscl_fluxes(q, gamma):
    """MUSCL fluxes at the N+1 interfaces of the (3, N+4) component rows
    ``q`` of an extended state."""
    q = np.asarray(q, dtype=np.float64)
    gamma = float(gamma)
    gm1 = gamma - 1.0
    n = q.shape[1] - 3    # faces
    uL, uR = q[:, 1:-2], q[:, 2:-1]   # cells left and right of each face

    # primitives of every extended cell; face k reads cells k+1 and k+2
    rho = q[0]
    vh_cell = np.empty((2, n + 3))
    v = np.divide(q[1], rho, out=vh_cell[0])
    p = gm1 * (q[2] - 0.5 * rho * v**2)
    np.divide(q[2] + p, rho, out=vh_cell[1])
    sq = np.sqrt(rho)

    # Roe average (vh, hh) of the cell pair of each face
    s = sq * vh_cell
    vh, hh = (s[:, 1:-2] + s[:, 2:-1]) / (sq[1:-2] + sq[2:-1])
    vh2 = vh**2
    c2 = gm1 * (hh - 0.5 * vh2)
    ok = c2 > 0.0
    c2 = np.where(ok, c2, 1.0)   # faces with c^2 <= 0 fall back below
    ch = np.sqrt(c2)
    b1 = gm1 / c2

    # left eigenvectors of face k's Roe Jacobian: lc[j] holds the coefficient
    # of conserved component j for the three characteristic fields, with the
    # sign folded in (x - a*d and x + (-a)*d round alike):
    #   lc[0] = 0.5 (b2 + v/c),       1 - b2,  0.5 (b2 - v/c)
    #   lc[1] = -0.5 (b1 v + 1/c),    b1 v,    -0.5 (b1 v - 1/c)
    #   lc[2] = 0.5 b1,               -b1,     0.5 b1
    lc = np.empty((3, 3, n))
    l0, l1, l2 = lc
    half_b1 = np.multiply(0.5, b1, out=l2[0])
    np.negative(b1, out=l2[1])
    l2[2] = half_b1
    b2 = half_b1 * vh2
    vc, ic = vh / ch, 1.0 / ch
    bv = np.multiply(b1, vh, out=l1[1])
    np.add(b2, vc, out=l0[0])
    np.subtract(1.0, b2, out=l0[1])
    np.subtract(b2, vc, out=l0[2])
    l0[::2] *= 0.5
    np.add(bv, ic, out=l1[0])
    np.subtract(bv, ic, out=l1[2])
    l1[::2] *= 0.5
    np.negative(l1[::2], out=l1[::2])

    # jumps across faces k-1, k and k+1 (d[j, i] for window i), each
    # projected once onto face k's characteristic fields: w[i, f]
    d = np.empty((3, 3, 1, n))
    for i in range(3):
        np.subtract(q[:, i + 1:i + 1 + n], q[:, i:i + n], out=d[:, i, 0])
    w = lc[0] * d[0]
    tmp = lc[1] * d[1]
    w += tmp
    np.multiply(lc[2], d[2], out=tmp)
    w += tmp
    # limited characteristic slopes of the left (0) and right (1) cell
    w2 = 2.0 * w
    sw = mc_limit(0.5 * (w[:2] + w[1:]), w2[1:], w2[:2])

    # conserved slopes: slope[s, r] = sum over fields f of sw[s, f] * e[r, f]
    t = sw[:, None] * _eigen_rows(vh, hh, ch, n)
    t[:, 2, 1] *= vh2
    slope = t[:, :, 0] + t[:, :, 1]
    slope += t[:, :, 2]
    slope *= 0.5
    # reconstructed pair: left cell + slope/2, right cell - slope/2
    face = np.empty((3, 2, n))
    np.add(uL, slope[0], out=face[:, 0])
    np.subtract(uR, slope[1], out=face[:, 1])

    rho_f = face[0]
    positive = rho_f > 0.0
    p_pos = gm1 * (face[2] - 0.5 * face[1] ** 2
                   / np.where(positive, rho_f, 1.0))
    positive &= p_pos > 0.0
    bad = ~(ok & positive.all(axis=0))
    if bad.any():
        np.copyto(face[:, 0], uL, where=bad)
        np.copyto(face[:, 1], uR, where=bad)

    # Roe flux of the face pair
    vh_f = np.empty((2, 2, n))
    v_f = np.divide(face[1], rho_f, out=vh_f[0])
    p_f = gm1 * (face[2] - 0.5 * rho_f * v_f**2)
    np.divide(face[2] + p_f, rho_f, out=vh_f[1])
    c_f = np.sqrt(gamma * p_f / rho_f)
    sq_f = np.sqrt(rho_f)
    s_f = sq_f * vh_f
    vm, hm = (s_f[:, 0] + s_f[:, 1]) / (sq_f[0] + sq_f[1])
    vm2 = vm**2
    cm2 = gm1 * (hm - 0.5 * vm2)
    roe_ok = cm2 > 0.0
    cm2 = np.where(roe_ok, cm2, 1.0)   # these faces take Lax-Friedrichs
    cm = np.sqrt(cm2)

    # wave strengths a1, a2, a3 of the three fields
    dq = face[:, 1] - face[:, 0]
    a = np.empty((3, n))
    np.multiply(gm1 / cm2, dq[0] * (hm - vm2) + vm * dq[1] - dq[2], out=a[1])
    np.multiply(0.5, dq[0] - a[1] - (dq[1] - vm * dq[0]) / cm, out=a[0])
    np.subtract(dq[0] - a[0], a[1], out=a[2])

    e = _eigen_rows(vm, hm, cm, n)
    lam = np.abs(e[1])
    # Harten fix against expansion shocks in the acoustic fields (rows 0
    # and 2 of lam), where the pair's v - c or v + c spreads faster than lam
    acoustic = np.empty((2, 2, n))
    np.subtract(v_f, c_f, out=acoustic[0])
    np.add(v_f, c_f, out=acoustic[1])
    spread = np.maximum(0.0, acoustic[:, 1] - acoustic[:, 0])
    lam13 = lam[::2]
    fix = lam13 < spread
    if fix.any():
        d13 = spread[fix]
        lam13[fix] = 0.5 * (lam13[fix] ** 2 / d13 + d13)

    # dissipation diss[r] = sum over fields f of a[f] * lam[f] * e[r, f]
    t = (a * lam) * e
    t[2, 1] *= vm2
    diss = t[:, 0] + t[:, 1]
    diss += t[:, 2]
    phys = _physical_flux(face[1], face[2], v_f, gamma, np.empty((3, 2, n)))
    rows = phys[:, 0] + phys[:, 1]
    rows *= 0.5
    diss *= 0.5
    rows -= diss

    # local Lax-Friedrichs wherever the Roe average itself degenerated
    lf_bad = bad | ~roe_ok
    if lf_bad.any():
        lf = local_lax_friedrichs_fluxes(q[:, 1:-1], gamma)
        rows[:, lf_bad] = lf[:, lf_bad]
    return rows.T.copy()
