"""The vectorized kernels must agree with plain per-cell reference loops.

The loops below compute each face flux one cell at a time, the way the
formulas are written, and are slow; the small grids keep them cheap.
"""

import numpy as np
import pytest

from invariant_guard.kernels import (characteristic_muscl_fluxes, mc_limited_slopes,
                                     muscl_advective_fluxes_2d, muscl_fluxes_advection,
                                     muscl_fluxes_burgers)


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def _mc_scalar(um, u, up):
    """MC slope of the middle value from its two neighbours."""
    fwd = 2.0 * (up - u)
    bwd = 2.0 * (u - um)
    if fwd * bwd > 0.0:
        centered = 0.5 * (up - um)
        mag = min(abs(centered), min(abs(fwd), abs(bwd)))
        return mag if centered > 0.0 else -mag
    return 0.0


def ref_mc_slopes(u):
    n = u.size
    out = np.empty(n)
    for j in range(n):
        out[j] = _mc_scalar(u[(j - 1) % n], u[j], u[(j + 1) % n])
    return out


def ref_muscl_advection(u, c):
    sig = ref_mc_slopes(u)
    n = u.size
    f = np.empty(n)
    for j in range(n):
        if c >= 0.0:
            f[j] = c * (u[j] + 0.5 * sig[j])
        else:
            jp = (j + 1) % n
            f[j] = c * (u[jp] - 0.5 * sig[jp])
    return f


def ref_muscl_burgers(u):
    sig = ref_mc_slopes(u)
    n = u.size
    f = np.empty(n)
    for j in range(n):
        jp = (j + 1) % n
        ul = u[j] + 0.5 * sig[j]
        ur = u[jp] - 0.5 * sig[jp]
        fl = 0.5 * ul * ul
        fr = 0.5 * ur * ur
        if ul <= ur:
            if ul <= 0.0 <= ur:
                f[j] = 0.0
            else:
                f[j] = min(fl, fr)
        else:
            f[j] = max(fl, fr)
    return f


def ref_fluxes_2d(chi, ux, uy):
    nx, ny = chi.shape
    fx = np.empty((nx, ny))
    fy = np.empty((nx, ny))
    for i in range(nx):
        im, ip, ipp = (i - 1) % nx, (i + 1) % nx, (i + 2) % nx
        for j in range(ny):
            jm, jp, jpp = (j - 1) % ny, (j + 1) % ny, (j + 2) % ny
            # x-direction face (i+1/2, j)
            if ux[i, j] >= 0.0:
                sig = _mc_scalar(chi[im, j], chi[i, j], chi[ip, j])
                fx[i, j] = ux[i, j] * (chi[i, j] + 0.5 * sig)
            else:
                sig = _mc_scalar(chi[i, j], chi[ip, j], chi[ipp, j])
                fx[i, j] = ux[i, j] * (chi[ip, j] - 0.5 * sig)
            # y-direction face (i, j+1/2)
            if uy[i, j] >= 0.0:
                sig = _mc_scalar(chi[i, jm], chi[i, j], chi[i, jp])
                fy[i, j] = uy[i, j] * (chi[i, j] + 0.5 * sig)
            else:
                sig = _mc_scalar(chi[i, j], chi[i, jp], chi[i, jpp])
                fy[i, j] = uy[i, j] * (chi[i, jp] - 0.5 * sig)
    return fx, fy


def _mc_char(wm, wp):
    if wm * wp > 0.0:
        cen = 0.5 * (wm + wp)
        mag = min(abs(cen), 2.0 * min(abs(wm), abs(wp)))
        return mag if cen > 0.0 else -mag
    return 0.0


def ref_euler_fluxes(u_ext, gamma):
    n_faces = u_ext.shape[0] - 3
    flux = np.empty((n_faces, 3))
    sl = np.empty((2, 3))
    uf = np.empty((2, 3))
    for k in range(n_faces):
        il = k + 1
        rho_l = u_ext[il, 0]
        rho_r = u_ext[il + 1, 0]
        v_l = u_ext[il, 1] / rho_l
        v_r = u_ext[il + 1, 1] / rho_r
        p_l = (gamma - 1.0) * (u_ext[il, 2] - 0.5 * rho_l * v_l * v_l)
        p_r = (gamma - 1.0) * (u_ext[il + 1, 2] - 0.5 * rho_r * v_r * v_r)
        h_l = (u_ext[il, 2] + p_l) / rho_l
        h_r = (u_ext[il + 1, 2] + p_r) / rho_r
        sq_l = np.sqrt(rho_l)
        sq_r = np.sqrt(rho_r)
        vh = (sq_l * v_l + sq_r * v_r) / (sq_l + sq_r)
        hh = (sq_l * h_l + sq_r * h_r) / (sq_l + sq_r)
        c2 = (gamma - 1.0) * (hh - 0.5 * vh * vh)

        good = c2 > 0.0
        if good:
            ch = np.sqrt(c2)
            b1 = (gamma - 1.0) / c2
            b2 = 0.5 * b1 * vh * vh

            def to_char(d0, d1, d2):
                return (0.5 * (b2 + vh / ch) * d0 - 0.5 * (b1 * vh + 1.0 / ch) * d1
                        + 0.5 * b1 * d2,
                        (1.0 - b2) * d0 + b1 * vh * d1 - b1 * d2,
                        0.5 * (b2 - vh / ch) * d0 - 0.5 * (b1 * vh - 1.0 / ch) * d1
                        + 0.5 * b1 * d2)

            for side in range(2):
                ic = il + side
                wm = to_char(*(u_ext[ic] - u_ext[ic - 1]))
                wp = to_char(*(u_ext[ic + 1] - u_ext[ic]))
                w1, w2, w3 = (_mc_char(a, b) for a, b in zip(wm, wp))
                sl[side, 0] = w1 + w2 + w3
                sl[side, 1] = w1 * (vh - ch) + w2 * vh + w3 * (vh + ch)
                sl[side, 2] = w1 * (hh - vh * ch) + w2 * 0.5 * vh * vh \
                    + w3 * (hh + vh * ch)
            for comp in range(3):
                uf[0, comp] = u_ext[il, comp] + 0.5 * sl[0, comp]
                uf[1, comp] = u_ext[il + 1, comp] - 0.5 * sl[1, comp]
            for side in range(2):
                rho = uf[side, 0]
                if rho <= 0.0:
                    good = False
                    break
                p = (gamma - 1.0) * (uf[side, 2] - 0.5 * uf[side, 1] ** 2 / rho)
                if p <= 0.0:
                    good = False
                    break

        if good:
            rho_a = uf[0, 0]
            rho_b = uf[1, 0]
            v_a = uf[0, 1] / rho_a
            v_b = uf[1, 1] / rho_b
            p_a = (gamma - 1.0) * (uf[0, 2] - 0.5 * rho_a * v_a * v_a)
            p_b = (gamma - 1.0) * (uf[1, 2] - 0.5 * rho_b * v_b * v_b)
            h_a = (uf[0, 2] + p_a) / rho_a
            h_b = (uf[1, 2] + p_b) / rho_b
            c_a = np.sqrt(gamma * p_a / rho_a)
            c_b = np.sqrt(gamma * p_b / rho_b)
            sq_a = np.sqrt(rho_a)
            sq_b = np.sqrt(rho_b)
            vm = (sq_a * v_a + sq_b * v_b) / (sq_a + sq_b)
            hm = (sq_a * h_a + sq_b * h_b) / (sq_a + sq_b)
            cm2 = (gamma - 1.0) * (hm - 0.5 * vm * vm)
            if cm2 > 0.0:
                cm = np.sqrt(cm2)
                d0, d1, d2 = uf[1] - uf[0]
                a2 = (gamma - 1.0) / cm2 * (d0 * (hm - vm * vm) + vm * d1 - d2)
                a1 = 0.5 * (d0 - a2 - (d1 - vm * d0) / cm)
                a3 = d0 - a1 - a2
                lam1 = abs(vm - cm)
                lam2 = abs(vm)
                lam3 = abs(vm + cm)
                e1 = (v_b - c_b) - (v_a - c_a)
                if e1 > 0.0 and lam1 < e1:
                    lam1 = 0.5 * (lam1 * lam1 / e1 + e1)
                e3 = (v_b + c_b) - (v_a + c_a)
                if e3 > 0.0 and lam3 < e3:
                    lam3 = 0.5 * (lam3 * lam3 / e3 + e3)
                f_a = (rho_a * v_a, rho_a * v_a * v_a + p_a, v_a * (uf[0, 2] + p_a))
                f_b = (rho_b * v_b, rho_b * v_b * v_b + p_b, v_b * (uf[1, 2] + p_b))
                diss = (a1 * lam1 + a2 * lam2 + a3 * lam3,
                        a1 * lam1 * (vm - cm) + a2 * lam2 * vm + a3 * lam3 * (vm + cm),
                        a1 * lam1 * (hm - vm * cm) + a2 * lam2 * 0.5 * vm * vm
                        + a3 * lam3 * (hm + vm * cm))
                for comp in range(3):
                    flux[k, comp] = 0.5 * (f_a[comp] + f_b[comp]) - 0.5 * diss[comp]
            else:
                good = False

        if not good:
            alpha = max(abs(v_l) + np.sqrt(gamma * p_l / rho_l),
                        abs(v_r) + np.sqrt(gamma * p_r / rho_r))
            f_l = (rho_l * v_l, rho_l * v_l * v_l + p_l, v_l * (u_ext[il, 2] + p_l))
            f_r = (rho_r * v_r, rho_r * v_r * v_r + p_r,
                   v_r * (u_ext[il + 1, 2] + p_r))
            for comp in range(3):
                flux[k, comp] = 0.5 * (f_l[comp] + f_r[comp]) \
                    - 0.5 * alpha * (u_ext[il + 1, comp] - u_ext[il, comp])
    return flux


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

def random_euler_ext(rng, n):
    rho = rng.uniform(0.3, 2.5, n)
    v = rng.uniform(-1.5, 1.5, n)
    p = rng.uniform(0.3, 2.5, n)
    u = np.stack([rho, rho * v, p / 0.4 + 0.5 * rho * v**2], axis=1)
    return np.concatenate([u[-2:], u, u[:2]], axis=0)


@pytest.mark.parametrize("n", [8, 33, 128])
def test_scalar1d_matches_reference(n):
    rng = np.random.default_rng(n)
    u = rng.normal(size=n)
    assert np.array_equal(mc_limited_slopes(u), ref_mc_slopes(u))
    for c in (1.0, -0.7):
        assert np.array_equal(muscl_fluxes_advection(u, c), ref_muscl_advection(u, c))
    assert np.array_equal(muscl_fluxes_burgers(u), ref_muscl_burgers(u))


@pytest.mark.parametrize("shape", [(8, 8), (16, 12)])
def test_scalar2d_matches_reference(shape):
    rng = np.random.default_rng(shape[0])
    chi = rng.normal(size=shape)
    ux = rng.normal(size=shape)
    uy = rng.normal(size=shape)
    fxa, fya = muscl_advective_fluxes_2d(chi, ux, uy)
    fxb, fyb = ref_fluxes_2d(chi, ux, uy)
    assert np.array_equal(fxa, fxb)
    assert np.array_equal(fya, fyb)


@pytest.mark.parametrize("n", [8, 64])
def test_euler_matches_reference(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        u_ext = random_euler_ext(rng, n)
        fa = characteristic_muscl_fluxes(u_ext, 1.4)
        fb = ref_euler_fluxes(u_ext, 1.4)
        assert np.allclose(fa, fb, rtol=1e-13, atol=1e-13)


def test_euler_kernel_near_vacuum_falls_back():
    # a state pair engineered to break the reconstruction positivity
    rng = np.random.default_rng(1)
    u_ext = random_euler_ext(rng, 8)
    u_ext[3] = [1e-6, 0.0, 1e-6 / 0.4]  # nearly vacuum cell
    fa = characteristic_muscl_fluxes(u_ext, 1.4)
    fb = ref_euler_fluxes(u_ext, 1.4)
    assert np.all(np.isfinite(fa)) and np.all(np.isfinite(fb))
    assert np.allclose(fa, fb, rtol=1e-12, atol=1e-12)
