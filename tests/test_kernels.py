"""The vectorized kernels must agree with plain per-cell reference loops.

The loops below compute each face flux one cell at a time, the way the
formulas are written, and are slow; the small grids keep them cheap.
"""

import hashlib

import numpy as np
import pytest

from invariant_guard.kernels import (characteristic_muscl_fluxes, mc_limited_slopes,
                                     muscl_advective_fluxes_2d, muscl_fluxes_advection,
                                     muscl_fluxes_burgers)
from test_schemes import _signed_zero_data


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


def ref_euler_fluxes(u_ext, gamma, fired=None):
    """Per-face reference; adds (face, branch) to the set ``fired`` for each
    branch a face takes: 'harten1', 'harten3', 'reconstruction' (a
    reconstructed state is non-positive) or 'roe_degenerate' (c^2 of a Roe
    average <= 0)."""
    fired = set() if fired is None else fired
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
        if not good:
            fired.add((k, "roe_degenerate"))
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
            if not good:
                fired.add((k, "reconstruction"))

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
                    fired.add((k, "harten1"))
                e3 = (v_b + c_b) - (v_a + c_a)
                if e3 > 0.0 and lam3 < e3:
                    lam3 = 0.5 * (lam3 * lam3 / e3 + e3)
                    fired.add((k, "harten3"))
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
                fired.add((k, "roe_degenerate"))

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

def rows_of(u_ext):
    """The kernel's input: the (3, N+4) component rows of an (N+4, 3)
    extended state, C-contiguous as ``schemes.ghost_rows`` builds them."""
    return np.ascontiguousarray(u_ext.T)


def random_euler_ext(rng, n):
    rho = rng.uniform(0.3, 2.5, n)
    v = rng.uniform(-1.5, 1.5, n)
    p = rng.uniform(0.3, 2.5, n)
    u = np.stack([rho, rho * v, p / 0.4 + 0.5 * rho * v**2], axis=1)
    return np.concatenate([u[-2:], u, u[:2]], axis=0)


_SCALAR1D_DATA = [(n, False) for n in (4, 5, 8, 33, 128)] \
    + [(n, True) for n in (4, 5, 8, 64)]


@pytest.mark.parametrize("n, signed_zero", _SCALAR1D_DATA,
                         ids=[f"{n}-signed_zero" if z else str(n)
                              for n, z in _SCALAR1D_DATA])
def test_scalar1d_matches_reference(n, signed_zero):
    # bytes, not values: a -0.0 where the loop gives +0.0 fails too
    u = _signed_zero_data(n, n) if signed_zero \
        else np.random.default_rng(n).normal(size=n)
    assert mc_limited_slopes(u).tobytes() == ref_mc_slopes(u).tobytes()
    for c in (1.0, -0.7):
        assert muscl_fluxes_advection(u, c).tobytes() \
            == ref_muscl_advection(u, c).tobytes()
    assert muscl_fluxes_burgers(u).tobytes() == ref_muscl_burgers(u).tobytes()


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
        fa = characteristic_muscl_fluxes(rows_of(u_ext), 1.4)
        fb = ref_euler_fluxes(u_ext, 1.4)
        assert np.allclose(fa, fb, rtol=1e-13, atol=1e-13)


def test_euler_kernel_near_vacuum_falls_back():
    # a state pair engineered to break the reconstruction positivity
    rng = np.random.default_rng(1)
    u_ext = random_euler_ext(rng, 8)
    u_ext[3] = [1e-6, 0.0, 1e-6 / 0.4]  # nearly vacuum cell
    fa = characteristic_muscl_fluxes(rows_of(u_ext), 1.4)
    fb = ref_euler_fluxes(u_ext, 1.4)
    assert np.all(np.isfinite(fa)) and np.all(np.isfinite(fb))
    assert np.allclose(fa, fb, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# each branch of the Euler kernel, forced
# ---------------------------------------------------------------------------

def _cons(rho, v, p, gamma=1.4):
    return [rho, rho * v, p / (gamma - 1.0) + 0.5 * rho * v**2]


def _cold(rho, v):
    """Conserved state whose E is the smallest value giving a positive
    pressure: p is a few ulps of E, so c^2 of a Roe average rounds to <= 0."""
    e = 0.5 * rho * v**2
    while not (0.4 * (e - 0.5 * rho * v**2) > 0.0
               and 0.4 * (e - 0.5 * (rho * v) ** 2 / rho) > 0.0):
        e = np.nextafter(e, np.inf)
    return [rho, rho * v, e]


REST = _cons(1.0, 0.0, 1.0)
# Each case puts the branch on one face.  A step of three equal cells per
# side (N = 2) gives face 1 zero MC slopes, so face 1 sees the two states as
# they are.
BRANCH_CASES = {
    # transonic expansion of the left-moving acoustic wave: v - c changes sign
    "harten1": (1, [_cons(1.0, 0.8, 1.0)] * 3 + [_cons(0.5, 1.5, 0.4)] * 3),
    # its mirror image in the right-moving wave: v + c changes sign
    "harten3": (1, [_cons(0.5, -1.5, 0.4)] * 3 + [_cons(1.0, -0.8, 1.0)] * 3),
    # a fast, light, cold cell between rest states: the limited
    # characteristic slopes reconstruct a non-positive state at face 2
    "reconstruction": (2, [REST] * 2 + [_cons(0.1, -2.0, 0.1), _cons(1.0, -2.0, 0.1),
                                         _cons(1.0, 0.0, 0.1)] + [REST] * 2),
    # two cold states of one velocity: c^2 of their Roe average is <= 0
    "roe_degenerate": (1, [_cold(1.0, 0.1)] * 3 + [_cold(2.0, 0.1)] * 3),
}


@pytest.mark.parametrize("branch", sorted(BRANCH_CASES))
def test_euler_kernel_branch_matches_reference(branch):
    face, rows = BRANCH_CASES[branch]
    u_ext = np.array(rows)
    fired = set()
    fb = ref_euler_fluxes(u_ext, 1.4, fired)
    assert (face, branch) in fired
    fa = characteristic_muscl_fluxes(rows_of(u_ext), 1.4)
    assert np.all(np.isfinite(fa))
    assert np.allclose(fa, fb, rtol=1e-13, atol=1e-13)


def test_euler_kernel_layout_and_input_untouched():
    u_ext = random_euler_ext(np.random.default_rng(3), 16)
    q = rows_of(u_ext)
    before = q.copy()
    f = characteristic_muscl_fluxes(q, 1.4)
    assert f.shape == (17, 3) and f.dtype == np.float64 and f.flags.c_contiguous
    assert np.array_equal(q, before)
    # a strided view of the same values gives the same bytes
    assert characteristic_muscl_fluxes(u_ext.T, 1.4).tobytes() == f.tobytes()


# ---------------------------------------------------------------------------
# the Euler kernel's bytes, pinned
# ---------------------------------------------------------------------------

def pinned_state(kind, seed, n=48):
    """Seeded periodic extended state of one kind: 'smooth' periodic bumps
    (no branch fires), 'near_vacuum' cells spanning nine decades of rho and
    p, a transonic 'harten' expansion, and fast cold cells whose
    reconstruction 'fallback' goes non-positive.  Built from the generator's
    uniforms with correctly rounded operations only, so the state's bytes
    depend on no math library either."""
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        x = (np.arange(n) + 0.5) / n
        s = (x[:, None] + rng.uniform(0.0, 1.0, 3)) % 1.0
        rho, v, p = (4.0 * s * (1.0 - s) * [0.3, 1.0, 0.3] + [1.0, -0.5, 1.0]).T
    elif kind == "near_vacuum":
        rho = np.ldexp(rng.uniform(1.0, 2.0, n), -rng.integers(0, 30, n))
        v = rng.uniform(-2.0, 2.0, n)
        p = np.ldexp(rng.uniform(1.0, 2.0, n), -rng.integers(0, 30, n))
    elif kind == "harten":
        rho = rng.uniform(0.9, 1.1, n)
        v = np.linspace(-2.5, 2.5, n) + rng.uniform(-0.05, 0.05, n)
        p = rng.uniform(0.9, 1.1, n)
    else:  # "fallback"
        rho = rng.uniform(0.05, 2.0, n)
        v = rng.uniform(-3.0, 3.0, n)
        p = rng.uniform(1e-3, 1e-2, n)
    u = np.stack([rho, rho * v, p / 0.4 + 0.5 * rho * v**2], axis=1)
    return np.concatenate([u[-2:], u, u[:2]], axis=0)


# SHA-256 of characteristic_muscl_fluxes(rows_of(state), 1.4).tobytes().
# The kernel uses only correctly rounded operations (+ - * /, sqrt, abs,
# maximum, where, squaring), so these bytes depend on no math library; a
# change that reorders its arithmetic shows here.  A seed's case is keyed
# (kind, seed), a BRANCH_CASES state (branch, None).
KERNEL_DIGESTS = {
    ("smooth", 0): "da011e68830afd3433970e1a25bed792802b2827b7c49a03465aca66eec8bcf5",
    ("smooth", 1): "f63397818877c7da948be806e951fd5fc1ac74d3e40e428c41a39c5ba0b3db2e",
    ("smooth", 2): "44773ebbebe775dd1f2a36c895ff62bf6c836d736133628b28ab44bd3cbca8b6",
    ("near_vacuum", 0): "53c9b82a02181dffe6af09176aecbf1afc0686a1d838e4d28647ce7206d83c3a",
    ("near_vacuum", 1): "8e5f32c595c7c7b5bb5834cddfdcd8f810a685c2e4a75ee8c87f23125326a3f8",
    ("near_vacuum", 2): "02fb2ea6c774ae24434089f7db0dd6a8b0259c3a20aac51cdd8fe315a9f01294",
    ("harten", 0): "bbc49650e5f201326c1a8459ad247da4763b1afaeef3598d243f6829ed6707f7",
    ("harten", 1): "cd2e939266593786979041fc3c421a16c66cfe50d6340c44a67bd993f6204cd0",
    ("harten", 2): "13c78cf4a0b10ac8196caa1a98e43a14696999dc721801094fb983e19b3dbf7f",
    ("fallback", 0): "6ff8e3ab2d6e3a9b0fd6175240c07fc218966e8eecdf82d74f98861ebc138404",
    ("fallback", 1): "83266e7765dd386d765e727d6d9bff90a0c27fd1db978bee1c31599313d2b647",
    ("fallback", 2): "2f0a6997a04b54978d5d58e735b6d51de720d16c8154846dcbbd47e2c4077d77",
    ("harten1", None): "c17b79368f2ed2f10e0252ec2fd577fd2375a91b5bccbf2e666c834074f124c5",
    ("harten3", None): "2fb49930dadb8e2515359981db51d62042c001e550798eef150fef1fb804e637",
    ("reconstruction", None): "a29f5e68c02eb162ad9d8e3fb6b5886c9beb46710e229c678f1ddff4e4c407a5",
    ("roe_degenerate", None): "07e75e20fb97b7d79109a00fbe4c39fa4526a444837dcfc0fea19feaf21368b2",
}

# the branches each pinned kind must take somewhere, per the reference loop
PINNED_BRANCHES = {"smooth": set(), "near_vacuum": {"reconstruction"},
                   "harten": {"harten1", "harten3"},
                   "fallback": {"reconstruction"}}


@pytest.mark.parametrize("key", sorted(KERNEL_DIGESTS, key=str),
                         ids=lambda key: f"{key[0]}-{key[1]}")
def test_euler_kernel_bytes_are_pinned(key):
    kind, seed = key
    if seed is None:
        u_ext = np.array(BRANCH_CASES[kind][1])
    else:
        u_ext = pinned_state(kind, seed)
        fired = set()
        ref_euler_fluxes(u_ext, 1.4, fired)
        branches = {branch for _, branch in fired}
        want = PINNED_BRANCHES[kind]
        assert (branches & want) if want else not branches
    f = characteristic_muscl_fluxes(rows_of(u_ext), 1.4)
    assert np.all(np.isfinite(f))
    assert hashlib.sha256(f.tobytes()).hexdigest() == KERNEL_DIGESTS[key]
