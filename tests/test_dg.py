import itertools
import tracemalloc

import numpy as np
import pytest

from invariant_guard.core import DgField, FvField1D, UniformGrid1D
from invariant_guard.dg import (burgers_centered_rule, dg_coefficient_rate,
                                dg_diffusion_rhs, dg_l2, dg_l2_rate, dg_mass,
                                dg_project, dg_rhs, face_traces)
from invariant_guard.errors import ConfigurationError
from invariant_guard.schemes import fv_rhs_1d


def advection_flux(c):
    return lambda u: c * u


def upwind_advection_rule(c):
    """Interface rule for f(u) = c*u: take the upwind trace."""
    return lambda um, up: c * (um if c >= 0 else up)


def broadcast_dg_rhs(a, flux_fn, interface_rule):
    """Reference: the DG right-hand side with each trace and the quadrature
    values taken by their own product, and np.roll for the neighbours."""
    p = a.degree
    ep = np.array([1.0, 1.0, 1.0])[: p + 1]     # P_k(1)
    em = np.array([1.0, -1.0, 1.0])[: p + 1]    # P_k(-1)
    um = a.coeffs @ ep
    up = np.roll(a.coeffs, -1, axis=0) @ em
    f_face = np.asarray(interface_rule(um, up), dtype=np.float64)
    rhs = -f_face[:, None] * ep + np.roll(f_face, 1)[:, None] * em
    if p > 0:
        xi, w = np.polynomial.legendre.leggauss(p + 2)
        vals = np.stack([np.ones_like(xi), xi, 1.5 * xi**2 - 0.5][: p + 1],
                        axis=-1)
        derivs = np.stack([np.zeros_like(xi), np.ones_like(xi), 3.0 * xi]
                          [: p + 1], axis=-1)
        rhs += (flux_fn(a.coeffs @ vals.T) * w) @ derivs
    return rhs


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 17])
def test_rhs_matches_broadcast_form_bitwise(n, p):
    # n = 2: the next cell of cell 1 wraps onto cell 0
    rng = np.random.default_rng(10 * n + p)
    a = DgField(UniformGrid1D(n, 1.3), rng.normal(size=(n, p + 1)))
    for flux_fn, rule in ((lambda u: 0.5 * u * u, burgers_centered_rule),
                          (advection_flux(-0.7), upwind_advection_rule(-0.7))):
        assert np.array_equal(dg_rhs(a, flux_fn, rule),
                              broadcast_dg_rhs(a, flux_fn, rule))


def test_p0_reduces_to_fv_bitwise():
    rng = np.random.default_rng(40)
    g = UniformGrid1D(16, 2.0)
    u = rng.normal(size=16)
    a = DgField(g, u[:, None].copy())
    f = rng.normal(size=16)
    n = dg_rhs(a, advection_flux(1.0), lambda um, up: f)
    rate = dg_coefficient_rate(a, n)[:, 0]
    assert np.array_equal(rate, fv_rhs_1d(f, g))


def test_constant_solution_zero_rhs():
    g = UniformGrid1D(8, 1.0)
    for p in (0, 1, 2):
        coeffs = np.zeros((8, p + 1))
        coeffs[:, 0] = 3.0
        a = DgField(g, coeffs)
        n = dg_rhs(a, advection_flux(2.0), upwind_advection_rule(2.0))
        assert np.abs(n).max() <= 1e-14


def test_p1_volume_term_hand_value():
    # advection volume integral: int f dP_k/dxi over [-1,1]
    # k=0 -> 0;  k=1 -> 2 c a_{j0}  (analytic Legendre integrals)
    g = UniformGrid1D(4, 1.0)
    coeffs = np.array([[2.0, 3.0]] * 4)
    a = DgField(g, coeffs)
    c = 1.4
    n = dg_rhs(a, advection_flux(c), lambda um, up: np.zeros(4))
    assert np.allclose(n[:, 0], 0.0, atol=1e-14)
    assert np.allclose(n[:, 1], 2.0 * c * 2.0, rtol=1e-14)


def test_mass_rate_telescopes():
    rng = np.random.default_rng(41)
    g = UniformGrid1D(12, 3.0)
    a = DgField(g, rng.normal(size=(12, 3)))
    n = dg_rhs(a, lambda u: 0.5 * u * u, burgers_centered_rule)
    rate = dg_coefficient_rate(a, n)
    mass_rate = np.sum(rate[:, 0] * g.dx)
    assert abs(mass_rate) <= 1e-13 * np.abs(n).max() * 12


def test_unsupported_degree():
    g = UniformGrid1D(4, 1.0)
    with pytest.raises(ConfigurationError):
        DgField(g, np.zeros((4, 4)))


def test_diffusion_constant_field_zero():
    # the null space is exact: neighbour differences of a constant field
    # are 0 and the cell's own block has a zero first row
    for n, p, length in itertools.product((2, 3, 8, 17), (0, 1, 2),
                                          (0.3, 1.0, 2.0, 3.7)):
        coeffs = np.zeros((n, p + 1))
        coeffs[:, 0] = -1.7
        nd = dg_diffusion_rhs(DgField(UniformGrid1D(n, length), coeffs))
        assert np.all(nd == 0.0), (n, p, length)


def test_diffusion_strictly_dissipative_and_conservative():
    rng = np.random.default_rng(42)
    for p in (0, 1, 2):
        g = UniformGrid1D(16, 1.5)
        a = DgField(g, rng.normal(size=(16, p + 1)))
        nd = dg_diffusion_rhs(a)
        assert dg_l2_rate(a, nd) < 0.0
        assert abs(np.sum(nd[:, 0])) <= 1e-12 * np.abs(nd).max() * 16


def test_diffusion_p0_matches_fv_stencil():
    rng = np.random.default_rng(43)
    g = UniformGrid1D(10, 5.0)
    u = rng.normal(size=10)
    nd = dg_diffusion_rhs(DgField(g, u[:, None].copy()))
    dx = g.dx
    stencil = (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / dx
    assert np.allclose(nd[:, 0], stencil, rtol=1e-12, atol=1e-14)


def dense_sip_matrix(n_cells, dx, p):
    """Reference: the symmetric interior-penalty form B assembled as a dense
    matrix over flattened coefficients, one face at a time."""
    nk = p + 1
    sigma = (p + 1) ** 2 / dx
    ep = np.array([1.0, 1.0, 1.0])[:nk]              # P_k(1)
    em = np.array([1.0, -1.0, 1.0])[:nk]             # P_k(-1)
    dp = np.array([0.0, 1.0, 3.0])[:nk] * (2.0 / dx)    # P_k'(1), physical units
    dm = np.array([0.0, 1.0, -3.0])[:nk] * (2.0 / dx)   # P_k'(-1)

    ndof = n_cells * nk
    B = np.zeros((ndof, ndof))
    vol = (2.0 / dx) * np.diag(np.array([0.0, 2.0, 6.0])[:nk])
    for j in range(n_cells):
        s = slice(j * nk, (j + 1) * nk)
        B[s, s] += vol

    for j in range(n_cells):
        jn = (j + 1) % n_cells
        sl = slice(j * nk, (j + 1) * nk)
        sr = slice(jn * nk, (jn + 1) * nk)
        # jump [u] = u^- - u^+ and average {u'} at face j+1/2, split into
        # their left/right coefficient blocks
        sides = ((sl, ep, 0.5 * dp), (sr, -em, 0.5 * dm))
        for sa, ja, aa in sides:
            for sb, jb, ab in sides:
                B[sa, sb] += sigma * np.outer(ja, jb) \
                    - np.outer(aa, jb) - np.outer(ja, ab)
    return B


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_diffusion_matches_dense_penalty_form(n, p):
    # n = 2: both neighbours of a cell wrap onto the same cell
    rng = np.random.default_rng(100 * n + p)
    for _ in range(3):
        g = UniformGrid1D(n, rng.uniform(0.1, 10.0))
        a = DgField(g, rng.normal(size=(n, p + 1)))
        B = dense_sip_matrix(n, g.dx, p)
        ref = -(B @ a.coeffs.ravel()).reshape(a.coeffs.shape)
        np.testing.assert_allclose(dg_diffusion_rhs(a), ref, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref).max())


def test_diffusion_memory_is_linear():
    # a dense (N(p+1))^2 form would hold 75 MB here
    a = DgField(UniformGrid1D(1024, 3.7),
                np.random.default_rng(44).normal(size=(1024, 3)))
    tracemalloc.start()
    try:
        dg_diffusion_rhs(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_rhs_does_no_quadrature_setup(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(deg):
        calls.append(deg)
        return leggauss(deg)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    g = UniformGrid1D(8, 1.0)
    for p in (0, 1, 2):
        a = DgField(g, np.random.default_rng(p).normal(size=(8, p + 1)))
        dg_rhs(a, lambda u: 0.5 * u * u, burgers_centered_rule)
    assert calls == []


def test_face_traces():
    g = UniformGrid1D(4, 1.0)
    a = DgField(g, np.array([[1.0, 2.0, 3.0]] * 4))
    um, up = face_traces(a)
    assert np.allclose(um, 1.0 + 2.0 + 3.0)     # P_k(1) = 1
    assert np.allclose(up, 1.0 - 2.0 + 3.0)     # P_k(-1) = (-1)^k


def test_projection_reproduces_polynomials():
    g = UniformGrid1D(8, 2.0)
    a = dg_project(g, 2, lambda x: 0.5 + 0.25 * x)
    x = g.cell_centers()
    assert np.allclose(a.coeffs[:, 0], 0.5 + 0.25 * x, rtol=1e-13)
    # linear function: slope coefficient = 0.25 * dx/2, quadratic term 0
    assert np.allclose(a.coeffs[:, 1], 0.25 * g.dx / 2.0, rtol=1e-12)
    assert np.abs(a.coeffs[:, 2]).max() <= 1e-14


def test_dg_l2_and_mass_functionals():
    g = UniformGrid1D(6, 3.0)
    coeffs = np.zeros((6, 2))
    coeffs[:, 0] = 2.0
    a = DgField(g, coeffs)
    assert dg_mass(a) == pytest.approx(2.0 * 3.0, rel=1e-14)
    assert dg_l2(a) == pytest.approx(0.5 * 4.0 * 3.0, rel=1e-14)


def test_demo_flux_is_flagged_form():
    um = np.array([1.0, -2.0])
    up = np.array([3.0, 0.0])
    assert np.allclose(burgers_centered_rule(um, up), (um + up) ** 2 / 8.0)
