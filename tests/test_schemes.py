import numpy as np
import pytest

from invariant_guard import correctors, schemes
from invariant_guard.core import (FvField1D, FvField2D, UniformGrid1D,
                                  UniformGrid2D, bracket, shift)
from invariant_guard.errors import ConfigurationError
from invariant_guard.schemes import (BoundaryFluxes2D, FluxScheme,
                                     advective_fluxes_2d, face_velocities,
                                     ftcs_increment, fv_rhs_1d, fv_rhs_2d,
                                     numerical_flux_1d, poisson_solve,
                                     spectral_rhs_advection)


def field(vals, length=None, boundary="periodic"):
    vals = np.asarray(vals, dtype=float)
    g = UniformGrid1D(vals.size, length if length else float(vals.size),
                      boundary)
    return FvField1D(g, vals)


# --- interface fluxes --------------------------------------------------------

def test_upwind_constant_state():
    u = field(np.full(6, 2.0))
    f = numerical_flux_1d(FluxScheme.UPWIND, u, "advection", c=1.0)
    assert np.all(f == 2.0)


def test_centered_advection_pair():
    u = field([1.0, 3.0, 1.0, 3.0])
    f = numerical_flux_1d(FluxScheme.CENTERED, u, "advection", c=1.0)
    assert f[0] == pytest.approx(2.0, rel=1e-15)


def test_godunov_transonic_rarefaction():
    # (u_j, u_{j+1}) = (-1, 1): the minimum of u^2/2 over [-1, 1] is 0
    u = field([-1.0, 1.0, -1.0, 1.0])
    f = numerical_flux_1d(FluxScheme.GODUNOV, u, "burgers")
    assert f[0] == 0.0


def test_scheme_equation_mismatch():
    u = field(np.ones(4))
    with pytest.raises(ConfigurationError):
        numerical_flux_1d(FluxScheme.UPWIND, u, "burgers")
    with pytest.raises(ConfigurationError):
        numerical_flux_1d(FluxScheme.UPWIND, u, "advection")  # no c
    with pytest.raises(ConfigurationError):
        numerical_flux_1d(FluxScheme.LAX_FRIEDRICHS, u, "burgers")  # no ratio


def test_muscl_needs_four_cells():
    u = field(np.ones(3), length=3.0)
    with pytest.raises(ConfigurationError):
        numerical_flux_1d(FluxScheme.MUSCL_MC, u, "advection", c=1.0)


def test_monotone_fluxes_dissipate():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(8, 64))
        u = field(rng.normal(size=n), length=1.0)
        du = np.roll(u.values, -1) - u.values
        for scheme, kwargs in [
            (FluxScheme.UPWIND, dict(c=1.0)),
            (FluxScheme.GODUNOV, dict()),
            (FluxScheme.LAX_FRIEDRICHS,
             dict(lf_ratio=float(np.abs(u.values).max()) / 0.8)),
        ]:
            eq = "advection" if scheme is FluxScheme.UPWIND else "burgers"
            f = numerical_flux_1d(scheme, u, eq, **kwargs)
            assert float(f @ du) <= 1e-12 * np.abs(f).max() * n


def test_centered_advection_conserves_l2_rate():
    rng = np.random.default_rng(22)
    u = field(rng.normal(size=32), length=1.0)
    f = numerical_flux_1d(FluxScheme.CENTERED, u, "advection", c=1.3)
    du = np.roll(u.values, -1) - u.values
    assert abs(float(f @ du)) <= 1e-12 * np.abs(f).max()


def test_muscl_is_tvd_within_cfl():
    from invariant_guard.diagnostics import total_variation
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = 64
        # piecewise-monotone pulse profiles
        x = np.linspace(0, 1, n, endpoint=False)
        center, width = rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.3)
        u = field(np.tanh((x - center) / width) - np.tanh((x - center - 0.4) / width),
                  length=1.0)
        dt = 0.3 * u.grid.dx / max(1.0, np.abs(u.values).max())
        for eq, kwargs in (("advection", dict(c=1.0)), ("burgers", dict())):
            f = numerical_flux_1d(FluxScheme.MUSCL_MC, u, eq, **kwargs)
            unew = u.values + dt * fv_rhs_1d(f, u.grid)
            assert total_variation(unew) <= total_variation(u.values) * (1 + 1e-12)


# --- FV right-hand sides -----------------------------------------------------

def test_fv_rhs_constant_fluxes():
    g = UniformGrid1D(5, 1.0)
    assert np.all(fv_rhs_1d(np.full(5, 3.0), g) == 0.0)


def test_fv_rhs_telescoping_periodic():
    rng = np.random.default_rng(24)
    g = UniformGrid1D(16, 2.0)
    f = rng.normal(size=16)
    rhs = fv_rhs_1d(f, g)
    assert abs(np.sum(rhs * g.dx)) <= 1e-14 * np.abs(f).max() * 16


@pytest.mark.parametrize("boundary, shape", [
    ("periodic", (5,)), ("periodic", (4, 1))])
def test_fv_rhs_rejects_wrong_flux_shape(boundary, shape):
    with pytest.raises(ValueError):
        fv_rhs_1d(np.zeros(shape), UniformGrid1D(4, 1.0, boundary))


# --- bound periodic forms against the shift formulas they replaced ----------

def _signed_zero_data(n, seed):
    """Random values, about half drawn from a pool whose sums, differences
    and squares give +0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 1.5, -1.5, 0.3])
    return np.where(rng.random(n) < 0.5, rng.choice(pool, n),
                    rng.normal(size=n))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 4, 5, 64])
@pytest.mark.parametrize("boundary", ["periodic"])
def test_flux_divergence_equals_shift_formula_bitwise(boundary, n, seed):
    g = UniformGrid1D(n, 0.7, boundary)
    f = _signed_zero_data(n, seed)
    expected = -(f - shift(f, -1)) / g.dx
    assert schemes.flux_divergence_1d(g)(f).tobytes() == expected.tobytes()
    assert fv_rhs_1d(f, g).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 4, 5, 64])
def test_centered_burgers_rule_equals_shift_formula_bitwise(n, seed):
    u = _signed_zero_data(n, seed)
    up = shift(u, 1)
    rule = schemes.flux_rule_1d(FluxScheme.CENTERED, UniformGrid1D(n, 0.7),
                                "burgers")
    assert rule(u, 0.37).tobytes() == (0.25 * (u * u + up * up)).tobytes()


def _godunov_burgers_pair(ul, ur):
    """The Godunov-Burgers flux of two separate face-state arrays."""
    fl, fr = 0.5 * ul * ul, 0.5 * ur * ur
    fmin = np.where((ul <= 0.0) & (ur >= 0.0), 0.0, np.minimum(fl, fr))
    return np.where(ul <= ur, fmin, np.maximum(fl, fr))


#: (scheme, equation, c, the shift formula of f_{j+1/2} from u, its right
#: neighbour up = shift(u, 1) and the Lax-Friedrichs ratio lf)
_SHIFT_FORMULAS = [
    (FluxScheme.UPWIND, "advection", -0.7, lambda u, up, lf: -0.7 * up),
    (FluxScheme.GODUNOV, "advection", -0.7, lambda u, up, lf: -0.7 * up),
    (FluxScheme.CENTERED, "advection", 1.3,
     lambda u, up, lf: 0.5 * 1.3 * (u + up)),
    (FluxScheme.CENTERED, "advection", -0.7,
     lambda u, up, lf: 0.5 * -0.7 * (u + up)),
    (FluxScheme.LAX_FRIEDRICHS, "advection", 1.3,
     lambda u, up, lf: 0.5 * 1.3 * (u + up) - lf * (up - u)),
    (FluxScheme.LAX_FRIEDRICHS, "advection", -0.7,
     lambda u, up, lf: 0.5 * -0.7 * (u + up) - lf * (up - u)),
    (FluxScheme.GODUNOV, "burgers", None,
     lambda u, up, lf: _godunov_burgers_pair(u, up)),
    (FluxScheme.LAX_FRIEDRICHS, "burgers", None,
     lambda u, up, lf: 0.5 * (0.5 * u * u + 0.5 * up * up) - lf * (up - u)),
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 4, 5, 64])
@pytest.mark.parametrize("scheme, equation, c, formula", _SHIFT_FORMULAS,
                         ids=[f"{s.value}-{e}" + ("" if c is None else f"{c:+}")
                              for s, e, c, _ in _SHIFT_FORMULAS])
def test_flux_rule_equals_shift_formula_bitwise(scheme, equation, c, formula,
                                                n, seed):
    u = _signed_zero_data(n, seed)
    rule = schemes.flux_rule_1d(scheme, UniformGrid1D(n, 0.7), equation, c)
    expected = formula(u, shift(u, 1), 0.37)
    assert rule(u, 0.37).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 4, 5, 64])
@pytest.mark.parametrize("c", [1.3, -0.7])
def test_ftcs_increment_equals_shift_formula_bitwise(c, n, seed):
    u = FvField1D(UniformGrid1D(n, 0.7), _signed_zero_data(n, seed))
    expected = -(c * 0.01) / (2.0 * u.grid.dx) \
        * (shift(u.values, 1) - shift(u.values, -1))
    assert ftcs_increment(u, c, 0.01).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 4, 5, 64])
@pytest.mark.parametrize("columns", [None, 3])
def test_periodic_face_jumps_equal_shift_formula_bitwise(columns, n, seed):
    # (N,) for the scalar flux corrector, (N, 3) for the entropy variables
    a = _signed_zero_data(n if columns is None else n * columns, seed)
    if columns is not None:
        a = a.reshape(n, columns)
    expected = shift(a, 1) - a
    assert correctors._face_jumps(a, True).tobytes() == expected.tobytes()


def test_fv_rhs_2d_patterns():
    g = UniformGrid2D(2, 2, 2.0, 2.0)
    z = np.zeros((2, 2))
    assert np.all(fv_rhs_2d(BoundaryFluxes2D(np.full((2, 2), 1.3), z), g) == 0.0)
    rng = np.random.default_rng(25)
    fl = BoundaryFluxes2D(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    rhs = fv_rhs_2d(fl, g)
    assert abs(rhs.sum() * g.cell_volume) <= 1e-13
    # single nonzero x-face between cells (0,0) and (1,0)
    fx = np.zeros((2, 2))
    fx[0, 0] = 1.0
    rhs = fv_rhs_2d(BoundaryFluxes2D(fx, z), g)
    assert rhs[0, 0] == pytest.approx(-1.0) and rhs[1, 0] == pytest.approx(1.0)


# --- FTCS ---------------------------------------------------------------------

def test_ftcs_examples():
    u = field(np.full(4, 1.7), length=4.0)
    assert np.all(ftcs_increment(u, 1.0, 0.5) == 0.0)
    u = field([0.0, 1.0, 0.0, -1.0], length=4.0)
    inc = ftcs_increment(u, 1.0, 0.5)  # c dt / (2 dx) = 0.25
    assert np.allclose(inc, [-0.5, 0.0, 0.5, 0.0])
    rng = np.random.default_rng(26)
    u = field(rng.normal(size=32), length=1.0)
    assert abs(np.sum(ftcs_increment(u, 1.0, 0.01))) <= 1e-13


# --- spectral -------------------------------------------------------------------

def test_spectral_rhs_examples():
    from invariant_guard.core import SpectralField
    u = SpectralField(2 * np.pi, np.zeros(4, dtype=complex))
    assert np.all(spectral_rhs_advection(u, 1.0) == 0.0)

    c = np.zeros(4, dtype=complex)
    c[1] = 0.7 - 0.2j
    u = SpectralField(2 * np.pi, c)
    rhs = spectral_rhs_advection(u, 1.0)
    assert rhs[1] == pytest.approx(-1j * c[1], rel=1e-14)
    assert rhs[0] == 0.0

    # reconstructed du/dt matches -c du/dx pointwise
    rng = np.random.default_rng(27)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    u = SpectralField(3.0, coeffs)
    rhs = spectral_rhs_advection(u, 0.8)
    x = np.linspace(0, 3.0, 41)
    m = np.arange(1, 6)
    phases = np.exp(2j * np.pi * np.outer(x, m) / 3.0)
    dudx = 2.0 * (phases @ ((2j * np.pi * m / 3.0) * u.coeffs[1:])).real
    recon = rhs[0].real + 2.0 * (phases @ rhs[1:]).real
    assert np.allclose(recon, -0.8 * dudx, atol=1e-12)


# --- Poisson -------------------------------------------------------------------

def test_poisson_zero_and_gauge():
    g = UniformGrid2D(16, 16, 2 * np.pi, 2 * np.pi)
    psi = poisson_solve(FvField2D(g, np.zeros((16, 16))))
    assert np.all(psi == 0.0)
    rng = np.random.default_rng(28)
    psi = poisson_solve(FvField2D(g, rng.normal(size=(16, 16))))
    assert abs(psi.mean()) <= 1e-13


def _fe_symbol(grid):
    return schemes._fe_laplacian_symbol(grid.nx, grid.ny, grid.dx, grid.dy)


def apply_fe_laplacian(psi_bar, grid):
    """The (negative) Q1 Laplacian stencil ``poisson_solve`` inverts."""
    hat = np.fft.fft2(psi_bar)
    hat[0, 0] = 0.0
    return np.fft.ifft2(hat * _fe_symbol(grid)).real


def fe_mode_eigenvalue(grid, kx, ky):
    """Stencil eigenvalue of the (kx, ky) Fourier mode."""
    return float(_fe_symbol(grid)[kx % grid.nx, ky % grid.ny])


def test_poisson_eigenfunction():
    g = UniformGrid2D(32, 32, 2 * np.pi, 2 * np.pi)
    x, y = g.cell_centers()
    chi = np.sin(2 * np.pi * x / g.lx) * np.sin(2 * np.pi * y / g.ly)
    psi = poisson_solve(FvField2D(g, chi))
    lam = fe_mode_eigenvalue(g, 1, 1)
    assert np.allclose(psi, chi / lam, atol=1e-12)


def test_poisson_inverts_fe_laplacian():
    rng = np.random.default_rng(29)
    g = UniformGrid2D(24, 24, 2 * np.pi, 4.0)
    chi = FvField2D(g, rng.normal(size=(24, 24)))
    psi = poisson_solve(chi)
    target = chi.values - chi.values.mean()
    res = apply_fe_laplacian(psi, g) - target
    assert np.abs(res).max() <= 1e-10 * np.abs(target).max()


def test_vorticity_state_consistency():
    # re-solving changes psi_bar below 1e-10 relative
    rng = np.random.default_rng(30)
    g = UniformGrid2D(16, 16, 2 * np.pi, 2 * np.pi)
    chi = FvField2D(g, rng.normal(size=(16, 16)))
    psi1 = poisson_solve(chi)
    psi2 = poisson_solve(chi)
    assert np.abs(psi1 - psi2).max() <= 1e-10 * np.abs(psi1).max()


# --- 2D advective fluxes ----------------------------------------------------------

def test_face_velocities_divergence_free():
    rng = np.random.default_rng(31)
    g = UniformGrid2D(16, 16, 2 * np.pi, 3.0)
    psi = rng.normal(size=(16, 16))
    ux, uy = face_velocities(psi, g)
    div = (ux - np.roll(ux, 1, 0)) / g.dx + (uy - np.roll(uy, 1, 1)) / g.dy
    assert np.abs(div).max() <= 1e-12 * max(np.abs(ux).max(), np.abs(uy).max()) / g.dx


def test_advective_fluxes_trivial_cases():
    g = UniformGrid2D(8, 8, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(32)
    psi = rng.normal(size=(8, 8))
    ux, uy = face_velocities(psi, g)
    # constant chi: flux divergence vanishes
    fl = advective_fluxes_2d(FvField2D(g, np.full((8, 8), 2.5)), ux, uy)
    rhs = fv_rhs_2d(fl, g)
    assert np.abs(rhs).max() <= 1e-12
    # constant psi: no velocity, no flux
    ux0, uy0 = face_velocities(np.full((8, 8), 1.0), g)
    fl = advective_fluxes_2d(FvField2D(g, rng.normal(size=(8, 8))), ux0, uy0)
    assert np.all(fl.fx == 0.0) and np.all(fl.fy == 0.0)


def test_advective_fluxes_rejects_divergent_velocity():
    g = UniformGrid2D(8, 8, 1.0, 1.0)
    rng = np.random.default_rng(33)
    chi = FvField2D(g, rng.normal(size=(8, 8)))
    ux = rng.normal(size=(8, 8))
    uy = rng.normal(size=(8, 8))
    with pytest.raises(ValueError):
        advective_fluxes_2d(chi, ux, uy)


def test_advective_flux_single_face_hand_value():
    # independent plain-python reconstruction of one upwinded face value
    g = UniformGrid2D(4, 4, 4.0, 4.0)
    rng = np.random.default_rng(34)
    chi = rng.normal(size=(4, 4))
    psi = rng.normal(size=(4, 4))
    ux, uy = face_velocities(psi, g)
    fl = advective_fluxes_2d(FvField2D(g, chi), ux, uy)

    def mc(cm, c0, cp):
        fwd, bwd = 2.0 * (cp - c0), 2.0 * (c0 - cm)
        if fwd * bwd <= 0:
            return 0.0
        cen = 0.5 * (cp - cm)
        return np.sign(cen) * min(abs(cen), abs(fwd), abs(bwd))

    i, j = 1, 2
    vel = ux[i, j]
    if vel >= 0:
        sig = mc(chi[i - 1, j], chi[i, j], chi[i + 1, j])
        expected = vel * (chi[i, j] + 0.5 * sig)
    else:
        sig = mc(chi[i, j], chi[i + 1, j], chi[(i + 2) % 4, j])
        expected = vel * (chi[i + 1, j] - 0.5 * sig)
    assert fl.fx[i, j] == pytest.approx(expected, rel=1e-14)
