import numpy as np
import pytest

from invariant_guard import correctors as co
from invariant_guard.core import (DgField, EulerState1D, FvField1D, FvField2D,
                                  SpectralField, UniformGrid1D, UniformGrid2D,
                                  bracket, volume_mean)
from invariant_guard.dg import dg_diffusion_rhs, dg_l2_rate
from invariant_guard.errors import (ConfigurationError, DegenerateCorrection,
                                   InfeasibleTarget)
from invariant_guard.schemes import (BoundaryFluxes2D, euler1d_muscl_flux,
                                     flux_divergence_1d, ftcs_increment,
                                     fv_rhs_1d, poisson_solve)
from invariant_guard.core import VorticityState2D


def test_rate_target_modes():
    assert co.L2RateTarget.clamp().resolve(-2.0) == -2.0
    assert co.L2RateTarget.clamp().resolve(3.0) == 0.0
    assert co.L2RateTarget.fixed(-1.0).resolve(5.0) == -1.0
    with pytest.raises(ValueError):
        co.L2RateTarget.fixed(0.5)
    # tracked may carry either sign; stability clamping is the loader's job
    assert co.L2RateTarget.tracked(0.25).resolve(-1.0) == 0.25


def test_tracked_rate_source(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("t,rate\n0.0,-1.0\n1.0,1.0\n2.0,-3.0\n")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    src = co.TrackedRateSource(data[:, 0], data[:, 1])
    assert src.rate_at(0.0) == -1.0
    assert src.rate_at(0.25) == -0.5
    assert src.rate_at(1.0) == 0.0          # clamped to <= 0
    assert src.rate_at(1.5) == -1.0
    with pytest.raises(ValueError):
        co.TrackedRateSource([0.0, 0.0], [1.0, 2.0])


# --- flux corrector, 1D -------------------------------------------------------

def test_flux1d_hand_case():
    g = UniformGrid1D(3, 3.0)
    u = FvField1D(g, [0.0, 1.0, 0.0])
    f = np.array([1.0, 1.0, 1.0])
    out, _ = co.correct_flux_l2_1d(f, u, co.L2RateTarget.fixed(-2.0))
    assert np.allclose(out, [0.0, 2.0, 1.0])
    assert co.flux_l2_rate_1d(out, u) == pytest.approx(-2.0, abs=1e-14)


def test_flux1d_clamp_noop_is_bitwise():
    g = UniformGrid1D(4, 1.0)
    u = FvField1D(g, [0.0, 1.0, 2.0, 1.0])
    f = np.zeros(4)  # zero fluxes: zero rate
    out, _ = co.correct_flux_l2_1d(f, u, co.L2RateTarget.clamp())
    assert out is f
    # constant field: du = 0 everywhere, rate 0, no correction needed
    uc = FvField1D(g, np.full(4, 2.0))
    f2 = np.array([1.0, 2.0, 3.0, 4.0])
    out, _ = co.correct_flux_l2_1d(f2, uc, co.L2RateTarget.clamp())
    assert np.array_equal(out, f2)


def test_flux1d_degenerate_denominator():
    g = UniformGrid1D(4, 1.0)
    u = FvField1D(g, np.full(4, 2.0))  # du = 0: any G has zero denominator
    f = np.array([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(DegenerateCorrection):
        co.correct_flux_l2_1d(f, u, co.L2RateTarget.fixed(-1.0))


def test_flux1d_reports_the_measured_rate_not_the_target():
    # fluxes 1e8 times the target: the output's rate sums terms near 1e8 and
    # misses -0.5 by round-off (1.8e-7 here), and the record must carry the
    # rate measured on the output rather than vouch for the target
    rng = np.random.default_rng(92)
    u = FvField1D(UniformGrid1D(16, 1.0), rng.normal(size=16))
    out, rec = co.correct_flux_l2_1d(1e8 * rng.normal(size=16), u,
                                     co.L2RateTarget.fixed(-0.5))
    assert rec.achieved_rate == co.flux_l2_rate_1d(out, u)
    assert rec.achieved_rate != rec.target_rate


@pytest.mark.parametrize("call", [
    lambda u, f: co.correct_flux_l2_1d(f, u, co.L2RateTarget.fixed(-0.5)),
    lambda u, f: co.flux_l2_rate_1d(f, u),
    lambda u, f: fv_rhs_1d(f, u.grid),
    lambda u, f: flux_divergence_1d(u.grid)],
    ids=["correct_flux_l2_1d", "flux_l2_rate_1d", "fv_rhs_1d",
         "flux_divergence_1d"])
def test_scalar_flux_forms_are_periodic_only(call):
    # no run has a bounded scalar grid, so the scalar flux forms refuse one,
    # N + 1 faces included
    rng = np.random.default_rng(50)
    u = FvField1D(UniformGrid1D(8, 1.0, "dirichlet"), rng.normal(size=8))
    with pytest.raises(ConfigurationError, match="periodic-only"):
        call(u, rng.normal(size=9))


def test_flux2d_hand_and_split_target():
    rng = np.random.default_rng(51)
    g = UniformGrid2D(4, 4, 2.0, 2.0)
    u = FvField2D(g, rng.normal(size=(4, 4)))
    fl = BoundaryFluxes2D(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
    tx, ty = co.L2RateTarget.fixed(-0.5), co.L2RateTarget.fixed(-0.5)
    out, _ = co.correct_flux_l2_2d(fl, u, tx, ty)
    nx, ny = co.flux_l2_rates_2d(out, u)
    assert nx == pytest.approx(-0.5, rel=1e-12)
    assert ny == pytest.approx(-0.5, rel=1e-12)
    assert nx + ny == pytest.approx(-1.0, rel=1e-12)


def test_flux2d_zero_gradient_direction_noop():
    g = UniformGrid2D(4, 4, 1.0, 1.0)
    vals = np.tile(np.linspace(0, 1, 4)[None, :], (4, 1))  # x-constant
    u = FvField2D(g, vals)
    fx = np.ones((4, 4))
    fy = np.zeros((4, 4))
    out, _ = co.correct_flux_l2_2d(BoundaryFluxes2D(fx, fy), u,
                                co.L2RateTarget.clamp(), co.L2RateTarget.clamp())
    assert np.array_equal(out.fx, fx)  # x-rate is 0: untouched


# --- RHS corrector ---------------------------------------------------------------

def test_rhs_corrector_brackets_random():
    rng = np.random.default_rng(52)
    g = UniformGrid1D(8, 2.0)
    u = FvField1D(g, rng.normal(size=8))
    rhs = rng.normal(size=8)
    out, _ = co.correct_rhs_mass_l2(rhs, u, co.L2RateTarget.fixed(-0.7))
    vols = g.dx
    assert abs(np.sum(out * vols)) <= 1e-13 * np.abs(out).max() * 8
    assert bracket(u.values, out, vols) == pytest.approx(-0.7, rel=1e-12)


def test_rhs_corrector_fixed_point():
    rng = np.random.default_rng(53)
    g = UniformGrid1D(8, 1.0)
    u = FvField1D(g, rng.normal(size=8))
    vols = g.dx
    rhs = rng.normal(size=8)
    rhs -= volume_mean(rhs, vols)
    rate = bracket(u.values, rhs, vols)
    target = co.L2RateTarget.tracked(rate)
    out, _ = co.correct_rhs_mass_l2(rhs, u, target)
    assert np.abs(out - rhs).max() <= 1e-14 * np.abs(rhs).max()


def test_rhs_corrector_demeaning_branch():
    g = UniformGrid1D(4, 1.0)
    u = FvField1D(g, [1.0, 2.0, 0.5, -1.0])
    rhs = np.full(4, 3.0)
    m = rhs - volume_mean(rhs, g.dx)
    old = bracket(u.values - volume_mean(u.values, g.dx), m,
                  g.dx)
    out, _ = co.correct_rhs_mass_l2(rhs, u, co.L2RateTarget.tracked(old))
    assert np.abs(out).max() <= 1e-14  # constant N demeans to zero exactly


# --- discrete increment ------------------------------------------------------------

def test_increment_identity_cases():
    g = UniformGrid1D(8, 1.0)
    rng = np.random.default_rng(54)
    u = FvField1D(g, rng.normal(size=8))
    out, _ = co.correct_increment_mass_l2(np.zeros(8), u, 0.0)
    assert np.abs(out).max() <= 1e-15


def test_increment_ftcs_keeps_l2():
    g = UniformGrid1D(64, 1.0)
    x = g.cell_centers()
    u = FvField1D(g, np.sin(2 * np.pi * x))
    inc = ftcs_increment(u, 1.0, 0.5 * g.dx)
    out, _ = co.correct_increment_mass_l2(inc, u, 0.0)
    vols = g.dx
    l2_old = 0.5 * bracket(u.values, u.values, vols)
    unew = u.values + out
    l2_new = 0.5 * bracket(unew, unew, vols)
    assert l2_new == pytest.approx(l2_old, rel=1e-12)
    assert abs(np.sum(out * vols)) <= 1e-15


def test_increment_eps_matches_roots_oracle():
    rng = np.random.default_rng(55)
    g = UniformGrid1D(16, 1.0)
    for _ in range(25):
        u = FvField1D(g, rng.normal(size=16))
        inc = 0.1 * rng.normal(size=16)
        delta = -float(rng.uniform(0, 0.05))
        gvec = co._default_cell_G(u, g.dx)
        a, b, c = co.increment_quadratic_coefficients(inc, u, delta)
        if b * b - a * c < 0:
            continue
        roots = np.roots([a, 2 * b, c])
        oracle = roots[np.argmin(np.abs(roots))].real
        out, _ = co.correct_increment_mass_l2(inc, u, delta)
        bar = inc - volume_mean(inc, g.dx)
        eps = float((out - bar) @ gvec) / float(gvec @ gvec)
        assert eps == pytest.approx(oracle, rel=1e-9, abs=1e-13)


def test_increment_infeasible_carries_minimum():
    rng = np.random.default_rng(56)
    g = UniformGrid1D(8, 1.0)
    u = FvField1D(g, rng.normal(size=8))
    inc = 0.1 * rng.normal(size=8)
    with pytest.raises(InfeasibleTarget) as excinfo:
        co.correct_increment_mass_l2(inc, u, -1e9)
    min_delta = excinfo.value.min_delta_l2
    # the minimum is achievable (plus a hair for roundoff)
    out, _ = co.correct_increment_mass_l2(inc, u, min_delta + 1e-10)
    assert np.all(np.isfinite(out))
    with pytest.raises(InfeasibleTarget):
        co.correct_increment_mass_l2(inc, u, min_delta - 1e-6)


# --- DG corrector --------------------------------------------------------------------

def test_dg_corrector_noop_and_exactness():
    rng = np.random.default_rng(57)
    g = UniformGrid1D(8, 1.0)
    a = DgField(g, rng.normal(size=(8, 3)))
    rhs = rng.normal(size=(8, 3))
    if dg_l2_rate(a, rhs) > 0:
        rhs = -rhs
    out, _ = co.correct_dg_l2(rhs, a, co.L2RateTarget.clamp())
    assert out is rhs
    out, _ = co.correct_dg_l2(rhs, a, co.L2RateTarget.fixed(-2.0))
    assert dg_l2_rate(a, out) == pytest.approx(-2.0, rel=1e-12)
    assert np.sum(out[:, 0]) == pytest.approx(np.sum(rhs[:, 0]), abs=1e-12)


def test_dg_p0_equals_fv_rhs_corrector():
    # at p = 0 the added diffusion reproduces the FV corrector with a
    # Laplacian weight, after converting bracket-form RHS to du/dt
    rng = np.random.default_rng(58)
    g = UniformGrid1D(16, 2.0)
    u = rng.normal(size=16)
    a = DgField(g, u[:, None].copy())
    f = rng.normal(size=16)
    n_dg = -(np.outer(f, [1.0]) - np.outer(np.roll(f, 1), [1.0]))
    target = co.L2RateTarget.fixed(-0.9)
    out_dg, _ = co.correct_dg_l2(n_dg, a, target)
    rate_dg = out_dg[:, 0] / g.dx

    field = FvField1D(g, u)
    out_fv, _ = co.correct_rhs_mass_l2(fv_rhs_1d(f, g), field, target)
    assert np.allclose(rate_dg, out_fv, rtol=1e-12, atol=1e-13)


# --- spectral corrector -------------------------------------------------------------

def test_spectral_corrector_zeroes_mode0():
    rng = np.random.default_rng(59)
    u = SpectralField(2 * np.pi, rng.normal(size=5) + 1j * rng.normal(size=5))
    rhs = rng.normal(size=5) + 1j * rng.normal(size=5)
    out, _ = co.correct_spectral_mass_l2(rhs, u, co.L2RateTarget.clamp())
    assert out[0] == 0.0


def test_spectral_skew_rhs_clamp_noop():
    from invariant_guard.schemes import spectral_rhs_advection
    rng = np.random.default_rng(60)
    u = SpectralField(2 * np.pi, rng.normal(size=6) + 1j * rng.normal(size=6))
    rhs = spectral_rhs_advection(u, 1.0)
    out, _ = co.correct_spectral_mass_l2(rhs, u, co.L2RateTarget.clamp())
    assert np.abs(out - rhs).max() <= 1e-14 * np.abs(rhs).max()


def test_spectral_diffusion_weight_rate():
    rng = np.random.default_rng(61)
    u = SpectralField(3.0, rng.normal(size=9) + 1j * rng.normal(size=9))
    rhs = rng.normal(size=9) + 1j * rng.normal(size=9)
    out, _ = co.correct_spectral_mass_l2(rhs, u, co.L2RateTarget.fixed(-1.2))
    # Plancherel-sum oracle
    rate = 2.0 * u.length * float(
        np.sum(u.coeffs.real * out.real + u.coeffs.imag * out.imag))
    assert rate == pytest.approx(-1.2, rel=1e-12)


# --- 2D Euler corrector ----------------------------------------------------------------

def _vorticity_state(seed, n=8):
    rng = np.random.default_rng(seed)
    g = UniformGrid2D(n, n, 2 * np.pi, 2 * np.pi)
    chi = FvField2D(g, rng.normal(size=(n, n)))
    return VorticityState2D(chi, poisson_solve(chi)), rng


def test_euler2d_three_brackets():
    state, rng = _vorticity_state(62)
    rhs = rng.normal(size=(8, 8))
    out, _ = co.correct_euler2d_mass_energy_l2(rhs, state,
                                            co.L2RateTarget.fixed(-0.4))
    vol = state.chi.grid.cell_volume
    assert abs(np.sum(out) * vol) <= 1e-13 * np.abs(out).max() * 64 * vol
    assert abs(bracket(state.psi_bar, out, vol)) <= \
        1e-12 * np.abs(state.psi_bar).max() * np.abs(out).max() * 64 * vol
    phi = state.psi_bar - state.psi_bar.mean()
    u_c = state.chi.values - state.chi.values.mean()
    w = u_c - bracket(u_c, phi, vol) / bracket(phi, phi, vol) * phi
    assert bracket(w, out, vol) == pytest.approx(-0.4, rel=1e-12)


def test_euler2d_projection_kills_phi_direction():
    state, _ = _vorticity_state(63)
    phi = state.psi_bar - state.psi_bar.mean()
    out, _ = co.correct_euler2d_mass_energy_l2(0.8 * phi, state,
                                            co.L2RateTarget.clamp())
    assert np.abs(out).max() <= 1e-12 * np.abs(phi).max()


def test_euler2d_invariance_under_gauge_shift():
    state, rng = _vorticity_state(64)
    rhs = rng.normal(size=(8, 8))
    phi = state.psi_bar - state.psi_bar.mean()
    target = co.L2RateTarget.fixed(-1.0)
    a, _ = co.correct_euler2d_mass_energy_l2(rhs, state, target)
    b, _ = co.correct_euler2d_mass_energy_l2(rhs + 2.3 * phi - 0.7, state, target)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


# --- a weight with no direction is refused -----------------------------------
#
# Each case returns a call whose state leaves G no direction, or one only
# round-off deep: the corrector must raise DegenerateCorrection naming itself
# rather than divide by a zero denominator or scale up round-off.

def _degenerate_flux1d():
    u = FvField1D(UniformGrid1D(4, 1.0), np.full(4, 2.0))  # du = 0
    f = np.array([1.0, 0.0, 1.0, 0.0])
    return lambda: co.correct_flux_l2_1d(f, u, co.L2RateTarget.fixed(-1.0))


def _degenerate_flux2d():
    # u constant along y: the y jumps vanish, the x ones do not
    g = UniformGrid2D(6, 4, 2.0, 1.0)
    u = FvField2D(g, np.repeat(np.arange(6.0)[:, None] ** 2, 4, axis=1))
    fl = BoundaryFluxes2D(np.ones((6, 4)), np.ones((6, 4)))
    return lambda: co.correct_flux_l2_2d(fl, u, co.L2RateTarget.fixed(-0.5),
                                         co.L2RateTarget.fixed(-0.3))


def _degenerate_rhs():
    u = FvField1D(UniformGrid1D(4, 1.0), np.full(4, 1.5))  # U = 0
    return lambda: co.correct_rhs_mass_l2(np.array([1.0, -1.0, 1.0, -1.0]), u,
                                          co.L2RateTarget.fixed(-1.0))


def _degenerate_dg_constant():
    coeffs = np.zeros((8, 2))
    coeffs[:, 0] = 1.0
    a = DgField(UniformGrid1D(8, 1.0), coeffs)
    return lambda: co.correct_dg_l2(np.ones((8, 2)), a,
                                    co.L2RateTarget.fixed(-1.0))


def _degenerate_dg_near_constant():
    # a = 1 + 1e-15 noise: the penalty rate is a nonzero -1e-26 at a scale
    # of 1e-11, a relative 1e-15; dividing by it would scale round-off, so
    # the corrector must refuse it rather than test only for an exact zero
    rng = np.random.default_rng(59)
    coeffs = np.zeros((32, 2))
    coeffs[:, 0] = 1.0
    a = DgField(UniformGrid1D(32, 2.0),
                coeffs + 1e-15 * rng.normal(size=coeffs.shape))
    assert dg_l2_rate(a, dg_diffusion_rhs(a)) != 0.0
    rhs = rng.normal(size=(32, 2))
    return lambda: co.correct_dg_l2(rhs, a, co.L2RateTarget.fixed(-1.0))


def _degenerate_spectral_near_constant():
    # u~_0 = 1, u~_m = 1e-15 noise: the denominator -2L sum m^2 |u~_m|^2 is
    # a nonzero -5e-27 at a scale of 1e-12, a relative 4e-15; dividing by it
    # would blow the weight up 1e13-fold
    rng = np.random.default_rng(2)
    coeffs = 1e-15 * (rng.normal(size=17) + 1j * rng.normal(size=17))
    coeffs[0] = 1.0
    u = SpectralField(1.0, coeffs)
    rhs = rng.normal(size=17) + 1j * rng.normal(size=17)
    return lambda: co.correct_spectral_mass_l2(rhs, u,
                                               co.L2RateTarget.fixed(-1.0))


def _degenerate_euler2d_constant_psi():
    g = UniformGrid2D(4, 4, 1.0, 1.0)
    state = VorticityState2D(FvField2D(g, np.zeros((4, 4))), np.zeros((4, 4)))
    return lambda: co.correct_euler2d_mass_energy_l2(
        np.ones((4, 4)), state, co.L2RateTarget.fixed(-1.0))


def _degenerate_entropy_uniform_v_p():
    # a contact at rest: rho jumps, so dw does not vanish, but v and p are
    # uniform, so G = (0, dv, dp) = 0; the target lies above the old rate
    g = UniformGrid1D(8, 1.0)
    s = EulerState1D.from_primitive(g, np.where(np.arange(8) < 4, 1.0, 0.5),
                                    np.full(8, 0.3), np.full(8, 1.0), 1.4)
    f = euler1d_muscl_flux(s)
    above = co.entropy_rate_euler1d(f, s) + 1.0
    return lambda: co.correct_entropy_euler1d(f, s,
                                              co.EntropyRateTarget(above, 0.0))


DEGENERATE = [
    ("correct_flux_l2_1d", _degenerate_flux1d),
    ("correct_flux_l2_2d y", _degenerate_flux2d),
    ("correct_rhs_mass_l2", _degenerate_rhs),
    ("correct_dg_l2", _degenerate_dg_constant),
    ("correct_dg_l2", _degenerate_dg_near_constant),
    ("correct_spectral_mass_l2", _degenerate_spectral_near_constant),
    ("correct_euler2d_mass_energy_l2", _degenerate_euler2d_constant_psi),
    ("correct_entropy_euler1d", _degenerate_entropy_uniform_v_p)]


@pytest.mark.parametrize("name, case", DEGENERATE, ids=[
    case.__name__[len("_degenerate_"):] for _, case in DEGENERATE])
def test_degenerate_weight_is_refused(name, case):
    with pytest.raises(DegenerateCorrection, match=name):
        case()()


# --- every corrector reports what it did ------------------------------------
#
# Each case builds an input that needs correcting and returns the corrector,
# the input, an independent rate measurement (the public rate functions and
# brackets, applied from scratch), the target, the expected resolved target,
# and a no-op input/target pair built from the first report.  ``same`` marks
# correctors whose no-op returns the input object itself; the others still
# demean or project it.

def _clamp_noop(update, rate):
    """Clamp on the input turned to a non-growing rate: nothing to correct."""
    calm = -update if rate(update) > 0 else update
    return lambda report: (calm, co.L2RateTarget.clamp())


def _case_flux1d(rng):
    u = FvField1D(UniformGrid1D(12, 2.0), rng.normal(size=12))
    rate = lambda f: co.flux_l2_rate_1d(f, u)
    f = rng.normal(size=12)
    return dict(correct=lambda f, tg: co.correct_flux_l2_1d(f, u, tg),
                update=f, rate=rate, target=co.L2RateTarget.fixed(-0.5),
                expected=lambda old: -0.5,
                noop=_clamp_noop(f, rate),
                same=True)


def _case_flux2d(rng):
    u = FvField2D(UniformGrid2D(6, 6, 2.0, 3.0), rng.normal(size=(6, 6)))
    rate = lambda fl: co.flux_l2_rates_2d(fl, u)
    fl = BoundaryFluxes2D(rng.normal(size=(6, 6)), rng.normal(size=(6, 6)))
    rx, ry = rate(fl)
    calm = BoundaryFluxes2D(-fl.fx if rx > 0 else fl.fx,
                            -fl.fy if ry > 0 else fl.fy)
    clamp = co.L2RateTarget.clamp()
    return dict(correct=lambda fl, tg: co.correct_flux_l2_2d(fl, u, *tg),
                update=fl, rate=rate,
                target=(co.L2RateTarget.fixed(-0.5), co.L2RateTarget.fixed(-0.3)),
                expected=lambda old: (-0.5, -0.3),
                noop=lambda report: (calm, (clamp, clamp)), same=True)


def _case_rhs(rng):
    u = FvField1D(UniformGrid1D(12, 2.0), rng.normal(size=12))
    vols = u.grid.dx
    rate = lambda n: bracket(u.values, n - volume_mean(n, vols), vols)
    rhs = rng.normal(size=12)
    return dict(correct=lambda n, tg: co.correct_rhs_mass_l2(n, u, tg),
                update=rhs, rate=rate, target=co.L2RateTarget.fixed(-0.7),
                expected=lambda old: -0.7,
                noop=_clamp_noop(rhs, rate),
                same=False)


def _case_increment(rng):
    u = FvField1D(UniformGrid1D(12, 2.0), rng.normal(size=12))
    vols = u.grid.dx
    l2 = lambda v: 0.5 * bracket(v, v, vols)
    rate = lambda d: l2(u.values + d - volume_mean(d, vols)) - l2(u.values)
    inc = 0.1 * rng.normal(size=12)
    delta = rate(inc) - 1e-3
    # the reported old change c0 / 2 as target makes c = c0 - 2 delta == 0
    return dict(correct=lambda d, tg: co.correct_increment_mass_l2(d, u, tg),
                update=inc, rate=rate, target=delta,
                expected=lambda old: delta,
                noop=lambda report: (inc, report.old_rate), same=False)


def _case_dg(rng):
    a = DgField(UniformGrid1D(8, 1.5), rng.normal(size=(8, 3)))
    rate = lambda n: dg_l2_rate(a, n)
    rhs = rng.normal(size=(8, 3))
    return dict(correct=lambda n, tg: co.correct_dg_l2(n, a, tg),
                update=rhs, rate=rate, target=co.L2RateTarget.fixed(-2.0),
                expected=lambda old: -2.0,
                noop=_clamp_noop(rhs, rate),
                same=True)


def _case_spectral(rng):
    u = SpectralField(3.0, rng.normal(size=7) + 1j * rng.normal(size=7))

    def rate(n):
        zeroed = np.array(n, dtype=np.complex128)
        zeroed[0] = 0.0
        return 2.0 * u.length * float(np.sum(u.coeffs.real * zeroed.real
                                             + u.coeffs.imag * zeroed.imag))
    rhs = rng.normal(size=7) + 1j * rng.normal(size=7)
    return dict(correct=lambda n, tg: co.correct_spectral_mass_l2(n, u, tg),
                update=rhs, rate=rate, target=co.L2RateTarget.fixed(-1.2),
                expected=lambda old: -1.2,
                noop=_clamp_noop(rhs, rate),
                same=False)


def _case_euler2d(rng):
    state, _ = _vorticity_state(91)
    vol = state.chi.grid.cell_volume
    phi = state.psi_bar - state.psi_bar.mean()
    u_c = state.chi.values - state.chi.values.mean()
    w = u_c - bracket(u_c, phi, vol) / bracket(phi, phi, vol) * phi
    rate = lambda n: bracket(w, n - n.mean(), vol)
    rhs = rng.normal(size=(8, 8))
    return dict(
        correct=lambda n, tg: co.correct_euler2d_mass_energy_l2(n, state, tg),
        update=rhs, rate=rate, target=co.L2RateTarget.fixed(-0.4),
        expected=lambda old: -0.4,
        noop=_clamp_noop(rhs, rate), same=False)


def _case_entropy(rng):
    g = UniformGrid1D(16, 1.0, "dirichlet")
    s = EulerState1D.from_primitive(g, rng.uniform(0.5, 2.0, 16),
                                    rng.uniform(-1.0, 1.0, 16),
                                    rng.uniform(0.5, 2.0, 16), 1.4)
    f = euler1d_muscl_flux(s)
    rate = lambda f: co.entropy_rate_euler1d(f, s)
    boundary = rate(f) - 1.0   # R = 2 then asks for old + 1: no warning
    return dict(correct=lambda f, tg: co.correct_entropy_euler1d(f, s, tg),
                update=f, rate=rate, target=co.EntropyRateTarget(boundary, 2.0),
                expected=lambda old: boundary + 2.0 * (old - boundary),
                noop=lambda report: (f, co.EntropyRateTarget(boundary, 1.0)),
                same=True)


def _as_tuple(x):
    return x if isinstance(x, tuple) else (x,)


@pytest.mark.parametrize("case", [
    _case_flux1d, _case_flux2d, _case_rhs, _case_increment, _case_dg,
    _case_spectral, _case_euler2d, _case_entropy],
    ids=lambda case: case.__name__[len("_case_"):])
def test_correction_reports_what_it_did(case):
    c = case(np.random.default_rng(90))
    out, report = c["correct"](c["update"], c["target"])
    olds = _as_tuple(c["rate"](c["update"]))
    for rec, old, expected, achieved in zip(
            _as_tuple(report), olds, _as_tuple(c["expected"](olds[0])),
            _as_tuple(c["rate"](out))):
        assert rec.old_rate == pytest.approx(old, rel=1e-10, abs=1e-12)
        assert rec.target_rate == pytest.approx(expected, rel=1e-10, abs=1e-12)
        assert rec.achieved_rate == pytest.approx(achieved, rel=1e-10, abs=1e-12)
        assert rec.achieved_rate == pytest.approx(rec.target_rate, rel=1e-10,
                                                  abs=1e-12)
        assert rec.achieved_rate != rec.old_rate

    update, target = c["noop"](report)
    out, report = c["correct"](update, target)
    if c["same"]:
        assert out is update
    for rec, old in zip(_as_tuple(report), _as_tuple(c["rate"](update))):
        assert rec.achieved_rate == rec.old_rate
        assert rec.old_rate == pytest.approx(old, rel=1e-10, abs=1e-12)


# --- every corrector moves its update along its documented weight G ----------
#
# Each case returns (moved, G) pairs: what the corrector added to the update
# it would return uncorrected, and the weight its docstring names, built here
# from numpy primitives.

def _lap_1d(v):
    return np.roll(v, -1) - 2.0 * v + np.roll(v, 1)


def _weights_flux1d(rng):
    u = FvField1D(UniformGrid1D(10, 2.0), rng.normal(size=10))
    f = rng.normal(size=10)
    out, _ = co.correct_flux_l2_1d(f, u, co.L2RateTarget.fixed(-0.5))
    return [(out - f, np.roll(u.values, -1) - u.values)]


def _weights_flux2d(rng):
    u = FvField2D(UniformGrid2D(6, 5, 2.0, 3.0), rng.normal(size=(6, 5)))
    fl = BoundaryFluxes2D(rng.normal(size=(6, 5)), rng.normal(size=(6, 5)))
    out, _ = co.correct_flux_l2_2d(fl, u, co.L2RateTarget.fixed(-0.5),
                                   co.L2RateTarget.fixed(-0.3))
    return [(out.fx - fl.fx, np.roll(u.values, -1, 0) - u.values),
            (out.fy - fl.fy, np.roll(u.values, -1, 1) - u.values)]


def _weights_rhs(rng):
    u = FvField1D(UniformGrid1D(12, 2.0), rng.normal(size=12))
    rhs = rng.normal(size=12)
    out, _ = co.correct_rhs_mass_l2(rhs, u, co.L2RateTarget.fixed(-0.7))
    lap = _lap_1d(u.values)
    return [(out - (rhs - rhs.mean()), lap - lap.mean())]


def _weights_increment(rng):
    u = FvField1D(UniformGrid1D(12, 2.0), rng.normal(size=12))
    inc = 0.1 * rng.normal(size=12)
    out, report = co.correct_increment_mass_l2(inc, u, -1e-3)
    assert report.achieved_rate != report.old_rate
    lap = _lap_1d(u.values)
    return [(out - (inc - inc.mean()), lap - lap.mean())]


def _weights_spectral(rng):
    u = SpectralField(3.0, rng.normal(size=7) + 1j * rng.normal(size=7))
    rhs = rng.normal(size=7) + 1j * rng.normal(size=7)
    out, _ = co.correct_spectral_mass_l2(rhs, u, co.L2RateTarget.fixed(-1.2))
    rhs[0] = 0.0
    return [(out - rhs, -np.arange(7) ** 2 * u.coeffs)]


def _weights_euler2d(rng):
    state, _ = _vorticity_state(92)
    grid, vol = state.chi.grid, state.chi.grid.cell_volume
    perp = lambda a: a - bracket(a, phi, vol) / bracket(phi, phi, vol) * phi
    phi = state.psi_bar - state.psi_bar.mean()
    w = perp(state.chi.values - state.chi.values.mean())
    rhs = rng.normal(size=(8, 8))
    out, _ = co.correct_euler2d_mass_energy_l2(rhs, state,
                                               co.L2RateTarget.fixed(-0.4))
    lap_w = (np.roll(w, -1, 0) - 2.0 * w + np.roll(w, 1, 0)) / grid.dx**2 \
        + (np.roll(w, -1, 1) - 2.0 * w + np.roll(w, 1, 1)) / grid.dy**2
    return [(out - perp(rhs - rhs.mean()), perp(lap_w))]


def _weights_entropy(rng):
    g = UniformGrid1D(16, 1.0, "dirichlet")
    s = EulerState1D.from_primitive(g, rng.uniform(0.5, 2.0, 16),
                                    rng.uniform(-1.0, 1.0, 16),
                                    rng.uniform(0.5, 2.0, 16), 1.4)
    f = euler1d_muscl_flux(s)
    boundary = co.entropy_rate_euler1d(f, s) - 1.0
    out, _ = co.correct_entropy_euler1d(f, s,
                                        co.EntropyRateTarget(boundary, 2.0))
    assert np.array_equal(out[[0, -1]], f[[0, -1]])
    dv, dp = np.diff(s.velocity()), np.diff(s.pressure())
    return [(out[1:-1] - f[1:-1], np.stack([np.zeros(15), dv, dp], axis=1))]


@pytest.mark.parametrize("case", [
    _weights_flux1d, _weights_flux2d, _weights_rhs, _weights_increment, _weights_spectral,
    _weights_euler2d, _weights_entropy],
    ids=["flux1d_periodic", "flux2d", "rhs", "increment",
         "spectral", "euler2d", "entropy"])
def test_corrector_moves_update_along_its_weight(case):
    for moved, weight in case(np.random.default_rng(93)):
        m = np.asarray(moved, dtype=np.complex128).ravel()
        g = np.asarray(weight, dtype=np.complex128).ravel()
        m, g = np.concatenate([m.real, m.imag]), np.concatenate([g.real, g.imag])
        assert np.linalg.norm(m) > 0.0
        alpha = (m @ g) / (g @ g)
        assert np.linalg.norm(m - alpha * g) <= 1e-10 * np.linalg.norm(m)
