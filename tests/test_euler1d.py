import warnings

import numpy as np
import pytest

from invariant_guard import correctors as co
from invariant_guard.cli import cmd_run
from invariant_guard.core import EulerState1D, UniformGrid1D
from invariant_guard.errors import (CflViolation, DegenerateCorrection,
                                    PositivityViolation)
from invariant_guard.drivers import Euler1D
from invariant_guard.kernels import local_lax_friedrichs_fluxes
from invariant_guard.problems import ic_random_euler, ic_sod
from invariant_guard.schemes import euler1d_muscl_flux, euler1d_rhs, ghost_rows
from invariant_guard.timeloop import StepPlan, run


def euler_physical_flux(u, gamma):
    """Physical flux (rho*v, rho*v^2 + p, v*(E + p)) of conserved rows
    (..., 3)."""
    rho, m, e = np.moveaxis(np.asarray(u, dtype=np.float64), -1, 0)
    v = m / rho
    p = (gamma - 1.0) * (e - 0.5 * m * v)
    return np.stack([m, m * v + p, v * (e + p)], axis=-1)


def uniform_state(n=8, rho=1.0, v=0.0, p=1.0, gamma=1.4, boundary="periodic"):
    g = UniformGrid1D(n, 1.0, boundary)
    return EulerState1D.from_primitive(g, np.full(n, rho), np.full(n, v),
                                       np.full(n, p), gamma)


def random_state(seed, n=16, boundary="periodic"):
    rng = np.random.default_rng(seed)
    g = UniformGrid1D(n, 1.0, boundary)
    return EulerState1D.from_primitive(
        g, rng.uniform(0.5, 2.0, n), rng.uniform(-1.0, 1.0, n),
        rng.uniform(0.5, 2.0, n), 1.4)


# --- MUSCL flux -----------------------------------------------------------------

def test_uniform_state_gives_physical_flux():
    s = uniform_state()
    f = euler1d_muscl_flux(s)
    assert np.array_equal(f, np.tile([0.0, 1.0, 0.0], (9, 1)))


def test_consistency_on_random_uniform_state():
    rng = np.random.default_rng(70)
    rho, v, p = rng.uniform(0.5, 2.0), rng.uniform(-1, 1), rng.uniform(0.5, 2.0)
    s = uniform_state(rho=rho, v=v, p=p)
    f = euler1d_muscl_flux(s)
    e = p / 0.4 + 0.5 * rho * v**2
    expected = euler_physical_flux(np.array([rho, rho * v, e]), 1.4)
    assert np.allclose(f, expected, rtol=1e-14, atol=1e-14)


def test_mirror_symmetry_antisymmetric_mass_flux():
    s = random_state(71, n=12, boundary="dirichlet")
    flipped = EulerState1D.from_primitive(
        s.grid, s.rho[::-1], -s.velocity()[::-1], s.pressure()[::-1], 1.4)
    f = euler1d_muscl_flux(s)
    f2 = euler1d_muscl_flux(flipped)
    assert np.allclose(f2[:, 0], -f[::-1, 0], atol=1e-13)
    assert np.allclose(f2[:, 1], f[::-1, 1], atol=1e-13)
    assert np.allclose(f2[:, 2], -f[::-1, 2], atol=1e-13)


def test_positivity_required():
    g = UniformGrid1D(4, 1.0)
    u = np.column_stack([[1.0, -0.5, 1.0, 1.0], np.zeros(4), np.full(4, 2.5)])
    s = EulerState1D(g, u)
    with pytest.raises(PositivityViolation):
        euler1d_muscl_flux(s)


def test_second_order_on_smooth_density_wave():
    # advected density bump with uniform v and p: exact solution translates
    errs = {}
    for n in (32, 64, 128):
        g = UniformGrid1D(n, 1.0)
        x = g.cell_centers()
        rho = 1.0 + 0.2 * np.sin(2 * np.pi * x)
        ic = EulerState1D.from_primitive(g, rho, np.ones(n), np.ones(n), 1.4)
        tr = run(StepPlan(t_end=0.3, cfl=0.3, n_snapshots=2),
                 Euler1D(ic, positivity=False))
        rho_end = tr.snapshots[-1].reshape(n, 3)[:, 0]
        exact = 1.0 + 0.2 * np.sin(2 * np.pi * (x - 0.3))
        errs[n] = np.abs(rho_end - exact).mean()
    r1 = errs[32] / errs[64]
    r2 = errs[64] / errs[128]
    assert 3.2 <= r1 <= 4.8, r1
    assert 3.2 <= r2 <= 4.8, r2


# --- entropy variables --------------------------------------------------------------

def test_entropy_variables_hand_case():
    s = uniform_state()
    ev = co.entropy_variables_euler1d(s)
    assert np.allclose(ev.w, np.tile([5.0 / 12.0, 0.0, 1.0 / 6.0], (8, 1)),
                       rtol=1e-14)
    assert np.allclose(ev.eta, 1.0, rtol=1e-14)
    assert np.allclose(ev.p_star, 1.0 / 6.0, rtol=1e-14)
    assert np.all(ev.psi == 0.0)  # psi = eta * v and v = 0


def test_entropy_variables_positivity_guard():
    g = UniformGrid1D(4, 1.0)
    s = EulerState1D(g, np.tile([1.0, 3.0, 1.0], (4, 1)))
    with pytest.raises(PositivityViolation):
        co.entropy_variables_euler1d(s)  # p < 0


def test_entropy_rate_matches_eta_derivative():
    # d(eta)/dt via w . du/dt equals the finite difference of eta(u + h du)
    s = random_state(72, n=8)
    ev = co.entropy_variables_euler1d(s)
    rng = np.random.default_rng(73)
    dudt = rng.normal(size=(8, 3))
    rate = np.sum(ev.w * dudt, axis=1)
    h = 1e-7
    u = s.u
    eta_p = co.entropy_variables_euler1d(
        EulerState1D(s.grid, u + h * dudt, 1.4)).eta
    eta_m = co.entropy_variables_euler1d(
        EulerState1D(s.grid, u - h * dudt, 1.4)).eta
    fd = (eta_p - eta_m) / (2 * h)
    assert np.allclose(rate, fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("n", [4, 8, 32, 128])
def test_dirichlet_entropy_rate_is_the_cell_form_rate(n):
    # summation by parts, boundary terms included: the face-form rate equals
    # sum_j w_j . rhs_j dx to rounding in its own terms
    rng = np.random.default_rng(80 + n)
    for seed in range(20):
        s = random_state(1000 * n + seed, n=n, boundary="dirichlet")
        f = rng.normal(size=(n + 1, 3))
        w = co.entropy_variables_euler1d(s).w
        cell_form = float((w * euler1d_rhs(f, s.grid)).sum()) * s.grid.dx
        terms = np.abs(f[1:-1] * np.diff(w, axis=0)).sum() \
            + np.abs(f[0] * w[0]).sum() + np.abs(f[-1] * w[-1]).sum()
        assert abs(co.entropy_rate_euler1d(f, s) - cell_form) <= 1e-13 * terms


# --- positivity limiter ---------------------------------------------------------------

def _stable_dt(s, cfl=0.3):
    return cfl * s.grid.dx / float((np.abs(s.velocity()) + s.sound_speed()).max())


def _lf_fallback(s):
    # the limiter's theta = 0 flux: the kernel's local Lax-Friedrichs fluxes
    # over the N+2 cells of the ghost-extended state
    return local_lax_friedrichs_fluxes(ghost_rows(s)[:, 1:-1], s.gamma).T


def _safe_case():
    # smooth, well-separated-from-vacuum state: the MUSCL fluxes are safe
    g = UniformGrid1D(16, 1.0)
    x = g.cell_centers()
    s = EulerState1D.from_primitive(g, 1.0 + 0.2 * np.sin(2 * np.pi * x),
                                    0.3 * np.cos(2 * np.pi * x),
                                    np.full(16, 1.0), 1.4)
    return s, euler1d_muscl_flux(s), _stable_dt(s, cfl=0.2)


def test_limiter_passes_safe_fluxes_bitwise():
    s, f, dt = _safe_case()
    out = co.limit_positivity_euler1d(f, s, dt)
    assert out is f


def test_limiter_builds_no_fallback_flux_for_safe_fluxes(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("Lax-Friedrichs flux built although theta = 1 is safe")

    monkeypatch.setattr(co, "local_lax_friedrichs_fluxes", unexpected)
    s, f, dt = _safe_case()
    assert co.limit_positivity_euler1d(f, s, dt) is f


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
def test_limiter_checks_only_cells_a_face_touches(boundary):
    # at rest F = f(u) everywhere; a mass flux of 0.75/lam at an end face
    # empties the half-cell on one side of it (rho = 1 - 1.5) and fills the
    # other.  On a bounded grid that side lies outside the domain, so the
    # flux stays; on a periodic grid it is the cell across the seam.
    s = uniform_state(n=8, boundary=boundary)
    dt = _stable_dt(s)
    lam = dt / s.grid.dx
    for face, sign in ((0, 1.0), (-1, -1.0)):
        f = euler1d_muscl_flux(s).copy()
        f[face, 0] += sign * 0.75 / lam
        out = co.limit_positivity_euler1d(f, s, dt)
        if boundary == "dirichlet":
            assert out is f
        else:
            assert not np.array_equal(out[face], f[face])


def test_limiter_theta_zero_endpoint():
    s = random_state(75)
    f_lf = _lf_fallback(s)
    # blend with theta = 0 reproduces the Lax-Friedrichs flux exactly
    blended = 0.0 * f_lf + 1.0 * f_lf
    assert np.array_equal(blended, f_lf)


def test_limiter_bisection_near_vacuum():
    # a contrived flux drives one cell toward vacuum; theta* must restore
    # positivity and theta* + 1e-6 must fail the half-state check
    s = uniform_state(n=8, rho=1.0, v=0.0, p=1.0)
    dt = _stable_dt(s)
    f = euler1d_muscl_flux(s).copy()
    f[3] = [8.0, 1.0, 12.0]   # violent mass/energy drain across face 3
    f[-1] = f[0]
    eps = 1e-12
    out = co.limit_positivity_euler1d(f, s, dt, eps_pos=eps)
    u = s.u
    unew = u - dt / s.grid.dx * (out[1:] - out[:-1])
    st = EulerState1D(s.grid, unew, s.gamma)
    assert st.rho.min() >= eps and st.pressure().min() >= eps

    # recover theta at the tampered face and show theta + 1e-6 violates
    f_lf = _lf_fallback(s)
    j = int(np.argmax(np.abs(f[3] - f_lf[3])))
    theta = (out[3, j] - f_lf[3, j]) / (f[3, j] - f_lf[3, j])
    assert theta < 1.0
    face = (theta + 1e-6) * f[3] + (1 - theta - 1e-6) * f_lf[3]

    def half_states(face_flux):
        lam_l = dt / s.grid.dx
        lam_r = dt / s.grid.dx
        hl = u[2] - 2 * lam_l * (face_flux - euler_physical_flux(u[2], s.gamma))
        hr = u[3] + 2 * lam_r * (face_flux - euler_physical_flux(u[3], s.gamma))
        return hl, hr

    def positive(h):
        return h[0] >= eps and 0.4 * (h[2] - 0.5 * h[1] ** 2 / h[0]) >= eps

    hl, hr = half_states(face)
    assert not (positive(hl) and positive(hr))


def test_limiter_default_eps_admits_a_near_vacuum_half_state():
    # face 4's flux leaves cell 3 a right-moving half-state with
    # rho = p = 1e-8: admissible at the default eps_pos, 1e-12 of the scale
    s = uniform_state(n=8)
    dt = 0.01
    u = s.u[3]
    half = np.array([1e-8, 0.0, 1e-8 / (s.gamma - 1.0)])
    f = np.tile(euler_physical_flux(u, s.gamma), (9, 1))
    f[4] += (u - half) / (2.0 * dt / s.grid.dx)
    assert co.limit_positivity_euler1d(f, s, dt) is f


def test_limiter_cfl_violation():
    # strong pressure jumps with dt far beyond the CFL bound: dt/dx *
    # max(|v| + c) >> 1/2, so the theta = 0 half-states are no longer convex
    # combinations of admissible states and even theta = 0 fails
    g = UniformGrid1D(4, 1.0)
    p = np.array([1.0, 1e-3, 1.0, 1e-3])
    s = EulerState1D.from_primitive(g, np.ones(4), np.zeros(4), p, 1.4)
    f = euler1d_muscl_flux(s)
    with pytest.raises(CflViolation):
        co.limit_positivity_euler1d(f, s, dt=1e3, eps_pos=1e-10)


def _double_rarefaction(v):
    # the 1-2-3 problem (Einfeldt et al. 1991; Toro's test 2): two
    # rarefactions leave a near-vacuum between them
    g = UniformGrid1D(256, 1.0, "dirichlet")
    x = g.cell_centers()
    return EulerState1D.from_primitive(g, np.ones(256), np.where(x < 0.5, -v, v),
                                       np.full(256, 0.4), 1.4)


@pytest.mark.parametrize("v, entropy_ratio, t_end",
                         [(2.0, None, 0.15), (3.1, 1.0, 0.1)])
def test_limiter_holds_the_near_vacuum_double_rarefaction(v, entropy_ratio,
                                                          t_end):
    traj = run(StepPlan(t_end=t_end, cfl=0.3, n_snapshots=2),
               Euler1D(_double_rarefaction(v), entropy_ratio=entropy_ratio))
    assert traj.error is None
    assert traj.times[-1] == t_end
    minima = np.array(traj.step_minima)
    assert minima[-1, 0] == pytest.approx(t_end, rel=1e-12)
    assert (minima[:, 1:] > 0.0).all()


# --- entropy correction ------------------------------------------------------------------

def test_entropy_ratio_one_is_bitwise_identity():
    s = random_state(76, boundary="dirichlet")
    f = euler1d_muscl_flux(s)
    out, _ = co.correct_entropy_euler1d(f, s, co.EntropyRateTarget(0.0, 1.0))
    assert out is f


def test_entropy_uniform_state_noop():
    s = uniform_state(boundary="dirichlet")
    f = euler1d_muscl_flux(s)
    # dw = 0 everywhere; with R = 1 no correction is needed
    out, _ = co.correct_entropy_euler1d(f, s, co.EntropyRateTarget(0.0, 1.0))
    assert np.array_equal(out, f)
    # but asking for a different rate must fail: zero denominator
    with pytest.raises(DegenerateCorrection):
        co.correct_entropy_euler1d(f, s, co.EntropyRateTarget(1.0, 0.0))


def test_entropy_sod_like_r2_rate():
    g = UniformGrid1D(32, 1.0, boundary="dirichlet")
    rho = np.where(np.arange(32) < 16, 1.0, 0.125)
    p = np.where(np.arange(32) < 16, 1.0, 0.1)
    s = EulerState1D.from_primitive(g, rho, np.zeros(32), p, 1.4)
    f = euler1d_muscl_flux(s)
    boundary = co.estimate_boundary_entropy_flux(s)
    target = co.EntropyRateTarget(boundary, 2.0)
    out, _ = co.correct_entropy_euler1d(f, s, target)
    old = co.entropy_rate_euler1d(f, s)
    achieved = co.entropy_rate_euler1d(out, s)
    assert achieved == pytest.approx(boundary + 2.0 * (old - boundary),
                                     rel=1e-12)
    assert np.array_equal(out[0], f[0]) and np.array_equal(out[-1], f[-1])


def test_entropy_antidiffusive_warns():
    s = random_state(77, boundary="dirichlet")
    f = euler1d_muscl_flux(s)
    old = co.entropy_rate_euler1d(f, s)
    target = co.EntropyRateTarget(old - 1.0, 0.0)  # below the current rate
    with pytest.warns(co.AntiDiffusiveTargetWarning):
        co.correct_entropy_euler1d(f, s, target)


def test_refused_antidiffusive_target_does_not_warn():
    # a uniform Dirichlet state has entropy rate 0 and G = 0: the target -1
    # lies below the rate, but the call leaves no record, so no warning
    g = UniformGrid1D(8, 1.0, boundary="dirichlet")
    s = EulerState1D.from_primitive(g, np.ones(8), np.full(8, 0.3),
                                    np.ones(8), 1.4)
    f = euler1d_muscl_flux(s)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateCorrection):
            co.correct_entropy_euler1d(f, s, co.EntropyRateTarget(-1.0, 0.0))
    assert caught == []


@pytest.mark.filterwarnings("ignore::invariant_guard.correctors."
                            "AntiDiffusiveTargetWarning")
@pytest.mark.parametrize("ratio", [0.0, 2.0])
@pytest.mark.parametrize("n", [4, 8, 32, 128])
def test_corrected_periodic_flux_conserves(n, ratio):
    # on a periodic grid face 0 and face N are one face, so the corrected
    # fluxes must still telescope: sum_j rhs_j dx = F_0 - F_N = 0
    for seed in range(5):
        s = random_state(900 + seed, n=n)
        out, _ = co.correct_entropy_euler1d(euler1d_muscl_flux(s), s,
                                            co.EntropyRateTarget(0.0, ratio))
        total = (euler1d_rhs(out, s.grid) * s.grid.dx).sum(axis=0)
        assert (np.abs(total) <= 1e-13 * np.abs(out).max(axis=0)).all()


# --- boundary entropy flux estimate ----------------------------------------------------------

def test_boundary_flux_periodic_zero():
    assert co.estimate_boundary_entropy_flux(random_state(78)) == 0.0


def test_boundary_flux_zero_velocity():
    s = uniform_state(boundary="dirichlet")
    assert co.estimate_boundary_entropy_flux(s) == 0.0


def test_boundary_flux_minimum_selection():
    s = uniform_state(n=4, rho=1.0, v=1.0, p=1.0, boundary="dirichlet")
    # cell psi = rho*v*g(s) = 1 * 1 * 1 = 1; boundary state with slower
    # flow, as conserved (rho, rho*v, E) triples with p = 1
    bs = ((1.0, 0.25, 2.5 + 0.5 * 0.25**2), (1.0, 1.0, 3.0))
    est = co.estimate_boundary_entropy_flux(
        s, boundary_psi=co.entropy_flux_pair(bs, s.gamma))
    # left: min(0.25, 1.0) = 0.25, right: min(1.0, 1.0) = 1.0
    assert est == pytest.approx(0.25 - 1.0, rel=1e-14)


def test_boundary_flux_reads_end_cells_as_entropy_variables_do():
    for n in (2, 5, 64, 257):
        s = random_state(79 + n, n=n, boundary="dirichlet")
        psi = co.entropy_variables_euler1d(s).psi
        assert co.estimate_boundary_entropy_flux(s) == psi[0] - psi[-1]
    s.energy[-1] = 0.5 * s.mom[-1] ** 2 / s.rho[-1]     # p = 0 in the last cell
    with pytest.raises(PositivityViolation):
        co.estimate_boundary_entropy_flux(s)


def test_boundary_flux_takes_the_conserved_pair_the_fluxes_take():
    s = random_state(80, boundary="dirichlet")
    default = co.estimate_boundary_entropy_flux(s)
    psi = co.entropy_flux_pair((s.u[0], s.u[-1]), s.gamma)
    assert co.estimate_boundary_entropy_flux(s, boundary_psi=psi) == default


@pytest.mark.parametrize("side", [0, 1])
def test_boundary_flux_rejects_a_nonpositive_boundary_state(side):
    s = uniform_state(n=4, v=0.5, boundary="dirichlet")
    bs = [s.u[0], s.u[-1]]
    bs[side] = np.array([1.0, 1.0, 0.5])      # E = rho*v^2/2: p = 0
    with pytest.raises(PositivityViolation):
        co.entropy_flux_pair(tuple(bs), s.gamma)


# --- precomputed inputs are caches ------------------------------------------------------

def _bytes(*values):
    return b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in values)


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("n", [4, 16, 64])
def test_precomputed_inputs_change_no_byte(boundary, n):
    # each entry point gives the same bytes from the bare state as from the
    # pressure, ghost rows, entropy variables or pair psi a stage hands it
    s = random_state(300 + n, n=n, boundary=boundary)
    rng = np.random.default_rng(n)
    p, rows = s.pressure(), ghost_rows(s)
    f = euler1d_muscl_flux(s)
    assert _bytes(euler1d_muscl_flux(s, p=p, rows=rows)) == _bytes(f)

    noisy = f + 5.0 * rng.normal(size=f.shape)
    dt = _stable_dt(s)
    limited = co.limit_positivity_euler1d(noisy, s, dt)
    assert not np.array_equal(limited, noisy)
    assert _bytes(co.limit_positivity_euler1d(noisy, s, dt, rows=rows)) \
        == _bytes(limited)

    ev = co.entropy_variables_euler1d(s)
    ev_p = co.entropy_variables_euler1d(s, p)
    assert _bytes(ev.w, ev.eta, ev.p_star, ev.psi, ev.v, ev.p) \
        == _bytes(ev_p.w, ev_p.eta, ev_p.p_star, ev_p.psi, ev_p.v, ev_p.p)

    psi = co.entropy_flux_pair((s.u[0], s.u[-1]), s.gamma)
    boundary_flux = co.estimate_boundary_entropy_flux(s)
    assert _bytes(co.estimate_boundary_entropy_flux(s, ev=ev, boundary_psi=psi)) \
        == _bytes(boundary_flux)

    target = co.EntropyRateTarget(boundary_flux, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
        bare, bare_rec = co.correct_entropy_euler1d(f, s, target)
        cached, rec = co.correct_entropy_euler1d(f, s, target, ev)
    assert _bytes(cached, rec.old_rate, rec.target_rate, rec.achieved_rate) \
        == _bytes(bare, bare_rec.old_rate, bare_rec.target_rate,
                  bare_rec.achieved_rate)

    if boundary == "dirichlet":
        # a pair other than the end cells reaches the fluxes through rows
        pair = (1.1 * s.u[0], 0.9 * s.u[-1])
        assert not np.array_equal(
            euler1d_muscl_flux(s, rows=ghost_rows(s, pair)), f)


# --- the driver's evaluated state --------------------------------------------

@pytest.mark.parametrize("bad", ["rho", "p"])
def test_nonpositive_euler_state_fails_evaluation(bad):
    # every gas hook reads an evaluated state, so none is handed one with
    # rho <= 0 or p <= 0: evaluation refuses it, and warns of nothing
    g = UniformGrid1D(8, 2.0, boundary="dirichlet")
    rho = np.linspace(0.5, 1.2, 8)
    p = np.linspace(0.3, 1.0, 8)
    (rho if bad == "rho" else p)[3] = -0.25
    s = EulerState1D.from_primitive(g, rho, np.full(8, 0.4), p, 1.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityViolation):
            Euler1D(ic_sod(g)).evaluate(s.u.ravel())


NONPOSITIVE_TUBE = """
[problem]
equation = euler1d
boundary = dirichlet
ic = random_euler
ic_seed = 27

[plan]
cfl = 0.5
t_end = 0.6
snapshots = 5

[run]
resolutions = 32
output = tube

[variant.r0]
corrector = euler1d_entropy
entropy_ratio = 0.0
positivity = false
"""


def test_gas_step_that_ends_nonpositive_fails_at_that_step(tmp_path):
    # without the limiter, the step from t = 0.289081 ends with min p =
    # -1.21.  The run ends there with a PositivityViolation, not at the next
    # step with a "timestep underflow" after a NaN sound speed and numpy's
    # "invalid value encountered in sqrt"
    config = tmp_path / "tube.cfg"
    config.write_text(NONPOSITIVE_TUBE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cmd_run(config, tmp_path) == 2
    manifest = (tmp_path / "tube" / "manifest").read_text().splitlines()
    assert "status.n32.r0 = PositivityViolation@t=0.289081" in manifest
    assert [str(w.message) for w in caught
            if w.category is RuntimeWarning] == []


@pytest.mark.filterwarnings("ignore::invariant_guard.correctors."
                            "AntiDiffusiveTargetWarning")
@pytest.mark.parametrize("ratio", [0.0, 0.5])
def test_periodic_gas_stage_sets_the_cell_form_entropy_rate(ratio):
    # the corrected stage's entropy rate measured in cell form, sum_j w_j .
    # rhs_j dx, and not in the corrector's own face form, is R times the
    # uncorrected stage's: a wrong periodic wrap of the face jumps moves it
    ic = ic_random_euler(UniformGrid1D(32, 1.0), 3)
    plain, corrected = Euler1D(ic), Euler1D(ic, entropy_ratio=ratio)
    gas = plain.evaluate(plain.initial_array())
    dt = plain.stable_dt(gas, 0.3, 1.0)
    w = co.entropy_variables_euler1d(*gas).w
    old, new = (w * driver.rhs(gas, 0.0, dt).reshape(w.shape) * ic.grid.dx
                for driver in (plain, corrected))
    scale = np.abs(old).sum() + np.abs(new).sum()
    assert abs(new.sum() - ratio * old.sum()) <= 1e-13 * scale
