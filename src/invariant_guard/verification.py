"""Randomized post-condition suite for the correctors.

Every property draws fresh random inputs per size from a seeded generator,
applies a corrector, and re-measures the targeted bracket identities with
independent bracket evaluations; the ``Correction`` a corrector reports is
never read, so a corrector cannot vouch for itself.  For the same reason
the suite takes periodic neighbours with ``np.roll``, not ``core.shift``:
a re-measurement must not share the primitive it checks.  ``run_property_suite``
returns one result row per property; ``cmd_verify`` prints them and any
failure is a release blocker.  The corrector function table can be
overridden to prove the suite detects injected faults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import correctors as co
from .core import (DgField, EulerState1D, FvField1D, FvField2D, SpectralField,
                   UniformGrid1D, UniformGrid2D, VorticityState2D, bracket)
from .dg import dg_l2_rate
from .errors import DegenerateCorrection, InfeasibleTarget, InvariantGuardError
from .kernels import local_lax_friedrichs_fluxes
from .schemes import (BoundaryFluxes2D, euler1d_muscl_flux, ghost_rows,
                      poisson_solve)

SIZES_1D = (4, 8, 32, 128)
SIZES_2D = (4, 8, 16, 32)
DG_DEGREES = (1, 2)
SIZES_SPECTRAL = (4, 16)

RATE_RTOL = 1e-12
MASS_ATOL_SCALE = 1e-13
NOOP_RTOL = 1e-14


@dataclass
class PropertyResult:
    name: str
    passed: bool
    checks: int
    detail: str = ""


def default_correctors():
    return {
        "correct_flux_l2_1d": co.correct_flux_l2_1d,
        "correct_flux_l2_2d": co.correct_flux_l2_2d,
        "correct_rhs_mass_l2": co.correct_rhs_mass_l2,
        "correct_increment_mass_l2": co.correct_increment_mass_l2,
        "correct_dg_l2": co.correct_dg_l2,
        "correct_spectral_mass_l2": co.correct_spectral_mass_l2,
        "correct_euler2d_mass_energy_l2": co.correct_euler2d_mass_energy_l2,
        "correct_entropy_euler1d": co.correct_entropy_euler1d,
        "limit_positivity_euler1d": co.limit_positivity_euler1d,
        "entropy_variables_euler1d": co.entropy_variables_euler1d,
    }


def _rate_close(achieved, target, scale=1.0):
    tol = RATE_RTOL * max(abs(target), abs(scale), 1e-30)
    assert abs(achieved - target) <= tol, \
        f"rate {achieved!r} != target {target!r} (tol {tol:.3e})"


def _assert_noop(out, original, label):
    num = np.linalg.norm(np.asarray(out) - np.asarray(original))
    den = max(np.linalg.norm(np.asarray(original)), 1e-30)
    assert num <= NOOP_RTOL * den, f"{label}: no-op violated ({num / den:.3e})"


def _random_grid_1d(rng, n):
    return UniformGrid1D(n, float(rng.uniform(0.5, 4.0)))


# --- scalar flux corrector -------------------------------------------------

def check_flux1d_exactness(rng, fns, trials):
    checks = 0
    for n in SIZES_1D:
        for _ in range(trials):
            grid = _random_grid_1d(rng, n)
            u = FvField1D(grid, rng.normal(size=n))
            f = rng.normal(size=n)
            target = co.L2RateTarget.fixed(-float(rng.uniform(0.0, 3.0)))
            try:
                out, _ = fns["correct_flux_l2_1d"](f, u, target)
            except DegenerateCorrection:
                continue
            old = co.flux_l2_rate_1d(f, u)
            _rate_close(co.flux_l2_rate_1d(out, u), target.resolve(old), old)
            checks += 1
    return checks


def check_flux1d_noop(rng, fns, trials):
    checks = 0
    for n in SIZES_1D:
        for _ in range(trials):
            grid = _random_grid_1d(rng, n)
            u = FvField1D(grid, rng.normal(size=n))
            du = np.roll(u.values, -1) - u.values
            f = rng.normal(size=n)
            if float(f @ du) > 0:
                f = -f  # the rate is linear in f, so this forces it negative
            out, _ = fns["correct_flux_l2_1d"](f, u, co.L2RateTarget.clamp())
            assert np.array_equal(out, f), "clamp with old rate <= 0 must be bitwise"
            checks += 1
    return checks


def check_flux1d_mass(rng, fns, trials):
    from .schemes import fv_rhs_1d
    checks = 0
    for n in SIZES_1D:
        for _ in range(trials):
            grid = _random_grid_1d(rng, n)
            u = FvField1D(grid, rng.normal(size=n))
            f = rng.normal(size=n)
            try:
                out, _ = fns["correct_flux_l2_1d"](f, u,
                                                   co.L2RateTarget.fixed(-1.0))
            except DegenerateCorrection:
                continue
            rhs = fv_rhs_1d(out, grid)
            mass_rate = float(np.sum(rhs * grid.dx))
            assert abs(mass_rate) <= MASS_ATOL_SCALE * max(
                float(np.abs(out).max()), 1e-30) * n, "telescoping broken"
            checks += 1
    return checks


# --- 2D flux corrector -----------------------------------------------------

def check_flux2d_exactness(rng, fns, trials):
    checks = 0
    for n in SIZES_2D:
        for _ in range(max(1, trials // 4)):
            grid = UniformGrid2D(n, n, 2.0, 3.0)
            u = FvField2D(grid, rng.normal(size=(n, n)))
            fl = BoundaryFluxes2D(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
            tx = co.L2RateTarget.fixed(-float(rng.uniform(0, 2)))
            ty = co.L2RateTarget.fixed(-float(rng.uniform(0, 2)))
            try:
                out, _ = fns["correct_flux_l2_2d"](fl, u, tx, ty)
            except DegenerateCorrection:
                continue
            ox, oy = co.flux_l2_rates_2d(fl, u)
            nx, ny = co.flux_l2_rates_2d(out, u)
            _rate_close(nx, tx.resolve(ox), ox)
            _rate_close(ny, ty.resolve(oy), oy)
            checks += 1
    return checks


def check_flux2d_noop(rng, fns, trials):
    checks = 0
    for n in SIZES_2D:
        for _ in range(max(1, trials // 4)):
            grid = UniformGrid2D(n, n, 1.0, 1.0)
            u = FvField2D(grid, rng.normal(size=(n, n)))
            dux = np.roll(u.values, -1, 0) - u.values
            duy = np.roll(u.values, -1, 1) - u.values
            fx, fy = rng.normal(size=(n, n)), rng.normal(size=(n, n))
            if grid.dy * float(np.sum(fx * dux)) > 0:
                fx = -fx
            if grid.dx * float(np.sum(fy * duy)) > 0:
                fy = -fy
            fl = BoundaryFluxes2D(fx, fy)
            out, _ = fns["correct_flux_l2_2d"](fl, u, co.L2RateTarget.clamp(),
                                            co.L2RateTarget.clamp())
            assert np.array_equal(out.fx, fx) and np.array_equal(out.fy, fy)
            checks += 1
    return checks


# --- RHS corrector ----------------------------------------------------------

def check_rhs_identities(rng, fns, trials):
    checks = 0
    for n in SIZES_1D:
        for _ in range(trials):
            grid = _random_grid_1d(rng, n)
            u = FvField1D(grid, rng.normal(size=n))
            rhs = rng.normal(size=n)
            target = co.L2RateTarget.fixed(-float(rng.uniform(0, 2)))
            try:
                out, _ = fns["correct_rhs_mass_l2"](rhs, u, target)
            except DegenerateCorrection:
                continue
            dx = grid.dx
            mass = float(np.sum(out * dx))
            assert abs(mass) <= MASS_ATOL_SCALE * float(np.sum(np.abs(out) * dx) + 1e-30)
            big_u = u.values - co.volume_mean(u.values, dx)
            m = rhs - co.volume_mean(rhs, dx)
            old = bracket(big_u, m, dx)
            _rate_close(bracket(u.values, out, dx), target.resolve(old), old)
            checks += 1
    return checks


def check_rhs_noop(rng, fns, trials):
    checks = 0
    for n in SIZES_1D:
        for _ in range(trials):
            grid = _random_grid_1d(rng, n)
            u = FvField1D(grid, rng.normal(size=n))
            dx = grid.dx
            rhs = rng.normal(size=n)
            rhs -= co.volume_mean(rhs, dx)          # mean-free input
            if bracket(u.values, rhs, dx) > 0:
                rhs = -rhs
            out, _ = fns["correct_rhs_mass_l2"](rhs, u,
                                                co.L2RateTarget.clamp())
            _assert_noop(out, rhs, "rhs clamp")
            checks += 1
    return checks


# --- discrete increment ------------------------------------------------------

def check_increment_identities(rng, fns, trials):
    checks = 0
    for n in SIZES_1D:
        for _ in range(trials):
            grid = _random_grid_1d(rng, n)
            u = FvField1D(grid, rng.normal(size=n))
            inc = 0.1 * rng.normal(size=n)
            dx = grid.dx
            delta = -float(rng.uniform(0.0, 0.05))
            try:
                out, _ = fns["correct_increment_mass_l2"](inc, u, delta)
            except (InfeasibleTarget, DegenerateCorrection):
                continue
            l2_old = 0.5 * bracket(u.values, u.values, dx)
            unew = u.values + out
            l2_new = 0.5 * bracket(unew, unew, dx)
            _rate_close(l2_new - l2_old, delta, l2_old)
            mean = float(np.sum(out * dx))
            assert abs(mean) <= MASS_ATOL_SCALE * float(np.sum(np.abs(out) * dx) + 1e-30)
            checks += 1
    return checks


def check_increment_noop(rng, fns, trials):
    checks = 0
    for n in SIZES_1D:
        for _ in range(trials):
            grid = _random_grid_1d(rng, n)
            u = FvField1D(grid, rng.normal(size=n))
            dx = grid.dx
            inc = 0.1 * rng.normal(size=n)
            inc -= co.volume_mean(inc, dx)
            exact = bracket(u.values, inc, dx) + 0.5 * bracket(inc, inc, dx)
            out, _ = fns["correct_increment_mass_l2"](inc, u, exact)
            _assert_noop(out, inc, "increment fixed point")
            checks += 1
    return checks


def check_increment_infeasible(rng, fns, trials):
    checks = 0
    for n in SIZES_1D:
        for _ in range(max(1, trials // 10)):
            grid = _random_grid_1d(rng, n)
            u = FvField1D(grid, rng.normal(size=n))
            inc = 0.1 * rng.normal(size=n)
            try:
                fns["correct_increment_mass_l2"](inc, u, -1e6)
            except InfeasibleTarget as err:
                # the reported minimum must itself be achievable
                out, _ = fns["correct_increment_mass_l2"](inc, u,
                                                       err.min_delta_l2 + 1e-9)
                assert np.all(np.isfinite(out))
                checks += 1
                continue
            raise AssertionError("absurd delta_l2 target must be infeasible")
    return checks


# --- DG corrector -------------------------------------------------------------

def check_dg_identities(rng, fns, trials):
    checks = 0
    for p in DG_DEGREES:
        for n in (8, 32):
            for _ in range(max(1, trials // 2)):
                grid = UniformGrid1D(n, float(rng.uniform(0.5, 4.0)))
                a = DgField(grid, rng.normal(size=(n, p + 1)))
                rhs = rng.normal(size=(n, p + 1))
                target = co.L2RateTarget.fixed(-float(rng.uniform(0, 2)))
                out, _ = fns["correct_dg_l2"](rhs, a, target)
                old = dg_l2_rate(a, rhs)
                _rate_close(dg_l2_rate(a, out), target.resolve(old), old)
                dmass = float(np.sum((out[:, 0] - rhs[:, 0])))
                assert abs(dmass) <= MASS_ATOL_SCALE * (
                    float(np.abs(out).max()) + 1e-30) * n
                checks += 1
    return checks


def check_dg_noop(rng, fns, trials):
    checks = 0
    for p in DG_DEGREES:
        for _ in range(trials):
            grid = UniformGrid1D(8, 1.0)
            a = DgField(grid, rng.normal(size=(8, p + 1)))
            rhs = rng.normal(size=(8, p + 1))
            if dg_l2_rate(a, rhs) > 0:
                rhs = -rhs
            out, _ = fns["correct_dg_l2"](rhs, a, co.L2RateTarget.clamp())
            assert np.array_equal(out, rhs), "DG clamp no-op must be bitwise"
            checks += 1
    return checks


# --- spectral corrector -------------------------------------------------------

def _random_spectral(rng, n):
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return SpectralField(float(rng.uniform(0.5, 4.0)), c)


def check_spectral_identities(rng, fns, trials):
    checks = 0
    for n in SIZES_SPECTRAL:
        for _ in range(trials):
            u = _random_spectral(rng, n)
            rhs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            target = co.L2RateTarget.fixed(-float(rng.uniform(0, 2)))
            try:
                out, _ = fns["correct_spectral_mass_l2"](rhs, u, target)
            except DegenerateCorrection:
                continue
            assert out[0] == 0.0, "mode-0 rate must vanish exactly"
            zeroed = rhs.copy()
            zeroed[0] = 0.0
            old = co.spectral_l2_rate(u, zeroed)
            _rate_close(co.spectral_l2_rate(u, out), target.resolve(old), old)
            checks += 1
    return checks


def check_spectral_noop(rng, fns, trials):
    checks = 0
    for n in SIZES_SPECTRAL:
        for _ in range(trials):
            u = _random_spectral(rng, n)
            rhs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            rhs[0] = 0.0
            if co.spectral_l2_rate(u, rhs) > 0:
                rhs = -rhs
            out, _ = fns["correct_spectral_mass_l2"](rhs, u,
                                                     co.L2RateTarget.clamp())
            _assert_noop(out.view(np.float64), rhs.view(np.float64),
                         "spectral clamp")
            checks += 1
    return checks


# --- 2D Euler corrector --------------------------------------------------------

def _random_vorticity_state(rng, n):
    grid = UniformGrid2D(n, n, 2 * np.pi, 2 * np.pi)
    chi = FvField2D(grid, rng.normal(size=(n, n)))
    return VorticityState2D(chi, poisson_solve(chi))


def check_euler2d_identities(rng, fns, trials):
    checks = 0
    for n in SIZES_2D:
        for _ in range(max(1, trials // 4)):
            state = _random_vorticity_state(rng, n)
            rhs = rng.normal(size=(n, n))
            target = co.L2RateTarget.fixed(-float(rng.uniform(0, 2)))
            out, _ = fns["correct_euler2d_mass_energy_l2"](rhs, state, target)
            vol = state.chi.grid.cell_volume
            scale = float(np.sum(np.abs(out)) * vol) + 1e-30
            assert abs(np.sum(out) * vol) <= MASS_ATOL_SCALE * scale
            psi_scale = float(np.abs(state.psi_bar).max() + 1.0)
            assert abs(bracket(state.psi_bar, out, vol)) \
                <= MASS_ATOL_SCALE * scale * psi_scale
            phi = state.psi_bar - np.mean(state.psi_bar)
            u_c = state.chi.values - np.mean(state.chi.values)
            w = u_c - bracket(u_c, phi, vol) / bracket(phi, phi, vol) * phi
            m = rhs - np.mean(rhs)
            old = bracket(w, m, vol)
            _rate_close(bracket(w, out, vol), target.resolve(old), old)
            checks += 1
    return checks


def check_euler2d_projection_invariance(rng, fns, trials):
    checks = 0
    for n in (8, 16):
        for _ in range(max(1, trials // 4)):
            state = _random_vorticity_state(rng, n)
            rhs = rng.normal(size=(n, n))
            phi = state.psi_bar - np.mean(state.psi_bar)
            shifted = rhs + rng.normal() * phi + rng.normal()
            target = co.L2RateTarget.fixed(-1.0)
            a, _ = fns["correct_euler2d_mass_energy_l2"](rhs, state, target)
            b, _ = fns["correct_euler2d_mass_energy_l2"](shifted, state, target)
            assert np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(a), 1e-30)
            checks += 1
    return checks


def check_euler2d_noop(rng, fns, trials):
    checks = 0
    for n in (8, 16):
        for _ in range(max(1, trials // 4)):
            state = _random_vorticity_state(rng, n)
            vol = state.chi.grid.cell_volume
            rhs = rng.normal(size=(n, n))
            rhs -= np.mean(rhs)
            phi = state.psi_bar - np.mean(state.psi_bar)
            rhs -= bracket(rhs, phi, vol) / bracket(phi, phi, vol) * phi
            u_c = state.chi.values - np.mean(state.chi.values)
            w = u_c - bracket(u_c, phi, vol) / bracket(phi, phi, vol) * phi
            if bracket(w, rhs, vol) > 0:
                rhs = -rhs
            out, _ = fns["correct_euler2d_mass_energy_l2"](rhs, state,
                                                        co.L2RateTarget.clamp())
            _assert_noop(out, rhs, "euler2d no-op")
            checks += 1
    return checks


# --- 1D Euler entropy / positivity ---------------------------------------------

def _random_euler_state(rng, n, periodic=True):
    grid = UniformGrid1D(n, 1.0, boundary="periodic" if periodic else "dirichlet")
    rho = rng.uniform(0.5, 2.0, size=n)
    v = rng.uniform(-1.0, 1.0, size=n)
    p = rng.uniform(0.5, 2.0, size=n)
    return EulerState1D.from_primitive(grid, rho, v, p, 1.4)


def check_entropy_correction(rng, fns, trials):
    checks = 0
    for n in SIZES_1D:
        for _ in range(max(1, trials // 2)):
            for periodic in (True, False):
                state = _random_euler_state(rng, n, periodic)
                f = rng.normal(size=(n + 1, 3))
                if periodic:
                    f[-1] = f[0]
                boundary = 0.0 if periodic else float(rng.normal())
                ratio = float(rng.uniform(0.0, 3.0))
                target = co.EntropyRateTarget(boundary, ratio)
                import warnings
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        out, _ = fns["correct_entropy_euler1d"](f, state, target)
                    except DegenerateCorrection:
                        continue
                old = co.entropy_rate_euler1d(f, state)
                _rate_close(co.entropy_rate_euler1d(out, state),
                            target.resolve(old), old)
                if not periodic:
                    assert np.array_equal(out[0], f[0])
                    assert np.array_equal(out[-1], f[-1])
                checks += 1
    return checks


def check_entropy_ratio_one_noop(rng, fns, trials):
    checks = 0
    for n in SIZES_1D:
        for _ in range(trials):
            state = _random_euler_state(rng, n, periodic=False)
            f = rng.normal(size=(n + 1, 3))
            out, _ = fns["correct_entropy_euler1d"](
                f, state, co.EntropyRateTarget(0.0, 1.0))
            assert np.array_equal(out, f), "R = 1 must be bitwise identity"
            checks += 1
    return checks


def _cfl_dt(state, cfl):
    return cfl * state.grid.dx / float(
        (np.abs(state.velocity()) + state.sound_speed()).max())


def _assert_limited_step_positive(fns, f, state, dt):
    """A forward-Euler step with the limited fluxes keeps rho, p >= eps."""
    limited = fns["limit_positivity_euler1d"](f, state, dt)
    unew = state.u - dt / state.grid.dx * (limited[1:] - limited[:-1])
    new_state = EulerState1D(state.grid, unew, state.gamma)
    eps = 1e-12 * max(float(state.rho.max()), float(state.pressure().max()))
    assert new_state.rho.min() >= eps and new_state.pressure().min() >= eps


def check_positivity_limiter(rng, fns, trials):
    checks = 0
    for n in (8, 32):
        for _ in range(max(1, trials // 10)):
            state = _random_euler_state(rng, n, periodic=True)
            dt = _cfl_dt(state, 0.2)
            f_good = euler1d_muscl_flux(state)
            out = fns["limit_positivity_euler1d"](f_good, state, dt)
            assert np.array_equal(out, f_good), "safe fluxes must pass through"
            # a violently wrong flux must still produce a positive step
            f_bad = f_good + 50.0 * rng.normal(size=f_good.shape)
            f_bad[-1] = f_bad[0]
            _assert_limited_step_positive(fns, f_bad, state, dt)
            checks += 1
    return checks


def check_flux1d_bounded(rng, fns, trials):
    """Dirichlet grids: boundary fluxes held fixed, rate includes them."""
    checks = 0
    for n in SIZES_1D:
        for _ in range(max(1, trials // 2)):
            grid = UniformGrid1D(n, float(rng.uniform(0.5, 4.0)),
                                 boundary="dirichlet")
            u = FvField1D(grid, rng.normal(size=n))
            f = rng.normal(size=n + 1)
            target = co.L2RateTarget.fixed(-float(rng.uniform(0, 2)))
            try:
                out, _ = fns["correct_flux_l2_1d"](f, u, target)
            except DegenerateCorrection:
                continue
            assert out[0] == f[0] and out[-1] == f[-1], "boundary fluxes moved"
            old = co.flux_l2_rate_1d(f, u)
            _rate_close(co.flux_l2_rate_1d(out, u), target.resolve(old), old)
            checks += 1
    return checks


def check_increment_root_oracle(rng, fns, trials):
    """eps reproduces the root of the quadratic closest to zero (numpy.roots)."""
    checks = 0
    for n in (8, 32):
        for _ in range(max(1, trials // 4)):
            grid = _random_grid_1d(rng, n)
            u = FvField1D(grid, rng.normal(size=n))
            inc = 0.1 * rng.normal(size=n)
            delta = -float(rng.uniform(0.0, 0.05))
            g = co._default_cell_G(u, grid.dx)
            a, b, c = co.increment_quadratic_coefficients(inc, u, delta)
            if b * b - a * c < 0:
                continue
            roots = np.roots([a, 2.0 * b, c])
            eps_oracle = roots[np.argmin(np.abs(roots))].real
            out, _ = fns["correct_increment_mass_l2"](inc, u, delta)
            bar = inc - co.volume_mean(inc, grid.dx)
            eps = float((out - bar) @ g) / float(g @ g)
            assert abs(eps - eps_oracle) <= 1e-9 * max(abs(eps_oracle), 1e-12), \
                f"eps {eps} vs oracle {eps_oracle}"
            checks += 1
    return checks


def check_dg_diffusion_dissipativity(rng, fns, trials):
    """The DG corrector's diffusion engine: strictly dissipative, mass-free."""
    from .dg import dg_diffusion_rhs
    checks = 0
    for p in (0, 1, 2):
        for _ in range(max(1, trials // 2)):
            grid = UniformGrid1D(8, float(rng.uniform(0.5, 4.0)))
            a = DgField(grid, rng.normal(size=(8, p + 1)))
            nd = dg_diffusion_rhs(a)
            assert dg_l2_rate(a, nd) < 0.0, "diffusion must dissipate"
            assert abs(np.sum(nd[:, 0])) <= 1e-12 * np.abs(nd).max() * 8
            const = np.zeros((8, p + 1))
            const[:, 0] = a.coeffs[0, 0]    # a random level: 1 is too easy
            assert np.all(dg_diffusion_rhs(DgField(grid, const)) == 0.0), \
                "a constant field must give exactly zero diffusion"
            checks += 1
    return checks


def check_positivity_theta_monotone(rng, fns, trials):
    """If theta keeps the half-states positive, every smaller theta does too."""
    checks = 0
    for _ in range(max(1, trials // 10)):
        state = _random_euler_state(rng, 16, periodic=True)
        dt = _cfl_dt(state, 0.2)
        f = euler1d_muscl_flux(state) + 20.0 * rng.normal(size=(17, 3))
        f[-1] = f[0]
        limited = fns["limit_positivity_euler1d"](f, state, dt)
        # the limiter's theta = 0 flux
        f_lf = local_lax_friedrichs_fluxes(ghost_rows(state)[:, 1:-1],
                                           state.gamma).T
        # recover the per-face theta, then check a smaller blend still works
        denom = f - f_lf
        theta = np.zeros(17)
        for k in range(17):
            j = np.argmax(np.abs(denom[k]))
            theta[k] = (limited[k, j] - f_lf[k, j]) / denom[k, j] \
                if abs(denom[k, j]) > 1e-30 else 1.0
        for frac in (0.5, 0.25):
            blend = (frac * theta)[:, None] * f + (1 - frac * theta)[:, None] * f_lf
            u = state.u
            unew = u - dt / state.grid.dx * (blend[1:] - blend[:-1])
            st = EulerState1D(state.grid, unew, state.gamma)
            assert st.rho.min() > 0 and st.pressure().min() > 0
        checks += 1
    return checks


def check_positivity_theta_zero_feasible(rng, fns, trials):
    """theta = 0 stays feasible near vacuum while dt/dx * max(|v| + c) <= 1/2."""
    for k in range(trials):
        grid = UniformGrid1D(16, 1.0, ("periodic", "dirichlet")[k % 2])
        rho, p = 10.0 ** rng.uniform(-6.0, 0.0, size=(2, 16))
        state = EulerState1D.from_primitive(
            grid, rho, rng.uniform(-3.0, 3.0, size=16), p, 1.4)
        dt = _cfl_dt(state, rng.uniform(0.1, 0.5))
        f = euler1d_muscl_flux(state) + 50.0 * rng.normal(size=(17, 3))
        if grid.periodic:
            f[-1] = f[0]
        _assert_limited_step_positive(fns, f, state, dt)
    return trials


def check_entropy_variable_gradient(rng, fns, trials):
    checks = 0
    for _ in range(max(trials // 2, 100)):
        state = _random_euler_state(rng, 4, periodic=True)
        ev = fns["entropy_variables_euler1d"](state)
        u = state.u
        h = 1e-7
        for comp in range(3):
            up, um = u.copy(), u.copy()
            up[:, comp] += h
            um[:, comp] -= h
            eta_p = fns["entropy_variables_euler1d"](
                EulerState1D(state.grid, up, state.gamma)).eta
            eta_m = fns["entropy_variables_euler1d"](
                EulerState1D(state.grid, um, state.gamma)).eta
            fd = (eta_p - eta_m) / (2.0 * h)
            rel = np.abs(fd - ev.w[:, comp]) / np.abs(ev.w).max()
            assert rel.max() < 1e-6, f"gradient check failed: {rel.max():.2e}"
        checks += 1
    return checks


PROPERTIES = [
    ("flux1d exactness", check_flux1d_exactness),
    ("flux1d clamp no-op (bitwise)", check_flux1d_noop),
    ("flux1d mass telescoping", check_flux1d_mass),
    ("flux1d bounded-domain correction", check_flux1d_bounded),
    ("flux2d directional exactness", check_flux2d_exactness),
    ("flux2d clamp no-op (bitwise)", check_flux2d_noop),
    ("rhs mass + rate identities", check_rhs_identities),
    ("rhs clamp no-op", check_rhs_noop),
    ("increment l2 + mass identities", check_increment_identities),
    ("increment fixed point no-op", check_increment_noop),
    ("increment infeasible target", check_increment_infeasible),
    ("increment root vs quadratic oracle", check_increment_root_oracle),
    ("dg rate + mass identities", check_dg_identities),
    ("dg clamp no-op (bitwise)", check_dg_noop),
    ("dg diffusion dissipativity", check_dg_diffusion_dissipativity),
    ("spectral mode0 + rate identities", check_spectral_identities),
    ("spectral clamp no-op", check_spectral_noop),
    ("euler2d mass/energy/enstrophy identities", check_euler2d_identities),
    ("euler2d projection invariance", check_euler2d_projection_invariance),
    ("euler2d no-op", check_euler2d_noop),
    ("euler1d entropy rate exactness", check_entropy_correction),
    ("euler1d entropy R=1 no-op (bitwise)", check_entropy_ratio_one_noop),
    ("euler1d positivity limiter", check_positivity_limiter),
    ("euler1d positivity theta monotone", check_positivity_theta_monotone),
    ("euler1d entropy variable gradient", check_entropy_variable_gradient),
    ("euler1d positivity theta = 0 feasible", check_positivity_theta_zero_feasible),
]


def run_property_suite(seed=0, trials=200, fns=None):
    """Run every property; returns a list of PropertyResult.  A failed
    assertion or a package error the property does not expect fails it."""
    fns = dict(default_correctors(), **(fns or {}))
    results = []
    for index, (name, fn) in enumerate(PROPERTIES):
        rng = np.random.default_rng([seed, index])
        try:
            checks = fn(rng, fns, trials)
            results.append(PropertyResult(name, True, checks))
        except (AssertionError, InvariantGuardError) as err:
            results.append(PropertyResult(name, False, 0, str(err)))
    return results
