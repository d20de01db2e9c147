"""Randomized post-condition suite for the correctors.

Every property draws fresh random inputs per size from a seeded generator,
applies a corrector and re-measures what it promised; the ``Correction`` a
corrector reports is never read.  The linear correctors share one contract
(the rate lands on its target, an update that already meets it passes
through unchanged, and what must not move stays put), so each is one
``Case`` in ``CASES``, and one exactness and one no-op property run over
them.  The re-measurement is not independent: the flux and entropy rates
are the correctors' own face forms, which read periodic neighbours from
slices in 1D and from ``core.shift`` in 2D (ROADMAP: re-measure from the
cell form).
``run_property_suite`` returns one row per property;
``cmd_verify`` prints them, and any failure is a release blocker.  The
corrector table can be overridden to prove the suite detects faults.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import correctors as co
from .core import (DgField, EulerState1D, FvField1D, FvField2D, SpectralField,
                   UniformGrid1D, UniformGrid2D, VorticityState2D, bracket)
from .dg import dg_l2_rate
from .errors import DegenerateCorrection, InfeasibleTarget, InvariantGuardError
from .kernels import local_lax_friedrichs_fluxes
from .schemes import (BoundaryFluxes2D, euler1d_muscl_flux, fv_rhs_1d,
                      ghost_rows, poisson_solve)

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


def _parts(update):
    """The arrays of an update, one per rate: a 2D flux pair has two."""
    if isinstance(update, BoundaryFluxes2D):
        return update.fx, update.fy
    return (update,)


def _unchanged(out, original, bitwise):
    """Bitwise equality, or a relative 2-norm change of at most NOOP_RTOL."""
    if bitwise:
        return all(map(np.array_equal, _parts(out), _parts(original)))
    return np.linalg.norm(out - original) \
        <= NOOP_RTOL * max(np.linalg.norm(original), 1e-30)


def _random_grid_1d(rng, n):
    return UniformGrid1D(n, float(rng.uniform(0.5, 4.0)))


# --- the linear corrector contract -------------------------------------------

@dataclass(frozen=True)
class Case:
    """One linear corrector as ``verify`` draws and re-measures it.

    ``draw(rng, size)`` yields (state, update) pairs, and ``targets(rng,
    state)`` draws the targets the corrector ``fns[key]`` takes after them,
    one per rate.  ``rates(update, state)`` measures those rates;
    ``project(update, state)`` is the part of an update the corrector keeps,
    whose rates are the old ones.  ``conserved(update, out, state)`` asserts
    what the corrector must not move.  The no-op input is the kept part with
    each rising component negated, under ``noop_targets``; its output must be
    the same bits when ``bitwise``, else within NOOP_RTOL.  Each size runs
    trials // divisor (at least one) times; ``noop_sizes`` replaces
    ``sizes`` for the no-op row.  ``rates`` looks the package's functions up
    when called, so a wrapper installed on their module sees every call.
    """

    key: str
    exact_name: str
    noop_name: str | None
    sizes: tuple
    divisor: int
    draw: Callable
    targets: Callable
    rates: Callable
    project: Callable = lambda update, state: update
    conserved: Callable = lambda update, out, state: None
    bitwise: bool = True
    noop_targets: tuple = (co.L2RateTarget.clamp(),)
    noop_sizes: tuple | None = None

    def _draws(self, rng, sizes, trials):
        for size in sizes:
            for _ in range(max(1, trials // self.divisor)):
                yield from self.draw(rng, size)

    def check_exactness(self, rng, fns, trials):
        checks = 0
        # random targets below an entropy rate are anti-diffusive on purpose
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
            for state, update in self._draws(rng, self.sizes, trials):
                targets = self.targets(rng, state)
                out, _ = fns[self.key](update, state, *targets)
                olds = self.rates(self.project(update, state), state)
                for new, target, old in zip(self.rates(out, state), targets,
                                            olds):
                    _rate_close(new, target.resolve(old), old)
                self.conserved(update, out, state)
                checks += 1
        return checks

    def check_noop(self, rng, fns, trials):
        checks = 0
        for state, update in self._draws(rng, self.noop_sizes or self.sizes,
                                         trials):
            kept = self.project(update, state)
            for part, rate in zip(_parts(kept), self.rates(kept, state)):
                if rate > 0:  # the rates are linear: this one now falls
                    np.negative(part, out=part)
            out, _ = fns[self.key](kept, state, *self.noop_targets)
            assert _unchanged(out, kept, self.bitwise), "no-op moved the update"
            checks += 1
        return checks


def _fixed_below(high, count=1):
    """``count`` fixed targets, each -U(0, high)."""
    return lambda rng, state: tuple(
        co.L2RateTarget.fixed(-float(rng.uniform(0.0, high)))
        for _ in range(count))


def _draw_1d(rng, n):
    """A cell field and a random update: N cell values or periodic faces."""
    u = FvField1D(_random_grid_1d(rng, n), rng.normal(size=n))
    yield u, rng.normal(size=n)


def _boundary_faces(f, out, state):
    """A Dirichlet grid holds its boundary faces; on a periodic grid with
    N + 1 faces, face 0 is face N."""
    if not state.grid.periodic:
        assert np.array_equal(out[0], f[0]) and np.array_equal(out[-1], f[-1]), \
            "boundary faces moved"
    elif len(out) > state.grid.n_cells:
        assert np.array_equal(out[0], out[-1]), "face 0 is not face N"


def _telescoping(f, out, u):
    mass_rate = float(np.sum(fv_rhs_1d(out, u.grid) * u.grid.dx))
    assert abs(mass_rate) <= MASS_ATOL_SCALE * max(
        float(np.abs(out).max()), 1e-30) * u.grid.n_cells, "telescoping broken"


def _draw_flux2d(rng, n):
    u = FvField2D(UniformGrid2D(n, n, 2.0, 3.0), rng.normal(size=(n, n)))
    yield u, BoundaryFluxes2D(rng.normal(size=(n, n)), rng.normal(size=(n, n)))


def _mass_free(rhs, out, u):
    mass = float(np.sum(out * u.grid.dx))
    assert abs(mass) <= MASS_ATOL_SCALE * float(
        np.sum(np.abs(out) * u.grid.dx) + 1e-30), "mass moved"


def _draw_dg(rng, size):
    p, n = size
    a = DgField(_random_grid_1d(rng, n), rng.normal(size=(n, p + 1)))
    yield a, rng.normal(size=(n, p + 1))


def _dg_mass(rhs, out, a):
    dmass = float(np.sum((out[:, 0] - rhs[:, 0])))
    assert abs(dmass) <= MASS_ATOL_SCALE * (
        float(np.abs(out).max()) + 1e-30) * a.grid.n_cells, "mass moved"


def _draw_spectral(rng, n):
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    u = SpectralField(float(rng.uniform(0.5, 4.0)), c)
    yield u, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)


def _mode0_still(rhs, out, u):
    assert out[0] == 0.0, "mode-0 rate must vanish exactly"


def _draw_vorticity(rng, n):
    chi = FvField2D(UniformGrid2D(n, n, 2 * np.pi, 2 * np.pi),
                    rng.normal(size=(n, n)))
    yield VorticityState2D(chi, poisson_solve(chi)), rng.normal(size=(n, n))


def _vorticity_part(x, state):
    """``x`` demeaned and made orthogonal to the streamfunction: the part
    of a vorticity RHS the 2D Euler corrector keeps."""
    vol = state.chi.grid.cell_volume
    phi = state.psi_bar - np.mean(state.psi_bar)
    x = x - np.mean(x)
    return x - bracket(x, phi, vol) / bracket(phi, phi, vol) * phi


def _mass_and_energy(rhs, out, state):
    vol = state.chi.grid.cell_volume
    scale = float(np.sum(np.abs(out)) * vol) + 1e-30
    assert abs(np.sum(out) * vol) <= MASS_ATOL_SCALE * scale, "mass moved"
    psi_scale = float(np.abs(state.psi_bar).max() + 1.0)
    assert abs(bracket(state.psi_bar, out, vol)) \
        <= MASS_ATOL_SCALE * scale * psi_scale, "energy moved"


def _random_euler_state(rng, n, periodic=True):
    grid = UniformGrid1D(n, 1.0, boundary="periodic" if periodic else "dirichlet")
    rho = rng.uniform(0.5, 2.0, size=n)
    v = rng.uniform(-1.0, 1.0, size=n)
    p = rng.uniform(0.5, 2.0, size=n)
    return EulerState1D.from_primitive(grid, rho, v, p, 1.4)


def _draw_gas(rng, n):
    for periodic in (True, False):
        state = _random_euler_state(rng, n, periodic)
        f = rng.normal(size=(n + 1, 3))
        if periodic:
            f[-1] = f[0]
        yield state, f


def _entropy_target(rng, state):
    boundary = 0.0 if state.grid.periodic else float(rng.normal())
    return (co.EntropyRateTarget(boundary, float(rng.uniform(0.0, 3.0))),)


FLUX1D = Case(
    "correct_flux_l2_1d", "flux1d exactness", "flux1d clamp no-op (bitwise)",
    SIZES_1D, 1, _draw_1d, _fixed_below(3.0),
    lambda f, u: (co.flux_l2_rate_1d(f, u),))
FLUX1D_MASS = replace(
    FLUX1D, exact_name="flux1d mass telescoping", noop_name=None,
    targets=lambda rng, u: (co.L2RateTarget.fixed(-1.0),),
    conserved=_telescoping)
FLUX2D = Case(
    "correct_flux_l2_2d", "flux2d directional exactness",
    "flux2d clamp no-op (bitwise)", SIZES_2D, 4, _draw_flux2d,
    _fixed_below(2.0, count=2), lambda fl, u: co.flux_l2_rates_2d(fl, u),
    noop_targets=(co.L2RateTarget.clamp(),) * 2)
RHS = Case(
    "correct_rhs_mass_l2", "rhs mass + rate identities", "rhs clamp no-op",
    SIZES_1D, 1, _draw_1d, _fixed_below(2.0),
    lambda rhs, u: (bracket(u.values, rhs, u.grid.dx),),
    project=lambda rhs, u: rhs - co.volume_mean(rhs, u.grid.dx),
    conserved=_mass_free, bitwise=False)
DG = Case(
    "correct_dg_l2", "dg rate + mass identities", "dg clamp no-op (bitwise)",
    tuple((p, n) for p in DG_DEGREES for n in (8, 32)), 2, _draw_dg,
    _fixed_below(2.0), lambda rhs, a: (dg_l2_rate(a, rhs),),
    conserved=_dg_mass)
SPECTRAL = Case(
    "correct_spectral_mass_l2", "spectral mode0 + rate identities",
    "spectral clamp no-op", SIZES_SPECTRAL, 1, _draw_spectral,
    _fixed_below(2.0), lambda rhs, u: (co.spectral_l2_rate(u, rhs),),
    project=lambda rhs, u: np.concatenate(([0.0], rhs[1:])),
    conserved=_mode0_still, bitwise=False)
EULER2D = Case(
    "correct_euler2d_mass_energy_l2",
    "euler2d mass/energy/enstrophy identities", "euler2d no-op", SIZES_2D, 4,
    _draw_vorticity, _fixed_below(2.0),
    lambda rhs, state: (bracket(_vorticity_part(state.chi.values, state), rhs,
                                state.chi.grid.cell_volume),),
    project=_vorticity_part, conserved=_mass_and_energy, bitwise=False,
    noop_sizes=(8, 16))
ENTROPY = Case(
    "correct_entropy_euler1d", "euler1d entropy rate exactness",
    "euler1d entropy R=1 no-op (bitwise)", SIZES_1D, 2, _draw_gas,
    _entropy_target, lambda f, state: (co.entropy_rate_euler1d(f, state),),
    conserved=_boundary_faces, noop_targets=(co.EntropyRateTarget(0.0, 1.0),))

#: the linear correctors' cases, in PROPERTIES order
CASES = (FLUX1D, FLUX1D_MASS, FLUX2D, RHS, DG, SPECTRAL,
         EULER2D, ENTROPY)


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
            assert abs(mean) <= MASS_ATOL_SCALE * float(
                np.sum(np.abs(out) * dx) + 1e-30)
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
            assert _unchanged(out, inc, bitwise=False), \
                "increment fixed point: no-op violated"
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


# --- properties of their own ---------------------------------------------------

def check_euler2d_projection_invariance(rng, fns, trials):
    checks = 0
    for n in (8, 16):
        for _ in range(max(1, trials // 4)):
            state, rhs = next(_draw_vorticity(rng, n))
            phi = state.psi_bar - np.mean(state.psi_bar)
            shifted = rhs + rng.normal() * phi + rng.normal()
            target = co.L2RateTarget.fixed(-1.0)
            a, _ = fns["correct_euler2d_mass_energy_l2"](rhs, state, target)
            b, _ = fns["correct_euler2d_mass_energy_l2"](shifted, state, target)
            assert np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(a), 1e-30)
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
    (FLUX1D.exact_name, FLUX1D.check_exactness),
    (FLUX1D.noop_name, FLUX1D.check_noop),
    (FLUX1D_MASS.exact_name, FLUX1D_MASS.check_exactness),
    (FLUX2D.exact_name, FLUX2D.check_exactness),
    (FLUX2D.noop_name, FLUX2D.check_noop),
    (RHS.exact_name, RHS.check_exactness),
    (RHS.noop_name, RHS.check_noop),
    ("increment l2 + mass identities", check_increment_identities),
    ("increment fixed point no-op", check_increment_noop),
    ("increment infeasible target", check_increment_infeasible),
    ("increment root vs quadratic oracle", check_increment_root_oracle),
    (DG.exact_name, DG.check_exactness),
    (DG.noop_name, DG.check_noop),
    ("dg diffusion dissipativity", check_dg_diffusion_dissipativity),
    (SPECTRAL.exact_name, SPECTRAL.check_exactness),
    (SPECTRAL.noop_name, SPECTRAL.check_noop),
    (EULER2D.exact_name, EULER2D.check_exactness),
    ("euler2d projection invariance", check_euler2d_projection_invariance),
    (EULER2D.noop_name, EULER2D.check_noop),
    (ENTROPY.exact_name, ENTROPY.check_exactness),
    (ENTROPY.noop_name, ENTROPY.check_noop),
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
        # stream 3 was the retired bounded-domain flux row's: the rows after
        # it keep their streams, so each seed draws what it drew
        rng = np.random.default_rng([seed, index + (index >= 3)])
        try:
            checks = fn(rng, fns, trials)
            results.append(PropertyResult(name, True, checks))
        except (AssertionError, InvariantGuardError) as err:
            results.append(PropertyResult(name, False, 0, str(err)))
    return results
