"""Problem drivers: the per-stage pipelines that connect spatial schemes,
corrector chains, and the time loop for each replication problem.

A driver owns its grid, initial data, and corrector configuration.  The
``rhs``/``increment`` hooks receive every Runge-Kutta stage, apply the
corrector chain there, and append a ``StageRecord`` per correction so runs
can be audited after the fact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import correctors as co
from . import schemes
from .core import (DgField, EulerState1D, FvField1D, FvField2D, SpectralField,
                   UniformGrid1D, UniformGrid2D, VorticityState2D,
                   bracket)
from .diagnostics import invariant_report, InvariantReport
from .dg import dg_coefficient_rate, dg_rhs, face_traces
from .errors import InfeasibleTarget, PositivityViolation
from .timeloop import cfl_dt, cfl_dt_2d


@dataclass
class StageRecord:
    t: float
    kind: str
    old_rate: float
    target_rate: float
    achieved_rate: float
    extra: dict = None


def resolve_l2_target(spec, t):
    """A target spec is either a static L2RateTarget or a TrackedRateSource."""
    if isinstance(spec, co.TrackedRateSource):
        return spec.target_at(t)
    return spec


class InfeasibleTargetWarning(RuntimeWarning):
    """The requested per-step l2 change sits below the quadratic's minimum;
    the run continues at the best achievable dissipation."""


def _apply_step_increment_correction(driver, field, y_old, y_new, t, dt, spec):
    """Correct the full-step increment so the discrete l2 change is exact.

    ``spec`` is "clamp" (change = min(actual, 0)), a number (per-step
    change), or a TrackedRateSource (change = rate(t + dt/2) * dt).  An
    infeasible change is clamped to the quadratic's vertex plus a 1e-12
    margin, with a warning, so the run stays alive.
    """
    vals, volumes = co._field_parts(field)
    inc = (y_new - y_old).reshape(vals.shape)
    actual = bracket(vals, inc, volumes) + 0.5 * bracket(inc, inc, volumes)
    if spec == "clamp":
        delta = min(actual, 0.0)
    elif isinstance(spec, co.TrackedRateSource):
        delta = min(spec.rate_at(t + 0.5 * dt), 0.0) * dt
    else:
        delta = float(spec)
    try:
        out = co.correct_increment_mass_l2(inc, field, delta)
    except InfeasibleTarget as err:
        delta = err.min_delta_l2 + 1e-12
        warnings.warn(
            f"per-step delta_l2 infeasible at t={t:.6g}; clamped to the "
            f"achievable minimum {delta:.3e}", InfeasibleTargetWarning,
            stacklevel=2)
        out = co.correct_increment_mass_l2(inc, field, delta)
    achieved = bracket(vals, out, volumes) + 0.5 * bracket(out, out, volumes)
    driver._record(StageRecord(t, "step_delta_l2", actual, delta, achieved))
    return (y_old.reshape(vals.shape) + out).reshape(y_old.shape)


class _DriverBase:
    stage_records = None

    def _record(self, rec):
        if self.stage_records is not None:
            self.stage_records.append(rec)

    def report(self, y, t) -> InvariantReport:
        return invariant_report(self.state_of(y), t)

    def snapshot(self, y):
        return y.copy()


# ---------------------------------------------------------------------------
# scalar 1D, flux form
# ---------------------------------------------------------------------------

class ScalarFv1D(_DriverBase):
    """Flux-form scalar transport: advection or Burgers, optional diffusion
    and forcing (never corrected), and an optional flux-l2 corrector.

    ``step_delta_l2`` chains the discrete-increment corrector over each full
    RK step ("clamp", a fixed per-step change, or a TrackedRateSource); it
    removes the time-integrator's own l2 residual on top of the per-stage
    flux correction.
    """

    def __init__(self, ic: FvField1D, equation, scheme, c=1.0,
                 target=None, G=None, nu=0.0, forcing=None,
                 step_delta_l2=None):
        self.grid = ic.grid
        self.ic = ic
        self.equation = equation
        self.scheme = scheme
        self.c = c
        self.target = target
        self.G = G
        self.nu = nu
        self.forcing = forcing
        self.step_delta_l2 = step_delta_l2
        self._x = self.grid.cell_centers()

    def initial_array(self):
        return self.ic.values.copy()

    def state_of(self, y):
        return FvField1D(self.grid, y)

    def stable_dt(self, y, cfl, dt_max):
        speed = abs(self.c) if self.equation == "advection" \
            else float(np.abs(y).max())
        if self.nu > 0.0:
            # explicit diffusion stability floor
            dx = self.grid.dx_min
            visc_dt = 0.5 * dx * dx / self.nu
            return min(cfl_dt(speed, dx, cfl, dt_max), cfl * visc_dt)
        return cfl_dt(speed, self.grid.dx_min, cfl, dt_max)

    def fluxes(self, field, dt):
        if callable(self.scheme):
            return self.scheme(field, dt)
        lf_ratio = None
        if self.scheme is schemes.FluxScheme.LAX_FRIEDRICHS:
            lf_ratio = self.grid.dx_min / (2.0 * dt)
        return schemes.numerical_flux_1d(self.scheme, field, self.equation,
                                         c=self.c, lf_ratio=lf_ratio)

    def rhs(self, y, t, dt):
        field = self.state_of(y)
        f = self.fluxes(field, dt)
        if self.target is not None:
            target = resolve_l2_target(self.target, t)
            old = co.flux_l2_rate_1d(f, field)
            f = co.correct_flux_l2_1d(f, field, target, self.G)
            self._record(StageRecord(t, "l2", old, target.resolve(old),
                                     co.flux_l2_rate_1d(f, field)))
        out = schemes.fv_rhs_1d(f, self.grid)
        if self.nu > 0.0:
            dx = self.grid.cell_volumes
            out = out + self.nu * co.laplacian_1d(y) / dx**2
        if self.forcing is not None:
            out = out + self.forcing(self._x, t, self.grid.length)
        return out

    def post_step(self, y_old, y_new, t, dt):
        if self.step_delta_l2 is None:
            return y_new
        return _apply_step_increment_correction(
            self, self.state_of(y_old), y_old, y_new, t, dt, self.step_delta_l2)


class NonconservativeBurgers1D(_DriverBase):
    """Upwinded finite-difference Burgers scheme N_j = -u_j (du)_j.

    Does not conserve mass by construction; the cell-RHS corrector restores
    mass conservation and pins the l2 rate.
    """

    def __init__(self, ic: FvField1D, target=None, G=None):
        self.grid = ic.grid
        self.ic = ic
        self.target = target
        self.G = G

    def initial_array(self):
        return self.ic.values.copy()

    def state_of(self, y):
        return FvField1D(self.grid, y)

    def stable_dt(self, y, cfl, dt_max):
        return cfl_dt(float(np.abs(y).max()), self.grid.dx_min, cfl, dt_max)

    def rhs(self, y, t, dt):
        dx = self.grid.cell_volumes
        backward = (y - np.roll(y, 1)) / dx
        forward = (np.roll(y, -1) - y) / dx
        out = -y * np.where(y >= 0.0, backward, forward)
        if self.target is not None:
            field = self.state_of(y)
            target = resolve_l2_target(self.target, t)
            vols = self.grid.cell_volumes
            big_u = y - co.volume_mean(y, vols)
            old = bracket(big_u, out - co.volume_mean(out, vols), vols)
            out = co.correct_rhs_mass_l2(out, field, target, self.G)
            self._record(StageRecord(t, "l2", old, target.resolve(old),
                                     bracket(y, out, vols)))
        return out


# ---------------------------------------------------------------------------
# FTCS discrete-time demo
# ---------------------------------------------------------------------------

class FtcsAdvection(_DriverBase):
    """Forward-time centered-space advection, optionally corrected to a
    prescribed per-step l2 change."""

    def __init__(self, ic: FvField1D, c=1.0, delta_l2=None, G=None):
        self.grid = ic.grid
        self.ic = ic
        self.c = c
        self.delta_l2 = delta_l2
        self.G = G

    def initial_array(self):
        return self.ic.values.copy()

    def state_of(self, y):
        return FvField1D(self.grid, y)

    def stable_dt(self, y, cfl, dt_max):
        return cfl_dt(abs(self.c), self.grid.dx_min, cfl, dt_max)

    def increment(self, y, t, dt):
        field = self.state_of(y)
        inc = schemes.ftcs_increment(field, self.c, dt)
        if self.delta_l2 is None:
            return inc
        vols = self.grid.cell_volumes
        old = bracket(y, inc, vols) + 0.5 * bracket(inc, inc, vols)
        out = co.correct_increment_mass_l2(inc, field, self.delta_l2, self.G)
        achieved = bracket(y, out, vols) + 0.5 * bracket(out, out, vols)
        self._record(StageRecord(t, "delta_l2", old, self.delta_l2, achieved))
        return out


# ---------------------------------------------------------------------------
# DG demo
# ---------------------------------------------------------------------------

class DgScalar1D(_DriverBase):
    """DG transport with a per-stage l2 corrector (added diffusion)."""

    def __init__(self, ic: DgField, flux_fn, interface_rule, target=None):
        self.grid = ic.grid
        self.ic = ic
        self.degree = ic.degree
        self.flux_fn = flux_fn
        self.interface_rule = interface_rule
        self.target = target

    def initial_array(self):
        return self.ic.coeffs.ravel().copy()

    def state_of(self, y):
        return DgField(self.grid, y.reshape(self.grid.n_cells, self.degree + 1))

    def stable_dt(self, y, cfl, dt_max):
        a = self.state_of(y)
        um, up = face_traces(a)
        speed = max(float(np.abs(um).max()), float(np.abs(up).max()), 1e-300)
        return cfl_dt(speed, self.grid.dx_min / (2 * self.degree + 1), cfl, dt_max)

    def rhs(self, y, t, dt):
        a = self.state_of(y)
        n = dg_rhs(a, self.flux_fn, self.interface_rule)
        if self.target is not None:
            target = resolve_l2_target(self.target, t)
            from .dg import dg_l2_rate
            old = dg_l2_rate(a, n)
            n = co.correct_dg_l2(n, a, target)
            self._record(StageRecord(t, "l2", old, target.resolve(old),
                                     dg_l2_rate(a, n)))
        return dg_coefficient_rate(a, n).ravel()


# ---------------------------------------------------------------------------
# spectral advection
# ---------------------------------------------------------------------------

class SpectralAdvection(_DriverBase):
    def __init__(self, ic: SpectralField, c=1.0, target=None):
        self.ic = ic
        self.c = c
        self.target = target

    def initial_array(self):
        return self.ic.coeffs.copy()

    def state_of(self, y):
        return SpectralField(self.ic.length, y)

    def stable_dt(self, y, cfl, dt_max):
        dx_eff = self.ic.length / (2 * self.ic.n_modes + 1)
        return cfl_dt(abs(self.c), dx_eff, cfl, dt_max)

    def rhs(self, y, t, dt):
        u = self.state_of(y)
        n = schemes.spectral_rhs_advection(u, self.c)
        if self.target is not None:
            target = resolve_l2_target(self.target, t)
            old = co.spectral_l2_rate(u, n)
            n = co.correct_spectral_mass_l2(n, u, target)
            self._record(StageRecord(t, "l2", old, target.resolve(old),
                                     co.spectral_l2_rate(u, n)))
        return n


# ---------------------------------------------------------------------------
# 2D incompressible Euler (vorticity form)
# ---------------------------------------------------------------------------

class Vorticity2D(_DriverBase):
    """MUSCL vorticity transport with the optional flux-l2 or
    mass/energy/enstrophy corrector, plus uncorrected forcing/viscosity."""

    def __init__(self, ic: FvField2D, corrector="none", target=None,
                 nu=0.0, forcing=False, forcing_k=4, drag=0.1,
                 step_delta_l2=None):
        if corrector not in ("none", "flux_l2", "energy"):
            raise ValueError(f"unknown 2D corrector {corrector!r}")
        self.grid = ic.grid
        self.ic = ic
        self.corrector = corrector
        self.target = target
        self.nu = nu
        self.forcing = forcing
        self.forcing_k = forcing_k
        self.drag = drag
        self.step_delta_l2 = step_delta_l2

    def initial_array(self):
        return self.ic.values.ravel().copy()

    def state_of(self, y):
        chi = FvField2D(self.grid, y.reshape(self.grid.nx, self.grid.ny))
        return VorticityState2D(chi, schemes.poisson_solve(chi))

    def stable_dt(self, y, cfl, dt_max):
        state = self.state_of(y)
        ux, uy = schemes.face_velocities(state.psi_bar, self.grid)
        return cfl_dt_2d(float(np.abs(ux).max()), float(np.abs(uy).max()),
                         self.grid.dx, self.grid.dy, cfl, dt_max)

    def rhs(self, y, t, dt):
        g = self.grid
        state = self.state_of(y)
        chi = state.chi
        ux, uy = schemes.face_velocities(state.psi_bar, g)
        fluxes = schemes.advective_fluxes_2d(chi, ux, uy)

        if self.corrector == "flux_l2":
            if isinstance(self.target, co.TrackedRateSource):
                half = 0.5 * self.target.rate_at(t)
                tx = ty = co.L2RateTarget.tracked(half)
            else:
                tx = ty = self.target
            old_x, old_y = co.flux_l2_rates_2d(fluxes, chi)
            fluxes = co.correct_flux_l2_2d(fluxes, chi, tx, ty)
            new_x, new_y = co.flux_l2_rates_2d(fluxes, chi)
            self._record(StageRecord(t, "l2_x", old_x, tx.resolve(old_x), new_x))
            self._record(StageRecord(t, "l2_y", old_y, ty.resolve(old_y), new_y))

        out = schemes.fv_rhs_2d(fluxes, g)

        if self.corrector == "energy":
            target = resolve_l2_target(self.target, t)
            vol = g.cell_volume
            phi = state.psi_bar - state.psi_bar.mean()
            pp = bracket(phi, phi, vol)
            u_c = chi.values - chi.values.mean()
            w = u_c - bracket(u_c, phi, vol) / pp * phi
            # <W|phi> = 0, so the projected rate reduces to <W|demeaned rhs>
            old = bracket(w, out - out.mean(), vol)
            out = co.correct_euler2d_mass_energy_l2(out, state, target)
            energy_bracket = bracket(state.psi_bar, out, vol)
            self._record(StageRecord(
                t, "enstrophy", old, target.resolve(old),
                bracket(w, out, vol),
                extra={"energy_bracket": energy_bracket,
                       "mass_bracket": float(np.sum(out) * vol),
                       "energy_scale": float(np.sqrt(
                           bracket(state.psi_bar, state.psi_bar, vol)
                           * bracket(out, out, vol)))}))

        if self.nu > 0.0:
            out = out + self.nu * co.laplacian_2d(chi.values, g.dx, g.dy)
        if self.forcing:
            from .problems import forcing_2d_kolmogorov
            out = out + forcing_2d_kolmogorov(g, chi.values, self.forcing_k,
                                              self.drag)
        return out.ravel()

    def post_step(self, y_old, y_new, t, dt):
        if self.step_delta_l2 is None:
            return y_new
        chi = FvField2D(self.grid, y_old.reshape(self.grid.nx, self.grid.ny))
        return _apply_step_increment_correction(
            self, chi, y_old, y_new, t, dt, self.step_delta_l2)


# ---------------------------------------------------------------------------
# 1D compressible Euler
# ---------------------------------------------------------------------------

class Euler1D(_DriverBase):
    """Characteristic MUSCL gas dynamics with the positivity limiter and the
    entropy-rate corrector applied per stage, in that order."""

    def __init__(self, ic: EulerState1D, entropy_ratio=None, positivity=True,
                 boundary_primitive=None):
        self.grid = ic.grid
        self.ic = ic
        self.gamma = ic.gamma
        self.entropy_ratio = entropy_ratio
        self.positivity = positivity
        self.eps_pos = 1e-12 * max(float(ic.rho.max()), float(ic.pressure().max()))
        if self.grid.periodic:
            self.boundary_primitive = None
            self.boundary_state = None
        else:
            if boundary_primitive is None:
                boundary_primitive = (
                    (ic.rho[0], ic.velocity()[0], ic.pressure()[0]),
                    (ic.rho[-1], ic.velocity()[-1], ic.pressure()[-1]))
            self.boundary_primitive = boundary_primitive
            self.boundary_state = tuple(
                self._conserved_triple(*b) for b in boundary_primitive)

    def _conserved_triple(self, rho, v, p):
        return np.array([rho, rho * v, p / (self.gamma - 1.0) + 0.5 * rho * v**2])

    def initial_array(self):
        return self.ic.conserved().ravel().copy()

    def state_of(self, y):
        return EulerState1D.from_conserved(
            self.grid, y.reshape(self.grid.n_cells, 3), self.gamma)

    def stable_dt(self, y, cfl, dt_max):
        state = self.state_of(y)
        speed = float((np.abs(state.velocity()) + state.sound_speed()).max())
        return cfl_dt(speed, self.grid.dx_min, cfl, dt_max)

    def rhs(self, y, t, dt):
        state = self.state_of(y)
        f = schemes.euler1d_muscl_flux(state, self.boundary_state)
        if self.positivity:
            f = co.limit_positivity_euler1d(f, state, dt, self.eps_pos,
                                            self.boundary_state)
        if self.entropy_ratio is not None:
            boundary = co.estimate_boundary_entropy_flux(
                state, self.boundary_primitive)
            target = co.EntropyRateTarget(boundary, self.entropy_ratio)
            old = co.entropy_rate_euler1d(f, state)
            f = co.correct_entropy_euler1d(f, state, target)
            self._record(StageRecord(t, "entropy", old, target.resolve(old),
                                     co.entropy_rate_euler1d(f, state),
                                     extra={"boundary": boundary}))
        return schemes.euler1d_rhs(f, self.grid).ravel()

    def observe(self, y, t, traj):
        state = self.state_of(y)
        traj.step_minima.append((t, float(state.rho.min()),
                                 float(state.pressure().min())))

    def report(self, y, t):
        state = self.state_of(y)
        try:
            return invariant_report(state, t)
        except PositivityViolation:
            from .diagnostics import total_variation
            vols = self.grid.cell_volumes
            return InvariantReport(
                t=t, mass=float(np.sum(state.rho * vols)),
                tv=total_variation(state.rho, self.grid.periodic),
                min_rho=float(state.rho.min()),
                min_p=float(state.pressure().min()))
