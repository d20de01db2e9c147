"""Problem drivers: the per-stage pipelines that connect spatial schemes,
corrector chains, and the time loop for each replication problem.

A driver owns its grid, initial data, and corrector configuration.  The
``rhs``/``increment`` hooks receive every Runge-Kutta stage and apply the
corrector chain there.  Every corrector call goes through
``_DriverBase._corrected``, which records the ``Correction`` the corrector
returned, stamped with the stage time and a kind, so runs can be audited
after the fact; drivers never measure a rate themselves.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import correctors as co
from . import schemes
from .core import (DgField, EulerState1D, FvField1D, FvField2D, SpectralField,
                   VorticityState2D, bracket, shift)
from .diagnostics import invariant_report, InvariantReport
from .dg import dg_coefficient_rate, dg_rhs, face_traces
from .errors import InfeasibleTarget
from .timeloop import cfl_dt, cfl_dt_2d


def resolve_l2_target(spec, t):
    """A target spec is either a static L2RateTarget or a TrackedRateSource."""
    if isinstance(spec, co.TrackedRateSource):
        return spec.target_at(t)
    return spec


class InfeasibleTargetWarning(RuntimeWarning):
    """The requested per-step l2 change sits below the quadratic's minimum;
    the run continues at the best achievable dissipation."""


def _correct_step_increment(driver, field, inc, t, dt, spec):
    """Correct a full-step increment ``inc`` (shaped like ``field``'s values)
    so the discrete l2 change is exact; returns the corrected increment.

    ``spec`` is "clamp" (change = min(actual, 0)), a number (per-step
    change), or a TrackedRateSource (change = rate(t + dt/2) * dt).  An
    infeasible change is clamped to the quadratic's vertex plus a 1e-12
    margin, with a warning, so the run stays alive.
    """
    if spec == "clamp":
        vals, volume = co._field_parts(field)
        actual = bracket(vals, inc, volume) + 0.5 * bracket(inc, inc, volume)
        delta = min(actual, 0.0)
    elif isinstance(spec, co.TrackedRateSource):
        delta = min(spec.rate_at(t + 0.5 * dt), 0.0) * dt
    else:
        delta = float(spec)
    try:
        return driver._corrected(t, "step_delta_l2",
                                 co.correct_increment_mass_l2, inc, field, delta)
    except InfeasibleTarget as err:
        delta = err.min_delta_l2 + 1e-12
        warnings.warn(
            f"per-step delta_l2 infeasible at t={t:.6g}; clamped to the "
            f"achievable minimum {delta:.3e}", InfeasibleTargetWarning,
            stacklevel=3)
        return driver._corrected(t, "step_delta_l2",
                                 co.correct_increment_mass_l2, inc, field, delta)


def _apply_step_increment_correction(driver, field, y_old, y_new, t, dt, spec):
    """``_correct_step_increment`` over the full RK step y_old -> y_new."""
    shape = field.values.shape
    inc = _correct_step_increment(driver, field, (y_new - y_old).reshape(shape),
                                  t, dt, spec)
    return (y_old.reshape(shape) + inc).reshape(y_old.shape)


class _DriverBase:
    stage_records = None   # set by timeloop.run; None outside a run

    def _corrected(self, t, kind, corrector, *args):
        """Call ``corrector(*args)``, record its report stamped with ``t`` and
        ``kind`` (a tuple of kinds for a pair of reports), return the update."""
        update, report = corrector(*args)
        if self.stage_records is not None:
            pairs = zip(kind, report) if isinstance(kind, tuple) \
                else ((kind, report),)
            for k, rec in pairs:
                rec.t, rec.kind = t, k
                self.stage_records.append(rec)
        return update

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
                 target=None, nu=0.0, forcing=None, step_delta_l2=None):
        self.grid = ic.grid
        self.ic = ic
        self.equation = equation
        self.scheme = scheme
        self.c = c
        self.target = target
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
            dx = self.grid.dx
            visc_dt = 0.5 * dx * dx / self.nu
            return min(cfl_dt(speed, dx, cfl, dt_max), cfl * visc_dt)
        return cfl_dt(speed, self.grid.dx, cfl, dt_max)

    def fluxes(self, field, dt):
        if callable(self.scheme):
            return self.scheme(field, dt)
        lf_ratio = None
        if self.scheme is schemes.FluxScheme.LAX_FRIEDRICHS:
            lf_ratio = self.grid.dx / (2.0 * dt)
        return schemes.numerical_flux_1d(self.scheme, field, self.equation,
                                         c=self.c, lf_ratio=lf_ratio)

    def rhs(self, y, t, dt):
        field = self.state_of(y)
        f = self.fluxes(field, dt)
        if self.target is not None:
            f = self._corrected(t, "l2", co.correct_flux_l2_1d, f, field,
                                resolve_l2_target(self.target, t))
        out = schemes.fv_rhs_1d(f, self.grid)
        if self.nu > 0.0:
            out = out + self.nu * co.laplacian_1d(y) / self.grid.dx**2
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

    def __init__(self, ic: FvField1D, target=None):
        self.grid = ic.grid
        self.ic = ic
        self.target = target

    def initial_array(self):
        return self.ic.values.copy()

    def state_of(self, y):
        return FvField1D(self.grid, y)

    def stable_dt(self, y, cfl, dt_max):
        return cfl_dt(float(np.abs(y).max()), self.grid.dx, cfl, dt_max)

    def rhs(self, y, t, dt):
        dx = self.grid.dx
        backward = (y - shift(y, -1)) / dx
        forward = (shift(y, 1) - y) / dx
        out = -y * np.where(y >= 0.0, backward, forward)
        if self.target is not None:
            out = self._corrected(t, "l2", co.correct_rhs_mass_l2, out,
                                  self.state_of(y),
                                  resolve_l2_target(self.target, t))
        return out


# ---------------------------------------------------------------------------
# FTCS discrete-time demo
# ---------------------------------------------------------------------------

class FtcsAdvection(_DriverBase):
    """Forward-time centered-space advection, optionally corrected to a
    per-step l2 change: ``delta_l2`` is a step spec as for
    ``ScalarFv1D.step_delta_l2``."""

    def __init__(self, ic: FvField1D, c=1.0, delta_l2=None):
        self.grid = ic.grid
        self.ic = ic
        self.c = c
        self.delta_l2 = delta_l2

    def initial_array(self):
        return self.ic.values.copy()

    def state_of(self, y):
        return FvField1D(self.grid, y)

    def stable_dt(self, y, cfl, dt_max):
        return cfl_dt(abs(self.c), self.grid.dx, cfl, dt_max)

    def increment(self, y, t, dt):
        field = self.state_of(y)
        inc = schemes.ftcs_increment(field, self.c, dt)
        if self.delta_l2 is None:
            return inc
        return _correct_step_increment(self, field, inc, t, dt, self.delta_l2)


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
        return cfl_dt(speed, self.grid.dx / (2 * self.degree + 1), cfl, dt_max)

    def rhs(self, y, t, dt):
        a = self.state_of(y)
        n = dg_rhs(a, self.flux_fn, self.interface_rule)
        if self.target is not None:
            n = self._corrected(t, "l2", co.correct_dg_l2, n, a,
                                resolve_l2_target(self.target, t))
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
            n = self._corrected(t, "l2", co.correct_spectral_mass_l2, n, u,
                                resolve_l2_target(self.target, t))
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
            # each direction carries half of a prescribed rate; clamp acts
            # on each direction's own rate
            target = resolve_l2_target(self.target, t)
            if target.mode != co.CLAMP:
                target = co.L2RateTarget(target.mode, 0.5 * target.rate)
            fluxes = self._corrected(t, ("l2_x", "l2_y"), co.correct_flux_l2_2d,
                                     fluxes, chi, target, target)

        out = schemes.fv_rhs_2d(fluxes, g)

        if self.corrector == "energy":
            out = self._corrected(t, "enstrophy",
                                  co.correct_euler2d_mass_energy_l2, out, state,
                                  resolve_l2_target(self.target, t))

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

    def __init__(self, ic: EulerState1D, entropy_ratio=None, positivity=True):
        self.grid = ic.grid
        self.ic = ic
        self.gamma = ic.gamma
        self.entropy_ratio = entropy_ratio
        self.positivity = positivity
        self.eps_pos = 1e-12 * max(float(ic.rho.max()), float(ic.pressure().max()))
        # the Dirichlet states are the initial condition's end cells
        self.boundary_state = None if self.grid.periodic \
            else (ic.u[0], ic.u[-1])

    def initial_array(self):
        return self.ic.u.ravel().copy()

    def state_of(self, y):
        return EulerState1D(self.grid, y.reshape(self.grid.n_cells, 3),
                            self.gamma)

    def stable_dt(self, y, cfl, dt_max):
        state = self.state_of(y)
        speed = float((np.abs(state.velocity()) + state.sound_speed()).max())
        return cfl_dt(speed, self.grid.dx, cfl, dt_max)

    def rhs(self, y, t, dt):
        state = self.state_of(y)
        f = schemes.euler1d_muscl_flux(state, self.boundary_state)
        if self.positivity:
            f = co.limit_positivity_euler1d(f, state, dt, self.eps_pos,
                                            self.boundary_state)
        if self.entropy_ratio is not None:
            boundary = co.estimate_boundary_entropy_flux(
                state, self.boundary_state)
            target = co.EntropyRateTarget(boundary, self.entropy_ratio)
            f = self._corrected(t, "entropy", co.correct_entropy_euler1d, f,
                                state, target)
        return schemes.euler1d_rhs(f, self.grid).ravel()

    def observe(self, y, t, traj):
        state = self.state_of(y)
        traj.step_minima.append((t, float(state.rho.min()),
                                 float(state.pressure().min())))
