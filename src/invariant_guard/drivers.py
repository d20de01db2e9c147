"""Problem drivers: the per-stage pipelines that connect spatial schemes,
corrector chains, and the time loop for each replication problem.

A driver owns its grid, initial data, and corrector configuration;
``_DriverBase.__init__`` keeps the first two and the stage and step
targets, and ``_PeriodicScalar1D`` gives the periodic scalar drivers their
``FvField1D`` state and a CFL dt from each one's ``speed``.  The
``rhs``/``increment`` hooks receive every Runge-Kutta stage and apply the
corrector chain there.  Every corrector call goes through
``_DriverBase._corrected``, which stamps the ``Correction`` the corrector
returned with a kind and folds it into the run's ``timeloop.CorrectionLog``,
whose per-snapshot-interval rows the ``run`` command writes to
``stages.csv``.  Drivers measure no rate themselves, with one exception:
for a clamp target ``_correct_step_increment`` measures the step's l2
change on the increment before demeaning.  Leaving that to the increment
corrector would change the bytes of ``fig7_surrogate``'s clamped CSVs and
of ``sweep.csv``, so it stays until the per-step clamp is reworked
(ROADMAP item 1).
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

from . import correctors as co
from . import problems, schemes
from .core import (DgField, EulerState1D, FvField1D, FvField2D, SpectralField,
                   VorticityState2D, _unchecked, bracket)
from .diagnostics import invariant_report, InvariantReport
from .dg import EDGE_TABLES, dg_operator, periodic_pad
# dg_rhs is no longer called here; bench/spans.py still wraps this module's
# name for it
from .dg import dg_rhs  # noqa: F401
from .errors import InfeasibleTarget
from .timeloop import cfl_dt, cfl_dt_2d


class InfeasibleTargetWarning(RuntimeWarning):
    """The requested per-step l2 change sits below the quadratic's minimum;
    the run continues at the best achievable dissipation."""


def _correct_step_increment(driver, field, inc, t, dt, target):
    """Correct a full-step increment ``inc`` (shaped like ``field``'s values)
    so the discrete l2 change is exact; returns the corrected increment.

    ``target`` is an L2RateTarget or a TrackedRateSource, read at the step's
    midpoint: clamp sets the change to min(actual, 0), any other mode to
    rate * dt.  An infeasible change is clamped to the quadratic's vertex
    plus a 1e-12 margin, recorded with kind ``step_delta_l2_clamped`` and
    warned of, so the run stays alive.
    """
    target = target.at(t + 0.5 * dt)
    if target.mode == co.CLAMP:
        vals, volume = co._field_parts(field)
        actual = bracket(vals, inc, volume) + 0.5 * bracket(inc, inc, volume)
        delta = min(actual, 0.0)
    else:
        delta = target.rate * dt
    try:
        return driver._corrected("step_delta_l2",
                                 co.correct_increment_mass_l2, inc, field, delta)
    except InfeasibleTarget as err:
        delta = err.min_delta_l2 + 1e-12
        warnings.warn(
            f"per-step delta_l2 infeasible at t={t:.6g}; clamped to the "
            f"achievable minimum {delta:.3e}", InfeasibleTargetWarning,
            stacklevel=3)
        return driver._corrected("step_delta_l2_clamped",
                                 co.correct_increment_mass_l2, inc, field, delta)


class _DriverBase:
    """Shared hooks.  ``target`` is the per-stage l2 target and
    ``step_target`` the per-step one, each an L2RateTarget, a
    TrackedRateSource or None (no correction)."""

    stage_records = None   # timeloop.run's CorrectionLog; None outside a run
    step_target = None

    def __init__(self, ic, target=None, step_target=None):
        self.ic = ic
        self.grid = ic.grid
        self.target = target
        self.step_target = step_target

    def _corrected(self, kind, corrector, *args):
        """Call ``corrector(*args)``, log its report stamped with ``kind`` (a
        tuple of kinds for a pair of reports), return the update."""
        update, report = corrector(*args)
        if self.stage_records is not None:
            pairs = zip(kind, report) if isinstance(kind, tuple) \
                else ((kind, report),)
            for k, rec in pairs:
                rec.kind = k
                self.stage_records.add(rec)
        return update

    def _stage_corrected(self, t, kind, corrector, update, state):
        """``update`` moved to ``self.target`` at stage time ``t``, or as it
        is when there is no target."""
        if self.target is None:
            return update
        return self._corrected(kind, corrector, update, state,
                               self.target.at(t))

    def post_step(self, y_old, y_new, t, dt):
        """Correct the full step y_old -> y_new to ``self.step_target``."""
        if self.step_target is None:
            return y_new
        field = self.field_of(y_old)
        shape = field.values.shape
        inc = _correct_step_increment(self, field, (y_new - y_old).reshape(shape),
                                      t, dt, self.step_target)
        return (y_old.reshape(shape) + inc).reshape(y_old.shape)

    def field_of(self, y):
        """The field whose l2 the step corrector sets."""
        return self.state_of(y)

    def report(self, y, t) -> InvariantReport:
        return invariant_report(self.state_of(y), t)

    def snapshot(self, y):
        return y.copy()


class _PeriodicScalar1D(_DriverBase):
    """A periodic ``FvField1D`` state; each driver gives its CFL speed,
    ``speed(y)``."""

    def initial_array(self):
        return self.ic.values.copy()

    def state_of(self, y):
        return _unchecked(FvField1D, grid=self.grid, values=y)

    def stable_dt(self, y, cfl, dt_max):
        return cfl_dt(self.speed(y), self.grid.dx, cfl, dt_max)


# ---------------------------------------------------------------------------
# scalar 1D, flux form
# ---------------------------------------------------------------------------

class ScalarFv1D(_PeriodicScalar1D):
    """Flux-form scalar transport, advection or Burgers, with an optional
    flux-l2 corrector.

    ``step_target`` chains the discrete-increment corrector over each full
    RK step; it removes the time-integrator's own l2 residual on top of the
    per-stage flux correction.

    ``scheme`` is a ``FluxScheme`` or an object whose ``rule(grid)`` gives
    a flux rule, such as ``surrogate.SurrogateFluxRule``.  The rule and the
    flux divergence (``schemes.flux_divergence_1d``) are bound and checked
    here, so an unsupported combination raises ``ConfigurationError``
    before any stage runs.  An uncorrected stage hands the stage array to
    the rule as it is and builds no field.
    """

    def __init__(self, ic: FvField1D, equation, scheme, c=1.0,
                 target=None, step_target=None):
        super().__init__(ic, target, step_target)
        self.equation = equation
        self.c = c
        self._rule = scheme.rule(self.grid) if hasattr(scheme, "rule") \
            else schemes.flux_rule_1d(scheme, self.grid, equation, c)
        self._divergence = schemes.flux_divergence_1d(self.grid)

    def speed(self, y):
        return abs(self.c) if self.equation == "advection" \
            else float(np.abs(y).max())

    def face_fluxes(self, vals, dt):
        """The bound rule on cell values ``vals``, with the Lax-Friedrichs
        ratio dx/(2 dt)."""
        return self._rule(vals, self.grid.dx / (2.0 * dt))

    def rhs(self, y, t, dt):
        f = self.face_fluxes(y, dt)
        if self.target is not None:
            # only a stage with a target wraps y in a field
            f = self._stage_corrected(t, "l2", co.correct_flux_l2_1d, f,
                                      self.state_of(y))
        return self._divergence(f)


class NonconservativeBurgers1D(_PeriodicScalar1D):
    """Upwinded finite-difference Burgers scheme N_j = -u_j (du)_j.

    Does not conserve mass by construction; the cell-RHS corrector restores
    mass conservation and pins the l2 rate.
    """

    def __init__(self, ic: FvField1D, target=None):
        super().__init__(ic, target)

    def speed(self, y):
        return float(np.abs(y).max())

    def rhs(self, y, t, dt):
        # d[k] = (u_k - u_{k-1})/dx for k = 0..N, wrapping: cell j reads
        # its backward difference d[j] and its forward difference d[j+1]
        d = np.empty(len(y) + 1)
        np.subtract(y[1:], y[:-1], out=d[1:-1])
        d[0] = d[-1] = y[0] - y[-1]
        d /= self.grid.dx
        out = -y * np.where(y >= 0.0, d[:-1], d[1:])
        return self._stage_corrected(t, "l2", co.correct_rhs_mass_l2, out,
                                     self.state_of(y))


# ---------------------------------------------------------------------------
# FTCS discrete-time demo
# ---------------------------------------------------------------------------

class FtcsAdvection(_PeriodicScalar1D):
    """Forward-time centered-space advection whose increment, with a
    ``target``, is corrected to a per-step l2 change as
    ``ScalarFv1D.step_target`` corrects a full RK step."""

    def __init__(self, ic: FvField1D, c=1.0, target=None):
        super().__init__(ic, target)
        self.c = c

    def speed(self, y):
        return abs(self.c)

    def increment(self, y, t, dt):
        field = self.state_of(y)
        inc = schemes.ftcs_increment(field, self.c, dt)
        if self.target is None:
            return inc
        return _correct_step_increment(self, field, inc, t, dt, self.target)


# ---------------------------------------------------------------------------
# DG demo
# ---------------------------------------------------------------------------

class DgScalar1D(_DriverBase):
    """DG transport with a per-stage l2 corrector (added diffusion).

    The operator (``dg.dg_operator``) and the corrector
    (``correctors.dg_l2_corrector``) are checked and bound here, so an
    unsupported grid or degree raises ``ConfigurationError`` before any
    stage runs.  A stage pads its coefficients once; the operator and the
    corrector both read that array.
    """

    def __init__(self, ic: DgField, flux_fn, interface_rule, target=None):
        super().__init__(ic, target)
        self.degree = ic.degree
        self._shape = (self.grid.n_cells, self.degree + 1)
        self._rhs, diffusion, self._divisor = dg_operator(
            self.grid, self.degree, flux_fn, interface_rule)
        self._correct = co.dg_l2_corrector(diffusion)
        self._edges = EDGE_TABLES[self.degree]

    def initial_array(self):
        return self.ic.coeffs.ravel().copy()

    def state_of(self, y):
        return _unchecked(DgField, grid=self.grid, coeffs=y.reshape(self._shape))

    def stable_dt(self, y, cfl, dt_max):
        # every face's two traces are the edge values of its two cells
        edges = y.reshape(self._shape) @ self._edges
        speed = max(float(np.abs(edges).max()), 1e-300)
        return cfl_dt(speed, self.grid.dx / (2 * self.degree + 1), cfl, dt_max)

    def rhs(self, y, t, dt):
        padded = periodic_pad(y.reshape(self._shape))
        n = self._stage_corrected(t, "l2", self._correct, self._rhs(padded),
                                  padded)
        return (n / self._divisor).ravel()


# ---------------------------------------------------------------------------
# spectral advection
# ---------------------------------------------------------------------------

class SpectralAdvection(_DriverBase):
    def __init__(self, ic: SpectralField, c=1.0, target=None):
        # not _DriverBase.__init__: a SpectralField has no grid
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
        return self._stage_corrected(t, "l2", co.correct_spectral_mass_l2,
                                     schemes.spectral_rhs_advection(u, self.c), u)


# ---------------------------------------------------------------------------
# 2D incompressible Euler (vorticity form)
# ---------------------------------------------------------------------------

class Vorticity2D(_DriverBase):
    """MUSCL vorticity transport with the optional flux-l2 or
    mass/energy/enstrophy corrector, plus uncorrected forcing/viscosity."""

    def __init__(self, ic: FvField2D, corrector="none", target=None,
                 nu=0.0, forcing=False, forcing_k=4, drag=0.1,
                 step_target=None):
        if corrector not in ("none", "flux_l2", "energy"):
            raise ValueError(f"unknown 2D corrector {corrector!r}")
        super().__init__(ic, target, step_target)
        self.corrector = corrector
        self.nu = nu
        self.forcing = forcing
        self.forcing_k = forcing_k
        self.drag = drag

    def initial_array(self):
        return self.ic.values.ravel().copy()

    def field_of(self, y):
        return _unchecked(FvField2D, grid=self.grid,
                          values=y.reshape(self.grid.nx, self.grid.ny))

    def state_of(self, y):
        chi = self.field_of(y)
        return _unchecked(VorticityState2D, chi=chi,
                          psi_bar=schemes.poisson_solve(chi))

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
            fluxes = self._stage_corrected(t, ("l2_x", "l2_y"),
                                           _correct_flux_l2_halves, fluxes, chi)

        out = schemes.fv_rhs_2d(fluxes, g)

        if self.corrector == "energy":
            out = self._stage_corrected(t, "enstrophy",
                                        co.correct_euler2d_mass_energy_l2, out,
                                        state)

        if self.nu > 0.0:
            out = out + self.nu * co.laplacian_2d(chi.values, g.dx, g.dy)
        if self.forcing:
            out = out + problems.forcing_2d_kolmogorov(
                g, chi.values, self.forcing_k, self.drag)
        return out.ravel()


def _correct_flux_l2_halves(fluxes, chi, target):
    """``correct_flux_l2_2d`` with each direction carrying half of a
    prescribed rate; clamp acts on each direction's own rate."""
    if target.mode != co.CLAMP:
        target = co.L2RateTarget(target.mode, 0.5 * target.rate)
    return co.correct_flux_l2_2d(fluxes, chi, target, target)


# ---------------------------------------------------------------------------
# 1D compressible Euler
# ---------------------------------------------------------------------------

class Euler1D(_DriverBase):
    """Characteristic MUSCL gas dynamics with the positivity limiter and the
    entropy-rate corrector applied per stage, in that order.

    A stage computes the state's pressure, its ghost rows and, under the
    entropy corrector, its entropy variables once, and hands each to every
    function that reads it."""

    def __init__(self, ic: EulerState1D, entropy_ratio=None, positivity=True):
        super().__init__(ic)
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
        return _unchecked(EulerState1D, grid=self.grid,
                          u=y.reshape(self.grid.n_cells, 3), gamma=self.gamma)

    def stable_dt(self, y, cfl, dt_max):
        state = self.state_of(y)
        speed = float((np.abs(state.velocity()) + state.sound_speed()).max())
        return cfl_dt(speed, self.grid.dx, cfl, dt_max)

    @cached_property
    def boundary_psi(self):
        """psi of the Dirichlet pair (None on periodic grids), computed by the
        first stage that reads it, so a non-positive pair ends the run with
        a ``PositivityViolation``."""
        return None if self.boundary_state is None \
            else co.entropy_flux_pair(self.boundary_state, self.gamma)

    def rhs(self, y, t, dt):
        state = self.state_of(y)
        p = state.pressure()
        rows = schemes.ghost_rows(state, self.boundary_state)
        f = schemes.euler1d_muscl_flux(state, p=p, rows=rows)
        if self.positivity:
            f = co.limit_positivity_euler1d(f, state, dt, self.eps_pos,
                                            rows=rows)
        if self.entropy_ratio is not None:
            ev = co.entropy_variables_euler1d(state, p)
            boundary = co.estimate_boundary_entropy_flux(
                state, ev=ev, boundary_psi=self.boundary_psi)
            target = co.EntropyRateTarget(boundary, self.entropy_ratio)
            f = self._corrected("entropy", co.correct_entropy_euler1d, f,
                                state, target, ev)
        return schemes.euler1d_rhs(f, self.grid).ravel()

    def observe(self, y, t, traj):
        state = self.state_of(y)
        traj.step_minima.append((t, float(state.rho.min()),
                                 float(state.pressure().min())))
