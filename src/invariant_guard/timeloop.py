"""Time integration with corrector hooks: SSPRK3, forward Euler, and the
discrete-update path, plus the simulation driver."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, InvariantGuardError, NonFiniteState,
                     NumericalBlowup)

SSPRK3 = "ssprk3"
FORWARD_EULER = "forward_euler"
DISCRETE = "discrete"


@dataclass
class StepPlan:
    integrator: str = SSPRK3
    cfl: float = 0.3
    t_end: float = 1.0
    n_snapshots: int = 11
    dt_max: float = None       # default 0.1 * t_end
    dt_override: float = None  # fixed dt instead of dynamic CFL
    max_steps: int = 200000

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.integrator not in (SSPRK3, FORWARD_EULER, DISCRETE):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.n_snapshots < 1:
            raise ValueError("need at least the initial snapshot")
        if self.dt_max is None:
            self.dt_max = 0.1 * self.t_end if self.t_end > 0 else 1.0


def cfl_dt(max_speed, dx, cfl, dt_max):
    """dt = cfl * dx / max_speed, capped by dt_max for degenerate speeds."""
    if max_speed <= 1e-300:
        return dt_max
    return min(cfl * dx / max_speed, dt_max)


def cfl_dt_2d(max_ux, max_uy, dx, dy, cfl, dt_max):
    """dt = cfl / (max|u_x|/dx + max|u_y|/dy)."""
    denom = max_ux / dx + max_uy / dy
    if denom <= 1e-300:
        return dt_max
    return min(cfl / denom, dt_max)


def _check_stage(u):
    if not np.isfinite(u).all():
        raise NonFiniteState("Runge-Kutta stage state must be finite")


def ssprk3_step(y, t, dt, rhs):
    """Shu-Osher 3rd-order SSP step; rhs(y, t, dt) is called once per stage.

    The intermediate stage states are checked here, once each, and a
    non-finite one raises ``NonFiniteState`` before ``rhs`` sees it; ``y``
    and the result are the caller's to check, as ``run`` does every step.
    """
    u1 = y + dt * rhs(y, t, dt)
    _check_stage(u1)
    u2 = 0.75 * y + 0.25 * (u1 + dt * rhs(u1, t + dt, dt))
    _check_stage(u2)
    return y / 3.0 + 2.0 / 3.0 * (u2 + dt * rhs(u2, t + 0.5 * dt, dt))


def forward_euler_step(y, t, dt, rhs):
    return y + dt * rhs(y, t, dt)


def discrete_step(y, t, dt, increment):
    """Single increment application u + Delta u (the FTCS-demo path)."""
    return y + increment(y, t, dt)


@dataclass
class Trajectory:
    """Everything a run emits: cadence snapshots, invariant reports, the
    ``correctors.Correction`` of every corrector call (stamped by the driver
    with its stage time and kind), and (on failure) the error that ended the
    run with the partial record retained."""

    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    stage_records: list = field(default_factory=list)
    step_minima: list = field(default_factory=list)
    error: Exception = None


def run(plan: StepPlan, problem) -> Trajectory:
    """Advance a problem driver to t_end, emitting snapshots at the cadence
    times k * t_end / (n_snapshots - 1).

    The driver supplies ``initial_array()``, ``stable_dt(y, cfl, dt_max)``,
    one of ``rhs(y, t, dt)`` / ``increment(y, t, dt)``, ``snapshot(y)``,
    ``report(y, t)`` and optional ``post_step(y_old, y_new, t, dt)`` /
    ``observe(y, t, traj)`` hooks, each looked up once.  Every state a hook
    is handed is finite except ``post_step``'s ``y_new``: the initial array
    comes from a checked initial condition, each intermediate stage state
    is checked by the stepper and each step's result here, after
    ``post_step``, so drivers need not check again.  Blowups and other
    ``InvariantGuardError``s surface as a trajectory with ``error`` set, its
    ``time`` the failing step's, and the partial record intact;
    ``ConfigurationError`` and every other exception propagate.
    """
    traj = Trajectory()
    problem.stage_records = traj.stage_records

    y = problem.initial_array()
    t = 0.0
    if plan.n_snapshots > 1 and plan.t_end > 0:
        snap_times = np.linspace(0.0, plan.t_end, plan.n_snapshots)
    else:
        snap_times = np.array([0.0])

    def record(y, t):
        traj.times.append(t)
        traj.snapshots.append(problem.snapshot(y))
        traj.reports.append(problem.report(y, t))

    record(y, t)
    if plan.t_end <= 0:
        return traj

    next_snap = 1
    stepper = discrete_step if plan.integrator == DISCRETE else (
        forward_euler_step if plan.integrator == FORWARD_EULER else ssprk3_step)
    advance = problem.increment if plan.integrator == DISCRETE else problem.rhs
    post_step = getattr(problem, "post_step", None)
    observe = getattr(problem, "observe", None)

    step = 0
    while t < plan.t_end - 1e-12 * plan.t_end:
        if step >= plan.max_steps:
            traj.error = NumericalBlowup("step budget exhausted", step, t)
            return traj
        if plan.dt_override is not None:
            dt = plan.dt_override
        else:
            dt = problem.stable_dt(y, plan.cfl, plan.dt_max)
        if next_snap < len(snap_times):
            dt = min(dt, snap_times[next_snap] - t)
        dt = min(dt, plan.t_end - t)
        if not np.isfinite(dt) or dt <= 1e-14 * plan.t_end:
            traj.error = NumericalBlowup("timestep underflow", step, t)
            return traj

        try:
            y_new = stepper(y, t, dt, advance)
            if post_step is not None:
                y_new = post_step(y, y_new, t, dt)
            y = y_new
        except ConfigurationError:
            raise
        except InvariantGuardError as exc:  # numerical failures are part of the record
            exc.time = t
            traj.error = exc
            return traj
        t += dt
        step += 1

        if not np.isfinite(y).all():
            traj.error = NumericalBlowup("non-finite state", step, t)
            return traj
        if observe is not None:
            observe(y, t, traj)
        while next_snap < len(snap_times) and t >= snap_times[next_snap] - 1e-12:
            record(y, snap_times[next_snap])
            next_snap += 1
    return traj
