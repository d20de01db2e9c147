"""Time integration with corrector hooks: SSPRK3, forward Euler, and the
discrete-update path, plus the simulation driver."""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
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


#: a float64 zero vector per state length ``all_finite`` has seen
_ZEROS = {}


def all_finite(u):
    """``np.isfinite(u).all()`` for a float64 or complex128 state, as one
    dot product with zeros: inf * 0 and NaN * 0 are NaN and a sum holding a
    NaN stays NaN, while every finite entry gives a signed zero.  ``cmath``
    reads both parts of a complex sum, where ``math.isnan`` would drop the
    imaginary one, and ``np.vdot``, unlike ``np.dot``, warns of no invalid
    value on the way."""
    zeros = _ZEROS.get(u.size)
    if zeros is None:
        zeros = _ZEROS[u.size] = np.zeros(u.size)
    return not cmath.isnan(np.vdot(u, zeros))


def _check_stage(u):
    if not all_finite(u):
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


#: one row of a ``CorrectionLog``: the records of one kind in the snapshot
#: interval (t_start, t_end]
StageRow = namedtuple("StageRow", "t_start t_end kind records below_old "
                      "max_rate_error max_energy_error")


class CorrectionLog:
    """The ``correctors.Correction`` of every corrector call of a run, folded
    per snapshot interval and kind, so its size grows with the snapshots and
    not with the stages.

    ``add`` folds a record stamped with its ``kind``; ``close(t)`` ends the
    interval that began at the previous close (or t = 0) and appends one
    ``StageRow`` per kind recorded in it to ``rows``.  ``below_old`` counts
    targets below the old rate, ``max_rate_error`` is the worst
    |achieved - target| / max(|old|, |target|, 1e-30) and
    ``max_energy_error`` the worst |energy_bracket| / max(energy_scale,
    1e-30), None for kinds that report no energy bracket; a NaN error, once
    seen, stays the interval's worst.  ``len`` counts the records added."""

    def __init__(self):
        self.rows = []
        self._open = {}
        self._t_start = 0.0

    def __len__(self):
        return sum(row.records for row in self.rows) \
            + sum(agg[0] for agg in self._open.values())

    def add(self, rec):
        agg = self._open.get(rec.kind)
        if agg is None:
            agg = self._open[rec.kind] = [0, 0, 0.0, None]
        agg[0] += 1
        old, target = rec.old_rate, rec.target_rate
        if target < old:
            agg[1] += 1
        err = abs(rec.achieved_rate - target) / max(abs(old), abs(target),
                                                    1e-30)
        if err > agg[2] or err != err:
            agg[2] = err
        if rec.energy_bracket is not None:
            err = abs(rec.energy_bracket) / max(rec.energy_scale, 1e-30)
            if agg[3] is None or err > agg[3] or err != err:
                agg[3] = err

    def close(self, t):
        self.rows.extend(StageRow(self._t_start, t, kind, *agg)
                         for kind, agg in self._open.items())
        self._open = {}
        self._t_start = t


@dataclass
class Trajectory:
    """Everything a run emits: cadence snapshots, invariant reports, the
    ``CorrectionLog`` that folds the report of every corrector call per
    snapshot interval, and (on failure) the error that ended the run with
    the partial record retained."""

    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    stage_records: CorrectionLog = field(default_factory=CorrectionLog)
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
    ``ConfigurationError`` and every other exception propagate.  The
    trajectory's ``CorrectionLog`` closes an interval at each snapshot and
    when the run ends: at t_end, or when a run ends in an error at the end
    of the failing step, so every row's ``t_end`` bounds the stage times of
    its records.
    """
    traj = Trajectory()
    problem.stage_records = traj.stage_records
    t_end, dt_override, max_steps = plan.t_end, plan.dt_override, plan.max_steps
    cfl, dt_max = plan.cfl, plan.dt_max

    y = problem.initial_array()
    t = 0.0
    if plan.n_snapshots > 1 and t_end > 0:
        snap_times = np.linspace(0.0, t_end, plan.n_snapshots).tolist()
    else:
        snap_times = [0.0]
    n_snaps = len(snap_times)

    def record(y, t):
        traj.times.append(t)
        traj.snapshots.append(problem.snapshot(y))
        traj.reports.append(problem.report(y, t))
        traj.stage_records.close(t)

    def fail(error, t_close):
        traj.error = error
        traj.stage_records.close(t_close)
        return traj

    record(y, t)
    if t_end <= 0:
        return traj

    next_snap = 1
    stepper = discrete_step if plan.integrator == DISCRETE else (
        forward_euler_step if plan.integrator == FORWARD_EULER else ssprk3_step)
    advance = problem.increment if plan.integrator == DISCRETE else problem.rhs
    stable_dt = problem.stable_dt
    post_step = getattr(problem, "post_step", None)
    observe = getattr(problem, "observe", None)
    t_stop, dt_floor = t_end - 1e-12 * t_end, 1e-14 * t_end

    step = 0
    while t < t_stop:
        if step >= max_steps:
            return fail(NumericalBlowup("step budget exhausted", step, t), t)
        if dt_override is not None:
            dt = dt_override
        else:
            dt = stable_dt(y, cfl, dt_max)
        if next_snap < n_snaps:
            dt = min(dt, snap_times[next_snap] - t)
        dt = min(dt, t_end - t)
        if not math.isfinite(dt) or dt <= dt_floor:
            return fail(NumericalBlowup("timestep underflow", step, t), t)

        try:
            y_new = stepper(y, t, dt, advance)
            if post_step is not None:
                y_new = post_step(y, y_new, t, dt)
            y = y_new
        except ConfigurationError:
            raise
        except InvariantGuardError as exc:  # numerical failures are part of the record
            exc.time = t
            return fail(exc, t + dt)
        t += dt
        step += 1

        if not all_finite(y):
            return fail(NumericalBlowup("non-finite state", step, t), t)
        if observe is not None:
            observe(y, t, traj)
        while next_snap < n_snaps and t >= snap_times[next_snap] - 1e-12:
            record(y, snap_times[next_snap])
            next_snap += 1
    traj.stage_records.close(t)
    return traj
