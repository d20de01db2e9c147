"""Time integration with corrector hooks: SSPRK3 and the discrete-update
path, plus the simulation driver.  A stepper takes the array ``y``, its
evaluated ``state``, ``t``, ``dt``, the driver's stage hook and
``evaluate``, and returns the next array."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, InvariantGuardError, NonFiniteState,
                     NumericalBlowup)


@dataclass
class StepPlan:
    cfl: float = 0.3
    t_end: float = 1.0
    n_snapshots: int = 11
    max_steps: int = 200000

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.n_snapshots < 1:
            raise ValueError("need at least the initial snapshot")


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


def all_finite(u):
    """Whether every entry of a float64 or complex128 state is finite."""
    return bool(np.isfinite(u).all())


def _check_stage(u):
    if not all_finite(u):
        raise NonFiniteState("Runge-Kutta stage state must be finite")


def ssprk3_step(y, state, t, dt, rhs, evaluate):
    """Shu-Osher 3rd-order SSP step from the array ``y`` and its evaluated
    ``state = evaluate(y)``; ``rhs(state, t, dt)`` is called once per stage.

    The two intermediate stage states are checked here for finiteness and
    evaluated, once each; a non-finite one raises ``NonFiniteState`` before
    it is evaluated.  ``y`` and the result are the caller's to check and
    evaluate, as ``run`` does every step.
    """
    u1 = y + dt * rhs(state, t, dt)
    _check_stage(u1)
    u2 = 0.75 * y + 0.25 * (u1 + dt * rhs(evaluate(u1), t + dt, dt))
    _check_stage(u2)
    u3 = u2 + dt * rhs(evaluate(u2), t + 0.5 * dt, dt)
    return y / 3.0 + 2.0 / 3.0 * u3


def forward_euler_step(y, state, t, dt, rhs, evaluate):
    """One forward-Euler step.  ``run`` never takes it; it stays only because
    ``bench/spans.py`` wraps this name."""
    return y + dt * rhs(state, t, dt)


def discrete_step(y, state, t, dt, increment, evaluate):
    """Single increment application u + Delta u (the FTCS-demo path), with
    no intermediate state to evaluate."""
    return y + increment(state, t, dt)


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
    times k * t_end / (n_snapshots - 1), with dt capped at 0.1 * t_end.

    The driver supplies ``initial_array()``, ``evaluate(y)``,
    ``stable_dt(state, cfl, dt_max)``, ``post_step(start, y_new, t, dt)``,
    ``report(state, t)``, an optional ``observe(state, t, traj)`` and one
    stage hook, each looked up once.  The hook picks the stepper: a driver
    with ``increment(state, t, dt)`` steps by ``discrete_step``, any other
    by ``ssprk3_step`` with its ``rhs(state, t, dt)``.  Each state array is
    checked for finiteness and then evaluated once: the initial one and
    each step's result here, after ``post_step``, the intermediate stage
    states in the stepper.  A step's evaluated end state serves
    ``observe``, a snapshot's ``report``, the next ``stable_dt`` and the
    next step's first stage; a snapshot stores a copy of the array.
    Blowups and other ``InvariantGuardError``s, a failed evaluation
    included, surface as a trajectory with ``error`` set, its ``time`` the
    failing step's, and the partial record intact; ``ConfigurationError``
    and every other exception propagate.  The trajectory's
    ``CorrectionLog`` closes an interval at each snapshot and when the run
    ends: at t_end, or when a run ends in an error at the end of the
    failing step, so every row's ``t_end`` bounds the stage times of its
    records.
    """
    traj = Trajectory()
    problem.stage_records = traj.stage_records
    t_end, max_steps, cfl = plan.t_end, plan.max_steps, plan.cfl
    evaluate = problem.evaluate

    y = problem.initial_array()
    state = evaluate(y)
    t = 0.0
    if plan.n_snapshots > 1 and t_end > 0:
        snap_times = np.linspace(0.0, t_end, plan.n_snapshots).tolist()
    else:
        snap_times = [0.0]
    n_snaps = len(snap_times)

    def record(y, state, t):
        traj.times.append(t)
        traj.snapshots.append(y.copy())
        traj.reports.append(problem.report(state, t))
        traj.stage_records.close(t)

    def fail(error, t_close):
        traj.error = error
        traj.stage_records.close(t_close)
        return traj

    record(y, state, t)
    if t_end <= 0:
        return traj

    next_snap = 1
    if hasattr(problem, "increment"):
        stepper, advance = discrete_step, problem.increment
    else:
        stepper, advance = ssprk3_step, problem.rhs
    stable_dt, post_step = problem.stable_dt, problem.post_step
    observe = getattr(problem, "observe", None)
    dt_max = 0.1 * t_end
    t_stop, dt_floor = t_end - 1e-12 * t_end, 1e-14 * t_end

    step = 0
    while t < t_stop:
        if step >= max_steps:
            return fail(NumericalBlowup("step budget exhausted", step, t), t)
        dt = stable_dt(state, cfl, dt_max)
        if next_snap < n_snaps:
            dt = min(dt, snap_times[next_snap] - t)
        dt = min(dt, t_end - t)
        if not math.isfinite(dt) or dt <= dt_floor:
            return fail(NumericalBlowup("timestep underflow", step, t), t)

        start = state
        try:
            y = stepper(y, start, t, dt, advance, evaluate)
            y = post_step(start, y, t, dt)
            # None: a non-finite result, which is not evaluated
            state = evaluate(y) if all_finite(y) else None
        except ConfigurationError:
            raise
        except InvariantGuardError as exc:  # numerical failures are part of the record
            exc.time = t
            return fail(exc, t + dt)
        t += dt
        step += 1

        if state is None:
            return fail(NumericalBlowup("non-finite state", step, t), t)
        if observe is not None:
            observe(state, t, traj)
        while next_snap < n_snaps and t >= snap_times[next_snap] - 1e-12:
            record(y, state, snap_times[next_snap])
            next_snap += 1
    traj.stage_records.close(t)
    return traj
