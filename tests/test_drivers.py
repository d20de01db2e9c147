"""Drivers record what the correctors report instead of re-measuring it."""

import warnings

import numpy as np
import pytest

from invariant_guard import correctors as co
from invariant_guard.core import UniformGrid1D
from invariant_guard.drivers import Euler1D, FtcsAdvection, ScalarFv1D
from invariant_guard.problems import ic_sine, ic_sod
from invariant_guard.schemes import FluxScheme
from invariant_guard.timeloop import StepPlan, run


def _calls_per_stage(monkeypatch, driver, plan, name):
    """Run ``driver`` with ``co.<name>`` counted; the trajectory and the
    count within each rhs call."""
    calls = [0]
    fn = getattr(co, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(co, name, counted)

    per_stage = []
    rhs = driver.rhs

    def rhs_counted(y, t, dt):
        before = calls[0]
        out = rhs(y, t, dt)
        per_stage.append(calls[0] - before)
        return out
    driver.rhs = rhs_counted
    traj = run(plan, driver)
    assert traj.error is None
    assert len(traj.stage_records) == len(per_stage)   # one record per stage
    return traj, per_stage


def test_sod_entropy_variables_once_per_stage(monkeypatch):
    # inside the corrector; the boundary entropy-flux estimate reads only
    # the two end cells
    driver = Euler1D(ic_sod(UniformGrid1D(64, 1.0, boundary="dirichlet")),
                     entropy_ratio=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
        _, per_stage = _calls_per_stage(
            monkeypatch, driver, StepPlan(t_end=0.02, cfl=0.3, n_snapshots=2),
            "entropy_variables_euler1d")
    assert per_stage and max(per_stage) <= 1


def test_flux_rate_at_most_twice_per_stage(monkeypatch):
    driver = ScalarFv1D(ic_sine(UniformGrid1D(32, 1.0)), "burgers",
                        FluxScheme.CENTERED, target=co.L2RateTarget.fixed(-0.1))
    traj, per_stage = _calls_per_stage(
        monkeypatch, driver, StepPlan(t_end=0.1, cfl=0.3, n_snapshots=2),
        "flux_l2_rate_1d")
    assert per_stage and max(per_stage) <= 2
    # the records are the corrector's reports, stamped by the driver
    for rec in traj.stage_records:
        assert isinstance(rec, co.Correction)
        assert rec.kind == "l2" and 0.0 <= rec.t <= 0.1
        assert rec.target_rate == -0.1
        assert np.isclose(rec.achieved_rate, -0.1, rtol=1e-12)


def test_ftcs_tracked_step_changes_l2_by_rate_times_dt():
    # the FTCS increment corrector reads a step spec, as step_correction does
    src = co.TrackedRateSource([0.0, 1.0], [-0.1, -0.3])
    driver = FtcsAdvection(ic_sine(UniformGrid1D(64, 1.0)), c=1.0,
                           delta_l2=src)
    y, dt = driver.initial_array(), 0.005
    for t in (0.0, 0.4):
        y_new = y + driver.increment(y, t, dt)
        change = driver.report(y_new, t + dt).l2 - driver.report(y, t).l2
        assert change == pytest.approx(src.rate_at(t + 0.5 * dt) * dt,
                                       rel=1e-9)
        y = y_new
