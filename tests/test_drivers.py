"""Drivers record what the correctors report instead of re-measuring it."""

import warnings

import numpy as np
import pytest

from invariant_guard import correctors as co
from invariant_guard.core import UniformGrid1D, UniformGrid2D
from invariant_guard.dg import burgers_centered_rule, dg_project
from invariant_guard.drivers import (DgScalar1D, Euler1D, FtcsAdvection,
                                     NonconservativeBurgers1D, ScalarFv1D,
                                     Vorticity2D)
from invariant_guard.problems import (ic_random_vorticity, ic_sine, ic_sod,
                                      ic_sum_of_sines)
from invariant_guard.schemes import FluxScheme
from invariant_guard.surrogate import SurrogateFluxRule
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


def test_euler_stage_state_is_the_stage_array():
    # the stage state wraps y without a copy, and the Dirichlet boundary is
    # the pair of conserved end cells of the initial condition
    ic = ic_sod(UniformGrid1D(8, 1.0, boundary="dirichlet"))
    driver = Euler1D(ic)
    y = driver.initial_array()
    assert np.shares_memory(driver.state_of(y).u, y)
    left, right = driver.boundary_state
    assert np.array_equal(left, ic.u[0]) and np.array_equal(right, ic.u[-1])


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
                           target=src)
    y, dt = driver.initial_array(), 0.005
    for t in (0.0, 0.4):
        y_new = y + driver.increment(y, t, dt)
        change = driver.report(y_new, t + dt).l2 - driver.report(y, t).l2
        assert change == pytest.approx(src.rate_at(t + 0.5 * dt) * dt,
                                       rel=1e-9)
        y = y_new


def _stage_path_drivers():
    g = UniformGrid1D(32, 1.0)
    fixed = co.L2RateTarget.fixed(-0.1)
    dg_ic = dg_project(g, 2, lambda x: np.sin(2.0 * np.pi * x))
    return {
        "centered": ScalarFv1D(ic_sine(g), "burgers", FluxScheme.CENTERED,
                               target=fixed, step_target=co.L2RateTarget.clamp()),
        "godunov": ScalarFv1D(ic_sine(g), "burgers", FluxScheme.GODUNOV,
                              nu=1e-3),
        "muscl": ScalarFv1D(ic_sine(g), "advection", FluxScheme.MUSCL_MC,
                            target=fixed),
        "surrogate": ScalarFv1D(
            ic_sine(g), "advection",
            SurrogateFluxRule(FluxScheme.UPWIND, "advection", 1.5, 0),
            target=co.L2RateTarget.clamp()),
        "nonconservative": NonconservativeBurgers1D(ic_sine(g), target=fixed),
        "ftcs": FtcsAdvection(ic_sine(g), target=co.L2RateTarget.clamp()),
        "dg_diffusion": DgScalar1D(dg_ic, lambda u: 0.5 * u * u,
                                   burgers_centered_rule, target=fixed),
        "vorticity": Vorticity2D(
            ic_random_vorticity(UniformGrid2D(16, 16, 1.0, 1.0), 42),
            corrector="flux_l2", target=fixed, nu=1e-3, step_target=co.L2RateTarget.clamp()),
        "periodic_euler": Euler1D(ic_sum_of_sines(g, 3, "euler1d"),
                                  entropy_ratio=0.5),
    }


@pytest.mark.parametrize("name", list(_stage_path_drivers()))
def test_stage_path_makes_no_roll(monkeypatch, name):
    # periodic neighbours come from core.shift on every stage path; only
    # verification.py, the independent re-measurement, keeps np.roll
    driver = _stage_path_drivers()[name]

    def roll(*args, **kwargs):
        raise AssertionError("np.roll on the stage path")
    monkeypatch.setattr(np, "roll", roll)
    integrator = "discrete" if name == "ftcs" else "ssprk3"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
        traj = run(StepPlan(integrator, t_end=1e-3, n_snapshots=2, dt_max=1e-3),
                   driver)
    assert traj.error is None and traj.times == [0.0, 1e-3]
    assert name == "godunov" or traj.stage_records
