"""Drivers record what the correctors report instead of re-measuring it."""

import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from invariant_guard import correctors as co
from invariant_guard import core, drivers, schemes, timeloop
from invariant_guard.core import (DgField, EulerState1D, UniformGrid1D,
                                  UniformGrid2D)
from invariant_guard.dg import burgers_centered_rule, dg_project
from invariant_guard.drivers import (DgScalar1D, Euler1D, FtcsAdvection,
                                     NonconservativeBurgers1D, ScalarFv1D,
                                     Vorticity2D)
from invariant_guard.errors import ConfigurationError
from invariant_guard.problems import (ic_random_euler, ic_random_vorticity,
                                      ic_sine, ic_sod, ic_sum_of_sines)
from invariant_guard.schemes import FluxScheme
from invariant_guard.surrogate import SurrogateFluxRule
from invariant_guard.timeloop import StepPlan, run


def _calls_per_stage(monkeypatch, driver, plan, *targets, corrected=True):
    """Run ``driver`` with each ``(owner, name)`` of ``targets`` counted
    under ``name``; the trajectory, the run's total counts and one Counter
    of the calls within each rhs call.  A ``corrected`` driver records one
    correction per stage, any other none."""
    total = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            total[name] += 1
            return fn(*args, **kwargs)
        return counted
    for owner, name in targets:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))

    per_stage = []
    rhs = driver.rhs

    def rhs_counted(y, t, dt):
        before = total.copy()
        out = rhs(y, t, dt)
        per_stage.append(total - before)
        return out
    driver.rhs = rhs_counted
    traj = run(plan, driver)
    assert traj.error is None
    assert len(traj.stage_records) == (len(per_stage) if corrected else 0)
    return traj, total, per_stage


def _sod_run(monkeypatch, *targets):
    driver = Euler1D(ic_sod(UniformGrid1D(64, 1.0, boundary="dirichlet")),
                     entropy_ratio=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
        return _calls_per_stage(
            monkeypatch, driver, StepPlan(t_end=0.02, cfl=0.3, n_snapshots=2),
            *targets)


def test_sod_entropy_variables_once_per_stage(monkeypatch):
    # the stage's entropy variables serve the boundary estimate and the
    # corrector
    _, _, per_stage = _sod_run(monkeypatch, (co, "entropy_variables_euler1d"))
    assert per_stage
    assert max(c["entropy_variables_euler1d"] for c in per_stage) <= 1


def test_sod_stage_takes_pressure_and_ghost_rows_once(monkeypatch):
    # the flux, the limiter, the boundary estimate and the entropy corrector
    # share one pressure and one ghost-row array per stage; psi of the fixed
    # Dirichlet pair is computed once per driver
    _, total, per_stage = _sod_run(
        monkeypatch, (EulerState1D, "pressure"), (schemes, "ghost_rows"),
        (co, "ghost_rows"), (co, "entropy_flux_pair"))
    assert len(per_stage) > 3
    for calls in per_stage:
        assert calls["pressure"] <= 1 and calls["ghost_rows"] <= 1
    assert total["entropy_flux_pair"] == 1


def _stage_inputs(monkeypatch, driver, plan):
    """(y, t, dt) of every stage of a run of ``driver``, with whether the
    positivity limiter built its Lax-Friedrichs fallback in that stage."""
    built = [0]
    fallback = co.local_lax_friedrichs_fluxes

    def counted(*args):
        built[0] += 1
        return fallback(*args)
    monkeypatch.setattr(co, "local_lax_friedrichs_fluxes", counted)

    stages = []
    rhs = driver.rhs

    def captured(y, t, dt):
        before = built[0]
        out = rhs(y, t, dt)
        stages.append((y.copy(), t, dt, built[0] > before))
        return out
    driver.rhs = captured
    traj = run(plan, driver)
    del driver.rhs
    assert traj.error is None
    return stages


def _standalone_rhs(driver, y, dt):
    """One stage through the public entry points, each given the bare state
    and the Dirichlet pair as the functions that take it make it (ghost
    rows, the pair's psi), and computing the rest itself."""
    state = driver.state_of(y)
    pair = driver.boundary_state
    rows = schemes.ghost_rows(state, pair)
    f = schemes.euler1d_muscl_flux(state, rows=rows)
    if driver.positivity:
        f = co.limit_positivity_euler1d(f, state, dt, driver.eps_pos,
                                        rows=rows)
    if driver.entropy_ratio is not None:
        psi = None if pair is None else co.entropy_flux_pair(pair, state.gamma)
        boundary = co.estimate_boundary_entropy_flux(state, boundary_psi=psi)
        f, _ = co.correct_entropy_euler1d(
            f, state, co.EntropyRateTarget(boundary, driver.entropy_ratio))
    return schemes.euler1d_rhs(f, driver.grid).ravel()


def _double_rarefaction(n=64, v=2.0):
    # the 1-2-3 problem: two rarefactions leave a near-vacuum between them
    g = UniformGrid1D(n, 1.0, "dirichlet")
    x = g.cell_centers()
    return EulerState1D.from_primitive(g, np.ones(n), np.where(x < 0.5, -v, v),
                                       np.full(n, 0.4), 1.4)


def _random_periodic_euler(n=32, seed=5):
    rng = np.random.default_rng(seed)
    return EulerState1D.from_primitive(
        UniformGrid1D(n, 1.0), rng.uniform(0.5, 2.0, n),
        rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0, n), 1.4)


EULER_STAGE_CASES = {
    "sod_r0": (lambda: ic_sod(UniformGrid1D(64, 1.0, "dirichlet")), 0.0, 0.02),
    "sod_r1": (lambda: ic_sod(UniformGrid1D(64, 1.0, "dirichlet")), 1.0, 0.02),
    "sod_r2": (lambda: ic_sod(UniformGrid1D(64, 1.0, "dirichlet")), 2.0, 0.02),
    "random_periodic": (_random_periodic_euler, 0.5, 0.01),
    # R = 2 reads the boundary estimate, whose pair has psi of both signs;
    # the limiter builds its fallback in the last steps
    "double_rarefaction": (_double_rarefaction, 2.0, 0.012),
}


@pytest.mark.parametrize("case", list(EULER_STAGE_CASES))
def test_euler_stage_is_the_standalone_chain_bitwise(monkeypatch, case):
    make_ic, ratio, t_end = EULER_STAGE_CASES[case]
    driver = Euler1D(make_ic(), entropy_ratio=ratio)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
        stages = _stage_inputs(monkeypatch, driver,
                               StepPlan(t_end=t_end, cfl=0.3, n_snapshots=2))
        assert len(stages) > 3
        if case == "double_rarefaction":
            assert any(fell_back for *_, fell_back in stages)
        for y, t, dt, _ in stages:
            assert driver.rhs(y, t, dt).tobytes() \
                == _standalone_rhs(driver, y, dt).tobytes()


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
    reports = []
    correct = co.correct_flux_l2_1d

    def reporting(*args):
        update, rec = correct(*args)
        reports.append(rec)
        return update, rec
    monkeypatch.setattr(co, "correct_flux_l2_1d", reporting)
    traj, _, per_stage = _calls_per_stage(
        monkeypatch, driver, StepPlan(t_end=0.1, cfl=0.3, n_snapshots=2),
        (co, "flux_l2_rate_1d"))
    assert per_stage
    assert max(c["flux_l2_rate_1d"] for c in per_stage) <= 2
    # the log folds the corrector's reports, stamped by the driver, into
    # intervals that end by t_end
    assert len(reports) == len(traj.stage_records)
    assert all(row.t_end <= 0.1 for row in traj.stage_records.rows)
    for rec in reports:
        assert isinstance(rec, co.Correction)
        assert rec.kind == "l2"
        assert rec.target_rate == -0.1
        assert np.isclose(rec.achieved_rate, -0.1, rtol=1e-12)


@pytest.mark.parametrize("target", [None, co.L2RateTarget.fixed(0.0)],
                         ids=["uncorrected", "fixed0"])
def test_scalar_stage_builds_a_field_only_to_correct(monkeypatch, target):
    # an uncorrected stage hands y to the bound rule and divergence: no
    # field, no checked fv_rhs_1d and no shift; a corrected one builds one
    # field for co.correct_flux_l2_1d, looked up on the module, so the
    # correctors.correct span of bench/spans.py sees it
    driver = ScalarFv1D(ic_sine(UniformGrid1D(64, 1.0)), "burgers",
                        FluxScheme.CENTERED, target=target)
    _, _, per_stage = _calls_per_stage(
        monkeypatch, driver, StepPlan(t_end=0.02, cfl=0.3, n_snapshots=2),
        (drivers, "_unchecked"), (core.FvField1D, "__init__"),
        (schemes, "fv_rhs_1d"), (core, "shift"), (schemes, "shift"),
        (co, "correct_flux_l2_1d"), corrected=target is not None)
    assert len(per_stage) > 3
    corrected = int(target is not None)
    for calls in per_stage:
        assert calls["_unchecked"] == calls["correct_flux_l2_1d"] == corrected
        assert calls["__init__"] == calls["fv_rhs_1d"] == 0
        if not corrected:
            assert calls["shift"] == 0


@pytest.mark.parametrize("seed", range(3))
def test_nonconservative_stage_equals_two_difference_formula(seed):
    # one array of face differences serves both sides: forward_j is
    # backward_{j+1} bit for bit, zeros of either sign included
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(16) < 0.5, rng.choice([0.0, -0.0, 1.5], 16),
                 rng.normal(size=16))
    driver = NonconservativeBurgers1D(ic_sine(UniformGrid1D(16, 0.7)))
    dx = driver.grid.dx
    backward = (y - core.shift(y, -1)) / dx
    forward = (core.shift(y, 1) - y) / dx
    expected = -y * np.where(y >= 0.0, backward, forward)
    assert driver.rhs(y, 0.0, 1e-3).tobytes() == expected.tobytes()


def test_dg_stage_pads_once_and_reads_no_field(monkeypatch):
    # the operator and the corrector read one padded array per stage; the
    # degree, the basis norms and the quadrature were bound at construction
    driver = DgScalar1D(
        dg_project(UniformGrid1D(16, 1.0), 2, lambda x: np.sin(2.0 * np.pi * x)),
        lambda u: 0.5 * u * u, burgers_centered_rule,
        target=co.L2RateTarget.fixed(-0.1))
    reads = Counter()
    for name in ("degree", "basis_norms"):
        def read(self, fget=getattr(DgField, name).fget, name=name):
            reads[name] += 1
            return fget(self)
        monkeypatch.setattr(DgField, name, property(read))
    handed = {"rhs": [], "correct": []}

    def recording(fn, key, at):     # keeps the argument at position ``at``
        def recorded(*args):
            handed[key].append(args[at])
            return fn(*args)
        return recorded
    driver._rhs = recording(driver._rhs, "rhs", 0)
    driver._correct = recording(driver._correct, "correct", 1)
    stage_reads, rhs = [], driver.rhs

    def rhs_reading(y, t, dt):
        before = reads.copy()
        out = rhs(y, t, dt)
        stage_reads.append(reads - before)
        return out
    driver.rhs = rhs_reading
    _, _, per_stage = _calls_per_stage(
        monkeypatch, driver, StepPlan(t_end=0.02, cfl=0.3, n_snapshots=2),
        (drivers, "periodic_pad"), (np.polynomial.legendre, "leggauss"))
    assert len(per_stage) > 3
    for calls in per_stage:
        assert calls["periodic_pad"] == 1 and calls["leggauss"] == 0
    assert all(not r for r in stage_reads)
    assert len(handed["rhs"]) == len(handed["correct"]) == len(per_stage)
    for padded, seen in zip(handed["rhs"], handed["correct"]):
        assert seen is padded and padded.shape == (18, 3)


@pytest.mark.parametrize("ic", [
    dg_project(UniformGrid1D(8, 1.0, "dirichlet"), 1, np.sin),
    core._unchecked(DgField, grid=UniformGrid1D(8, 1.0),
                    coeffs=np.zeros((8, 4))),
], ids=["bounded", "degree3"])
def test_dg_driver_rejects_unsupported_grid_at_construction(ic):
    with pytest.raises(ConfigurationError):
        DgScalar1D(ic, lambda u: 0.5 * u * u, burgers_centered_rule)


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
        "godunov": ScalarFv1D(ic_sine(g), "burgers", FluxScheme.GODUNOV),
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
        "periodic_euler": Euler1D(ic_random_euler(g, 3),
                                  entropy_ratio=0.5),
    }


@pytest.mark.parametrize("name", list(_stage_path_drivers()))
def test_stage_path_makes_no_roll(monkeypatch, name):
    # periodic neighbours come from slices (1D) or core.shift (2D); verify
    # re-measures with the correctors' own rate functions, so it is no
    # independent check of them (ROADMAP: re-measure from the cell form)
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


@pytest.mark.parametrize("name", list(_stage_path_drivers()))
def test_run_checks_each_state_once(monkeypatch, name):
    # in a run no state goes through a checking field constructor: the
    # stepper checks the two intermediate stage states of each SSPRK3 step
    # and the loop each step's result
    driver = _stage_path_drivers()[name]
    constructed, stage_checks = [], []
    monkeypatch.setattr(core, "_as_float_array", constructed.append)
    check = timeloop._check_stage
    monkeypatch.setattr(timeloop, "_check_stage",
                        lambda u: stage_checks.append(u) or check(u))
    integrator = "discrete" if name == "ftcs" else "ssprk3"
    advance = "increment" if name == "ftcs" else "rhs"
    calls = []
    inner = getattr(driver, advance)
    setattr(driver, advance, lambda y, t, dt: calls.append(t) or inner(y, t, dt))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
        traj = run(StepPlan(integrator, t_end=3e-3, n_snapshots=2, dt_max=1e-3),
                   driver)
    assert traj.error is None and calls
    assert constructed == []
    assert len(stage_checks) == (0 if name == "ftcs" else 2 * len(calls) // 3)


#: every (scheme, equation, c) a scalar flux driver accepts; advection with
#: both signs of c, burgers without one
_FLUX_CASES = [(scheme, equation, c)
               for scheme in FluxScheme
               for equation, speeds in (("advection", (1.3, -0.7)),
                                        ("burgers", (None,)))
               for c in speeds
               if (scheme, equation) != (FluxScheme.UPWIND, "burgers")]


def _flux_case_id(case):
    scheme, equation, c = case
    sign = "" if c is None else ("+c" if c > 0 else "-c")
    return f"{scheme.value}-{equation}{sign}"


def _one_d_stage_drivers():
    """A driver of each 1D kind whose stages read periodic neighbours: the
    flux driver with every scheme it accepts, the surrogate included, with
    and without a flux-l2 target; the non-conservative Burgers and FTCS
    drivers; a periodic gas tube with the entropy corrector."""
    g = UniformGrid1D(16, 1.0)
    fixed = co.L2RateTarget.fixed(-0.1)
    surrogate = (SurrogateFluxRule(FluxScheme.UPWIND, "advection", 0.3, 0,
                                   c=-0.7), "advection", -0.7)
    out = {}
    for case in _FLUX_CASES + [surrogate]:
        scheme, equation, c = case
        name = "surrogate" if case is surrogate else _flux_case_id(case)
        out[name] = ScalarFv1D(ic_sine(g), equation, scheme, c=c)
        out[name + "-flux_l2"] = ScalarFv1D(ic_sine(g), equation, scheme, c=c,
                                            target=fixed)
    out["nonconservative"] = NonconservativeBurgers1D(ic_sine(g), target=fixed)
    out["ftcs"] = FtcsAdvection(ic_sine(g), c=-0.7,
                                target=co.L2RateTarget.clamp())
    out["periodic_euler"] = Euler1D(ic_random_euler(g, 3), entropy_ratio=0.5)
    return out


@pytest.mark.parametrize("name", list(_one_d_stage_drivers()))
def test_one_d_stage_reads_no_shift(monkeypatch, name):
    # core.shift builds a concatenated copy per neighbour read; every 1D
    # stencil reads its neighbours from slices instead
    driver = _one_d_stage_drivers()[name]

    def shift(*args, **kwargs):
        raise AssertionError("core.shift on a 1D stage path")
    original = core.shift
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "invariant_guard" \
                and getattr(module, "shift", None) is original:
            monkeypatch.setattr(module, "shift", shift)
    advance = driver.increment if name == "ftcs" else driver.rhs
    y = driver.initial_array()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
        out = advance(y, 0.0, 1e-3)
    assert out.shape == y.shape and np.isfinite(out).all()


@pytest.mark.parametrize("dt", [1e-2, 3.7e-3])
@pytest.mark.parametrize("case", _FLUX_CASES, ids=_flux_case_id)
def test_bound_flux_rule_equals_numerical_flux(case, dt):
    # the driver binds each rule once; numerical_flux_1d checks and binds
    # on every call; both give the same bytes
    scheme, equation, c = case
    u = ic_sum_of_sines(UniformGrid1D(24, 1.0), 5)
    driver = ScalarFv1D(u, equation, scheme, c=c)
    lf_ratio = u.grid.dx / (2.0 * dt)
    expected = schemes.numerical_flux_1d(scheme, u, equation, c=c,
                                         lf_ratio=lf_ratio)
    assert driver.face_fluxes(u.values, dt).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dt", [1e-2, 3.7e-3])
@pytest.mark.parametrize("base, equation, c, amplitude", [
    (FluxScheme.UPWIND, "advection", 1.0, 1.5),
    (FluxScheme.UPWIND, "advection", -0.7, 0.3),
    (FluxScheme.LAX_FRIEDRICHS, "burgers", None, 0.3),
    (FluxScheme.MUSCL_MC, "advection", 1.0, 0.0),
])
def test_bound_surrogate_rule_equals_perturbed_flux(base, equation, c,
                                                    amplitude, dt):
    u = ic_sum_of_sines(UniformGrid1D(24, 1.0), 5)
    rule = SurrogateFluxRule(base, equation, amplitude, 4, c=c)
    driver = ScalarFv1D(u, equation, rule, c=c)
    expected = schemes.numerical_flux_1d(
        base, u, equation, c=c, lf_ratio=u.grid.dx / (2.0 * dt))
    if amplitude:
        expected = expected * (1.0 + amplitude * rule.perturbation(u.grid))
    assert driver.face_fluxes(u.values, dt).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, boundary, equation, scheme, c", [
    (16, "dirichlet", "advection", FluxScheme.CENTERED, 1.0),
    (16, "periodic", "heat", FluxScheme.CENTERED, 1.0),
    (16, "periodic", "advection", FluxScheme.CENTERED, None),
    (3, "periodic", "advection", FluxScheme.MUSCL_MC, 1.0),
    (3, "periodic", "burgers", FluxScheme.MUSCL_MC, None),
    (16, "periodic", "burgers", FluxScheme.UPWIND, None),
    (16, "periodic", "burgers",
     SurrogateFluxRule(FluxScheme.UPWIND, "burgers", 0.3, 0), None),
    (3, "periodic", "advection",
     SurrogateFluxRule(FluxScheme.MUSCL_MC, "advection", 0.3, 0), 1.0),
    (16, "periodic", "advection", "centered", 1.0),
])
def test_rejected_flux_rule_raises_at_construction(n, boundary, equation,
                                                   scheme, c):
    with pytest.raises(ConfigurationError):
        ScalarFv1D(ic_sine(UniformGrid1D(n, 1.0, boundary)), equation,
                   scheme, c=c)
