import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from invariant_guard import correctors as co
from invariant_guard.cli import build_driver, bundled_config
from invariant_guard.config import parse_config
from invariant_guard.core import (FvField1D, SpectralField, UniformGrid1D)
from invariant_guard.dg import burgers_centered_rule, dg_project
from invariant_guard.drivers import (DgScalar1D, Euler1D, FtcsAdvection,
                                     ScalarFv1D, SpectralAdvection)
from invariant_guard.errors import (ConfigurationError, DegenerateCorrection,
                                    NonFiniteState, NumericalBlowup)
from invariant_guard.problems import ic_sine, ic_sum_of_sines
from invariant_guard.schemes import FluxScheme
from invariant_guard.timeloop import (StepPlan, all_finite, cfl_dt, cfl_dt_2d,
                                      discrete_step, run, ssprk3_step)


def test_cfl_dt_examples():
    assert cfl_dt(1.0, 0.1, 0.3, 1.0) == pytest.approx(0.03, rel=1e-15)
    assert cfl_dt(0.0, 0.1, 0.3, 0.7) == 0.7          # degenerate speed
    # Euler sound speed case: dt = cfl dx / sqrt(1.4)
    assert cfl_dt(np.sqrt(1.4), 0.1, 0.3, 1.0) == \
        pytest.approx(0.03 / np.sqrt(1.4), rel=1e-14)
    assert cfl_dt_2d(1.0, 2.0, 0.5, 0.25, 0.3, 1.0) == \
        pytest.approx(0.3 / (2.0 + 8.0), rel=1e-14)


def test_ssprk3_zero_rhs():
    y = np.array([1.0, -2.0, 3.0])
    out = ssprk3_step(y, 0.0, 0.1, lambda u, t, dt: np.zeros(3))
    assert np.allclose(out, y, atol=1e-16)


def test_ssprk3_stability_polynomial():
    # u' = -u: one step must equal 1 - z + z^2/2 - z^3/6 at z = dt
    for dt in (0.1, 0.37, 1.0):
        out = ssprk3_step(np.array([1.0]), 0.0, dt, lambda u, t, h: -u)
        poly = 1.0 - dt + dt**2 / 2.0 - dt**3 / 6.0
        assert out[0] == pytest.approx(poly, rel=1e-14)


def test_ssprk3_third_order_on_exact_advection():
    # spectral RHS is exact in space, so dt halving shows pure 3rd order
    g_len = 2 * np.pi
    coeffs = np.zeros(5, dtype=complex)
    coeffs[1] = 0.4 - 0.3j
    coeffs[2] = 0.1 + 0.2j
    ic = SpectralField(g_len, coeffs)
    errs = []
    for dt in (0.1, 0.05, 0.025):
        drv = SpectralAdvection(ic, c=1.0)
        plan = StepPlan(t_end=1.0, n_snapshots=2, dt_override=dt)
        tr = run(plan, drv)
        m = np.arange(5)
        exact = ic.coeffs * np.exp(-2j * np.pi * m * 1.0 / g_len)
        errs.append(np.abs(tr.snapshots[-1] - exact).max())
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 6.5 <= r1 <= 9.5, r1
    assert 6.5 <= r2 <= 9.5, r2


def test_clamp_chain_is_noop_on_monotone_flux():
    g = UniformGrid1D(32, 1.0)
    ic = ic_sine(g)
    plain = ScalarFv1D(ic, "advection", FluxScheme.UPWIND, c=1.0)
    chained = ScalarFv1D(ic, "advection", FluxScheme.UPWIND, c=1.0,
                         target=co.L2RateTarget.clamp())
    plan = StepPlan(t_end=0.5, cfl=0.3, n_snapshots=6)
    tr1, tr2 = run(plan, plain), run(plan, chained)
    for a, b in zip(tr1.snapshots, tr2.snapshots):
        assert np.array_equal(a, b)


def test_discrete_step_and_ftcs_chain():
    g = UniformGrid1D(16, 1.0)
    u = ic_sine(g)
    out = discrete_step(u.values, 0.0, 0.1, lambda y, t, dt: np.zeros(16))
    assert np.array_equal(out, u.values)

    plan = StepPlan(integrator="discrete", t_end=0.5, cfl=0.5, n_snapshots=6)
    tr = run(plan, FtcsAdvection(u, c=1.0, target=co.L2RateTarget.fixed(0.0)))
    l2 = np.array([r.l2 for r in tr.reports])
    assert np.abs(l2 / l2[0] - 1.0).max() <= 1e-12


def test_forward_euler_step_corrector_holds_l2():
    # per stage the flux corrector pins dl2/dt = 0, but a forward-Euler step
    # still adds dt^2 |N|^2 / 2 to l2; the step corrector removes exactly that
    ic = ic_sine(UniformGrid1D(64, 1.0))
    plan = StepPlan(integrator="forward_euler", cfl=0.3, t_end=1.0,
                    n_snapshots=11)
    growth = {}
    for step_target in (co.L2RateTarget.fixed(0.0), None):
        drv = ScalarFv1D(ic, "burgers", FluxScheme.CENTERED,
                         target=co.L2RateTarget.fixed(0.0),
                         step_target=step_target)
        tr = run(plan, drv)
        assert tr.error is None
        l2 = np.array([r.l2 for r in tr.reports])
        growth[step_target] = l2 / l2[0] - 1.0
        if step_target is not None:
            kinds = Counter()
            for row in tr.stage_records.rows:
                kinds[row.kind] += row.records
            # one stage, so one flux correction, per step
            assert kinds["l2"] == kinds["step_delta_l2"] > 0
            assert len(tr.stage_records) == sum(kinds.values()) \
                == 2 * kinds["l2"]
    assert np.abs(growth[co.L2RateTarget.fixed(0.0)]).max() <= 1e-12
    assert growth[None][-1] > 10.0


def test_correction_log_closes_each_snapshot_interval_and_the_failure():
    # 12 steps of 0.01 cross the snapshots at 0.05 and 0.1, and the step
    # budget ends the run at t = 0.12 with its last interval still open
    drv = ScalarFv1D(ic_sine(UniformGrid1D(32, 1.0)), "burgers",
                     FluxScheme.CENTERED, target=co.L2RateTarget.fixed(-0.1))
    tr = run(StepPlan(t_end=0.2, n_snapshots=5, dt_override=0.01,
                      max_steps=12), drv)
    assert isinstance(tr.error, NumericalBlowup)
    rows = tr.stage_records.rows
    assert [row.kind for row in rows] == ["l2"] * 3
    assert [(row.t_start, row.t_end) for row in rows] == pytest.approx(
        [(0.0, 0.05), (0.05, 0.1), (0.1, tr.error.time)])
    assert [row.records for row in rows] == [15, 15, 6]
    assert len(tr.stage_records) == 36
    # the centered flux keeps l2, so every old rate sits above -0.1
    assert all(row.below_old == row.records for row in rows)
    assert max(row.max_rate_error for row in rows) <= 1e-12
    assert all(row.max_energy_error is None for row in rows)


def test_correction_log_closes_a_failed_step_at_its_end(monkeypatch):
    # the step from the snapshot at t = 0.05 fails in its third stage
    # (stage time 0.055) after its first two (0.05 and 0.06) were logged:
    # the last row ends at the step's end, past both stage times
    correct = co.correct_flux_l2_1d
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 18:
            raise DegenerateCorrection("injected")
        return correct(*args)
    monkeypatch.setattr(co, "correct_flux_l2_1d", failing)
    drv = ScalarFv1D(ic_sine(UniformGrid1D(32, 1.0)), "burgers",
                     FluxScheme.CENTERED, target=co.L2RateTarget.fixed(-0.1))
    tr = run(StepPlan(t_end=0.2, n_snapshots=5, dt_override=0.01), drv)
    assert isinstance(tr.error, DegenerateCorrection)
    assert tr.error.time == pytest.approx(0.05)
    rows = tr.stage_records.rows
    np.testing.assert_allclose([(row.t_start, row.t_end) for row in rows],
                               [(0.0, 0.05), (0.05, 0.06)], rtol=1e-12)
    assert [row.records for row in rows] == [15, 2]
    assert len(tr.stage_records) == 17


def test_correction_log_memory_does_not_grow_with_steps():
    # the corrected fig5 DG run to t_end and to 4 t_end, 21 snapshots each:
    # what the run leaves allocated grows with the snapshots, not the steps
    ec = parse_config(bundled_config("fig5_dg_burgers"))
    variant = next(v for v in ec.variants if v.label == "dg_l2_zero")

    def retained(t_end):
        driver = build_driver(ec, variant, 32)
        tracemalloc.start()
        try:
            tr = run(StepPlan(cfl=ec.cfl, t_end=t_end,
                              n_snapshots=ec.snapshots), driver)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tr.error is None and len(tr.snapshots) == ec.snapshots
        return size, len(tr.stage_records)
    retained(0.075)  # first-run allocations are not the log's
    short, long = retained(0.075), retained(0.3)
    assert long[1] > 4 * short[1]
    assert long[0] <= 1.5 * short[0]


def test_zero_duration_run():
    g = UniformGrid1D(8, 1.0)
    drv = ScalarFv1D(ic_sine(g), "advection", FluxScheme.UPWIND, c=1.0)
    tr = run(StepPlan(t_end=0.0, n_snapshots=1), drv)
    assert len(tr.snapshots) == 1 and tr.times == [0.0]


@pytest.mark.parametrize("max_steps, complete", [(10, True), (9, False)])
def test_step_budget_counts_only_unfinished_runs(max_steps, complete):
    # the run reaches t_end in exactly 10 steps
    g = UniformGrid1D(16, 1.0)
    drv = ScalarFv1D(ic_sine(g), "advection", FluxScheme.UPWIND, c=1.0)
    tr = run(StepPlan(t_end=0.1, cfl=0.5, n_snapshots=3, max_steps=max_steps),
             drv)
    assert (tr.error is None) == complete
    if not complete:
        assert isinstance(tr.error, NumericalBlowup)
        assert "step budget" in str(tr.error)
    assert len(tr.times) == (3 if complete else 2)


def test_advection_one_period_translation_identity():
    coeffs = np.zeros(5, dtype=complex)
    coeffs[1] = 0.5 + 0.1j
    coeffs[2] = -0.2 + 0.3j
    ic = SpectralField(2 * np.pi, coeffs)
    drv = SpectralAdvection(ic, c=1.0)
    plan = StepPlan(t_end=2 * np.pi, n_snapshots=2, dt_override=2 * np.pi / 20000)
    tr = run(plan, drv)
    assert np.abs(tr.snapshots[-1] - ic.coeffs).max() <= 1e-10


def test_determinism_same_seed_same_trajectory():
    from invariant_guard.problems import ic_sum_of_sines
    g = UniformGrid1D(32, 1.0)
    plan = StepPlan(t_end=0.5, cfl=0.3, n_snapshots=6)
    runs = []
    for _ in range(2):
        ic = ic_sum_of_sines(g, seed=9, family="advection")
        tr = run(plan, ScalarFv1D(ic, "advection", FluxScheme.MUSCL_MC, c=1.0))
        runs.append(np.asarray(tr.snapshots))
    assert np.array_equal(runs[0], runs[1])


def test_blowup_keeps_partial_trajectory():
    g = UniformGrid1D(16, 1.0)

    class Exploding(ScalarFv1D):
        def rhs(self, y, t, dt):
            return y * 1e6  # exponential blowup

    drv = Exploding(ic_sine(g), "advection", FluxScheme.UPWIND, c=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = run(StepPlan(t_end=1.0, cfl=0.3, n_snapshots=11, dt_override=0.01),
                 drv)
    assert tr.error is not None
    assert len(tr.snapshots) >= 1  # the initial snapshot survives


def _small_driver(kind):
    g = UniformGrid1D(16, 1.0)
    if kind == "ScalarFv1D":
        return ScalarFv1D(ic_sine(g), "advection", FluxScheme.UPWIND, c=1.0)
    if kind == "DgScalar1D":
        return DgScalar1D(dg_project(g, 1, lambda x: np.sin(2.0 * np.pi * x)),
                          lambda u: 0.5 * u * u, burgers_centered_rule)
    return Euler1D(ic_sum_of_sines(g, 3, "euler1d"))


@pytest.mark.parametrize("stage", [1, 2, 3])
@pytest.mark.parametrize("kind", ["ScalarFv1D", "DgScalar1D", "Euler1D"])
def test_non_finite_stage_is_recorded(kind, stage):
    # stage ``stage`` of step 2 overflows.  After stage 1 or 2 the stepper
    # rejects the stage state before the next stage runs; after stage 3 the
    # loop rejects the step's result.  Either way the run records the error
    # and does not raise.
    drv = _small_driver(kind)
    rhs, times = drv.rhs, []

    def overflowing(y, t, dt):
        times.append(t)
        if len(times) == 3 + stage:
            return np.full_like(y, np.inf)
        return rhs(y, t, dt)
    drv.rhs = overflowing
    dt = 1e-3
    with np.errstate(invalid="ignore"):
        tr = run(StepPlan(t_end=1.0, n_snapshots=2, dt_override=dt), drv)
    assert len(times) == 3 + stage          # no stage ran after the overflow
    assert dt <= times[-1] <= 2 * dt        # on step 2
    if stage < 3:
        assert isinstance(tr.error, NonFiniteState)
        assert isinstance(tr.error, ValueError)
    else:
        assert isinstance(tr.error, NumericalBlowup)
        assert tr.error.step == 2
    assert len(tr.snapshots) == 1


def _finiteness_cases():
    """Float64 and complex128 states: inf, -inf and NaN at the first, a
    middle and the last entry (of either part of a complex state), and
    finite extremes: +-1.7e308, subnormals and -0.0."""
    base = np.random.default_rng(8).normal(size=9)
    reals = [base, np.array([0.0]), np.array([-0.0, 0.0, -0.0]),
             np.array([1.7e308, -1.7e308, 1.7e308]),
             np.array([5e-324, -5e-324, 2.2e-310, -0.0])]
    for bad in (np.inf, -np.inf, np.nan):
        for i in (0, 4, 8):
            u = base.copy()
            u[i] = bad
            reals.append(u)
    cases = list(reals)
    for re in reals:
        for im in reals:
            if len(re) == len(im):
                u = re.astype(complex)
                u.imag = im     # 1j * inf would put a NaN in the real part
                cases.append(u)
    return cases


def test_all_finite_answers_as_isfinite_all():
    # the loop's and the stepper's check is a dot product with zeros; its
    # answer is np.isfinite(u).all() on every state, a NaN only in an
    # imaginary part included, and it warns of nothing
    cases = _finiteness_cases()
    assert any(np.isnan(u.imag).any() and np.isfinite(u.real).all()
               for u in cases)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in cases:
            assert all_finite(u) is bool(np.isfinite(u).all()), u


def _raising_driver(exc):
    g = UniformGrid1D(16, 1.0)

    class Raising(ScalarFv1D):
        def rhs(self, y, t, dt):
            raise exc

    return Raising(ic_sine(g), "advection", FluxScheme.UPWIND, c=1.0)


@pytest.mark.parametrize("exc", [TypeError("bug in rhs"),
                                 ConfigurationError("bad option")])
def test_programming_and_configuration_errors_propagate(exc):
    with pytest.raises(type(exc)):
        run(StepPlan(t_end=1.0, n_snapshots=2, dt_override=0.1),
            _raising_driver(exc))


def test_corrector_error_is_recorded():
    exc = DegenerateCorrection("zero denominator")
    tr = run(StepPlan(t_end=1.0, n_snapshots=2, dt_override=0.1),
             _raising_driver(exc))
    assert tr.error is exc
    assert len(tr.snapshots) == 1


def test_stepplan_validation():
    with pytest.raises(ValueError):
        StepPlan(cfl=0.0)
    with pytest.raises(ValueError):
        StepPlan(integrator="rk4")
