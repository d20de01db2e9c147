"""Experiment harness: `invariant-guard run|verify|sweep <config>`.

`run` and `sweep` share one loop over the (resolution, variant) runs of a
config.  Outputs are CSV only: `run` writes one sub-directory per run (its
trajectory, invariants, correction log per snapshot interval and, with a
reference, metrics) plus an optional reference run, `sweep` one row of
sweep.csv per run; a `manifest` file records the config hash, package and
numpy versions, and per-run status.  Exit codes: 0 ok, 1 property failure,
2 config or runtime error (any ``InvariantGuardError``).  Any other
exception is a bug and is left uncaught: Python prints its traceback and
exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from . import correctors as co
from .config import ExperimentConfig, VariantConfig, parse_config, rate_spec
from .core import (FvField1D, UniformGrid1D, UniformGrid2D, bracket,
                   coarse_grain, coarse_grain_2d, FvField2D)
from .diagnostics import InvariantReport, mae, normalized_mse, vorticity_correlation
from .dg import burgers_centered_rule, dg_project
from .drivers import (DgScalar1D, Euler1D, FtcsAdvection,
                      NonconservativeBurgers1D, ScalarFv1D, Vorticity2D)
from .errors import ConfigurationError, InvariantGuardError
from .problems import (ic_random_euler, ic_random_vorticity, ic_sine, ic_sod,
                       ic_sum_of_sines)
from .schemes import FluxScheme
from .surrogate import SurrogateFluxRule
from .timeloop import StageRow, StepPlan, run


def bundled_config(name):
    """Path of a bundled experiment config, e.g. 'fig1_burgers_centered'."""
    path = Path(__file__).parent / "configs" / f"{name}.cfg"
    if not path.exists():
        available = sorted(p.stem for p in path.parent.glob("*.cfg"))
        raise ConfigurationError(f"no bundled config {name!r}; "
                                 f"available: {available}")
    return path


#: the ``%`` template of a CSV cell by value type, ``%.17g`` for any other
#: (a number); ``%.0s`` prints none of its argument
_CELL = {str: "%s", type(None): "%.0s"}


def write_csv(path, header, rows):
    """Write ``header`` and one line per row: a number as ``%.17g``, which
    formats a float exactly as ``format(x, ".17g")``, a string as it is and
    None as an empty cell.  Every CSV of a run or sweep is written here."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write((",".join([_CELL.get(type(v), "%.17g") for v in row])
                      + "\n") % tuple(row))


def write_trajectory(path, traj, reorder=None):
    """Dump snapshots as t,c0,c1,...; ``reorder`` permutes each state vector
    into the documented column layout (2D fields: x index fastest)."""
    snaps = [np.asarray(snap, dtype=np.float64).ravel()
             for snap in traj.snapshots]
    if reorder is not None:
        snaps = [reorder(flat) for flat in snaps]
    rows = np.column_stack((traj.times, snaps))
    header = "t," + ",".join(f"c{i}" for i in range(rows.shape[1] - 1))
    write_csv(path, header, rows.tolist())


def _csv_reorder(ec, n):
    """2D vorticity states are stored [i, j] C-order; CSV columns scan with
    i (the x index) fastest."""
    if ec.equation != "euler2d":
        return None
    return lambda flat: flat.reshape(n, n).ravel(order="F")


def write_invariants(path, traj):
    """One row per ``InvariantReport`` of the run, one column per field."""
    names = [f.name for f in fields(InvariantReport)]
    write_csv(path, ",".join(names), map(attrgetter(*names), traj.reports))


def write_rates(path, times, rates):
    write_csv(path, "t,rate", zip(times, rates))


def write_stages(path, traj):
    """One row per snapshot interval and correction kind of the run's
    ``CorrectionLog``, one column per ``StageRow`` field; a kind with no
    energy bracket has None, an empty cell, as ``max_energy_error``."""
    write_csv(path, ",".join(StageRow._fields), traj.stage_records.rows)


# ---------------------------------------------------------------------------
# driver construction
# ---------------------------------------------------------------------------

def _flux_scheme(name, ec: ExperimentConfig, equation):
    if name == "surrogate":
        return SurrogateFluxRule(FluxScheme(ec.surrogate_base), equation,
                                 ec.surrogate_amplitude, ec.surrogate_seed,
                                 c=ec.c)
    return FluxScheme(name)


def _driver_spec(text, tracked_source):
    """The driver argument for a ``target`` or ``step_correction`` value:
    None, an L2RateTarget, or the reference's TrackedRateSource."""
    kind, value = rate_spec(text)
    if kind == "none":
        return None
    if kind == "tracked":
        return tracked_source
    return co.L2RateTarget.clamp() if kind == "clamp" \
        else co.L2RateTarget.fixed(value)


def _scalar_ic(ec: ExperimentConfig, n):
    grid = UniformGrid1D(n, ec.length, ec.boundary)
    field = ic_sine(grid) if ec.ic == "sine" \
        else ic_sum_of_sines(grid, ec.ic_seed)
    if ec.ic_offset:
        field.values = field.values + ec.ic_offset
    return field


def build_driver(ec: ExperimentConfig, variant: VariantConfig, n,
                 tracked_source=None):
    """Instantiate the driver for one (variant, resolution) cell.

    ``ec`` must have passed ``parse_config``, which checks every equation,
    initial condition, scheme, corrector, target and step-correction rule;
    this function only builds."""
    equation = ec.equation
    corrected = variant.corrector != "none"
    target = _driver_spec(variant.target, tracked_source) if corrected else None
    if equation == "advection" and ec.integrator == "discrete":
        return FtcsAdvection(_scalar_ic(ec, n), c=ec.c, target=target)
    step = _driver_spec(variant.step_correction, tracked_source)
    if equation == "burgers_nonconservative":
        return NonconservativeBurgers1D(_scalar_ic(ec, n), target=target)
    if equation == "dg_burgers":
        grid = UniformGrid1D(n, ec.length)
        ic = dg_project(grid, ec.dg_degree,
                        lambda x: np.sin(2.0 * np.pi * x / ec.length)
                        + ec.ic_offset)
        return DgScalar1D(ic, lambda u: 0.5 * u * u, burgers_centered_rule,
                          target=target)
    if equation in ("advection", "burgers"):
        return ScalarFv1D(
            _scalar_ic(ec, n), equation,
            _flux_scheme(variant.scheme, ec, equation), c=ec.c,
            target=target, step_target=step)
    if equation == "euler2d":
        grid = UniformGrid2D(n, n, ec.length, ec.length)
        ic = ic_random_vorticity(grid, ec.ic_seed)
        forcing_name = variant.forcing if variant.forcing is not None else ec.forcing
        return Vorticity2D(
            ic, corrector=variant.corrector, target=target,
            nu=variant.nu if variant.nu is not None else ec.nu,
            forcing=forcing_name == "kolmogorov", forcing_k=ec.kolmogorov_k,
            drag=ec.drag, step_target=step)
    # euler1d
    grid = UniformGrid1D(n, ec.length, ec.boundary)
    ic = ic_sod(grid, ec.gamma) if ec.ic == "sod" \
        else ic_random_euler(grid, ec.ic_seed, ec.gamma)
    return Euler1D(ic, entropy_ratio=variant.entropy_ratio if corrected
                   else None, positivity=variant.positivity)


def variant_plan(ec: ExperimentConfig, variant: VariantConfig) -> StepPlan:
    return StepPlan(
        integrator=ec.integrator,
        cfl=variant.cfl if variant.cfl is not None else ec.cfl,
        t_end=variant.t_end if variant.t_end is not None else ec.t_end,
        n_snapshots=ec.snapshots,
        max_steps=ec.max_steps)


# ---------------------------------------------------------------------------
# reference runs and tracked rates
# ---------------------------------------------------------------------------

def run_with_rates(plan, driver):
    """``run(plan, driver)`` that also records the rate curve a tracked
    target reads: for each step t_n -> t_n+1 the row (t_n + dt/2,
    (q_n+1 - q_n)/dt), where q is the l2 of ``driver.field_of``, the field
    a step corrector sets (the enstrophy on euler2d).  The driver's own
    ``observe`` hook, if any, still runs.  Returns (trajectory, rates)."""
    def l2(y):
        vals, volume = co._field_parts(driver.field_of(y))
        return 0.5 * bracket(vals, vals, volume)
    ends = []
    chained = getattr(driver, "observe", lambda y, t, traj: None)

    def observe(y, t, traj):
        chained(y, t, traj)
        ends.append((t, l2(y)))
    driver.observe = observe
    traj = run(plan, driver)
    t, q = np.array([(0.0, l2(traj.snapshots[0]))] + ends).T
    return traj, co.TrackedRateSource(0.5 * (t[:-1] + t[1:]),
                                      np.diff(q) / np.diff(t))


def run_reference(ec: ExperimentConfig, out_dir):
    """High-resolution uncorrected reference run; writes its trajectory,
    invariants and rates and returns (trajectory, TrackedRateSource)."""
    ref_variant = VariantConfig(label="reference", scheme=ec.reference_scheme)
    traj, tracked = run_with_rates(
        variant_plan(ec, ref_variant),
        build_driver(ec, ref_variant, ec.reference_resolution))
    if traj.error is not None:
        raise InvariantGuardError(f"reference run failed: {traj.error}")
    ref_dir = out_dir / "reference"
    ref_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory(ref_dir / "trajectory.csv", traj,
                     _csv_reorder(ec, ec.reference_resolution))
    write_invariants(ref_dir / "invariants.csv", traj)
    write_rates(ref_dir / "rates.csv", tracked.times, tracked.rates)
    return traj, tracked


def _coarsen_reference(ec, ref_traj, n):
    """Coarse-grain reference snapshots onto an n-cell run grid."""
    m = ec.reference_resolution
    if ec.equation == "euler2d":
        grid = UniformGrid2D(m, m, ec.length, ec.length)
        return [coarse_grain_2d(FvField2D(grid, y.reshape(m, m)),
                                m // n).values.ravel()
                for y in ref_traj.snapshots]
    grid = UniformGrid1D(m, ec.length, ec.boundary)
    return [coarse_grain(FvField1D(grid, y), m // n).values
            for y in ref_traj.snapshots]


def write_metrics(path, times, cand_snaps, ref_snaps):
    rows = []
    for t, c, r in zip(times, cand_snaps, ref_snaps):
        rows.append([t, normalized_mse(c, r), mae(c, r),
                     vorticity_correlation(c, r)])
    write_csv(path, "t,normalized_mse,mae,correlation", rows)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_run(config_path, output_root=None):
    ec = parse_config(config_path)
    out_dir = Path(output_root or ".") / ec.output

    def write_run(n, variant, traj, ref_coarse):
        run_dir = out_dir / f"n{n}" / variant.label
        run_dir.mkdir(parents=True, exist_ok=True)
        write_trajectory(run_dir / "trajectory.csv", traj, _csv_reorder(ec, n))
        write_invariants(run_dir / "invariants.csv", traj)
        write_stages(run_dir / "stages.csv", traj)
        if ref_coarse is not None:
            write_metrics(run_dir / "metrics.csv", traj.times,
                          traj.snapshots, ref_coarse)
    return _run_variants(ec, config_path, out_dir, write_run)


def _run_variants(ec, config_path, out_dir, finish):
    """Run the optional reference, then each (resolution, variant) of
    ``ec``, and hand each finished run to ``finish(n, variant, traj,
    ref_coarse)``; ``ref_coarse`` is the coarse-grained reference at the
    run's snapshot times, or None.  Writes the manifest and returns the
    exit code: 2 if a run failed that no ``expect_blowup`` excuses."""
    out_dir.mkdir(parents=True, exist_ok=True)
    status = {}
    ref_traj = tracked = None
    if ec.reference_resolution:
        ref_traj, tracked = run_reference(ec, out_dir)
        status["reference"] = "ok"

    failures = 0
    counts = {}
    for n in ec.resolutions:
        ref_coarse = None if ref_traj is None \
            else _coarsen_reference(ec, ref_traj, n)
        for variant in ec.variants:
            driver = build_driver(ec, variant, n, tracked)
            traj = run(variant_plan(ec, variant), driver)
            key = f"n{n}.{variant.label}"
            _count_records(counts, key, traj)
            if traj.error is None:
                status[key] = "ok"
            else:
                kind = type(traj.error).__name__
                status[key] = f"{kind}@t={traj.error.time:.6g}"
                if not variant.expect_blowup:
                    failures += 1
                    print(f"error: {key}: {traj.error}", file=sys.stderr)
            # snapshots at the reference's times: a variant may end earlier
            finish(n, variant, traj, ref_coarse if ref_coarse is not None
                   and traj.times == ref_traj.times else None)
    _write_manifest(out_dir, config_path, status, counts)
    return 2 if failures else 0


def _count_records(counts, key, traj):
    """Add run ``key``'s nonzero counts of correction records to ``counts``,
    summed over the rows of its ``CorrectionLog``: ``clamps.<key>``,
    infeasible per-step targets clamped, and ``anti_diffusive.<key>``,
    entropy targets below the old rate.  Each is also warned of, but the
    counts do not depend on warning filters."""
    rows = traj.stage_records.rows
    for name, n in (
            ("clamps", sum(r.records for r in rows
                           if r.kind == "step_delta_l2_clamped")),
            ("anti_diffusive", sum(r.below_old for r in rows
                                   if r.kind == "entropy"))):
        if n:
            counts[f"{name}.{key}"] = n


def _write_manifest(out_dir, config_path, status, counts):
    """``status`` maps each run to ``ok`` or its error; ``counts`` maps
    ``<name>.<run>`` keys to the record counts of ``_count_records``."""
    sha = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    lines = [f"config_sha256 = {sha}",
             f"package_version = {__version__}",
             f"numpy_version = {np.__version__}"]
    for key in sorted(status):
        lines.append(f"status.{key} = {status[key]}")
    for key in sorted(counts):
        lines.append(f"{key} = {counts[key]}")
    (out_dir / "manifest").write_text("\n".join(lines) + "\n")


def cmd_verify(config_path, output_root=None, fns=None):
    from .verification import run_property_suite
    ec = parse_config(config_path)
    results = run_property_suite(seed=ec.verify_seed, trials=ec.verify_trials,
                                 fns=fns)
    width = max(len(r.name) for r in results)
    print(f"{'property':{width}s}  result  checks")
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        print(f"{r.name:{width}s}  {mark:6s}  {r.checks}"
              + (f"  ({r.detail})" if r.detail else ""))
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results)} properties, {sum(r.checks for r in results)} checks, "
          f"{n_fail} failures")
    return 1 if n_fail else 0


#: the labels of the bundled sweep's variants; only the benchmark harness
#: reads this, to size the sweep, until it reads the config (ROADMAP item 5)
SWEEP_VARIANTS = ("centered", "upwind", "muscl", "surrogate", "surrogate_clamp")


def cmd_sweep(config_path, output_root=None):
    """Score each (resolution, variant) run of an advection config against
    the exact solution; emits sweep.csv with one row per run."""
    ec = parse_config(config_path)
    if ec.equation != "advection" or ec.integrator == "discrete" \
            or not ec.variants:
        raise ConfigurationError("sweep scores the [variant.*] runs of "
                                 "advection under a Runge-Kutta integrator")
    out_dir = Path(output_root or ".") / ec.output
    rows = []

    def score(n, variant, traj, ref_coarse):
        values = [np.nan] * 3
        if traj.error is None:
            x = UniformGrid1D(n, ec.length).cell_centers()
            exact = [_exact_advection(ec, x, t) for t in traj.times]
            values = [np.mean([err(snap, e) for snap, e
                               in zip(traj.snapshots, exact)])
                      for err in (normalized_mse, mae)]
            values.append(traj.reports[-1].l2 / traj.reports[0].l2)
        rows.append([n, variant.label, *values])
    code = _run_variants(ec, config_path, out_dir, score)
    write_csv(out_dir / "sweep.csv",
              "n,variant,normalized_mse,mae,l2_end_over_l2_0", rows)
    return code


def _exact_advection(ec, x, t):
    """Exact translated solution, ``[problem] ic_offset`` included, sampled
    at cell centers."""
    from .problems import advection_sine_params, evaluate_sines
    shift = (x - ec.c * t) % ec.length
    if ec.ic == "sine":
        exact = np.sin(2.0 * np.pi * shift / ec.length)
    else:
        exact = evaluate_sines(advection_sine_params(ec.ic_seed), shift,
                               ec.length)
    return exact + ec.ic_offset


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="invariant-guard",
        description="Invariant-preserving error correction: replication harness")
    parser.add_argument("--output-root", default=None,
                        help="output root (default: the working directory)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("verify", cmd_verify),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args.config, output_root=args.output_root)
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except InvariantGuardError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
