"""Experiment harness: `invariant-guard run|verify|sweep <config>`.

Outputs are CSV only (one sub-directory per resolution/variant plus an
optional reference run); a `manifest` file records the config hash, package
and numpy versions, and per-run status.  Exit codes: 0 ok, 1 property
failure, 2 config or runtime error (any ``InvariantGuardError``).  Any other
exception is a bug and is left uncaught: Python prints its traceback and
exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import correctors as co
from .config import ExperimentConfig, VariantConfig, parse_config, rate_spec
from .core import (FvField1D, UniformGrid1D, UniformGrid2D, coarse_grain,
                   coarse_grain_2d, FvField2D)
from .diagnostics import InvariantReport, mae, normalized_mse, vorticity_correlation
from .dg import burgers_centered_rule, dg_project
from .drivers import (DgScalar1D, Euler1D, FtcsAdvection,
                      NonconservativeBurgers1D, ScalarFv1D, Vorticity2D)
from .errors import ConfigurationError, InvariantGuardError
from .problems import (ic_random_vorticity, ic_sine, ic_sod, ic_sum_of_sines)
from .schemes import FluxScheme
from .surrogate import SurrogateFluxRule
from .timeloop import StepPlan, run

OUTPUT_ROOT_ENV = "INVARIANT_GUARD_OUTPUT_ROOT"


def bundled_config(name):
    """Path of a bundled experiment config, e.g. 'fig1_burgers_centered'."""
    path = Path(__file__).parent / "configs" / f"{name}.cfg"
    if not path.exists():
        available = sorted(p.stem for p in path.parent.glob("*.cfg"))
        raise ConfigurationError(f"no bundled config {name!r}; "
                                 f"available: {available}")
    return path


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    """Write ``header`` and one line per row of numbers, each value as
    ``%.17g``, which formats a float exactly as ``format(x, ".17g")``."""
    rows = np.asarray(rows, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        if rows.size:
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            fh.writelines(line % tuple(row) for row in rows.tolist())


def write_trajectory(path, traj, reorder=None):
    """Dump snapshots as t,c0,c1,...; ``reorder`` permutes each state vector
    into the documented column layout (2D fields: x index fastest)."""
    snaps = [np.asarray(snap, dtype=np.float64).ravel()
             for snap in traj.snapshots]
    if reorder is not None:
        snaps = [reorder(flat) for flat in snaps]
    rows = np.column_stack((traj.times, snaps))
    header = "t," + ",".join(f"c{i}" for i in range(rows.shape[1] - 1))
    write_csv(path, header, rows)


def _csv_reorder(ec, n):
    """2D vorticity states are stored [i, j] C-order; CSV columns scan with
    i (the x index) fastest."""
    if ec.equation != "euler2d":
        return None
    return lambda flat: flat.reshape(n, n).ravel(order="F")


def write_invariants(path, traj):
    with open(path, "w") as fh:
        fh.write(InvariantReport.CSV_HEADER + "\n")
        for rep in traj.reports:
            fh.write(rep.csv_row() + "\n")


def write_rates(path, times, rates):
    write_csv(path, "t,rate", list(zip(times, rates)))


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
    if ec.ic == "sine":
        field = ic_sine(grid)
    elif ec.ic == "sum_of_sines":
        field = ic_sum_of_sines(grid, ec.ic_seed, "advection")
    else:  # "zero", which only burgers_forced accepts
        field = FvField1D(grid, np.zeros(n))
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
    nu = variant.nu if variant.nu is not None else ec.nu
    if equation == "burgers_nonconservative":
        return NonconservativeBurgers1D(_scalar_ic(ec, n), target=target)
    if equation == "dg_burgers":
        grid = UniformGrid1D(n, ec.length)
        ic = dg_project(grid, ec.dg_degree,
                        lambda x: np.sin(2.0 * np.pi * x / ec.length)
                        + ec.ic_offset)
        return DgScalar1D(ic, lambda u: 0.5 * u * u, burgers_centered_rule,
                          target=target)
    if equation in ("advection", "burgers", "burgers_forced"):
        base_eq = "advection" if equation == "advection" else "burgers"
        ic = _scalar_ic(ec, n)
        forcing = None
        if equation == "burgers_forced":
            forcing = ic_sum_of_sines(ic.grid, ec.forcing_seed, "burgers-forcing")
        return ScalarFv1D(
            ic, base_eq, _flux_scheme(variant.scheme, ec, base_eq), c=ec.c,
            target=target, nu=nu, forcing=forcing, step_target=step)
    if equation == "euler2d":
        grid = UniformGrid2D(n, n, ec.length, ec.length)
        ic = ic_random_vorticity(grid, ec.ic_seed)
        forcing_name = variant.forcing if variant.forcing is not None else ec.forcing
        return Vorticity2D(
            ic, corrector=variant.corrector, target=target, nu=nu,
            forcing=forcing_name == "kolmogorov", forcing_k=ec.kolmogorov_k,
            drag=ec.drag, step_target=step)
    # euler1d
    grid = UniformGrid1D(n, ec.length, ec.boundary)
    ic = ic_sod(grid, ec.gamma) if ec.ic == "sod" \
        else ic_sum_of_sines(grid, ec.ic_seed, "euler1d", ec.gamma)
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

def run_reference(ec: ExperimentConfig, out_dir):
    """High-resolution uncorrected reference run; returns (trajectory,
    TrackedRateSource or None)."""
    ref_variant = VariantConfig(label="reference", scheme=ec.reference_scheme)
    driver = build_driver(ec, ref_variant, ec.reference_resolution)
    plan = variant_plan(ec, ref_variant)
    traj = run(plan, driver)
    if traj.error is not None:
        raise InvariantGuardError(f"reference run failed: {traj.error}")

    if isinstance(driver, ScalarFv1D):
        # each snapshot's flux at the dt the run would step it with, which
        # sets the Lax-Friedrichs dissipation
        rates = []
        for y in traj.snapshots:
            f = driver.state_of(y)
            dt = driver.stable_dt(y, plan.cfl, plan.dt_max)
            rates.append(co.flux_l2_rate_1d(driver.fluxes(f, dt), f))
    else:
        series = [r.enstrophy if r.enstrophy is not None else r.l2
                  for r in traj.reports]
        times = np.asarray(traj.times)
        rates = np.gradient(np.asarray(series), times)
    ref_dir = out_dir / "reference"
    ref_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory(ref_dir / "trajectory.csv", traj,
                     _csv_reorder(ec, ec.reference_resolution))
    write_invariants(ref_dir / "invariants.csv", traj)
    write_rates(ref_dir / "rates.csv", traj.times, rates)
    return traj, co.TrackedRateSource(traj.times, rates)


def _coarsen_reference(ec, ref_traj, n):
    """Coarse-grain reference snapshots onto an n-cell run grid."""
    factor = ec.reference_resolution // n
    out = []
    if ec.equation == "euler2d":
        grid = UniformGrid2D(ec.reference_resolution, ec.reference_resolution,
                             ec.length, ec.length)
        for y in ref_traj.snapshots:
            f = FvField2D(grid, y.reshape(grid.nx, grid.ny))
            out.append(coarse_grain_2d(f, factor).values.ravel())
        return out
    grid = UniformGrid1D(ec.reference_resolution, ec.length, ec.boundary)
    for y in ref_traj.snapshots:
        out.append(coarse_grain(FvField1D(grid, y), factor).values)
    return out


def write_metrics(path, times, cand_snaps, ref_snaps):
    rows = []
    for t, c, r in zip(times, cand_snaps, ref_snaps):
        rows.append([t, normalized_mse(c, r), mae(c, r),
                     vorticity_correlation(c, r)])
    write_csv(path, "t,normalized_mse,mae,correlation", rows)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _resolve_out_dir(ec, output_root):
    root = output_root or os.environ.get(OUTPUT_ROOT_ENV) or "."
    return Path(root) / ec.output


def cmd_run(config_path, output_root=None):
    ec = parse_config(config_path)
    out_dir = _resolve_out_dir(ec, output_root)
    out_dir.mkdir(parents=True, exist_ok=True)

    status = {}
    tracked = None
    ref_traj = None
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
            run_dir = out_dir / f"n{n}" / variant.label
            run_dir.mkdir(parents=True, exist_ok=True)
            write_trajectory(run_dir / "trajectory.csv", traj, _csv_reorder(ec, n))
            write_invariants(run_dir / "invariants.csv", traj)
            key = f"n{n}.{variant.label}"
            _count_records(counts, key, traj)
            if traj.error is None:
                status[key] = "ok"
            else:
                kind = type(traj.error).__name__
                status[key] = f"{kind}@t={traj.times[-1]:.6g}"
                if not variant.expect_blowup:
                    failures += 1
                    print(f"error: {key}: {traj.error}", file=sys.stderr)
            # snapshots at the reference's times: a variant may end earlier
            if ref_coarse is not None and traj.times == ref_traj.times:
                write_metrics(run_dir / "metrics.csv", traj.times,
                              traj.snapshots, ref_coarse)
    _write_manifest(out_dir, config_path, status, counts)
    if failures:
        return 2
    return 0


def _count_records(counts, key, traj):
    """Add run ``key``'s nonzero counts of correction records to ``counts``:
    ``clamps.<key>``, infeasible per-step targets clamped, and
    ``anti_diffusive.<key>``, entropy targets below the old rate.  Each is
    also warned of, but the counts do not depend on warning filters."""
    records = traj.stage_records
    for name, n in (
            ("clamps", sum(r.kind == "step_delta_l2_clamped" for r in records)),
            ("anti_diffusive", sum(r.kind == "entropy"
                                   and r.target_rate < r.old_rate
                                   for r in records))):
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


SWEEP_VARIANTS = ("centered", "upwind", "muscl", "surrogate", "surrogate_clamp")


def cmd_sweep(config_path, output_root=None):
    """Accuracy-vs-resolution comparison on advection with the surrogate
    standing in for a learned flux; emits sweep.csv."""
    ec = parse_config(config_path)
    if ec.equation != "advection" or ec.integrator == "discrete":
        raise ConfigurationError("sweep compares flux choices on advection "
                                 "under a Runge-Kutta integrator")
    if min(ec.resolutions) < 4:
        raise ConfigurationError("sweep runs muscl, which needs at least 4 "
                                 "cells per resolution")
    out_dir = _resolve_out_dir(ec, output_root)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    counts = {}
    for n in ec.resolutions:
        x = UniformGrid1D(n, ec.length).cell_centers()
        for label in SWEEP_VARIANTS:
            if label == "surrogate_clamp":
                variant = VariantConfig(label, scheme="surrogate",
                                        corrector="flux_l2", target="clamp",
                                        step_correction="clamp")
            else:
                variant = VariantConfig(label, scheme=label)
            driver = build_driver(ec, variant, n)
            traj = run(variant_plan(ec, variant), driver)
            _count_records(counts, f"n{n}.{label}", traj)
            if traj.error is not None:
                rows.append([str(n), label, "nan", "nan", "nan"])
                continue
            nmse, err_mae = [], []
            for t, snap in zip(traj.times, traj.snapshots):
                exact = _exact_advection(ec, x, t)
                nmse.append(normalized_mse(snap, exact))
                err_mae.append(mae(snap, exact))
            l2_ratio = traj.reports[-1].l2 / traj.reports[0].l2
            rows.append([str(n), label, _fmt(np.mean(nmse)),
                         _fmt(np.mean(err_mae)), _fmt(l2_ratio)])
    with open(out_dir / "sweep.csv", "w") as fh:
        fh.write("n,variant,normalized_mse,mae,l2_end_over_l2_0\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    _write_manifest(out_dir, config_path, {"sweep": "ok"}, counts)
    return 0


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
                        help=f"output root (default: ${OUTPUT_ROOT_ENV} or cwd)")
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
