"""Mutant score: does the test suite, or ``verify``, catch each listed defect?

Each mutant replaces one line of the package.  For each one this script
copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` (a test
reads its config table) to a temporary directory, checks that the original
line occurs exactly once in its file, replaces it, and runs the mutant's
killer against the copy: a pytest node id, or ``verify`` for
``invariant-guard verify`` (seed 0, 200 trials).  Only when the mutant
survives its killer do the checks every mutant faces run: ``python -m
pytest -x -q tests``, then ``verify``.  A mutant is killed when any check
fails; the first failing one is printed.  The killer is one of those
checks, so running it first changes no verdict, only the time.  The
unmutated copy runs first and must pass them all, so that a kill means
the mutant and not the copy.

Run from anywhere:  python tools/mutants.py
Exits 0 when every mutant is killed, 1 when one survives, 2 when the
unmutated copy fails.  It takes a few minutes, one mutant at a time, so it
stays out of the tier-1 tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = "src/invariant_guard"

#: (label, file under src/invariant_guard, original line, mutated line,
#: killer: the check that kills it, a pytest node id or "verify")
MUTANTS = [
    ("config: burgers reads nu", "config.py",
     '    "burgers": (_SINES, ("none", "flux_l2"), _FLUX),',
     '    "burgers": (_SINES, ("none", "flux_l2"), _FLUX | {"nu"}),',
     "tests/test_cli.py::test_rejected_config_exits_2_before_any_output"
     "[nu_on_burgers]"),
    ("config: dg_burgers reads nu", "config.py",
     '                   {"ic_offset", "dg_degree", "target"}),',
     '                   {"ic_offset", "dg_degree", "target", "nu"}),',
     "tests/test_cli.py::test_rejected_config_exits_2_before_any_output"
     "[nu_on_dg_burgers]"),
    ("flux l2 corrector: bounded-grid check dropped", "correctors.py",
     "    if not u.grid.periodic:",
     "    if False:",
     "tests/test_correctors.py::test_scalar_flux_forms_are_periodic_only"),
    ("entropy rate: Dirichlet boundary term sign flipped", "correctors.py",
     "    return interior + float(f[0] @ w[0] - f[-1] @ w[-1])",
     "    return interior - float(f[0] @ w[0] - f[-1] @ w[-1])",
     "tests/test_drivers.py::"
     "test_euler_stage_is_the_standalone_chain_bitwise[double_rarefaction]"),
    ("limiter: default eps_pos 1e-6 of the scale", "correctors.py",
     "        eps_pos = 1e-12 * max(float(state.rho.max()), "
     "float(state.pressure().max()))",
     "        eps_pos = 1e-6 * max(float(state.rho.max()), "
     "float(state.pressure().max()))",
     "tests/test_euler1d.py::"
     "test_limiter_default_eps_admits_a_near_vacuum_half_state"),
    ("line search: a met target still moves", "correctors.py",
     "    if new == old:",
     "    if False:",
     "tests/test_correctors.py::test_correction_reports_what_it_did[flux1d]"),
    ("line search: achieved rate recorded as the target, not re-measured",
     "correctors.py",
     "    return out, Correction(old, new, rate(out))",
     "    return out, Correction(old, new, new)",
     "tests/test_correctors.py::"
     "test_flux1d_reports_the_measured_rate_not_the_target"),
    ("DEGENERACY_RTOL = 0", "correctors.py",
     "DEGENERACY_RTOL = 1e-13",
     "DEGENERACY_RTOL = 0.0",
     "tests/test_correctors.py::"
     "test_degenerate_weight_is_refused[dg_near_constant]"),
    ("periodic entropy correction: face 0 not mirrored", "correctors.py",
     "        out[0] = out[-1]  # face 0 is face N; the rate reads 1..N",
     "        pass",
     "verify"),
    ("SSPRK3: second stage at t + dt/2", "timeloop.py",
     "    u2 = 0.75 * y + 0.25 * (u1 + dt * rhs(evaluate(u1), t + dt, dt))",
     "    u2 = 0.75 * y + 0.25 * (u1 + dt * rhs(evaluate(u1), t + 0.5 * dt, "
     "dt))",
     "tests/test_outputs.py::"
     "test_bundled_outputs_are_pinned[fig1_burgers_centered]"),
    ("SSPRK3: stage states not checked for finiteness", "timeloop.py",
     "    if not all_finite(u):",
     "    if False:",
     "tests/test_timeloop.py::"
     "test_non_finite_stage_is_recorded[ScalarFv1D-1]"),
    ("finite check reads only the real part", "timeloop.py",
     "    return bool(np.isfinite(u).all())",
     "    return bool(np.isfinite(u.real).all())",
     "tests/test_timeloop.py::test_all_finite_answers_as_isfinite_all"),
    ("volume-mean total cached by shape alone", "core.py",
     "    key = (a.shape, volume)",
     "    key = a.shape",
     "tests/test_core.py::"
     "test_volume_mean_total_is_kept_per_shape_and_volume"),
    ("scalar CFL: advection speed taken as max |u|, not |c|", "drivers.py",
     '        return abs(self.c) if self.equation == "advection" \\',
     '        return float(np.abs(y).max()) if self.equation == "advection" \\',
     "tests/test_outputs.py::"
     "test_bundled_outputs_are_pinned[fig7_surrogate]"),
    ("boundary estimate: cached psi of the Dirichlet pair swapped",
     "drivers.py",
     "            else co.entropy_flux_pair(self.boundary_state, self.gamma)",
     "            else co.entropy_flux_pair(self.boundary_state, self.gamma)[::-1]",
     "tests/test_drivers.py::"
     "test_euler_stage_is_the_standalone_chain_bitwise[double_rarefaction]"),
    ("boundary estimate: max, not min, at the left end", "correctors.py",
     "    return float(min(boundary_psi[0], ev.psi[0])",
     "    return float(max(boundary_psi[0], ev.psi[0])",
     "tests/test_euler1d.py::test_boundary_flux_minimum_selection"),
    ("DG: padded ghost rows swapped", "dg.py",
     "    return np.concatenate((c[-1:], c, c[:1]))",
     "    return np.concatenate((c[:1], c, c[-1:]))",
     "verify"),
    ("DG: u+ trace taken from the face's own cell", "dg.py",
     "        f_face = np.asarray(interface_rule(pts[1:-1, 0], pts[2:, 1]),",
     "        f_face = np.asarray(interface_rule(pts[1:-1, 0], pts[1:-1, 1]),",
     "tests/test_dg.py::test_rhs_matches_broadcast_form_bitwise[2-0]"),
    ("periodic flux divergence: wrap element reads f[1], not f[-1]",
     "schemes.py",
     "        out[0] = f[0] - f[-1]",
     "        out[0] = f[0] - f[1]",
     "verify"),
    ("centered Burgers flux: wrap face reads sq[-2], not sq[0]",
     "schemes.py",
     "                sq[-1] = sq[0]",
     "                sq[-1] = sq[-2]",
     "tests/test_acceptance.py::test_criterion_3_fig1_burgers"),
    ("MUSCL kernel: left ghost reads u[0], not u[-1]", "kernels/scalar1d.py",
     "    p[0] = u[-1]",
     "    p[0] = u[0]",
     "tests/test_kernels.py::test_scalar1d_matches_reference[128]"),
    ("periodic face jumps: wrap element reads a[1], not a[0]",
     "correctors.py",
     "    out[-1] = a[0] - a[-1]",
     "    out[-1] = a[1] - a[-1]",
     "tests/test_correctors.py::test_flux1d_hand_case"),
    ("Lax-Friedrichs fallback: alpha the smaller speed of the face",
     "kernels/euler1d.py",
     "    alpha = np.maximum(speed[:-1], speed[1:])",
     "    alpha = np.minimum(speed[:-1], speed[1:])",
     "verify"),
    ("reference rates: each step's change over the previous step's dt",
     "cli.py",
     "                                      np.diff(q) / np.diff(t))",
     "                                      np.diff(q) / np.roll(np.diff(t), 1))",
     "tests/test_cli.py::"
     "test_lax_friedrichs_reference_rate_matches_its_l2_decay"),
    ("correction log: a target equal to the old rate counted anti-diffusive",
     "timeloop.py",
     "        if target < old:",
     "        if target <= old:",
     "tests/test_outputs.py::"
     "test_bundled_outputs_are_pinned[fig2_nonconservative]"),
    ("correction log: every record also kept in a list", "timeloop.py",
     "        agg[0] += 1",
     '        agg[0] += 1; self.__dict__.setdefault("kept", []).append(rec)',
     "tests/test_timeloop.py::"
     "test_correction_log_memory_does_not_grow_with_steps"),
    ("correction log: last interval left open when the run ends",
     "timeloop.py",
     "    traj.stage_records.close(t)",
     "    pass",
     "tests/test_cli.py::"
     "test_stages_csv_reads_back_the_manifest_counts[fig6_sod_one_snapshot]"),
    ("correction log: failed step's interval closed at its start",
     "timeloop.py",
     "            return fail(exc, t + dt)",
     "            return fail(exc, t)",
     "tests/test_timeloop.py::"
     "test_correction_log_closes_a_failed_step_at_its_end"),
    ("time loop: a snapshot's report handed the step's start state",
     "timeloop.py",
     "            record(y, state, snap_times[next_snap])",
     "            record(y, start, snap_times[next_snap])",
     "tests/test_outputs.py::"
     "test_bundled_outputs_are_pinned[fig1_burgers_centered]"),
    ("time loop: every driver stepped by SSPRK3, FTCS too", "timeloop.py",
     '    if hasattr(problem, "increment"):',
     "    if False:",
     "tests/test_outputs.py::test_bundled_outputs_are_pinned[fig3_ftcs]"),
    ("gas evaluation: rho and p not checked positive", "drivers.py",
     "        if (state.rho <= 0.0).any() or (p <= 0.0).any():",
     "        if False:",
     "tests/test_euler1d.py::"
     "test_gas_step_that_ends_nonpositive_fails_at_that_step"),
    ("sweep scorer: exact solution translated against c", "cli.py",
     "    shift = (x - ec.c * t) % ec.length",
     "    shift = (x + ec.c * t) % ec.length",
     "tests/test_cli.py::"
     "test_sweep_correction_keeps_an_accurate_scheme_accurate"),
    ("CSV writer: float cells as %.16g", "cli.py",
     '            fh.write((",".join([_CELL.get(type(v), "%.17g") for v in row])',
     '            fh.write((",".join([_CELL.get(type(v), "%.16g") for v in row])',
     "tests/test_outputs.py::test_bundled_outputs_are_pinned[fig3_ftcs]"),
    ("verify no-op row: output compared with itself", "verification.py",
     '            assert _unchanged(out, kept, self.bitwise), "no-op moved the update"',
     '            assert _unchanged(out, out, self.bitwise), "no-op moved the update"',
     "tests/test_verification.py::test_scaled_corrector_fails_the_noop_row"),
    ("verify exactness row: rate assertion dropped", "verification.py",
     "                    _rate_close(new, target.resolve(old), old)",
     "                    pass",
     "tests/test_cli.py::test_verify_detects_injected_sign_flip"),
]


def _copy_repo(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(REPO / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(REPO / name, dest / name)


def _mutate(root, path, original, mutated):
    target = root / PACKAGE / path
    lines = target.read_text().split("\n")
    hits = [i for i, line in enumerate(lines) if line == original]
    if len(hits) != 1:
        raise SystemExit(f"{path}: the original line occurs {len(hits)} "
                         f"times, not once:\n{original}")
    lines[hits[0]] = mutated
    target.write_text("\n".join(lines))


def _failing_check(root, killer=None):
    """The first check that fails on the copy at ``root`` (with pytest's
    first failing test), or None: ``killer`` first, if given, then the
    whole suite and ``verify``.  Without a killer every mutant's pytest
    killer runs too, so that a misspelt node id fails the unmutated copy
    and cannot pass for a kill."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    config = root / PACKAGE / "configs" / "fig3_ftcs.cfg"  # no [verify]: seed 0
    verify = [sys.executable, "-m", "invariant_guard.cli", "verify",
              str(config)]

    def pytest(*targets):
        return [sys.executable, "-m", "pytest", "-x", "-q",
                "-p", "no:cacheprovider", *targets]
    checks = [("pytest", pytest("tests")), ("verify", verify)]
    if killer is None:
        checks.insert(0, ("pytest", pytest(*{m[4] for m in MUTANTS
                                              if m[4] != "verify"})))
    else:
        checks.insert(0, ("verify", verify) if killer == "verify"
                      else ("pytest", pytest(killer)))
    for name, cmd in checks:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True)
        if done.returncode != 0:
            failed = [line[len("FAILED "):].split(" - ")[0]
                      for line in done.stdout.decode().splitlines()
                      if line.startswith("FAILED ")]
            return " ".join([name] + failed[:1])
    return None


def run_one(mutant=None):
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        _copy_repo(root)
        if mutant is None:
            return _failing_check(root)
        _mutate(root, *mutant[1:4])
        return _failing_check(root, mutant[4])


def main():
    failed = run_one()
    if failed is not None:
        print(f"unmutated copy fails {failed}; no score", flush=True)
        return 2
    print("unmutated copy passes pytest and verify", flush=True)
    survived = 0
    for mutant in MUTANTS:
        killer = run_one(mutant)
        if killer is None:
            survived += 1
        print(f"{mutant[0]}: "
              + ("SURVIVED" if killer is None else f"killed by {killer}"),
              flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
