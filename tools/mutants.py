"""Mutant score: does the test suite, or ``verify``, catch each listed defect?

Each mutant replaces one line of the package.  For each one this script
copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` (a test
reads its config table) to a temporary directory, checks that the original
line occurs exactly once in its file, replaces it, and runs
``python -m pytest -x -q tests`` and then ``invariant-guard verify`` (seed 0,
200 trials) against the copy.  A mutant is killed when either one fails;
the first failing test is printed.  The unmutated copy runs first and must
pass both, so that a kill means the mutant and not the copy.

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

#: (label, file under src/invariant_guard, original line, mutated line)
MUTANTS = [
    ("flux l2 rate: bounded boundary term sign flipped", "correctors.py",
     "    return float(f[1:-1] @ du + f[0] * vals[0] - f[-1] * vals[-1])",
     "    return float(f[1:-1] @ du - (f[0] * vals[0] - f[-1] * vals[-1]))"),
    ("entropy rate: Dirichlet boundary term sign flipped", "correctors.py",
     "    return interior + float(f[0] @ w[0] - f[-1] @ w[-1])",
     "    return interior - float(f[0] @ w[0] - f[-1] @ w[-1])"),
    ("limiter: default eps_pos 1e-6 of the scale", "correctors.py",
     "        eps_pos = 1e-12 * max(float(state.rho.max()), "
     "float(state.pressure().max()))",
     "        eps_pos = 1e-6 * max(float(state.rho.max()), "
     "float(state.pressure().max()))"),
    ("DEGENERACY_RTOL = 0", "correctors.py",
     "DEGENERACY_RTOL = 1e-13",
     "DEGENERACY_RTOL = 0.0"),
    ("periodic entropy correction: face 0 not mirrored", "correctors.py",
     "        out[0] = out[-1]",
     "        pass"),
    ("SSPRK3: second stage at t + dt/2", "timeloop.py",
     "    u2 = 0.75 * y + 0.25 * (u1 + dt * rhs(u1, t + dt, dt))",
     "    u2 = 0.75 * y + 0.25 * (u1 + dt * rhs(u1, t + 0.5 * dt, dt))"),
    ("SSPRK3: stage states not checked for finiteness", "timeloop.py",
     "    if not np.isfinite(u).all():",
     "    if False:"),
    ("boundary estimate: cached psi of the Dirichlet pair swapped",
     "drivers.py",
     "            else co.entropy_flux_pair(self.boundary_state, self.gamma)",
     "            else co.entropy_flux_pair(self.boundary_state, self.gamma)[::-1]"),
    ("boundary estimate: max, not min, at the left end", "correctors.py",
     "    return float(min(boundary_psi[0], ev.psi[0])",
     "    return float(max(boundary_psi[0], ev.psi[0])"),
    ("DG: padded ghost rows swapped", "dg.py",
     "    return np.concatenate((c[-1:], c, c[:1]))",
     "    return np.concatenate((c[:1], c, c[-1:]))"),
    ("DG: u+ trace taken from the face's own cell", "dg.py",
     "        f_face = np.asarray(interface_rule(pts[1:-1, 0], pts[2:, 1]),",
     "        f_face = np.asarray(interface_rule(pts[1:-1, 0], pts[1:-1, 1]),"),
    ("Lax-Friedrichs fallback: alpha the smaller speed of the face",
     "kernels/euler1d.py",
     "    alpha = np.maximum(speed[:-1], speed[1:])",
     "    alpha = np.minimum(speed[:-1], speed[1:])"),
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


def _failing_check(root):
    """The first check that fails on the copy at ``root`` (with pytest's
    first failing test), or None."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    config = root / PACKAGE / "configs" / "fig3_ftcs.cfg"  # no [verify]: seed 0
    checks = (("pytest", [sys.executable, "-m", "pytest", "-x", "-q",
                          "-p", "no:cacheprovider", "tests"]),
              ("verify", [sys.executable, "-m", "invariant_guard.cli",
                          "verify", str(config)]))
    for name, cmd in checks:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True)
        if done.returncode != 0:
            failed = [line.split()[1] for line in done.stdout.decode().splitlines()
                      if line.startswith("FAILED ")]
            return " ".join([name] + failed[:1])
    return None


def run_one(mutant=None):
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        _copy_repo(root)
        if mutant is not None:
            _mutate(root, *mutant[1:])
        return _failing_check(root)


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
