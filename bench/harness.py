"""Workloads, passes and the correctness gate of the benchmark.

A pass runs one workload's CLI calls (``cmd_run``, ``cmd_sweep``,
``cmd_verify``) in this process, with each call's stdout and stderr sent to
files under the workload's output directory.  After the pass, outside the
timed region, every operation is checked: an operation is one
(config, resolution, variant) run, a reference run, a sweep row or a verify
property.  Nothing under ``src/`` is modified; the harness only replaces
module attributes for the length of a pass and restores them afterwards.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import gc
import hashlib
import math
import re
import shutil
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from invariant_guard import cli, errors  # noqa: E402
from invariant_guard import correctors as co  # noqa: E402
from invariant_guard import verification  # noqa: E402
from invariant_guard.config import parse_config  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"invariant_guard imported from {cli.__file__}, "
                      f"not from {SRC}")

#: The CLI calls of each workload; BENCHMARK.json says why each was chosen.
WORKLOADS = {
    "fv1d": (("run", "fig1_burgers_centered"), ("run", "fig2_nonconservative"),
             ("run", "fig3_ftcs"), ("run", "fig7_surrogate"),
             ("run", "fig7_surrogate_respecting"),
             ("sweep", "sweep_advection")),
    "euler2d": (("run", "fig4_euler2d_invariants"),
                ("run", "fig4_euler2d_correlation")),
    "dg1d": (("run", "fig5_dg_burgers"),),
    "gas1d": (("run", "fig6_sod"),),
    "verify": (("verify", "fig1_burgers_centered"),),
}

#: correctors that set the l2 (in 2D, enstrophy) rate
L2_CORRECTORS = ("flux_l2", "rhs_l2", "increment_l2", "dg_l2", "energy")

COMMANDS = {"run": cli.cmd_run, "sweep": cli.cmd_sweep,
            "verify": cli.cmd_verify}

# Post-condition tolerances, taken from tests/test_acceptance.py and
# tests/test_euler2d.py.
PINNED_RTOL = 1e-6      # criteria 3 and 5: pinned l2 / enstrophy drift
ENERGY_RTOL = 1e-6      # criterion 5: conserved energy drift
MONOTONE_RTOL = 1e-12   # criterion 5: rise between snapshots, over the start
MASS_RTOL = 1e-12       # test_euler2d: mass drift, here relative to the
                        # state's L1 scale so that it holds at any amplitude


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def write_configs(workload, seed, dest: Path):
    """Copy the workload's bundled configs into ``dest``; with a seed, set
    ``ic_seed``, ``forcing_seed``, ``[surrogate] seed`` and ``[verify] seed``
    to it.  Returns [(command, config path)]."""
    dest.mkdir(parents=True, exist_ok=True)
    calls = []
    for command, name in WORKLOADS[workload]:
        text = cli.bundled_config(name).read_text()
        if seed is not None:
            text = seeded_config(text, seed, command == "verify")
        path = dest / f"{name}.cfg"
        path.write_text(text)
        calls.append((command, path))
    return calls


def seeded_config(text, seed, verify=False):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    cp["problem"]["ic_seed"] = str(seed)
    cp["problem"]["forcing_seed"] = str(seed)
    if cp.has_section("surrogate"):
        cp["surrogate"]["seed"] = str(seed)
    if verify:
        if not cp.has_section("verify"):
            cp.add_section("verify")
        cp["verify"]["seed"] = str(seed)
    lines = []
    for section in cp.sections():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in cp[section].items())
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# attribute patching
# ---------------------------------------------------------------------------

class Patches:
    """Replace module or object attributes and put them back on exit."""

    def __init__(self):
        self._saved = []

    def set(self, obj, name, value):
        self._saved.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, name, value = self._saved.pop()
            setattr(obj, name, value)


def clear_program_caches():
    """Empty every ``functools`` cache of the package, so that each pass
    pays what a fresh ``invariant-guard`` process pays."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("invariant_guard") or module is None:
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) \
                    and callable(getattr(value, "cache_info", None)):
                value.cache_clear()


# Calibration.  A shared host can change speed by a quarter within seconds,
# and CPU time changes with it.  So between stages, at most every
# CAL_EVERY_NS, the timer runs a fixed slice of small numpy and interpreter
# work, like a 1D stage, and records how long it took; stage and pass times
# are then also given at the reference speed, where one slice takes
# CAL_REF_NS.  Slices run outside every timed stage, and their time is taken
# out of the pass's wall time.
CAL_ITERS = 25
CAL_REF_NS = 500_000
CAL_EVERY_NS = 10_000_000
_CAL_ARRAY = np.random.default_rng(0).standard_normal(256)
CAL_SMOOTH = 5          # slices in the running median a stage is scaled by


def calibration_slice_ns():
    """Duration of one calibration slice, in ns."""
    a = _CAL_ARRAY
    t0 = time.perf_counter_ns()
    s = 0.0
    for _ in range(CAL_ITERS):
        b = np.roll(a, 1) - a
        s += float(b @ b)
        s += sum({j: 2 * j for j in range(20)}.values())
    return time.perf_counter_ns() - t0


class StageTimer:
    """Times stages in ns; a call made from inside another timed call is not
    counted again.  Between stages it runs the calibration slices."""

    def __init__(self):
        self.dur, self.end = [], []
        self.cal_at, self.cal_ns = [], []
        self.cal_total_ns = 0
        self._depth = 0
        self._last = time.perf_counter_ns()

    def calibrate(self):
        start = time.perf_counter_ns()
        self.cal_ns.append(calibration_slice_ns())
        self.cal_at.append(start)
        self._last = time.perf_counter_ns()
        self.cal_total_ns += self._last - start

    def wrap(self, fn):
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            self._depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    end = clock()
                    self.dur.append(end - t0)
                    self.end.append(end)
                    if end - self._last >= CAL_EVERY_NS:
                        self.calibrate()
        return timed

    def speed(self):
        """CAL_REF_NS over each slice: above 1 when the machine is faster
        than the reference speed."""
        return CAL_REF_NS / np.asarray(self.cal_ns, dtype=float)

    def stage_ns_at_ref(self):
        """Each stage's time at the reference speed, scaled by the running
        median of the slices around it."""
        speed = self.speed()
        if len(speed) >= CAL_SMOOTH:
            half = CAL_SMOOTH // 2
            padded = np.pad(speed, half, mode="edge")
            speed = np.median(np.lib.stride_tricks.sliding_window_view(
                padded, CAL_SMOOTH), axis=1)
        idx = np.searchsorted(np.asarray(self.cal_at), np.asarray(self.end))
        idx = np.clip(idx - 1, 0, len(speed) - 1)
        return np.asarray(self.dur, dtype=float) * speed[idx]


def verify_stage_names():
    """The corrector entry points the property suite calls."""
    return [name for name in verification.default_correctors()
            if name.startswith(("correct_", "limit_")) and hasattr(co, name)]


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One checked operation of a pass."""
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    wall_s: float           # calibration slices taken out
    wall_ref_s: float       # the same at the reference speed
    stage_ns: list
    stage_ref_ns: np.ndarray
    ops: list
    digests: dict
    bytes_written: int
    builds: list

    @property
    def failed(self):
        return [op for op in self.ops if not op.ok]


def run_pass(calls, out_dir: Path, driver_hook=None, tracer=None):
    """Run the workload's CLI calls once and check their outputs.

    ``driver_hook(driver)`` is applied to every driver the CLI builds (the
    tests use it to inject faults).  With a ``tracer``, layer spans are
    recorded and stage timing is left to the tracer; calibration slices then
    run only before and after the pass.
    """
    csv_root = out_dir / "csv"
    log_dir = out_dir / "logs"
    shutil.rmtree(csv_root, ignore_errors=True)
    log_dir.mkdir(parents=True, exist_ok=True)
    builds = []
    timer = StageTimer()
    wrap_stage = timer.wrap
    build_driver = cli.build_driver

    def hooked_build(ec, variant, n, tracked_source=None):
        if tracer is not None:
            tracer.new_op(f"{ec.output}/n{n}/{variant.label}")
        driver = build_driver(ec, variant, n, tracked_source)
        builds.append((ec.output, variant, n))
        if driver_hook is not None:
            driver_hook(driver)
        if tracer is not None:
            tracer.wrap_driver(driver)
            return driver
        for method in ("rhs", "increment"):
            if hasattr(driver, method):
                setattr(driver, method, wrap_stage(getattr(driver, method)))
        return driver

    clear_program_caches()
    gc.collect()
    results = []
    with Patches() as patches, warnings.catch_warnings():
        if tracer is not None:
            tracer.install(patches)
            build_driver = cli.build_driver
        patches.set(cli, "build_driver", hooked_build)
        if tracer is None and any(c == "verify" for c, _ in calls):
            for name in verify_stage_names():
                patches.set(co, name, wrap_stage(getattr(co, name)))
        timer.calibrate()
        cal_before = timer.cal_total_ns
        t0 = time.perf_counter_ns()
        for command, path in calls:
            if tracer is not None:
                tracer.op_id = -1   # until the call builds its first driver
            stem = path.stem
            with open(log_dir / f"{stem}.stdout", "w") as out, \
                    open(log_dir / f"{stem}.stderr", "w") as err, \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    COMMANDS[command](path, output_root=csv_root)
                    exc = None
                except Exception as e:  # reported below as failed operations
                    exc = e
            results.append((command, path, exc))
        wall_ns = (time.perf_counter_ns() - t0
                   - (timer.cal_total_ns - cal_before))
        timer.calibrate()
    ops = []
    for command, path, exc in results:
        ops.extend(check_call(command, path, exc, csv_root, log_dir))
    digests = output_digests(csv_root)
    written = sum(p.stat().st_size for p in csv_root.rglob("*") if p.is_file())
    wall_ref_ns = wall_ns * float(np.mean(timer.speed()))
    return PassResult(wall_ns / 1e9, wall_ref_ns / 1e9, timer.dur,
                      timer.stage_ns_at_ref(), ops, digests, written, builds)


def output_digests(csv_root: Path):
    """SHA-256 of every CSV and manifest under the output root."""
    out = {}
    for path in sorted(csv_root.rglob("*")):
        if path.suffix == ".csv" or path.name == "manifest":
            out[path.relative_to(csv_root).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def check_call(command, path, exc, csv_root, log_dir):
    """The checked operations of one CLI call; ``exc`` is what it raised."""
    if command == "verify":
        return check_verify(path, exc, log_dir)
    ec = parse_config(path)
    out_dir = csv_root / ec.output
    if command == "sweep":
        return check_sweep(ec, out_dir, exc)
    return check_run(ec, out_dir, exc)


def _read_manifest(out_dir):
    status = {}
    manifest = out_dir / "manifest"
    if manifest.exists():
        for line in manifest.read_text().splitlines():
            key, _, value = line.partition(" = ")
            if key.startswith("status."):
                status[key[len("status."):]] = value
    return status


def _is_guard_error(kind):
    cls = getattr(errors, kind, None)
    return isinstance(cls, type) \
        and issubclass(cls, errors.InvariantGuardError)


def check_run(ec, out_dir, exc):
    keys = []
    if ec.reference_resolution:
        keys.append(("reference", None, ec.reference_resolution))
    keys += [(f"n{n}.{v.label}", v, n) for n in ec.resolutions
             for v in ec.variants]
    if exc is not None:
        detail = f"cmd_run raised {type(exc).__name__}: {exc}"
        return [Op(f"{ec.output}/{key}", False, detail) for key, _, _ in keys]
    status = _read_manifest(out_dir)
    ops = []
    for key, variant, n in keys:
        name = f"{ec.output}/{key}"
        state = status.get(key)
        run_dir = out_dir / ("reference" if variant is None
                             else f"n{n}/{variant.label}")
        if state is None:
            ops.append(Op(name, False, "no status in manifest"))
            continue
        kind = state.split("@", 1)[0]
        expect_blowup = variant is not None and variant.expect_blowup
        if expect_blowup:
            if state == "ok":
                ops.append(Op(name, False, "expected blow-up did not happen"))
            elif not _is_guard_error(kind):
                ops.append(Op(name, False, f"blow-up by {state}, not an "
                                           "InvariantGuardError"))
            else:
                ops.append(Op(name, True, state))
            continue
        if state != "ok":
            ops.append(Op(name, False, state))
            continue
        try:
            rows = _read_invariants(run_dir / "invariants.csv")
        except (OSError, ValueError, KeyError, IndexError) as err:
            ops.append(Op(name, False, f"invariants.csv unreadable: {err}"))
            continue
        violations = postconditions(ec, variant, rows)
        ops.append(Op(name, not violations, "; ".join(violations)))
    return ops


def _read_invariants(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) if r[key] else np.nan for r in rows])
            for key in rows[0]}


def _fixed(spec):
    head, _, arg = spec.partition(":")
    return float(arg) if head == "fixed" else None


def postconditions(ec, variant, rows):
    """Violated post-conditions of one finished run, read from its
    invariants.csv.  ``variant`` is None for the reference run."""
    out = []
    forcing = (variant.forcing if variant and variant.forcing is not None
               else ec.forcing)
    nu = variant.nu if variant and variant.nu is not None else ec.nu
    unforced = forcing == "none" and ec.equation != "burgers_forced"
    corrector = variant.corrector if variant else "none"
    two_d = ec.equation == "euler2d"
    quantity = "enstrophy" if two_d else "l2"

    conservative = not (ec.equation == "burgers_nonconservative"
                        and corrector == "none")
    if ec.boundary == "periodic" and conservative and ec.equation != "euler1d":
        mass = rows["mass"]
        area = ec.length ** 2 if two_d else ec.length
        scale = max(float(np.nanmax(np.abs(mass))),
                    float(np.nanmax(np.sqrt(2.0 * rows[quantity] * area))))
        drift = float(np.nanmax(np.abs(mass - mass[0])))
        if not drift <= MASS_RTOL * scale:
            out.append(f"mass drift {drift:.3e} > {MASS_RTOL:g} * {scale:.3e}")

    if variant is not None and corrector in L2_CORRECTORS:
        q = rows[quantity]
        target = _fixed(variant.target)
        if target == 0.0 and (ec.integrator == "discrete"
                              or _fixed(variant.step_correction) == 0.0):
            drift = float(np.max(np.abs(q / q[0] - 1.0)))
            if not drift <= PINNED_RTOL:
                out.append(f"pinned {quantity} drift {drift:.3e} > "
                           f"{PINNED_RTOL:g}")
        elif unforced and (variant.target == "clamp"
                           or (target is not None and target < 0.0)):
            rise = float(np.max(np.diff(q), initial=0.0))
            if not rise <= MONOTONE_RTOL * q[0]:
                out.append(f"{quantity} rose {rise:.3e} between snapshots")
        if two_d and corrector == "energy" and unforced and nu == 0.0:
            e = rows["energy"]
            drift = float(np.max(np.abs(e / e[0] - 1.0)))
            if not drift <= ENERGY_RTOL:
                out.append(f"energy drift {drift:.3e} > {ENERGY_RTOL:g}")

    if ec.equation == "euler1d" and variant is not None and variant.positivity:
        for key in ("min_rho", "min_p"):
            low = float(np.min(rows[key]))
            if not low > 0.0:
                out.append(f"{key} = {low:.3e} is not above 0")
    return out


def check_sweep(ec, out_dir, exc):
    n_rows = len(ec.resolutions) * len(cli.SWEEP_VARIANTS)
    if exc is not None:
        detail = f"cmd_sweep raised {type(exc).__name__}: {exc}"
        return [Op(f"{ec.output}/row{i}", False, detail)
                for i in range(n_rows)]
    with open(out_dir / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    ops = []
    for row in rows:
        name = f"{ec.output}/n{row['n']}.{row['variant']}"
        values = [float(row[k]) for k in ("normalized_mse", "mae",
                                          "l2_end_over_l2_0")]
        ok = all(math.isfinite(v) for v in values)
        ops.append(Op(name, ok, "" if ok else "run failed (nan row)"))
    ops += [Op(f"{ec.output}/missing{i}", False, "row missing from sweep.csv")
            for i in range(n_rows - len(rows))]
    return ops


_PROPERTY_ROW = re.compile(
    r"^(?P<name>.+?)\s+(?P<mark>pass|FAIL)\s+(?P<checks>\d+)"
    r"(?:\s+\((?P<detail>.*)\))?$")


def check_verify(path, exc, log_dir):
    if exc is not None:
        return [Op("verify", False,
                   f"cmd_verify raised {type(exc).__name__}: {exc}")]
    ops = []
    lines = (log_dir / f"{path.stem}.stdout").read_text().splitlines()
    for line in lines[1:-1]:
        m = _PROPERTY_ROW.match(line)
        if m is None:
            ops.append(Op("verify/unparsed", False, line))
            continue
        ops.append(Op(f"verify/{m['name']}", m["mark"] == "pass",
                      m["detail"] or ""))
    expected = len(verification.PROPERTIES)
    if len(ops) != expected:
        ops.append(Op("verify/table", False,
                      f"{len(ops)} property rows, expected {expected}"))
    return ops
