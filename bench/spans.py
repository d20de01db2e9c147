"""Layer spans for the traced pass.

Public functions of the program are wrapped at the names their callers look
up (``drivers.dg_rhs``, ``cli.run``, ``co.*``, ``schemes.*`` ...), so no file
under ``src/`` changes.  Spans are kept in memory as flat arrays and written
out once the run ends.  Each span holds a name, start, end, parent and the
id of its operation, one (config, resolution, variant) run, sweep row or
verify property.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import time
import warnings
from array import array
from collections import Counter

import numpy as np

from invariant_guard import cli, dg, drivers, problems, schemes, surrogate
from invariant_guard import correctors as co
from invariant_guard import timeloop, verification

#: span name -> [(object, attribute)] wrapped under that name
LAYERS = {
    "config.parse": [(cli, "parse_config")],
    "cli.build": [(cli, "build_driver")],
    "cli.reference": [(cli, "run_reference")],
    "cli.write": [(cli, "write_trajectory"), (cli, "write_invariants"),
                  (cli, "write_rates"), (cli, "write_metrics"),
                  (cli, "write_csv"), (cli, "_write_manifest")],
    "timeloop.run": [(cli, "run")],
    "timeloop.step": [(timeloop, "ssprk3_step"),
                      (timeloop, "forward_euler_step"),
                      (timeloop, "discrete_step")],
    "schemes.flux": [(schemes, "numerical_flux_1d"),
                     (surrogate, "numerical_flux_1d"),
                     (schemes, "advective_fluxes_2d"),
                     (schemes, "euler1d_muscl_flux"),
                     (schemes, "ftcs_increment")],
    "schemes.poisson": [(schemes, "poisson_solve"),
                        (verification, "poisson_solve")],
    "problems.forcing": [(problems, "forcing_2d_kolmogorov")],
    "dg.rhs": [(drivers, "dg_rhs")],
    "dg.diffusion": [(co, "dg_diffusion_rhs"), (dg, "dg_diffusion_rhs")],
    "correctors.correct": [(co, name) for name in (
        "correct_flux_l2_1d", "correct_flux_l2_2d", "correct_rhs_mass_l2",
        "correct_increment_mass_l2", "correct_dg_l2",
        "correct_spectral_mass_l2", "correct_euler2d_mass_energy_l2",
        "correct_entropy_euler1d")],
    "correctors.rate": [(co, "flux_l2_rate_1d"), (co, "flux_l2_rates_2d"),
                        (co, "entropy_rate_euler1d"), (co, "spectral_l2_rate"),
                        (co, "estimate_boundary_entropy_flux"),
                        (co, "dg_l2_rate"), (dg, "dg_l2_rate"),
                        (verification, "dg_l2_rate")],
    "correctors.entropy_vars": [(co, "entropy_variables_euler1d")],
    "correctors.limiter": [(co, "limit_positivity_euler1d")],
    "diagnostics.report": [(drivers, "invariant_report")],
    "diagnostics.metrics": [(cli, "normalized_mse"), (cli, "mae"),
                            (cli, "vorticity_correlation")],
    "verification.suite": [(verification, "run_property_suite")],
    "numpy.leggauss": [(np.polynomial.legendre, "leggauss")],
}

#: driver methods wrapped on each driver instance the CLI builds
DRIVER_SPANS = {"rhs": "drivers.stage", "increment": "drivers.stage",
                "stable_dt": "drivers.stable_dt",
                "post_step": "drivers.post_step", "observe": "drivers.observe",
                "report": "drivers.report", "snapshot": "drivers.snapshot"}


class Tracer:
    """Records spans and counts for one or more traced passes."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")   # a span of the same name is open above
        self._stack = []
        self._active = Counter()
        self._last_error = None
        self.ops = []
        self.op_id = -1
        self.counts = Counter()
        self.warnings = Counter()

    # -- recording -----------------------------------------------------------

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def new_op(self, label):
        self.op_id = len(self.ops)
        self.ops.append(label)

    def wrap(self, name, fn, after=None):
        nid = self._intern(name)
        clock = time.perf_counter_ns
        stack, active = self._stack, self._active

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.start.append(clock())
            self.end.append(0)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.nested.append(active[nid] > 0)
            stack.append(idx)
            active[nid] += 1
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    self.counts[f"raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(out)
            return out
        return traced

    def install(self, patches):
        """Wrap every layer function for the length of ``patches``."""
        for name, targets in LAYERS.items():
            for obj, attr in targets:
                after = None
                if name == "timeloop.run":
                    after = self._after_run
                elif name == "verification.suite":
                    after = self._after_suite
                patches.set(obj, attr, self.wrap(name, getattr(obj, attr),
                                                 after))
        properties = []
        for label, fn in verification.PROPERTIES:
            properties.append((label, self._property(label, fn)))
        patches.set(verification, "PROPERTIES", properties)
        shown = warnings.showwarning

        def count_warning(message, category, *args, **kwargs):
            self.warnings[category.__name__] += 1
            return shown(message, category, *args, **kwargs)
        patches.set(warnings, "showwarning", count_warning)

    def wrap_driver(self, driver):
        for method, name in DRIVER_SPANS.items():
            if hasattr(driver, method):
                traced = self.wrap(name, getattr(driver, method))
                setattr(driver, method, traced)

    def _property(self, label, fn):
        def run_property(*args):
            self.new_op(f"verify/{label}")
            return fn(*args)
        return run_property

    def _after_run(self, traj):
        self.counts["drivers.stage_records"] += len(traj.stage_records)

    def _after_suite(self, results):
        self.counts["verification.checks"] += sum(r.checks for r in results)
        self.counts["verification.properties_failed"] += sum(
            not r.passed for r in results)

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        names = _np(self.name, np.int32)
        parent = _np(self.parent, np.int32)
        dur = _np(self.end, np.int64) - _np(self.start, np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return names, dur, dur - child, parent

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        names, dur, self_ns, parent = self.arrays()
        nested = _np(self.nested, np.int8).astype(bool)

        def mask(name):
            nid = self._ids.get(name)
            return np.zeros(len(names), bool) if nid is None else names == nid

        def total_ms(name):
            return float(dur[mask(name) & ~nested].sum()) / 1e6

        def count(name):
            return int(mask(name).sum())

        def count_within(name, ancestor):
            aid = self._ids.get(ancestor)
            hits = 0
            for idx in np.flatnonzero(mask(name)):
                p = parent[idx]
                while p >= 0 and names[p] != aid:
                    p = parent[p]
                hits += p >= 0
            return hits

        stages = count("drivers.stage")
        rhs = count("dg.rhs")
        stage_self = self_ns[mask("drivers.stage")]
        loop_self = sum(float(self_ns[mask(n)].sum())
                        for n in ("timeloop.run", "timeloop.step")) / 1e6
        sip = getattr(dg, "_sip_matrix", None)
        info = sip.cache_info() if hasattr(sip, "cache_info") else None
        sip_calls = info.hits + info.misses if info else 0
        return {
            "timeloop.steps": count("timeloop.step"),
            "timeloop.stages": stages,
            "timeloop.self_ms": loop_self,
            "drivers.stage_self_us_p50": (
                float(np.median(stage_self)) / 1e3 if stages else 0.0),
            "drivers.stage_records": self.counts["drivers.stage_records"],
            "schemes.flux_ms": total_ms("schemes.flux"),
            "schemes.flux_calls": count("schemes.flux"),
            "schemes.poisson_ms": total_ms("schemes.poisson"),
            "schemes.poisson_per_stage": (
                count("schemes.poisson") / stages if stages else 0.0),
            "problems.forcing_ms": total_ms("problems.forcing"),
            "dg.rhs_ms": total_ms("dg.rhs"),
            "dg.quadrature_per_rhs": (
                count_within("numpy.leggauss", "dg.rhs") / rhs
                if rhs else 0.0),
            "dg.sip_builds": info.misses if info else 0,
            "dg.sip_hit_ratio": info.hits / sip_calls if sip_calls else 0.0,
            "dg.diffusion_ms": total_ms("dg.diffusion"),
            "correctors.correct_ms": total_ms("correctors.correct"),
            "correctors.rate_ms": total_ms("correctors.rate"),
            "correctors.entropy_vars_per_stage": (
                count_within("correctors.entropy_vars", "drivers.stage")
                / stages if stages else 0.0),
            "correctors.limiter_ms": total_ms("correctors.limiter"),
            "correctors.infeasible_clamps":
                self.warnings["InfeasibleTargetWarning"],
            "correctors.degenerate":
                self.counts["raised.DegenerateCorrection"],
            "diagnostics.report_ms": total_ms("diagnostics.report"),
            "diagnostics.reports": count("diagnostics.report"),
            "diagnostics.metrics_ms": total_ms("diagnostics.metrics"),
            "cli.write_ms": total_ms("cli.write"),
            "cli.reference_ms": total_ms("cli.reference"),
            "cli.build_ms": total_ms("cli.build"),
            "config.parse_ms": total_ms("config.parse"),
            "verification.ms": total_ms("verification.suite"),
            "verification.checks": self.counts["verification.checks"],
            "verification.properties_failed":
                self.counts["verification.properties_failed"],
        }

    def save(self, path):
        """Write the spans out: one row per span, times in ns."""
        names, dur, self_ns, parent = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), ops=np.array(self.ops or [""]),
            name=names, start=_np(self.start, np.int64),
            end=_np(self.end, np.int64), parent=parent,
            op=_np(self.op, np.int32), self_ns=self_ns)


def _np(values, dtype):
    """A copy, so that the array stays free to grow."""
    return np.frombuffer(values, dtype=dtype).copy()
