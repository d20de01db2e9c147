"""Benchmark of record for the invariant-guard replication.

    python3 bench/run.py --workload fv1d --seed 3 --trace 0
    python3 bench/run.py --workload all
    python3 bench/compare.py RESULTS_A RESULTS_B

A workload is a list of CLI calls on the bundled configs (see
``harness.WORKLOADS``), run in this process through ``cmd_run``,
``cmd_sweep`` and ``cmd_verify``.  BENCHMARK.json lists the workloads of
record; ``euler2d`` and ``verify`` run on request but are not among them,
because on a few seeds in a hundred an operation of theirs fails (the
unforced energy drift of fig 4, and the false ``euler1d entropy rate
exactness`` failure of the property suite).  ``--seed`` replaces the
configs' seeds in generated copies; without it the bundled values are used.
The first pass warms up and gives ``peak_rss_mb``; passes are then repeated
for ``--seconds`` (default: ``run_seconds`` in BENCHMARK.json).  Every pass
is checked (``harness.check_call``); a run with a failed operation reports
no time.

With ``--trace 0`` the end-to-end metrics are, per workload:

  wall_ref_s        s   median time of one pass over the workload's CLI calls
  stage_ref_us_p50  us  median latency of one driver stage (``rhs`` or
                        ``increment``; on verify, one corrector call)
  stage_ref_us_p90  us  90th percentile of the same samples
  setup_s           s   median over fresh interpreters, with numpy already
                        imported, of importing ``invariant_guard.cli``,
                        parsing the configs and building every driver of
                        the workload
  peak_rss_mb       MB  ``ru_maxrss`` of this process after its first pass

A shared host can change speed by a quarter within seconds and by half
within minutes, and CPU time follows, so ``wall_ref_s``, the stage
percentiles and ``setup_s`` are given at a reference speed: between stages,
at most every ``harness.CAL_EVERY_NS``, a fixed calibration slice is timed
(``harness.StageTimer``), and each time is scaled by how much faster or
slower than ``harness.CAL_REF_NS`` the slices around it ran; ``setup_s`` is
scaled by the slices its probes run after set-up.  The times as measured
are in the result file under ``as_measured`` and in the printed table.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer metrics of ``spans.Tracer.layer_metrics`` and
``trace.overhead_frac``.  Either way the run writes
``bench/results/<workload>-seed<seed>-trace<t>.json`` with the metrics,
sample counts, ``failed_frac``, failed operations with their detail, warning
counts, the environment and the SHA-256 of every CSV and manifest written;
the traced run also writes its spans to ``bench/out/``.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("fv1d", "euler2d", "dg1d", "gas1d", "verify")
SETUP_PROBES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

TIME_UNITS = ("s", "ms", "us")


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_spec():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} as listed in
    BENCHMARK.json; a run reports exactly these."""
    spec = benchmark_spec()
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def clear_program_env():
    """Drop the program's INVARIANT_GUARD_* switches; returns their names."""
    names = sorted(k for k in os.environ if k.startswith("INVARIANT_GUARD_"))
    for name in names:
        del os.environ[name]
    return names


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed, cleared):
    from invariant_guard import backend_name
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend_name(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cleared_env": cleared,
        "platform": platform.platform(),
    }


def measure_setup(harness, calls, builds, out_dir):
    """Median set-up time over fresh interpreters: at the reference speed,
    as measured, and the individual values.  One speed is used for the run,
    the median of the probes' slices, because single probes track the
    slices less well than stages do."""
    outputs = {harness.parse_config(path).output: str(path)
               for _, path in calls}
    plan = {"configs": [str(path) for _, path in calls],
            "builds": [{"config": outputs[output], "n": n,
                        "variant": vars(variant)}
                       for output, variant, n in builds]}
    plan_path = out_dir / "setup_plan.json"
    plan_path.write_text(json.dumps(plan))
    values, slices = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(plan_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        elapsed, slice_ns = map(float, proc.stdout.split()[-2:])
        values.append(elapsed)
        slices.append(slice_ns)
    raw = statistics.median(values)
    return raw * harness.CAL_REF_NS / statistics.median(slices), raw, values


def stage_timer_cost_ns(harness, n=200_000):
    """Cost of the stage timer per call, on a call that does nothing."""
    def null(*args):
        return None
    timed = harness.StageTimer().wrap(null)
    elapsed = []
    for fn in (null, timed):
        t0 = time.perf_counter_ns()
        for _ in range(n):
            fn(None, None, None)
        elapsed.append(time.perf_counter_ns() - t0)
    return max(elapsed[1] - elapsed[0], 0) / n


def repeat(seconds, once):
    """Call ``once`` for about ``seconds``: at least once, and not again
    when another call as long as the last would end past ``seconds``."""
    out = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        out.append(once())
        end = time.perf_counter()
        if end - t0 + (end - start) > seconds:
            return out


def bench_workload(workload, seed, seconds, trace, cleared, driver_hook=None):
    """One benchmark run; returns the result record.  ``driver_hook`` is
    applied to every driver built (the tests inject faults with it)."""
    import harness

    def run_pass(tracer=None):
        return harness.run_pass(calls, out_dir, driver_hook, tracer)

    out_dir = BENCH / "out" / f"{workload}-trace{trace}"
    calls = harness.write_configs(workload, seed, out_dir / "configs")
    warm = run_pass()
    passes = [warm]
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace,
              "env": environment(seed, cleared)}
    metrics, raw = {}, {}
    if trace:
        import spans as tracing
        plain, traced, layers, tracers = [], [], [], [None]

        def pair():
            plain.append(run_pass())
            tracers[0] = tracing.Tracer()
            traced.append(run_pass(tracers[0]))
            layers.append(tracers[0].layer_metrics())
        repeat(seconds, pair)
        tracer = tracers[0]
        passes += plain + traced
        tracer.save(out_dir / "spans.npz")
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
        plain_wall = statistics.median(p.wall_s for p in plain)
        metrics["trace.overhead_frac"] = statistics.median(
            p.wall_s for p in traced) / plain_wall - 1.0
        metrics["bench.stage_timer_overhead_frac"] = (
            stage_timer_cost_ns(harness) * len(plain[0].stage_ns)
            / 1e9 / plain_wall)
        metrics["cli.bytes_written"] = traced[-1].bytes_written
        result["warnings"] = dict(tracer.warnings)
        result["warnings"]["AntiDiffusiveTargetWarning"] = (
            "not observable: cmd_run ignores it inside the time loop")
        result["spans"] = len(tracer.name)
    else:
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"], raw["setup_s"], result["setup_s_values"] = \
            measure_setup(harness, calls, warm.builds, out_dir)
        timed = repeat(seconds, run_pass)
        passes += timed
        result["wall_s_values"] = [p.wall_s for p in timed]
        result["wall_ref_s_values"] = [p.wall_ref_s for p in timed]
        metrics["wall_ref_s"] = statistics.median(result["wall_ref_s_values"])
        raw["wall_s"] = statistics.median(result["wall_s_values"])
        stages = np.concatenate([p.stage_ns for p in timed]).astype(float)
        result["stage_samples"] = len(stages)
        if len(stages):
            at_ref = np.concatenate([p.stage_ref_ns for p in timed])
            p50, p90 = np.percentile(at_ref, [50, 90]) / 1e3
            metrics["stage_ref_us_p50"], metrics["stage_ref_us_p90"] = p50, p90
            p50, p90 = np.percentile(stages, [50, 90]) / 1e3
            raw["stage_us_p50"], raw["stage_us_p90"] = p50, p90

    listed = metric_spec()["per_layer" if trace else "end_to_end"]
    attempted = sum(len(p.ops) for p in passes)
    failures = [(i, op) for i, p in enumerate(passes) for op in p.failed]
    if failures:
        # a failed run is never reported as a time
        metrics = {k: v for k, v in metrics.items()
                   if listed.get(k) not in TIME_UNITS
                   and not k.endswith("_ms") and "_us" not in k}
        raw = {}
    if trace:
        # every layer measured, also those BENCHMARK.json does not list
        result["layers"] = dict(metrics)
    else:
        # times as measured, not scaled to the reference speed
        result["as_measured"] = raw
    digests = passes[-1].digests
    unstable = sorted(k for p in passes
                      for k in digests.keys() | p.digests.keys()
                      if digests.get(k) != p.digests.get(k))
    result.update({
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failed_ops": [{"pass": i, "op": op.name, "detail": op.detail}
                       for i, op in failures],
        "ops_per_pass": len(warm.ops),
        "nondeterministic_outputs": sorted(set(unstable)),
        "digests": digests,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in listed.items() if k in metrics},
    })
    result["correct"] = (not failures and not unstable
                         and len(result["metrics"]) == len(listed))
    return result


def print_table(result):
    w = result["workload"]
    for name, m in result["metrics"].items():
        print(f"{w:8s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    for name, value in result.get("as_measured", {}).items():
        unit = "s" if name.endswith("_s") else "us"
        print(f"{w:8s} {name + ' (as measured)':36s} {value:>16.6g} {unit}")
    if "stage_samples" in result:
        print(f"{w:8s} {'stage samples':36s} {result['stage_samples']:>16d}")
    print(f"{w:8s} {'failed_frac':36s} {result['failed_frac']:>16.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for f in result["failed_ops"][:20]:
        print(f"{w:8s} FAILED {f['op']}: {f['detail']}")


def summary_line(result):
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": result["metrics"]})


def run_all(args):
    """Each workload in its own process, one after the other."""
    lines = []
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines.append(json.loads(proc.stdout.splitlines()[-1]))
    print(json.dumps({
        "correct": all(r["correct"] for r in lines),
        "attempted": sum(r["attempted"] for r in lines),
        "failed": sum(r["failed"] for r in lines),
        "metrics": {f"{w}.{k}": v for w, r in zip(WORKLOAD_NAMES, lines)
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="replaces the configs' seeds (default: bundled)")
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"],
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cleared = clear_program_env()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(BENCH))
    try:
        import harness  # noqa: F401  (imports the program from src/)
    except ImportError as err:
        print(f"cannot import the program from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    result = bench_workload(args.workload, args.seed, args.seconds,
                            args.trace, cleared)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    seed = "bundled" if args.seed is None else args.seed
    (results / f"{args.workload}-seed{seed}-trace{args.trace}.json") \
        .write_text(json.dumps(result, indent=1) + "\n")
    print_table(result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
