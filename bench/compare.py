"""Compare two sets of benchmark result files.

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of ``bench/results/*.json`` files, one per
(workload, seed, trace) run.  Per metric and workload the comparison prints
each side's median and quartiles over its runs, the ratio of the medians
(change / parent) and the fraction of seed-matched pairs the change wins;
a tie is neither a win nor a loss but still counts as a pair.  The verdict
follows the rule for claiming a gain in a small sandbox:

  better      the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the run-to-run spread of either side exceeds the bound, and
              not every change run beats every parent run
  same        none of the above

It then lists the output files (CSVs and manifests) whose SHA-256 differs
between runs of the same workload and seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_FRACTION = 0.9


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        r = json.loads(path.read_text())
        runs[(r["workload"], r["trace"], r["seed"])] = r
    return runs


def spec():
    """{metric name: its entry in BENCHMARK.json}"""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: m for m in bench["per_layer"]}
    out.update({m["name"]: m for m in bench["end_to_end"]})
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, pairs, better, bound):
    """The comparison verdict for one metric; ``pairs`` are (a, b) runs of
    the same seed and ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(parent, change):
        return sign * (parent - change)

    qa, qb = quartiles(a), quartiles(b)
    win_frac = (sum(gain(x, y) > 0 for x, y in pairs) / len(pairs)
                if pairs else 0.0)
    spread_a, spread_b = qa[2] - qa[0], qb[2] - qb[0]
    if win_frac >= WIN_FRACTION and gain(qa[1], qb[1]) > spread_a:
        result = "better"
    elif bound is None:
        result = "same"
    elif -gain(qa[1], qb[1]) > bound * abs(qa[1]):
        result = "worse"
    elif (spread_a > bound * abs(qa[1]) or spread_b > bound * abs(qb[1])) \
            and not all(gain(x, y) > 0 for x in a for y in b):
        result = "unresolved"
    else:
        result = "same"
    return qa, qb, win_frac, len(pairs), result


def compare(runs_a, runs_b, metrics):
    rows, digest_diffs = [], []
    groups = sorted({key[:2] for key in runs_a} & {key[:2] for key in runs_b})
    for workload, trace in groups:
        side_a = {s: r for (w, t, s), r in runs_a.items()
                  if (w, t) == (workload, trace)}
        side_b = {s: r for (w, t, s), r in runs_b.items()
                  if (w, t) == (workload, trace)}
        names = sorted({n for r in side_a.values() for n in r["metrics"]}
                       & {n for r in side_b.values() for n in r["metrics"]})
        for name in names:
            a = [r["metrics"][name]["value"] for r in side_a.values()
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in side_b.values()
                 if name in r["metrics"]]
            pairs = [(side_a[s]["metrics"][name]["value"],
                      side_b[s]["metrics"][name]["value"])
                     for s in side_a.keys() & side_b.keys()
                     if name in side_a[s]["metrics"]
                     and name in side_b[s]["metrics"]]
            m = metrics.get(name, {})
            qa, qb, win, n_pairs, result = verdict(
                a, b, pairs, m.get("better", "lower"), m.get("bound"))
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            rows.append((workload, name, qa, qb, ratio, win, n_pairs, result))
        for seed in sorted(side_a.keys() & side_b.keys(), key=str):
            da, db = side_a[seed]["digests"], side_b[seed]["digests"]
            for path in sorted(da.keys() | db.keys()):
                if da.get(path) != db.get(path):
                    digest_diffs.append((workload, trace, seed, path))
    return rows, digest_diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    runs_a, runs_b = load(args.parent), load(args.change)
    rows, digest_diffs = compare(runs_a, runs_b, spec())
    print(f"{'workload':8s} {'metric':34s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'ratio':>7s} {'wins':>9s}  verdict")
    for workload, name, qa, qb, ratio, win, n_pairs, result in rows:
        fa = "/".join(f"{v:.4g}" for v in qa)
        fb = "/".join(f"{v:.4g}" for v in qb)
        print(f"{workload:8s} {name:34s} {fa:>32s} {fb:>32s} {ratio:7.3f} "
              f"{win:5.2f}/{n_pairs:<3d}  {result}")
    for side, runs in (("parent", runs_a), ("change", runs_b)):
        failed = sum(r["failed"] for r in runs.values())
        attempted = sum(r["attempted"] for r in runs.values())
        print(f"{side}: {len(runs)} runs, {failed} of {attempted} "
              "operations failed")
    if digest_diffs:
        print("output files whose SHA-256 differs:")
        for workload, trace, seed, path in digest_diffs:
            print(f"  {workload} seed={seed} trace={trace}: {path}")
    else:
        print("all output digests agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
