"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import compare
import harness
import run
import spans
from invariant_guard import cli
from invariant_guard.config import parse_config

MINI = (("run", "fig3_ftcs"), ("run", "fig2_nonconservative"))
MINI_STAGES = 260 + 825


@pytest.fixture
def mini(monkeypatch):
    """fv1d cut down to two sub-second configs."""
    monkeypatch.setitem(harness.WORKLOADS, "fv1d", MINI)
    return "fv1d"


def test_injected_type_error_fails_and_yields_no_timing(mini):
    def broken(driver):
        def rhs(y, t, dt):
            raise TypeError("injected")
        if hasattr(driver, "rhs"):
            driver.rhs = rhs

    result = run.bench_workload(mini, None, 0.0, 0, [], driver_hook=broken)
    assert result["failed"] > 0 and result["failed_frac"] > 0.0
    assert not result["correct"]
    timings = {"wall_ref_s", "stage_ref_us_p50", "stage_ref_us_p90",
               "setup_s"}
    assert not timings & set(result["metrics"])
    assert result["as_measured"] == {}
    details = [f["detail"] for f in result["failed_ops"]]
    assert any("TypeError" in d for d in details), details


def test_verify_seed_14_reports_the_false_entropy_rate_failure(tmp_path):
    calls = harness.write_configs("verify", 14, tmp_path / "configs")
    result = harness.run_pass(calls, tmp_path)
    failed = {op.name: op.detail for op in result.failed}
    assert list(failed) == ["verify/euler1d entropy rate exactness"]
    assert "!= target" in failed["verify/euler1d entropy rate exactness"]
    assert result.stage_ns, "corrector calls are the verify stages"


def test_euler2d_energy_drift_above_the_acceptance_tolerance_fails(tmp_path):
    # a known failure at this seed: why euler2d is not a workload of record
    calls = harness.write_configs("euler2d", 1570621944, tmp_path / "configs")
    result = harness.run_pass(calls[:1], tmp_path)
    failed = {op.name: op.detail for op in result.failed}
    assert list(failed) == ["fig4_euler2d_invariants/n64.energy_clamp"]
    assert failed["fig4_euler2d_invariants/n64.energy_clamp"] \
        .startswith("energy drift")


def test_stage_times_are_scaled_by_the_calibration_slice_before_them():
    timer = harness.StageTimer()
    timer.cal_at = [100, 200]
    timer.cal_ns = [harness.CAL_REF_NS, 2 * harness.CAL_REF_NS]
    timer.dur, timer.end = [10, 10, 10, 10], [50, 150, 250, 260]
    # the first stage ended before any slice and takes the first one's
    assert list(timer.stage_ns_at_ref()) == [10, 10, 5, 5]


def test_clean_passes_are_checked_and_byte_identical(tmp_path):
    calls = [(command, cli.bundled_config(name)) for command, name in MINI]
    first = harness.run_pass(calls, tmp_path)
    second = harness.run_pass(calls, tmp_path)
    assert not first.failed and len(first.ops) == 5
    assert len(first.stage_ns) == MINI_STAGES
    assert first.digests and first.digests == second.digests
    assert all(len(v) == 64 for v in first.digests.values())
    assert (tmp_path / "logs" / "fig3_ftcs.stdout").exists()


def test_seed_replaces_every_seed_and_default_keeps_bundled(tmp_path):
    calls = harness.write_configs("verify", None, tmp_path / "a")
    assert calls[0][1].read_text() == \
        cli.bundled_config("fig1_burgers_centered").read_text()
    text = harness.seeded_config(
        cli.bundled_config("fig7_surrogate").read_text(), 7, verify=True)
    path = tmp_path / "seeded.cfg"
    path.write_text(text)
    ec = parse_config(path)
    assert (ec.ic_seed, ec.forcing_seed, ec.surrogate_seed, ec.verify_seed) \
        == (7, 7, 7, 7)
    assert [v.label for v in ec.variants] == ["surrogate", "surrogate_clamp"]


def _rows(**cols):
    n = len(next(iter(cols.values())))
    base = {k: np.full(n, np.nan) for k in
            ("t", "mass", "l2", "energy", "enstrophy", "min_rho", "min_p")}
    base.update({k: np.asarray(v, dtype=float) for k, v in cols.items()})
    return base


def test_postconditions_catch_each_violation():
    def variant(ec, label):
        return next(v for v in ec.variants if v.label == label)

    ftcs = parse_config(cli.bundled_config("fig3_ftcs"))
    zero = variant(ftcs, "ftcs_l2_zero")
    ok = _rows(mass=[0, 0], l2=[1, 1])
    assert harness.postconditions(ftcs, zero, ok) == []
    assert harness.postconditions(ftcs, zero, _rows(mass=[0, 0], l2=[1, 1.1]))
    assert harness.postconditions(ftcs, zero, _rows(mass=[0, 0.1], l2=[1, 1]))

    sod = parse_config(cli.bundled_config("fig6_sod"))
    r1 = variant(sod, "r1")
    ok = _rows(mass=[1, 1], min_rho=[0.1, 0.1], min_p=[0.1, 0.1])
    assert harness.postconditions(sod, r1, ok) == []
    assert harness.postconditions(
        sod, r1, _rows(mass=[1, 1], min_rho=[0.1, 0.1], min_p=[0.1, 0.0]))

    inv = parse_config(cli.bundled_config("fig4_euler2d_invariants"))
    energy = variant(inv, "energy_clamp")
    ok = _rows(mass=[0, 0], enstrophy=[2, 1], energy=[1, 1])
    assert harness.postconditions(inv, energy, ok) == []
    assert harness.postconditions(
        inv, energy, _rows(mass=[0, 0], enstrophy=[2, 1], energy=[1, 1.1]))
    assert harness.postconditions(
        inv, energy, _rows(mass=[0, 0], enstrophy=[2, 3], energy=[1, 1]))
    # decays, then grows back while staying below its start
    assert harness.postconditions(
        inv, energy,
        _rows(mass=[0, 0, 0], enstrophy=[2, 1, 1.5], energy=[1, 1, 1]))


def test_traced_pass_counts_stages_and_writes_spans(tmp_path):
    calls = [(command, cli.bundled_config(name)) for command, name in MINI]
    tracer = spans.Tracer()
    result = harness.run_pass(calls, tmp_path, tracer=tracer)
    assert not result.failed
    layers = tracer.layer_metrics()
    assert layers["timeloop.stages"] == MINI_STAGES
    assert layers["timeloop.steps"] == 260 + 825 // 3
    assert layers["drivers.stage_records"] == 130 + 270 + 285
    assert layers["diagnostics.reports"] == 2 * 11 + 3 * 31
    assert layers["timeloop.self_ms"] > 0.0
    tracer.save(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    assert len(saved["name"]) == len(tracer.name)
    assert set(saved["op"]) <= set(range(-1, len(saved["ops"])))
    assert (saved["self_ns"] <= saved["end"] - saved["start"]).all()


def _result(seed, values, digests=None):
    return {"workload": "fv1d", "trace": 0, "seed": seed,
            "attempted": 1, "failed": 0, "digests": digests or {"a.csv": "x"},
            "metrics": {k: {"value": v, "unit": "s"}
                        for k, v in values.items()}}


def test_compare_verdicts_and_digest_diffs(tmp_path):
    metrics = compare.spec()
    parent, change = tmp_path / "a", tmp_path / "b"
    parent.mkdir(), change.mkdir()
    for seed in range(10):
        a = {"wall_ref_s": 2.0 + 0.01 * seed, "setup_s": 0.3 + 0.001 * seed,
             "peak_rss_mb": 40.0 + 2.0 * seed, "stage_ref_us_p50": 100.0,
             "stage_ref_us_p90": 200.0}
        b = {"wall_ref_s": 1.0 + 0.01 * seed, "setup_s": 0.5 + 0.001 * seed,
             "peak_rss_mb": 40.0 + 2.2 * seed, "stage_ref_us_p50": 100.0,
             "stage_ref_us_p90": 200.0 if seed else 199.0}
        digests = {"a.csv": "x" if seed else "y"}
        (parent / f"{seed}.json").write_text(json.dumps(_result(seed, a)))
        (change / f"{seed}.json").write_text(
            json.dumps(_result(seed, b, digests)))
    rows, diffs = compare.compare(compare.load(parent), compare.load(change),
                                  metrics)
    got = {name: verdict for _, name, *_, verdict in rows}
    assert got == {"wall_ref_s": "better", "setup_s": "worse",
                   "peak_rss_mb": "unresolved", "stage_ref_us_p50": "same",
                   "stage_ref_us_p90": "same"}
    # nine ties and one win: ties count as pairs, so 1 win in 10
    wins = {name: (win, n) for _, name, _, _, _, win, n, _ in rows}
    assert wins["stage_ref_us_p90"] == (0.1, 10)
    assert diffs == [("fv1d", 0, 0, "a.csv")]


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "results",
                                                  "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fv1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
