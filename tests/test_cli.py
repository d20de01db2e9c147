import configparser
import dataclasses
import filecmp
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from invariant_guard.cli import (build_driver, bundled_config, cmd_run,
                                 cmd_sweep, cmd_verify, main, variant_plan,
                                 write_csv)
from invariant_guard.config import (_CORRECTORS, _DISCRETE_CORRECTORS, _KEYS,
                                    VariantConfig, parse_config)
from invariant_guard.correctors import (AntiDiffusiveTargetWarning,
                                        TrackedRateSource)
from invariant_guard.drivers import InfeasibleTargetWarning
from invariant_guard.errors import ConfigurationError
from invariant_guard.timeloop import run

ALL_CONFIGS = ["fig1_burgers_centered", "fig2_nonconservative", "fig3_ftcs",
               "fig4_euler2d_invariants", "fig4_euler2d_correlation",
               "fig5_dg_burgers", "fig6_sod", "fig7_surrogate",
               "fig7_surrogate_respecting", "sweep_advection"]


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_bundled_configs_parse(name):
    # every driver a run of the config builds is built too (tracked targets
    # read a placeholder rate curve), so the config rules cannot drift from
    # build_driver
    ec = parse_config(bundled_config(name))
    assert ec.resolutions
    tracked = TrackedRateSource([0.0, 1.0], [0.0, 0.0])
    for n in ec.resolutions:
        for variant in ec.variants:
            build_driver(ec, variant, n, tracked)
    if ec.reference_resolution:
        build_driver(ec, VariantConfig("reference", scheme=ec.reference_scheme),
                     ec.reference_resolution)


EQUATION_LINES = {
    "advection": "ic = sine", "burgers": "ic = sine",
    "burgers_forced": "ic = sine", "burgers_nonconservative": "ic = sine",
    "dg_burgers": "ic = sine", "euler2d": "ic = random_vorticity",
    "euler1d": "ic = sod\nboundary = dirichlet"}


def _config(tmp_path, problem, variant, plan="", run="", resolutions=16,
            extra="", snapshots=2, t_end=0.01, output="case"):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(f"[problem]\n{problem}\n[plan]\n{plan}\nt_end = {t_end}\n"
                   f"snapshots = {snapshots}\n[run]\n{run}\n"
                   f"resolutions = {resolutions}\n"
                   f"output = {output}\n[variant.plain]\ncorrector = none\n"
                   f"[variant.bad]\n{variant}\n{extra}")
    return cfg


@pytest.mark.parametrize("equation,integrator,corrector", [
    (eq, integrator, corrector)
    for integrator, table in (("ssprk3", _CORRECTORS),
                              ("discrete", _DISCRETE_CORRECTORS))
    for eq, correctors in table.items() for corrector in correctors])
def test_accepted_correctors_build_and_step(tmp_path, equation, integrator,
                                            corrector):
    # every corrector the table accepts is built and steps without error
    cfg = _config(tmp_path,
                  f"equation = {equation}\n" + EQUATION_LINES[equation],
                  f"corrector = {corrector}\ntarget = fixed:0",
                  plan=f"integrator = {integrator}")
    ec = parse_config(cfg)
    for variant in ec.variants:
        traj = run(variant_plan(ec, variant), build_driver(ec, variant, 16))
        assert traj.error is None


BURGERS = "equation = burgers\nic = sine"
REJECTED = {
    "unknown_integrator": (dict(problem=BURGERS, plan="integrator = rk4",
                                variant="corrector = flux_l2"),
                           "[plan] integrator"),
    "discrete_burgers": (dict(problem=BURGERS, plan="integrator = discrete",
                              variant="corrector = none"),
                         "[plan] integrator"),
    "positive_fixed_rate": (dict(problem=BURGERS, variant="corrector = flux_l2"
                                 "\ntarget = fixed:0.5"),
                            "[variant.bad] target"),
    "target_none": (dict(problem=BURGERS,
                         variant="corrector = flux_l2\ntarget = none"),
                    "[variant.bad] target"),
    "dg_corrector_on_burgers": (dict(problem=BURGERS,
                                     variant="corrector = dg_l2"),
                                "[variant.bad] corrector"),
    "ftcs_tracked_without_reference": (
        dict(problem="equation = advection\nic = sine",
             plan="integrator = discrete",
             variant="corrector = increment_l2\ntarget = tracked"),
        "[variant.bad] target"),
    "step_correction_on_euler1d": (
        dict(problem="equation = euler1d\n" + EQUATION_LINES["euler1d"],
             variant="corrector = euler1d_entropy\nstep_correction = fixed:0"),
        "[variant.bad] step_correction"),
    "reference_on_dg": (
        dict(problem="equation = dg_burgers\nic = sine",
             run="reference_resolution = 32", variant="corrector = dg_l2"),
        "[run] reference_resolution"),
    # the scheme rules of schemes.flux_rule_1d
    "upwind_on_burgers": (dict(problem=BURGERS, variant="scheme = upwind"),
                          "[variant.bad] scheme"),
    "upwind_surrogate_base_on_burgers_forced": (
        dict(problem="equation = burgers_forced\nic = sine",
             variant="scheme = surrogate"),
        "[surrogate] base"),
    "upwind_reference_on_burgers": (
        dict(problem=BURGERS, variant="scheme = godunov",
             run="reference_resolution = 32\nreference_scheme = upwind"),
        "[run] reference_scheme"),
    "muscl_below_4_cells": (dict(problem=BURGERS, variant="scheme = muscl",
                                 resolutions=3),
                            "[run] resolutions"),
    "muscl_reference_below_4_cells": (
        dict(problem="equation = advection\nic = sine", resolutions=2,
             variant="scheme = godunov", run="reference_resolution = 2"),
        "[run] reference_resolution"),
    "dirichlet_scalar_fv": (
        dict(problem="equation = advection\nic = sine\nboundary = dirichlet",
             variant="scheme = godunov"),
        "[problem] boundary"),
    "unknown_surrogate_base": (
        dict(problem=BURGERS, variant="scheme = surrogate",
             extra="[surrogate]\nbase = surrogate\n"),
        "[surrogate] base"),
    "one_cell": (dict(problem=BURGERS, variant="scheme = godunov",
                      resolutions=1),
                 "[run] resolutions"),
    # initial conditions and DG degree, checked before any build
    "sine_on_euler1d": (
        dict(problem="equation = euler1d\nic = sine\nboundary = dirichlet",
             variant="corrector = euler1d_entropy"),
        "[problem] ic"),
    "sod_on_burgers": (dict(problem="equation = burgers\nic = sod",
                            variant="scheme = godunov"),
                       "[problem] ic"),
    "dg_degree_3": (
        dict(problem="equation = dg_burgers\nic = sine\ndg_degree = 3",
             variant="corrector = dg_l2"),
        "[problem] dg_degree"),
    # values that used to fail mid-run, after earlier variants wrote their
    # CSVs, and misspelt booleans that used to read as false
    "variant_cfl_above_1": (dict(problem=BURGERS,
                                 variant="scheme = godunov\ncfl = 2"),
                            "[variant.bad] cfl"),
    "zero_snapshots": (dict(problem=BURGERS, variant="scheme = godunov",
                            snapshots=0),
                       "[plan] snapshots"),
    "zero_length": (dict(problem=BURGERS + "\nlength = 0",
                         variant="scheme = godunov"),
                    "[problem] length"),
    "gamma_1_on_euler1d": (
        dict(problem="equation = euler1d\n" + EQUATION_LINES["euler1d"]
             + "\ngamma = 1", variant="corrector = euler1d_entropy"),
        "[problem] gamma"),
    "negative_reference_resolution": (
        dict(problem="equation = euler2d\nic = random_vorticity",
             variant="corrector = energy", run="reference_resolution = -32"),
        "[run] reference_resolution"),
    "misspelt_positivity": (
        dict(problem="equation = euler1d\n" + EQUATION_LINES["euler1d"],
             variant="positivity = ture"),
        "[variant.bad] positivity"),
    "misspelt_expect_blowup": (dict(problem=BURGERS,
                                    variant="expect_blowup = yse"),
                               "[variant.bad] expect_blowup"),
    "zero_max_steps": (dict(problem=BURGERS, plan="max_steps = 0",
                            variant="scheme = godunov"),
                       "[plan] max_steps"),
    # keys and sections nothing reads, which used to be dropped silently
    "misspelt_entropy_ratio": (
        dict(problem="equation = euler1d\n" + EQUATION_LINES["euler1d"],
             variant="corrector = euler1d_entropy\nentropy_ration = 0"),
        "[variant.bad] entropy_ration"),
    "misspelt_plan_t_end": (dict(problem=BURGERS, plan="tend = 5",
                                 variant="scheme = godunov"),
                            "[plan] tend"),
    "unknown_section": (dict(problem=BURGERS, variant="scheme = godunov",
                             extra="[bogus]\nt_end = 5\n"),
                        "[bogus]"),
    "default_section": (dict(problem=BURGERS, variant="scheme = godunov",
                             extra="[DEFAULT]\nt_end = 5\n"),
                        "[DEFAULT]"),
    # keys that only some equations read
    "kolmogorov_forcing_on_burgers": (
        dict(problem=BURGERS + "\nforcing = kolmogorov",
             variant="scheme = godunov"),
        "[problem] forcing"),
    "dg_degree_on_burgers": (dict(problem=BURGERS + "\ndg_degree = 2",
                                  variant="scheme = godunov"),
                             "[problem] dg_degree"),
    "drag_on_burgers": (dict(problem=BURGERS + "\ndrag = 5.0",
                             variant="scheme = godunov"),
                        "[problem] drag"),
    "kolmogorov_k_on_burgers": (dict(problem=BURGERS + "\nkolmogorov_k = 9",
                                     variant="scheme = godunov"),
                                "[problem] kolmogorov_k"),
    "c_on_burgers": (dict(problem=BURGERS + "\nc = 2",
                          variant="scheme = godunov"),
                     "[problem] c"),
    "gamma_on_burgers": (dict(problem=BURGERS + "\ngamma = 1.67",
                              variant="scheme = godunov"),
                         "[problem] gamma"),
    "ic_offset_on_euler2d": (
        dict(problem="equation = euler2d\nic_offset = 0.5",
             variant="corrector = energy"),
        "[problem] ic_offset"),
    "entropy_ratio_on_burgers": (
        dict(problem=BURGERS, variant="scheme = godunov\nentropy_ratio = 0"),
        "[variant.bad] entropy_ratio"),
    "positivity_on_burgers": (
        dict(problem=BURGERS, variant="scheme = godunov\npositivity = false"),
        "[variant.bad] positivity"),
    "variant_forcing_on_burgers": (
        dict(problem=BURGERS,
             variant="scheme = godunov\nforcing = kolmogorov"),
        "[variant.bad] forcing"),
    # values out of range, which used to fail mid-run or run silently
    # at another value
    "negative_entropy_ratio": (
        dict(problem="equation = euler1d\n" + EQUATION_LINES["euler1d"],
             variant="corrector = euler1d_entropy\nentropy_ratio = -1"),
        "[variant.bad] entropy_ratio"),
    "negative_nu": (dict(problem=BURGERS + "\nnu = -0.5",
                         variant="scheme = godunov"),
                    "[problem] nu"),
    "negative_variant_nu": (dict(problem=BURGERS,
                                 variant="scheme = godunov\nnu = -0.5"),
                            "[variant.bad] nu"),
    "negative_t_end": (dict(problem=BURGERS, variant="scheme = godunov",
                            t_end=-1),
                       "[plan] t_end"),
    "nan_variant_t_end": (dict(problem=BURGERS,
                               variant="scheme = godunov\nt_end = nan"),
                          "[variant.bad] t_end"),
    "infinite_length": (dict(problem=BURGERS + "\nlength = inf",
                             variant="scheme = godunov"),
                        "[problem] length"),
    "misspelt_kolmogorov_forcing": (
        dict(problem="equation = euler2d\nforcing = kolmogrov",
             variant="corrector = energy"),
        "[problem] forcing"),
    "zero_kolmogorov_k": (
        dict(problem="equation = euler2d\nforcing = kolmogorov\n"
             "kolmogorov_k = 0", variant="corrector = energy"),
        "[problem] kolmogorov_k"),
    "negative_drag": (
        dict(problem="equation = euler2d\nforcing = kolmogorov\ndrag = -1",
             variant="corrector = energy"),
        "[problem] drag"),
    "zero_verify_trials": (dict(problem=BURGERS, variant="scheme = godunov",
                                extra="[verify]\ntrials = 0\n"),
                           "[verify] trials"),
    # paths that would write outside the output root
    "variant_label_above_root": (
        dict(problem=BURGERS, variant="scheme = godunov",
             extra="[variant.../../../escaped]\nscheme = godunov\n"),
        "[variant.../../../escaped]"),
    "empty_variant_label": (dict(problem=BURGERS, variant="scheme = godunov",
                                 extra="[variant.]\nscheme = godunov\n"),
                            "[variant.]"),
    "output_above_root": (dict(problem=BURGERS, variant="scheme = godunov",
                               output="../escaped"),
                          "[run] output"),
}


@pytest.mark.parametrize("sections,field", REJECTED.values(),
                         ids=list(REJECTED))
def test_rejected_config_exits_2_before_any_output(tmp_path, sections, field):
    cfg = _config(tmp_path, **sections)
    with pytest.raises(ConfigurationError) as err:
        parse_config(cfg)
    assert field in str(err.value)
    root = tmp_path / "out"
    root.mkdir()
    for command in ("run", "verify"):
        assert main(["--output-root", str(root), command, str(cfg)]) == 2
    assert not any(tmp_path.glob("**/*.csv"))
    assert not any(root.iterdir())


def test_output_must_stay_inside_the_output_root(tmp_path):
    # ../escaped is a REJECTED case
    for output in ("/escaped", "case/../../escaped"):
        with pytest.raises(ConfigurationError, match=r"\[run\] output"):
            parse_config(_config(tmp_path, BURGERS, "scheme = godunov",
                                 output=output))
    assert parse_config(_config(tmp_path, BURGERS, "scheme = godunov",
                                output="a/b")).output == "a/b"


def test_percent_is_a_literal_character(tmp_path):
    # configparser's default interpolation reads % as a reference
    cfg = _config(tmp_path, BURGERS, "scheme = godunov", output="run%1")
    root = tmp_path / "out"
    assert main(["--output-root", str(root), "run", str(cfg)]) == 0
    assert (root / "run%1" / "manifest").exists()


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_seeded_benchmark_configs_parse(tmp_path, name):
    # the benchmark replaces every seed of the configs it runs
    # (bench/harness.py seeded_config); nothing else may change
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(bundled_config(name))
    cp["problem"].update(ic_seed="7", forcing_seed="7")
    seeds = dict(ic_seed=7, forcing_seed=7, verify_seed=7)
    if cp.has_section("surrogate"):
        cp["surrogate"]["seed"] = "7"
        seeds["surrogate_seed"] = 7
    cp["verify"] = {"seed": "7"}
    path = tmp_path / f"{name}.cfg"
    with open(path, "w") as fh:
        cp.write(fh)
    bundled = dataclasses.asdict(parse_config(bundled_config(name)))
    assert dataclasses.asdict(parse_config(path)) == {**bundled, **seeds}


def test_readme_documents_every_config_key():
    # one row per key in the README's "Config format" table, and no other
    text = (Path(__file__).parents[1] / "README.md").read_text()
    text = text.split("## Config format", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `\[([^\]]+)\]` \| `(\w+)` \|", text, re.M)
    assert sorted(rows) == sorted((section, key) for section, keys in
                                  _KEYS.items() for key in keys)


def test_random_euler_takes_the_config_gamma(tmp_path):
    cfg = _config(tmp_path, "equation = euler1d\nic = random_euler\n"
                  "gamma = 1.67", "corrector = euler1d_entropy")
    ec = parse_config(cfg)
    for variant in ec.variants:
        driver = build_driver(ec, variant, 16)
        assert driver.gamma == 1.67 and driver.ic.gamma == 1.67


def test_unknown_bundled_config():
    with pytest.raises(ConfigurationError):
        bundled_config("fig99")


def test_config_error_diagnostics(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nequation = heat\n[plan]\ncfl = two\n"
                   "[variant.a]\ntarget = fixed:\n")
    with pytest.raises(ConfigurationError) as err:
        parse_config(bad)
    msg = str(err.value)
    assert "equation" in msg and "cfl" in msg and "fixed" in msg
    # via the CLI entry point: exit code 2 with diagnostics
    assert main(["run", str(bad)]) == 2


def test_run_layout_and_manifest(tmp_path):
    rc = cmd_run(bundled_config("fig3_ftcs"), output_root=tmp_path)
    assert rc == 0
    out = tmp_path / "fig3_ftcs"
    for variant in ("ftcs", "ftcs_l2_zero"):
        assert (out / "n64" / variant / "trajectory.csv").exists()
        assert (out / "n64" / variant / "invariants.csv").exists()
    manifest = (out / "manifest").read_text()
    assert "config_sha256 = " in manifest
    assert "status.n64.ftcs = ok" in manifest
    header = (out / "n64" / "ftcs" / "invariants.csv").read_text().splitlines()[0]
    assert header == "t,mass,l2,tv,energy,enstrophy,entropy_total,min_rho,min_p"


def test_empty_variant_list_runs_reference_only(tmp_path):
    cfg = tmp_path / "ref_only.cfg"
    cfg.write_text("""
[problem]
equation = burgers
length = 1.0
ic = sine

[plan]
t_end = 0.2
snapshots = 3

[run]
resolutions = 32
reference_resolution = 64
output = ref_only
""")
    assert cmd_run(cfg, output_root=tmp_path) == 0
    out = tmp_path / "ref_only"
    assert (out / "reference" / "trajectory.csv").exists()
    assert (out / "reference" / "rates.csv").exists()
    assert not (out / "n32").exists()


def test_lax_friedrichs_reference_rate_matches_its_l2_decay(tmp_path):
    # the Lax-Friedrichs flux dissipates dx/(2 dt): its rate depends on the
    # dt it is evaluated at, which must be the dt the reference steps with
    cfg = tmp_path / "lf.cfg"
    cfg.write_text("[problem]\nequation = burgers\nic = sine\n"
                   "[plan]\nt_end = 0.2\nsnapshots = 5\n"
                   "[run]\nresolutions = 16\nreference_resolution = 256\n"
                   "reference_scheme = lax_friedrichs\noutput = lf\n"
                   "[variant.plain]\nscheme = godunov\n")
    assert cmd_run(cfg, output_root=tmp_path) == 0
    ref = tmp_path / "lf" / "reference"

    def column(name, index):
        lines = (ref / name).read_text().splitlines()[1:]
        return np.array([float(line.split(",")[index]) for line in lines])

    t, rate, l2 = column("rates.csv", 0), column("rates.csv", 1), \
        column("invariants.csv", 2)
    ratio = np.median(rate / np.gradient(l2, t))
    assert 0.9 <= ratio <= 1.1, ratio


def test_reproducible_byte_identical_csvs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_run(bundled_config("fig7_surrogate"), output_root=a)
    cmd_run(bundled_config("fig7_surrogate"), output_root=b)
    for rel in ("n32/surrogate/trajectory.csv", "n32/surrogate/invariants.csv",
                "n32/surrogate_clamp/trajectory.csv"):
        fa = a / "fig7_surrogate" / rel
        fb = b / "fig7_surrogate" / rel
        assert filecmp.cmp(fa, fb, shallow=False), rel


def test_verify_passes_and_counts(capsys):
    rc = cmd_verify(bundled_config("fig3_ftcs"), fns=None)
    out = capsys.readouterr().out
    assert rc == 0
    n_props = int(out.strip().splitlines()[-1].split()[0])
    assert n_props >= 24  # 8 correctors x 3 properties


def test_verify_detects_injected_sign_flip(capsys, tmp_path):
    # a corrupted corrector (flipped correction sign) must fail the suite
    from invariant_guard import correctors as co

    def broken_flux1d(fluxes, u, target):
        out, report = co.correct_flux_l2_1d(fluxes, u, target)
        return 2.0 * np.asarray(fluxes) - out, report   # reflected: wrong rate
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("[verify]\nseed = 0\ntrials = 20\n")
    rc = cmd_verify(cfg, fns={"correct_flux_l2_1d": broken_flux1d})
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_sweep_alpha_zero_reduces_to_muscl(tmp_path):
    cfg = tmp_path / "sweep0.cfg"
    cfg.write_text("""
[problem]
equation = advection
length = 1.0
c = 1.0
ic = sine

[plan]
cfl = 0.3
t_end = 0.5
snapshots = 6

[run]
resolutions = 32
output = sweep0

[surrogate]
base = muscl
amplitude = 0.0
seed = 0
""")
    assert cmd_sweep(cfg, output_root=tmp_path) == 0
    rows = {}
    for line in (tmp_path / "sweep0" / "sweep.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        rows[cells[1]] = cells[2:]
    assert rows["surrogate"] == rows["muscl"]


def test_sweep_scores_against_the_offset_exact_solution(tmp_path):
    # the linear schemes commute with a constant offset, so their errors
    # against the offset exact solution are those without the offset
    maes = []
    for offset in (0.0, 0.5):
        cfg = tmp_path / "offset.cfg"
        cfg.write_text(f"[problem]\nequation = advection\nic = sine\n"
                       f"ic_offset = {offset}\n[plan]\nt_end = 0.1\n"
                       f"snapshots = 3\n[run]\nresolutions = 16\n"
                       f"output = off{offset}\n")
        assert cmd_sweep(cfg, output_root=tmp_path) == 0
        lines = (tmp_path / f"off{offset}" / "sweep.csv").read_text()
        rows = [line.split(",") for line in lines.splitlines()[1:]]
        maes.append({r[1]: float(r[3]) for r in rows})
    for scheme in ("centered", "upwind", "muscl"):
        assert abs(maes[1][scheme] - maes[0][scheme]) <= 1e-9, scheme


def test_sweep_manifest_counts_the_clamps_it_shows(tmp_path, monkeypatch):
    # every clamp warning is shown through warnings.showwarning, and the
    # manifest counts them per row
    shown = []
    monkeypatch.setattr(warnings, "showwarning",
                        lambda message, category, *args: shown.append(category))
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert cmd_sweep(bundled_config("sweep_advection"),
                         output_root=tmp_path) == 0
    lines = (tmp_path / "sweep_advection" / "manifest").read_text().splitlines()
    clamps = {key: int(value) for key, _, value in
              (line.partition(" = ") for line in lines)
              if key.startswith("clamps.")}
    assert clamps and all(key.endswith(".surrogate_clamp") for key in clamps)
    n_shown = sum(issubclass(c, InfeasibleTargetWarning) for c in shown)
    assert sum(clamps.values()) == n_shown > 0


def test_sweep_manifest_does_not_depend_on_warning_filters(tmp_path):
    # the clamps are counted from the correction records, so the manifest is
    # the same whether the warnings are shown or ignored
    manifests = []
    for action in ("ignore", "always"):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter(action)
            assert cmd_sweep(bundled_config("sweep_advection"),
                             output_root=tmp_path / action) == 0
        manifests.append(
            (tmp_path / action / "sweep_advection" / "manifest").read_bytes())
    assert manifests[0] == manifests[1]
    lines = manifests[0].decode().splitlines()
    assert "clamps.n64.surrogate_clamp = 27" in lines
    assert "clamps.n128.surrogate_clamp = 100" in lines


def test_run_manifest_counts_anti_diffusive_entropy_targets(tmp_path):
    # R = 0 asks for less entropy production than the scheme makes; the
    # manifest counts each such stage, as many as the warnings raised
    cfg = _config(tmp_path, "equation = euler1d\nic = sod\nboundary = dirichlet",
                  "corrector = euler1d_entropy\nentropy_ratio = 0",
                  resolutions=64, t_end=0.02)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cmd_run(cfg, output_root=tmp_path) == 0
    n_warned = sum(issubclass(w.category, AntiDiffusiveTargetWarning)
                   for w in caught)
    lines = (tmp_path / "case" / "manifest").read_text().splitlines()
    assert f"anti_diffusive.n64.bad = {n_warned}" in lines
    assert n_warned > 0
    assert not any(line.startswith("anti_diffusive.n64.plain") for line in lines)


def test_write_csv_formats_like_the_per_value_formatter(tmp_path):
    # %.17g and format(x, ".17g") take the same path, edge values included
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64, size=600, dtype=np.uint64).view(np.float64)
    edge = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
            1.8e308, -1.8e308, 1.0, 0.1, 1 / 3, 123456789012345678.0]
    values = np.concatenate([bits, edge, np.zeros(2)]).reshape(-1, 4)
    path = tmp_path / "values.csv"
    write_csv(path, "a,b,c,d", values)
    want = ["a,b,c,d"] + [",".join(format(float(v), ".17g") for v in row)
                          for row in values]
    assert path.read_text() == "\n".join(want) + "\n"


def test_sweep_rejects_non_advection(tmp_path):
    with pytest.raises(ConfigurationError):
        cmd_sweep(bundled_config("fig6_sod"), output_root=tmp_path)


def test_sweep_below_4_cells_exits_2_before_any_output(tmp_path):
    # every sweep runs muscl, whatever the config's variants
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[problem]\nequation = advection\n[plan]\nt_end = 0.01\n"
                   "[run]\nresolutions = 3, 4\noutput = sweep\n")
    parse_config(cfg)
    root = tmp_path / "out"
    root.mkdir()
    assert main(["--output-root", str(root), "sweep", str(cfg)]) == 2
    assert not any(root.iterdir())


def test_ic_defaults_to_the_first_the_equation_accepts(tmp_path):
    for equation, ic in (("euler2d", "random_vorticity"), ("euler1d", "sod"),
                         ("advection", "sine")):
        cfg = _config(tmp_path, f"equation = {equation}", "corrector = none")
        assert parse_config(cfg).ic == ic
    # forced Burgers may start from rest
    cfg = _config(tmp_path, "equation = burgers_forced\nic = zero",
                  "scheme = godunov")
    ec = parse_config(cfg)
    driver = build_driver(ec, ec.variants[1], 16)
    assert not driver.initial_array().any()


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("INVARIANT_GUARD_OUTPUT_ROOT", str(tmp_path))
    assert main(["run", str(bundled_config("fig3_ftcs"))]) == 0
    assert (tmp_path / "fig3_ftcs" / "manifest").exists()


def test_fig1_config_reproduces_three_variants(tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cmd_run(bundled_config("fig1_burgers_centered"), output_root=tmp_path)
    assert rc == 0  # the centered blow-up is declared expected
    out = tmp_path / "fig1_burgers_centered"
    manifest = (out / "manifest").read_text()
    assert "status.n64.centered = NumericalBlowup" in manifest \
        or "status.n64.centered = NonFiniteState" in manifest

    def l2_series(variant):
        lines = (out / "n64" / variant / "invariants.csv").read_text().splitlines()
        return np.array([float(l.split(",")[2]) for l in lines[1:]])

    l2_un = l2_series("centered")
    assert np.nanmax(l2_un / l2_un[0]) > 1.0          # blow-up trend
    l2_zero = l2_series("l2_zero")
    assert np.abs(l2_zero / l2_zero[0] - 1.0).max() <= 1e-6
    ref = np.array([float(l.split(",")[2]) for l in
                    (out / "reference" / "invariants.csv")
                    .read_text().splitlines()[1:]])
    l2_tr = l2_series("l2_tracked")
    assert np.abs(l2_tr - ref).mean() < np.abs(l2_zero - ref).mean()


def test_metrics_only_for_snapshots_at_the_reference_times(tmp_path):
    # a variant that ends early has as many snapshots as the reference, but
    # at other times, so it is not scored against it
    cfg = tmp_path / "short.cfg"
    cfg.write_text("[problem]\nequation = burgers\nic = sine\n"
                   "[plan]\nt_end = 0.4\nsnapshots = 5\n"
                   "[run]\nresolutions = 64\nreference_resolution = 256\n"
                   "output = short\n"
                   "[variant.full]\nscheme = godunov\n"
                   "[variant.short]\nscheme = godunov\nt_end = 0.1\n")
    assert cmd_run(cfg, output_root=tmp_path) == 0
    out = tmp_path / "short" / "n64"
    assert (out / "full" / "metrics.csv").exists()
    assert (out / "short" / "trajectory.csv").exists()
    assert not (out / "short" / "metrics.csv").exists()


def test_fig4_correlation_config_writes_metrics(tmp_path):
    rc = cmd_run(bundled_config("fig4_euler2d_correlation"), output_root=tmp_path)
    assert rc == 0
    path = tmp_path / "fig4_euler2d_correlation" / "n64" / "energy_clamp" / "metrics.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "t,normalized_mse,mae,correlation"
    first = [float(v) for v in lines[1].split(",")]
    assert first[3] > 0.99  # same field sampled on both grids at t = 0
