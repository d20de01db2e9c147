import configparser
import csv
import dataclasses
import filecmp
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from invariant_guard import cli, schemes
from invariant_guard.cli import (SWEEP_VARIANTS, build_driver,
                                 bundled_config, cmd_run, cmd_sweep,
                                 cmd_verify, main, run_with_rates,
                                 variant_plan, write_csv)
from invariant_guard.config import (_KEYS, READ_WHEN, RUN_KINDS,
                                    VariantConfig, parse_config)
from invariant_guard.correctors import (AntiDiffusiveTargetWarning,
                                        TrackedRateSource)
from invariant_guard.diagnostics import InvariantReport
from invariant_guard.drivers import InfeasibleTargetWarning
from invariant_guard.errors import ConfigurationError
from invariant_guard.timeloop import StageRow, Trajectory, run
from invariant_guard.verification import PROPERTIES

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
    "burgers_nonconservative": "ic = sine",
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
    ("advection", "discrete", corrector) if kind == "ftcs"
    else (kind, "ssprk3", corrector)
    for kind, (_, correctors, _) in RUN_KINDS.items()
    for corrector in correctors])
def test_accepted_correctors_build_and_step(tmp_path, equation, integrator,
                                            corrector):
    # every corrector of every run kind is built and steps without error
    target = "\ntarget = fixed:0" if corrector not in (
        "none", "euler1d_entropy") else ""
    cfg = _config(tmp_path,
                  f"equation = {equation}\n" + EQUATION_LINES[equation],
                  f"corrector = {corrector}{target}",
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
    "tracked_past_the_reference": (
        dict(problem=BURGERS, run="reference_resolution = 32",
             variant="corrector = flux_l2\ntarget = tracked\nt_end = 1"),
        "[variant.bad] t_end"),
    "reference_on_dg": (
        dict(problem="equation = dg_burgers\nic = sine",
             run="reference_resolution = 32", variant="corrector = dg_l2"),
        "[run] reference_resolution"),
    # the scheme rules of schemes.flux_rule_1d
    "upwind_on_burgers": (dict(problem=BURGERS, variant="scheme = upwind"),
                          "[variant.bad] scheme"),
    "upwind_surrogate_base_on_burgers": (
        dict(problem=BURGERS, variant="scheme = surrogate"),
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
    "reference_of_one_cell": (
        dict(problem=BURGERS, variant="scheme = godunov",
             run="reference_resolution = 1"),
        "[run] reference_resolution = 1"),
    "sod_on_a_periodic_grid": (
        dict(problem="equation = euler1d\nic = sod",
             variant="corrector = euler1d_entropy"),
        "[problem] ic"),
    "dirichlet_scalar_fv": (
        dict(problem="equation = advection\nic = sine\nboundary = dirichlet",
             variant="scheme = godunov"),
        "[problem] boundary"),
    "unknown_surrogate_base": (
        dict(problem=BURGERS, variant="scheme = surrogate",
             extra="[surrogate]\nbase = surrogate\n"),
        "[surrogate] base"),
    "surrogate_section_nothing_reads": (
        dict(problem=BURGERS, variant="scheme = godunov",
             extra="[surrogate]\nbase = godunov\n"),
        "[surrogate]:"),
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
    # keys, values and run kinds no run reads
    "burgers_forced": (dict(problem="equation = burgers_forced\nic = sine",
                            variant="scheme = godunov"),
                       "[problem] equation"),
    "zero_ic": (dict(problem="equation = burgers\nic = zero",
                     variant="scheme = godunov"),
                "[problem] ic"),
    "forward_euler_integrator": (
        dict(problem=BURGERS, plan="integrator = forward_euler",
             variant="scheme = godunov"),
        "[plan] integrator"),
    "nu_on_advection": (
        dict(problem="equation = advection\nic = sine\nnu = 5.0",
             variant="scheme = godunov"),
        "[problem] nu"),
    "nu_on_burgers": (dict(problem=BURGERS + "\nnu = 5.0",
                           variant="scheme = godunov"),
                      "[problem] nu"),
    "variant_nu_on_burgers": (dict(problem=BURGERS,
                                   variant="scheme = godunov\nnu = 5.0"),
                              "[variant.bad] nu"),
    "nu_on_dg_burgers": (
        dict(problem="equation = dg_burgers\nic = sine\nnu = 5.0",
             variant="corrector = dg_l2"),
        "[problem] nu"),
    "nu_on_euler1d": (
        dict(problem="equation = euler1d\n" + EQUATION_LINES["euler1d"]
             + "\nnu = 5.0", variant="corrector = euler1d_entropy"),
        "[problem] nu"),
    "nu_on_burgers_nonconservative": (
        dict(problem="equation = burgers_nonconservative\nic = sine\n"
             "nu = 5.0", variant="corrector = rhs_l2"),
        "[problem] nu"),
    "variant_nu_on_ftcs": (
        dict(problem="equation = advection\nic = sine",
             plan="integrator = discrete",
             variant="corrector = increment_l2\ntarget = fixed:0\nnu = 5.0"),
        "[variant.bad] nu"),
    "scheme_on_euler2d": (
        dict(problem="equation = euler2d",
             variant="corrector = energy\nscheme = lax_friedrichs"),
        "[variant.bad] scheme"),
    "scheme_on_dg_burgers": (
        dict(problem="equation = dg_burgers\nic = sine",
             variant="corrector = dg_l2\nscheme = upwind"),
        "[variant.bad] scheme"),
    "scheme_on_ftcs": (
        dict(problem="equation = advection\nic = sine",
             plan="integrator = discrete", variant="scheme = upwind"),
        "[variant.bad] scheme"),
    "scheme_on_burgers_nonconservative": (
        dict(problem="equation = burgers_nonconservative\nic = sine",
             variant="corrector = rhs_l2\nscheme = godunov"),
        "[variant.bad] scheme"),
    "reference_scheme_on_euler2d": (
        dict(problem="equation = euler2d", variant="corrector = energy",
             run="reference_resolution = 32\nreference_scheme = godunov"),
        "[run] reference_scheme"),
    "target_on_euler1d": (
        dict(problem="equation = euler1d\n" + EQUATION_LINES["euler1d"],
             variant="corrector = euler1d_entropy\ntarget = fixed:-1"),
        "[variant.bad] target"),
    # keys read only under a condition on another key's value
    "target_under_corrector_none": (
        dict(problem=BURGERS, variant="scheme = godunov\ntarget = fixed:-1"),
        "[variant.bad] target"),
    "entropy_ratio_under_corrector_none": (
        dict(problem="equation = euler1d\n" + EQUATION_LINES["euler1d"],
             variant="corrector = none\nentropy_ratio = 0.5"),
        "[variant.bad] entropy_ratio"),
    "kolmogorov_k_without_kolmogorov_forcing": (
        dict(problem="equation = euler2d\nkolmogorov_k = 3",
             variant="corrector = energy"),
        "[problem] kolmogorov_k"),
    "drag_without_kolmogorov_forcing": (
        dict(problem="equation = euler2d\ndrag = 0.2",
             variant="corrector = energy"),
        "[problem] drag"),
    "reference_scheme_without_reference": (
        dict(problem=BURGERS, variant="scheme = godunov",
             run="reference_scheme = godunov"),
        "[run] reference_scheme"),
    # values out of range, which used to fail mid-run or run silently
    # at another value
    "negative_entropy_ratio": (
        dict(problem="equation = euler1d\n" + EQUATION_LINES["euler1d"],
             variant="corrector = euler1d_entropy\nentropy_ratio = -1"),
        "[variant.bad] entropy_ratio"),
    "negative_nu": (dict(problem="equation = euler2d\nnu = -0.5",
                         variant="corrector = energy"),
                    "[problem] nu"),
    "negative_variant_nu": (dict(problem="equation = euler2d",
                                 variant="corrector = energy\nnu = -0.5"),
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


#: the values tried in place of a key's: the first that differs from the
#: key's value in the tiny run and that parse_config accepts
ALTERNATIVES = {
    "equation": tuple(k for k in RUN_KINDS if k != "ftcs"),
    "length": ("2.0",), "c": ("-0.5",), "nu": ("0.01", "0.0"),
    "gamma": ("1.67",), "boundary": ("periodic", "dirichlet"),
    "ic": ("sine", "sum_of_sines", "random_vorticity", "sod",
           "random_euler"),
    "ic_seed": ("7",), "ic_offset": ("0.25", "0.0"), "dg_degree": ("0", "2"),
    "forcing": ("kolmogorov", "none"), "kolmogorov_k": ("2",),
    "drag": ("0.5",), "integrator": ("ssprk3", "discrete"),
    "cfl": ("0.2",), "t_end": ("0.1",), "snapshots": ("3",),
    "resolutions": ("16",), "reference_resolution": ("32",),
    "output": ("elsewhere",), "base": ("centered", "upwind"),
    "amplitude": ("0.7",), "seed": ("9",),
    "reference_scheme": ("centered", "godunov", "muscl"),
    "scheme": ("centered", "upwind", "godunov", "lax_friedrichs", "muscl",
               "surrogate"),
    "corrector": ("none", "flux_l2", "rhs_l2", "increment_l2", "dg_l2",
                  "energy", "euler1d_entropy"),
    "target": ("fixed:-0.5", "clamp", "none", "tracked"),
    "step_correction": ("none", "clamp", "fixed:-0.5"),
    "entropy_ratio": ("1.5",), "positivity": ("false", "true"),
    "expect_blowup": ("false", "true"),
}
def _fail_alone(cp, section):
    """Only the variant of ``section`` runs, without a reference run, and it
    runs out of steps."""
    for other in cp.sections():
        if other.startswith("variant.") and other != section:
            cp.remove_section(other)
    cp.remove_option("run", "reference_resolution")
    cp.remove_option("run", "reference_scheme")
    cp["plan"]["max_steps"] = "2"


#: how a tiny run shows a key it would not show: the CFL limit sets dt only
#: in a long run, a failing variant shows expect_blowup, and on the Sod tube
#: the gas limiter acts only past the CFL limit, where it ends the run with
#: a CflViolation
SHOWCASE = {"cfl": lambda cp, section: cp["plan"].update(
    t_end=str(0.6 * float(cp["problem"].get("length", "1")))),
            "expect_blowup": _fail_alone,
            "positivity": lambda cp, section: cp["plan"].update(cfl="1.0",
                                                                t_end="1")}


def _tiny(bundled, section, key):
    """A copy of ``bundled`` cut down to a tiny run, to t = 0.2 on 8 cells,
    the reference on 16, with two snapshots, then set to show ``key`` of
    ``section`` as SHOWCASE says."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(bundled)
    cp["plan"].update(t_end="0.2", snapshots="2")
    cp["run"]["resolutions"] = "8"
    if cp.has_option("run", "reference_resolution"):
        cp["run"]["reference_resolution"] = "16"
    for name in cp.sections():
        if name.startswith("variant.") and cp.has_option(name, "t_end"):
            cp[name]["t_end"] = "0.2"
    SHOWCASE.get(key, lambda cp, section: None)(cp, section)
    return cp


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_every_key_a_bundled_config_sets_is_read(tmp_path, name):
    # every key is read: for each key the config sets, another value of
    # the key's own range is rejected, or it changes what a tiny run of the
    # config writes (the manifest's config hash aside) or its exit code
    bundled = configparser.ConfigParser(interpolation=None)
    bundled.read(bundled_config(name))
    command = "sweep" if name == "sweep_advection" else "run"
    runs = []

    def outputs(cp):
        runs.append(tmp_path / str(len(runs)))
        path = runs[-1].with_suffix(".cfg")
        with open(path, "w") as fh:
            cp.write(fh)
        try:
            parse_config(path)
        except ConfigurationError:
            return None
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            code = main(["--output-root", str(runs[-1]), command, str(path)])
        files = {p.relative_to(runs[-1]).as_posix(): p.read_bytes()
                 for p in runs[-1].rglob("*") if p.is_file()}
        for key in [k for k in files if k.endswith("manifest")]:
            files[key] = re.sub(rb"config_sha256 = \w+\n", b"", files[key])
        return code, files

    base, unread = {}, []
    for section in bundled.sections():
        for key in bundled[section]:
            showcase = (section, key) if key in SHOWCASE else None
            if showcase not in base:
                base[showcase] = outputs(_tiny(bundled, section, key))
                assert base[showcase] is not None
            cp = _tiny(bundled, section, key)
            tiny = cp[section][key]
            for value in ALTERNATIVES[key]:
                if value == tiny:
                    continue
                cp[section][key] = value
                changed = outputs(cp)
                if changed is not None:
                    if changed == base[showcase]:
                        unread.append(f"[{section}] {key} = {value}")
                    break
    assert not unread


def test_readme_documents_every_config_key():
    # one row per key in the README's "Config format" table, and no other,
    # each accepted on the run kinds that read it
    text = (Path(__file__).parents[1] / "README.md").read_text()
    text = text.split("## Config format", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `\[([^\]]+)\]` \| `(\w+)` \|.*\| ([^|]+) \|$",
                      text, re.M)
    want = {}
    for section, keys in _KEYS.items():
        for key, f in keys.items():
            kinds = [k for k, (_, _, reads) in RUN_KINDS.items()
                     if f.name in reads]
            want[section, key] = ", ".join(f"`{k}`" for k in kinds) or "all"
            if f.name in READ_WHEN:
                want[section, key] += ", " + READ_WHEN[f.name][1]
    assert {(section, key): accepted for section, key, accepted in rows} \
        == want


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


def _column(path, index):
    """Column ``index`` of a CSV file, header skipped."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=(index,))[:, 0]


def test_lax_friedrichs_reference_rate_matches_its_l2_decay(tmp_path):
    # the Lax-Friedrichs flux dissipates dx/(2 dt), so its decay depends on
    # each step's dt, and the run shortens the steps before a snapshot:
    # summed over the reference's steps, rate * dt is the l2 change of each
    # snapshot interval
    cfg = tmp_path / "lf.cfg"
    cfg.write_text("[problem]\nequation = burgers\nic = sine\n"
                   "[plan]\nt_end = 0.2\nsnapshots = 5\n"
                   "[run]\nresolutions = 16\nreference_resolution = 256\n"
                   "reference_scheme = lax_friedrichs\noutput = lf\n"
                   "[variant.plain]\nscheme = godunov\n")
    assert cmd_run(cfg, output_root=tmp_path) == 0
    ref = tmp_path / "lf" / "reference"
    mid, rate = (_column(ref / "rates.csv", i) for i in (0, 1))
    t, l2 = (_column(ref / "invariants.csv", i) for i in (0, 2))
    ends = [0.0]   # each row sits at its step's midpoint
    for m in mid:
        ends.append(2.0 * m - ends[-1])
    interval = np.searchsorted(t, mid) - 1
    change = np.bincount(interval, rate * np.diff(ends), minlength=len(t) - 1)
    assert np.bincount(interval).min() >= 2
    np.testing.assert_allclose(change, np.diff(l2), rtol=1e-10, atol=0)


def _tracked_gap(out, n, label):
    """The mean of |l2 - l2 of the coarse-grained reference| / l2(0) of the
    run ``label`` at n cells (unit length), and its mean MAE."""
    ref = np.loadtxt(out / "reference" / "trajectory.csv", delimiter=",",
                     skiprows=1, ndmin=2)[:, 1:]
    coarse = ref.reshape(len(ref), n, -1).mean(axis=2)
    l2 = _column(out / f"n{n}" / label / "invariants.csv", 2)
    gap = np.abs(l2 - 0.5 * (coarse ** 2).sum(axis=1) / n).mean() / l2[0]
    return gap, _column(out / f"n{n}" / label / "metrics.csv", 2).mean()


LAX_FRIEDRICHS_TRACKED = """[problem]
equation = burgers
ic = sine
[plan]
t_end = 0.1
snapshots = 11
[run]
resolutions = 32
reference_resolution = 64
reference_scheme = lax_friedrichs
output = lf_tracked
[variant.l2_tracked]
scheme = centered
corrector = flux_l2
target = tracked
step_correction = tracked
"""


def test_tracked_run_follows_the_reference_l2(tmp_path):
    # the paper's second property: a tracked run's l2 follows the
    # reference's, however few snapshots the runs keep.  The bundled fig1
    # with 6 snapshots, then a Lax-Friedrichs reference of about 2 steps
    # per snapshot interval, whose shortened steps dissipate more
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(bundled_config("fig1_burgers_centered"))
    cp["plan"]["snapshots"] = "6"
    cp.remove_section("variant.centered")
    cp.remove_section("variant.l2_zero")
    with open(tmp_path / "fig1.cfg", "w") as fh:
        cp.write(fh)
    assert cmd_run(tmp_path / "fig1.cfg", output_root=tmp_path) == 0
    gap, mean_mae = _tracked_gap(tmp_path / "fig1_burgers_centered", 64,
                                 "l2_tracked")
    assert gap <= 1e-3 and mean_mae <= 0.02, (gap, mean_mae)
    (tmp_path / "lf.cfg").write_text(LAX_FRIEDRICHS_TRACKED)
    assert cmd_run(tmp_path / "lf.cfg", output_root=tmp_path) == 0
    gap, _ = _tracked_gap(tmp_path / "lf_tracked", 32, "l2_tracked")
    assert gap <= 6e-3, gap


@pytest.mark.parametrize("snapshots, t_end", [(1, 0.05), (2, 0.0)])
def test_one_snapshot_reference_runs(tmp_path, snapshots, t_end):
    # a reference that records only its initial snapshot still has a rate
    # row per step, and none when it takes no step
    cfg = _config(tmp_path, "equation = burgers_nonconservative\nic = sine",
                  "corrector = rhs_l2\ntarget = clamp",
                  run="reference_resolution = 32", snapshots=snapshots,
                  t_end=t_end)
    assert main(["--output-root", str(tmp_path), "run", str(cfg)]) == 0
    rows = (tmp_path / "case" / "reference" / "rates.csv").read_text()
    assert (len(rows.splitlines()) > 2) == (t_end > 0)


def test_run_with_rates_keeps_the_drivers_observe_hook():
    # the rate rows come through the observe hook, which a driver may
    # already have (Euler1D records its minima there): it still runs
    ec = parse_config(bundled_config("fig1_burgers_centered"))
    variant = VariantConfig(label="reference", scheme=ec.reference_scheme)
    driver = build_driver(ec, variant, 64)
    seen = []
    driver.observe = lambda state, t, traj: seen.append(t)
    plan = dataclasses.replace(variant_plan(ec, variant), t_end=0.5)
    traj, rates = run_with_rates(plan, driver)
    assert traj.error is None and len(seen) == len(rates.times) > 1
    np.testing.assert_allclose(seen, 2.0 * rates.times - np.r_[0.0, seen[:-1]])


def test_euler2d_reference_solves_poisson_once_per_state(monkeypatch):
    # each state array is evaluated once: the initial one and the end of
    # each SSPRK3 stage, one Poisson solve apiece; the rate curve reads q_0
    # from the initial report, not from a second solve of snapshot 0
    ec = parse_config(bundled_config("fig4_euler2d_correlation"))
    variant = VariantConfig(label="reference", scheme=ec.reference_scheme)
    driver = build_driver(ec, variant, 16)
    solves, stages = [], []
    solve, rhs = schemes.poisson_solve, driver.rhs
    monkeypatch.setattr(schemes, "poisson_solve",
                        lambda chi: solves.append(chi) or solve(chi))
    driver.rhs = lambda flow, t, dt: stages.append(t) or rhs(flow, t, dt)
    plan = dataclasses.replace(variant_plan(ec, variant), t_end=0.1)
    traj, rates = run_with_rates(plan, driver)
    assert traj.error is None and len(rates.times) == len(stages) // 3 > 1
    assert len(solves) == len(stages) + 1


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
    # 15 rows over the linear corrector CASES, 10 properties of their own
    assert n_props == len(PROPERTIES) == 25


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

[variant.muscl]
scheme = muscl

[variant.surrogate]
scheme = surrogate
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
                       f"output = off{offset}\n[variant.centered]\n"
                       f"scheme = centered\n[variant.upwind]\n"
                       f"scheme = upwind\n[variant.muscl]\nscheme = muscl\n")
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


@pytest.mark.parametrize("name, snapshots", [
    pytest.param("fig6_sod", None, id="fig6_sod"),
    pytest.param("fig6_sod", 1, id="fig6_sod_one_snapshot"),
    pytest.param("fig7_surrogate", None, id="fig7_surrogate"),
    pytest.param("sweep_advection", None, id="sweep_advection")])
def test_stages_csv_reads_back_the_manifest_counts(tmp_path, monkeypatch,
                                                   name, snapshots):
    # each run's stages.csv folds every correction record of the run, so
    # its counts sum to the manifest's and to the run's record count, and
    # fig6's entropy rows keep criterion 6's stage rate bound; the sweep
    # config, run through `run`, is the bundled one that clamps steps, and
    # a one-snapshot run records no snapshot after t = 0, so only the end
    # of the run closes its interval
    config = bundled_config(name)
    if snapshots is not None:
        text = re.sub(r"(?m)^snapshots = \d+$", f"snapshots = {snapshots}",
                      config.read_text())
        assert f"snapshots = {snapshots}" in text
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
    logged = {}
    count_records = cli._count_records

    def counting(counts, key, traj):
        logged[key] = len(traj.stage_records)
        count_records(counts, key, traj)
    monkeypatch.setattr(cli, "_count_records", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AntiDiffusiveTargetWarning)
        warnings.simplefilter("ignore", InfeasibleTargetWarning)
        assert cmd_run(config, output_root=tmp_path) == 0
    out = tmp_path / name
    manifest = dict(line.split(" = ")
                    for line in (out / "manifest").read_text().splitlines())
    assert logged
    for key, n_records in logged.items():
        n, label = key.split(".")
        with open(out / n / label / "stages.csv") as fh:
            rows = list(csv.DictReader(fh))

        def total(column, kind=None):
            return sum(int(row[column]) for row in rows
                       if kind in (None, row["kind"]))
        assert total("below_old", "entropy") \
            == int(manifest.get(f"anti_diffusive.{key}", 0))
        assert total("records", "step_delta_l2_clamped") \
            == int(manifest.get(f"clamps.{key}", 0))
        assert total("records") == n_records
        if name == "fig6_sod":
            assert rows and all(float(row["max_rate_error"]) <= 1e-10
                                for row in rows if row["kind"] == "entropy")
    # fig6 has anti-diffusive entropy targets, the sweep config clamps
    assert name == "fig7_surrogate" or any(
        key.startswith(("anti_diffusive.", "clamps.")) for key in manifest)


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


def test_write_csv_formats_each_cell_by_its_type(tmp_path):
    # a number as %.17g, a string as it is, None as an empty cell
    path = tmp_path / "cells.csv"
    write_csv(path, "h", [[3, "l2", None, 0.1, -0.0, float("nan"),
                           np.float64(1 / 3)]])
    assert path.read_text() == \
        "h\n3,l2,,0.10000000000000001,-0,nan,0.33333333333333331\n"
    # the record files take their columns from the record types
    traj = Trajectory(reports=[InvariantReport(t=0.5, l2=2.0)])
    traj.stage_records.rows.append(
        StageRow(0.0, 0.5, "flux_l2", 3, 1, 0.25, None))
    cli.write_invariants(tmp_path / "invariants.csv", traj)
    cli.write_stages(tmp_path / "stages.csv", traj)
    names = [f.name for f in dataclasses.fields(InvariantReport)]
    assert (tmp_path / "invariants.csv").read_text().splitlines() == \
        [",".join(names), "0.5,,2,,,,,,"]
    assert (tmp_path / "stages.csv").read_text().splitlines() == \
        [",".join(StageRow._fields), "0,0.5,flux_l2,3,1,0.25,"]


def test_sweep_rejects_non_advection(tmp_path):
    with pytest.raises(ConfigurationError):
        cmd_sweep(bundled_config("fig6_sod"), output_root=tmp_path)


def test_sweep_below_4_cells_exits_2_before_any_output(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[problem]\nequation = advection\n[plan]\nt_end = 0.01\n"
                   "[run]\nresolutions = 3, 4\noutput = sweep\n"
                   "[variant.muscl]\nscheme = muscl\n")
    root = tmp_path / "out"
    root.mkdir()
    assert main(["--output-root", str(root), "sweep", str(cfg)]) == 2
    assert not any(root.iterdir())


def test_sweep_without_variants_exits_2_before_any_output(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[problem]\nequation = advection\n[run]\noutput = sweep\n")
    root = tmp_path / "out"
    root.mkdir()
    assert main(["--output-root", str(root), "sweep", str(cfg)]) == 2
    assert not any(root.iterdir())


def test_sweep_variants_name_the_bundled_sweep_rows():
    # the benchmark harness sizes the bundled sweep by SWEEP_VARIANTS
    ec = parse_config(bundled_config("sweep_advection"))
    assert SWEEP_VARIANTS == tuple(v.label for v in ec.variants)


def _sweep_rows(path):
    """sweep.csv as {(n, variant): [normalized_mse, mae, l2_end_over_l2_0]}."""
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        n, label, *values = line.split(",")
        rows[int(n), label] = [float(v) for v in values]
    return rows


BLOWUP_SWEEP = """[problem]
equation = advection
[plan]
t_end = 0.5
snapshots = 2
max_steps = 20
[run]
resolutions = 16
output = blowup
[variant.short]
scheme = upwind
t_end = 0.002
[variant.long]
scheme = upwind
"""


def test_sweep_unexpected_row_failure_exits_2_and_writes_its_nan_row(
        tmp_path, capsys):
    # the long row runs out of steps
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(BLOWUP_SWEEP)
    assert cmd_sweep(cfg, output_root=tmp_path) == 2
    assert "error: n16.long" in capsys.readouterr().err
    rows = _sweep_rows(tmp_path / "blowup" / "sweep.csv")
    assert list(rows) == [(16, "short"), (16, "long")]
    assert np.isfinite(rows[16, "short"]).all()
    assert np.isnan(rows[16, "long"]).all()
    lines = (tmp_path / "blowup" / "manifest").read_text().splitlines()
    assert "status.n16.short = ok" in lines
    assert "status.n16.long = NumericalBlowup@t=0.375" in lines


def test_sweep_expected_blowup_row_exits_0(tmp_path):
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(BLOWUP_SWEEP + "expect_blowup = true\n")
    assert cmd_sweep(cfg, output_root=tmp_path) == 0
    rows = _sweep_rows(tmp_path / "blowup" / "sweep.csv")
    assert np.isnan(rows[16, "long"]).all()


ACCURACY_SWEEP = """[problem]
equation = advection
ic = sine
[plan]
cfl = 0.3
t_end = 1.0
[run]
resolutions = 32, 64, 128
output = accuracy
[variant.muscl]
scheme = muscl
[variant.muscl_l2_zero]
scheme = muscl
corrector = flux_l2
target = fixed:0
[variant.centered]
scheme = centered
[variant.upwind_l2_zero]
scheme = upwind
corrector = flux_l2
target = fixed:0
"""


def test_sweep_correction_keeps_an_accurate_scheme_accurate(tmp_path):
    # the paper's second property: on a periodic problem, pinning the l2
    # rate of an already accurate scheme costs it no accuracy or order
    cfg = tmp_path / "accuracy.cfg"
    cfg.write_text(ACCURACY_SWEEP)
    assert cmd_sweep(cfg, output_root=tmp_path) == 0
    rows = _sweep_rows(tmp_path / "accuracy" / "sweep.csv")
    ns = (32, 64, 128)
    plain = [rows[n, "muscl"][1] for n in ns]
    pinned = [rows[n, "muscl_l2_zero"][1] for n in ns]
    for n, p, c in zip(ns, plain, pinned):
        assert c <= 1.1 * p, n
    for i in range(len(ns) - 1):
        order = plain[i] / plain[i + 1]
        assert order >= 3.0, ns[i + 1]    # second order: 4 per doubling
        assert pinned[i] / pinned[i + 1] >= order - 0.1, ns[i + 1]
    # upwind is centered plus dissipation along the cell jumps, which is
    # the direction the flux corrector moves: pinned at 0 it is centered
    for n in ns:
        np.testing.assert_allclose(rows[n, "upwind_l2_zero"],
                                   rows[n, "centered"], rtol=1e-12, atol=0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the per-step clamp of surrogate_clamp is infeasible "
    "in 27 and 100 steps, and its l2 ends at 1.127 and 1.990 times its "
    "start at n = 64 and 128"))
def test_bundled_sweep_corrected_rows_do_not_gain_l2(tmp_path):
    # the paper's first property: correction guarantees stability
    path = bundled_config("sweep_advection")
    ec = parse_config(path)
    corrected = [v.label for v in ec.variants if v.corrector != "none"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InfeasibleTargetWarning)
        code = cmd_sweep(path, output_root=tmp_path)
    if code != 0 or not corrected:
        pytest.fail("the bundled sweep must run and hold a corrected row")
    rows = _sweep_rows(tmp_path / ec.output / "sweep.csv")
    gained = {(n, label): rows[n, label][2] for n in ec.resolutions
              for label in corrected if not rows[n, label][2] <= 1 + 1e-12}
    assert not gained


def test_ic_defaults_to_the_first_the_equation_accepts(tmp_path):
    # (Sod needs its Dirichlet boundary)
    for equation, ic in (("euler2d", "random_vorticity"),
                         ("euler1d\nboundary = dirichlet", "sod"),
                         ("advection", "sine")):
        cfg = _config(tmp_path, f"equation = {equation}", "corrector = none")
        assert parse_config(cfg).ic == ic


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
