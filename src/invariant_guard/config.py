"""Experiment configuration: flat key-value text with [section] headers.

Parsed with configparser, values literal.  Each field a config sets
declares its section and range (``_key``); ``RUN_KINDS`` and ``READ_WHEN``
say which runs read it, and ``parse_config`` rejects a key that its run
would not read.  The README lists them all.  A [variant.<label>] inherits
the [problem] and [plan] defaults and may override some of them.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import PurePath

from .core import UniformGrid1D
from .errors import ConfigurationError
from .schemes import FluxScheme, flux_rule_1d


_SINES = ("sine", "sum_of_sines")
_SCALAR = frozenset({"boundary", "ic_offset", "reference_resolution",
                     "target"})
_FLUX = _SCALAR | {"scheme", "step_correction", "reference_scheme"}
#: Every kind of run: its initial conditions (the first is the default),
#: correctors, and the fields it reads of those some kind does not read.
#: A run kind is the equation, but advection under the discrete integrator
#: is the FTCS demo, ``ftcs``.  Every kind accepts ``ic_seed``, and
#: ``forcing_seed``, which no run reads: the benchmark seeds a config by
#: writing both.
RUN_KINDS = {
    "advection": (_SINES, ("none", "flux_l2"), _FLUX | {"c"}),
    "ftcs": (_SINES, ("none", "increment_l2"), _SCALAR | {"c"}),
    "burgers": (_SINES, ("none", "flux_l2"), _FLUX),
    "burgers_nonconservative": (_SINES, ("none", "rhs_l2"), _SCALAR),
    "dg_burgers": (("sine",), ("none", "dg_l2"),
                   {"ic_offset", "dg_degree", "target"}),
    "euler2d": (("random_vorticity",), ("none", "flux_l2", "energy"),
                {"nu", "forcing", "kolmogorov_k", "drag", "step_correction",
                 "reference_resolution", "target"}),
    "euler1d": (("sod", "random_euler"), ("none", "euler1d_entropy"),
                {"gamma", "boundary", "entropy_ratio", "positivity"}),
}
#: the fields some run kind does not read; every kind reads the others
_RESTRICTED = frozenset().union(*(reads for _, _, reads in RUN_KINDS.values()))


def _forced(ec, _):
    """Whether a run of ``ec``, a variant or the reference, is forced."""
    runs = [v.forcing for v in ec.variants] + [None] * bool(
        ec.reference_resolution)
    return "kolmogorov" in {ec.forcing if f is None else f for f in runs}


_CORRECTED = (lambda ec, v: v.corrector != "none",
              "under a corrector other than none")
_FORCED = (_forced, "when a run's forcing is kolmogorov")
#: the fields that a run kind that reads them reads only under a condition
#: on other values: (the test, of the config and the values of the field's
#: section, and the condition in words)
READ_WHEN = {"target": _CORRECTED, "entropy_ratio": _CORRECTED,
             "reference_scheme": (lambda ec, _: ec.reference_resolution > 0,
                                  "with a reference_resolution"),
             "kolmogorov_k": _FORCED, "drag": _FORCED}
_SCHEMES = ("centered", "upwind", "godunov", "lax_friedrichs", "muscl",
            "surrogate")


def rate_spec(text):
    """Split a ``target`` or ``step_correction`` value into (kind, value).

    The grammar is ``none | clamp | tracked | fixed:<x <= 0>``; only
    ``fixed`` carries a value.  Raises ValueError outside it.
    """
    kind, sep, arg = text.partition(":")
    if kind in ("none", "clamp", "tracked") and not sep:
        return kind, None
    if kind != "fixed":
        raise ValueError("expected none, clamp, tracked or fixed:<x <= 0>")
    try:
        value = float(arg)
    except ValueError:
        raise ValueError("fixed needs a numeric value, e.g. fixed:0") from None
    if not value <= 0.0:
        raise ValueError("a fixed rate must be <= 0")
    return kind, value


def _rule(test, text):
    """A value rule: raises ValueError unless ``test(value)``."""
    def check(value):
        if not test(value):
            raise ValueError(f"must be {text}")
    return check


def _one_of(*values):
    return _rule(lambda x: x in values, f"one of {values}")


_AT_LEAST_0 = _rule(lambda x: x >= 0, ">= 0")
_AT_LEAST_1 = _rule(lambda x: x >= 1, ">= 1")
_CFL = _rule(lambda x: 0.0 < x <= 1.0, "in (0, 1]")
_FORCING = _one_of("none", "kolmogorov")
_RELATIVE = _rule(lambda p: not PurePath(p).is_absolute()
                  and ".." not in PurePath(p).parts,
                  "a relative path with no .. part")
_VARIANT = "variant.<label>"


def _key(section, default, rule=None):
    """A field that ``[section]`` sets under its name less any ``<section>_``
    prefix, read as its annotated type.  ``rule`` raises ValueError on a
    value out of range."""
    return field(default=default, metadata=dict(
        section=section, rule=rule or (lambda value: None)))


@dataclass
class VariantConfig:
    label: str
    scheme: str = _key(_VARIANT, "muscl", _one_of(*_SCHEMES))
    corrector: str = _key(_VARIANT, "none")
    target: str = _key(_VARIANT, "clamp", rate_spec)
    step_correction: str = _key(_VARIANT, "none", rate_spec)
    entropy_ratio: float = _key(_VARIANT, 1.0, _AT_LEAST_0)
    positivity: bool = _key(_VARIANT, True)
    # per-variant overrides of the [plan] and [problem] values
    t_end: float = _key(_VARIANT, None, _AT_LEAST_0)
    cfl: float = _key(_VARIANT, None, _CFL)
    forcing: str = _key(_VARIANT, None, _FORCING)
    nu: float = _key(_VARIANT, None, _AT_LEAST_0)
    expect_blowup: bool = _key(_VARIANT, False)


@dataclass
class ExperimentConfig:
    equation: str = _key("problem", "advection",
                         _one_of(*(k for k in RUN_KINDS if k != "ftcs")))
    length: float = _key("problem", 1.0, _rule(lambda x: x > 0.0, "> 0"))
    c: float = _key("problem", 1.0)
    nu: float = _key("problem", 0.0, _AT_LEAST_0)
    gamma: float = _key("problem", 1.4, _rule(lambda x: x > 1.0, "> 1"))
    boundary: str = _key("problem", "periodic",
                         _one_of("periodic", "dirichlet"))
    ic: str = _key("problem", "sine")    # default: the run kind's first
    ic_seed: int = _key("problem", 0)
    ic_offset: float = _key("problem", 0.0)
    dg_degree: int = _key("problem", 1, _one_of(0, 1, 2))
    forcing: str = _key("problem", "none", _FORCING)
    forcing_seed: int = _key("problem", 0)   # no run reads it
    kolmogorov_k: int = _key("problem", 4, _AT_LEAST_1)
    drag: float = _key("problem", 0.1, _AT_LEAST_0)
    integrator: str = _key("plan", "ssprk3", _one_of("ssprk3", "discrete"))
    cfl: float = _key("plan", 0.3, _CFL)
    t_end: float = _key("plan", 1.0, _AT_LEAST_0)
    snapshots: int = _key("plan", 11, _AT_LEAST_1)
    max_steps: int = _key("plan", 500000, _AT_LEAST_1)
    resolutions: tuple = _key("run", (64,), _rule(lambda ns: min(ns) >= 2,
                                                  "at least 2 cells each"))
    reference_resolution: int = _key("run", 0, _AT_LEAST_0)  # 0: none
    reference_scheme: str = _key("run", "muscl", _one_of(*_SCHEMES))
    output: str = _key("run", "out", _RELATIVE)
    surrogate_base: str = _key("surrogate", "upwind", _one_of(*_SCHEMES[:-1]))
    surrogate_amplitude: float = _key("surrogate", 0.0)
    surrogate_seed: int = _key("surrogate", 0)
    verify_seed: int = _key("verify", 0)
    verify_trials: int = _key("verify", 200, _AT_LEAST_1)
    variants: list = field(default_factory=list)


def _reader(convert, expected):
    def read(raw):
        try:
            return convert(raw)
        except (ValueError, KeyError):
            raise ValueError(f"expected {expected}") from None
    return read


def _finite(raw):
    if not math.isfinite(value := float(raw)):
        raise ValueError(raw)
    return value


#: how the text of a field is read, by the field's (string) annotation
_READERS = {
    "str": str,
    "int": _reader(int, "an integer"),
    "float": _reader(_finite, "a finite number"),
    "bool": _reader(lambda raw: configparser.ConfigParser.BOOLEAN_STATES[
        raw.lower()], "true/false, yes/no, on/off or 1/0"),
    "tuple": _reader(lambda raw: tuple(int(tok) for tok in raw.split(",")),
                     "comma-separated integers"),
}
#: every section a config may hold -> its keys -> the field each one sets
_KEYS = {section: {f.name.removeprefix(section + "_"): f
                   for f in fields(ExperimentConfig) + fields(VariantConfig)
                   if f.metadata.get("section") == section}
         for section in ("problem", "plan", "run", "surrogate", "verify",
                         _VARIANT)}


def _cross_errors(ec, kind):
    """The rules across keys of a run of ``kind``.  A rejected key left its
    field at the default, so each field holds a value its rule accepts."""
    errors = []
    if ec.integrator == "discrete" and kind != "ftcs":
        errors.append("[plan] integrator = discrete runs the FTCS advection "
                      "demo only")
    ics, correctors, reads = RUN_KINDS[kind]
    if ec.ic not in ics:
        errors.append(f"[problem] ic = {ec.ic!r}: {kind} accepts {ics}")
    if ec.boundary == "dirichlet" and kind != "euler1d":
        errors.append(f"[problem] boundary = dirichlet: {kind} is "
                      "periodic-only; only euler1d has a bounded solver")
    if ec.ic == "sod" and ec.boundary != "dirichlet":
        errors.append("[problem] ic = 'sod' needs boundary = dirichlet")
    for v in ec.variants:
        where = f"[variant.{v.label}]"
        if v.corrector not in correctors:
            errors.append(f"{where} corrector = {v.corrector!r}: {kind} "
                          f"accepts {correctors}")
        for key in ("target", "step_correction"):
            if getattr(v, key) == "tracked" and not ec.reference_resolution:
                errors.append(f"{where} {key} = tracked needs a reference run; "
                              "set [run] reference_resolution")
            elif getattr(v, key) == "tracked" and (v.t_end or 0) > ec.t_end:
                errors.append(f"{where} t_end: {key} = tracked reads the "
                              f"reference run, which ends at t = {ec.t_end:g}")
        if v.target == "none" and v.corrector != "none":
            errors.append(f"{where} target = none: corrector {v.corrector!r} "
                          "needs a target")
    for n in ec.resolutions:
        if ec.reference_resolution % n != 0:
            errors.append(f"[run] reference_resolution "
                          f"{ec.reference_resolution} not divisible by {n}")
    if "scheme" not in reads:
        return errors
    # the rules of schemes.flux_rule_1d (ScalarFv1D binds it at build time)
    # for every run of a flux scheme: each variant at the smallest
    # resolution, and the reference
    runs = [(f"[variant.{v.label}] scheme", v.scheme, "resolutions",
             min(ec.resolutions)) for v in ec.variants]
    if ec.reference_resolution:
        runs.append(("[run] reference_scheme", ec.reference_scheme,
                     "reference_resolution", ec.reference_resolution))
    for where, scheme, key, n in runs:
        if scheme == "surrogate":
            where, scheme = "[surrogate] base", ec.surrogate_base
        try:
            flux_rule_1d(FluxScheme(scheme), UniformGrid1D(n, ec.length),
                         kind, ec.c)
        except (ConfigurationError, ValueError) as err:  # ValueError: n < 2
            errors.append(f"{where} = {scheme} at [run] {key} = {n}: {err}")
    return errors


def parse_config(path):
    """Parse and validate an experiment config; raises ConfigurationError
    with per-field diagnostics on malformed input."""
    # values are literal (no % interpolation), and no section is
    # configparser's DEFAULT, whose keys it would copy into every section
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                    interpolation=None, default_section="")
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigurationError(f"config parse error in {path}: {err}") from err

    errors = []
    ec = ExperimentConfig()
    equation = cfg.get("problem", "equation", fallback=ec.equation)
    discrete = cfg.get("plan", "integrator", fallback="") == "discrete"
    kind = "ftcs" if equation == "advection" and discrete else equation
    ics, _, reads = RUN_KINDS.get(kind, ((ec.ic,), (), _RESTRICTED))
    ec.ic = ics[0]
    given = []
    for section in cfg.sections():
        into, keys = ec, _KEYS.get(section)
        label = section.removeprefix("variant.")
        if label != section:
            into, keys = VariantConfig(label), _KEYS[_VARIANT]
            ec.variants.append(into)
            if label in ("", ".", "..") or {"/", "\\"} & set(label):
                errors.append(f"[{section}]: a variant label must be a "
                              "directory name: not empty, . or .., no / or \\")
        elif keys is None:
            errors.append(f"[{section}]: unknown section; sections are "
                          + ", ".join(f"[{name}]" for name in _KEYS))
            continue
        for key, raw in cfg.items(section):
            f = keys.get(key)
            if f is None:
                errors.append(f"[{section}] {key}: unknown key; [{section}] "
                              f"takes {', '.join(keys)}")
                continue
            if f.name in _RESTRICTED and f.name not in reads:
                errors.append(f"[{section}] {key}: read on " + ", ".join(
                    k for k, (_, _, r) in RUN_KINDS.items() if f.name in r)
                    + f" only, not on {kind}")
                continue
            try:
                value = _READERS[f.type](raw)
                f.metadata["rule"](value)
            except ValueError as err:
                errors.append(f"[{section}] {key} = {raw!r}: {err}")
                continue
            setattr(into, f.name, value)
            given.append((f"[{section}] {key}", f.name, into))
    for where, name, into in given:
        if name in READ_WHEN and not READ_WHEN[name][0](ec, into):
            errors.append(f"{where}: read only {READ_WHEN[name][1]}")
    schemes = [v.scheme for v in ec.variants]
    if ec.reference_resolution:
        schemes.append(ec.reference_scheme)
    if cfg.has_section("surrogate") and "surrogate" not in schemes:
        errors.append("[surrogate]: no variant scheme or reference_scheme "
                      "is surrogate, so nothing reads it")
    # a rejected equation left the default, which the rules would misname
    if equation == ec.equation:
        errors += _cross_errors(ec, kind)
    if errors:
        raise ConfigurationError(f"invalid config {path}:\n  "
                                 + "\n  ".join(dict.fromkeys(errors)))
    return ec
