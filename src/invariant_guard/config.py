"""Experiment configuration: flat key-value text with [section] headers.

Parsed with configparser, values literal.  Each field a config sets
declares its section, range and the equations that read it (``_key``), as
listed in the README.  A [variant.<label>] inherits the [problem] and
[plan] defaults and may override some of them.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import PurePath

from .errors import ConfigurationError

#: the initial conditions each equation accepts; the first is the default
_ICS = {
    "advection": ("sine", "sum_of_sines"),
    "burgers": ("sine", "sum_of_sines"),
    "burgers_forced": ("sine", "sum_of_sines", "zero"),
    "burgers_nonconservative": ("sine", "sum_of_sines"),
    "dg_burgers": ("sine",),
    "euler2d": ("random_vorticity",),
    "euler1d": ("sod", "random_euler"),
}
_SCHEMES = ("centered", "upwind", "godunov", "lax_friedrichs", "muscl",
            "surrogate")
_INTEGRATORS = ("ssprk3", "forward_euler", "discrete")
#: the correctors each equation accepts under the Runge-Kutta integrators
_CORRECTORS = {
    "advection": ("none", "flux_l2"),
    "burgers": ("none", "flux_l2"),
    "burgers_forced": ("none", "flux_l2"),
    "burgers_nonconservative": ("none", "rhs_l2"),
    "dg_burgers": ("none", "dg_l2"),
    "euler2d": ("none", "flux_l2", "energy"),
    "euler1d": ("none", "euler1d_entropy"),
}
#: the discrete integrator runs the FTCS advection demo only
_DISCRETE_CORRECTORS = {"advection": ("none", "increment_l2")}
#: equations whose driver chains ``step_correction`` over each RK step
_STEP_CORRECTED = ("advection", "burgers", "burgers_forced", "euler2d")
#: equations with a reference run (rate curve and coarse-grained snapshots)
_REFERENCED = ("advection", "burgers", "burgers_forced",
               "burgers_nonconservative", "euler2d")
#: equations whose RK driver reads ``scheme`` (``schemes.flux_rule_1d``)
_FLUX_SCHEMED = ("advection", "burgers", "burgers_forced")
_SCALAR_1D = _FLUX_SCHEMED + ("burgers_nonconservative",)


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


def _key(section, default, rule=None, *equations):
    """A field that ``[section]`` sets under its name less any ``<section>_``
    prefix, read as its annotated type.  ``rule`` raises ValueError on a
    value out of range; ``equations``, if any, are all that read the key."""
    return field(default=default, metadata=dict(
        section=section, rule=rule or (lambda value: None),
        equations=equations))


@dataclass
class VariantConfig:
    label: str
    scheme: str = _key(_VARIANT, "muscl", _one_of(*_SCHEMES))
    corrector: str = _key(_VARIANT, "none")
    target: str = _key(_VARIANT, "clamp", rate_spec)
    step_correction: str = _key(_VARIANT, "none", rate_spec)
    entropy_ratio: float = _key(_VARIANT, 1.0, _AT_LEAST_0, "euler1d")
    positivity: bool = _key(_VARIANT, True, None, "euler1d")
    # per-variant overrides of the [plan] and [problem] values
    t_end: float = _key(_VARIANT, None, _AT_LEAST_0)
    cfl: float = _key(_VARIANT, None, _CFL)
    forcing: str = _key(_VARIANT, None, _FORCING, "euler2d")
    nu: float = _key(_VARIANT, None, _AT_LEAST_0)
    expect_blowup: bool = _key(_VARIANT, False)


@dataclass
class ExperimentConfig:
    equation: str = _key("problem", "advection", _one_of(*_CORRECTORS))
    length: float = _key("problem", 1.0, _rule(lambda x: x > 0.0, "> 0"))
    c: float = _key("problem", 1.0, None, "advection")
    nu: float = _key("problem", 0.0, _AT_LEAST_0)
    gamma: float = _key("problem", 1.4, _rule(lambda x: x > 1.0, "> 1"),
                        "euler1d")
    boundary: str = _key("problem", "periodic",
                         _one_of("periodic", "dirichlet"))
    ic: str = _key("problem", "sine")    # default: the first of _ICS
    ic_seed: int = _key("problem", 0)
    ic_offset: float = _key("problem", 0.0, None, *_SCALAR_1D, "dg_burgers")
    dg_degree: int = _key("problem", 1, _one_of(0, 1, 2), "dg_burgers")
    forcing: str = _key("problem", "none", _FORCING, "euler2d")
    forcing_seed: int = _key("problem", 0)
    kolmogorov_k: int = _key("problem", 4, _AT_LEAST_1, "euler2d")
    drag: float = _key("problem", 0.1, _AT_LEAST_0, "euler2d")
    integrator: str = _key("plan", "ssprk3", _one_of(*_INTEGRATORS))
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


def _cross_errors(ec):
    """The rules across keys.  A value its own rule rejects left its field
    at the default, so each field holds a value its own rule accepts."""
    errors = []
    correctors = (_DISCRETE_CORRECTORS if ec.integrator == "discrete"
                  else _CORRECTORS).get(ec.equation)
    if correctors is None:
        errors.append("[plan] integrator = discrete runs the FTCS advection "
                      "demo only")
    if ec.ic not in _ICS[ec.equation]:
        errors.append(f"[problem] ic = {ec.ic!r}: {ec.equation} accepts "
                      f"{_ICS[ec.equation]}")
    if ec.boundary == "dirichlet" and ec.equation != "euler1d":
        errors.append(f"[problem] boundary = dirichlet: {ec.equation} is "
                      "periodic-only; only euler1d has a bounded solver")
    steps = ec.equation in _STEP_CORRECTED and ec.integrator != "discrete"
    for v in ec.variants:
        where = f"[variant.{v.label}]"
        if correctors is not None and v.corrector not in correctors:
            errors.append(f"{where} corrector = {v.corrector!r}: {ec.equation} "
                          f"with {ec.integrator} accepts {correctors}")
        for key in ("target", "step_correction"):
            if getattr(v, key) == "tracked" and not ec.reference_resolution:
                errors.append(f"{where} {key} = tracked needs a reference run; "
                              "set [run] reference_resolution")
        if v.target == "none" \
                and v.corrector not in ("none", "euler1d_entropy"):
            errors.append(f"{where} target = none: corrector {v.corrector!r} "
                          "needs a target")
        if v.step_correction != "none" and not steps:
            errors.append(f"{where} step_correction applies only to "
                          f"{_STEP_CORRECTED} under a Runge-Kutta integrator")
    if ec.reference_resolution:
        if ec.equation not in _REFERENCED:
            errors.append(f"[run] reference_resolution: {ec.equation} has no "
                          "reference run")
        for n in ec.resolutions:
            if ec.reference_resolution % n != 0:
                errors.append(f"[run] reference_resolution "
                              f"{ec.reference_resolution} not divisible by {n}")
    if ec.equation not in _FLUX_SCHEMED or ec.integrator == "discrete":
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
        if scheme == "upwind" and ec.equation != "advection":
            errors.append(f"{where} = upwind is sign-ambiguous for "
                          f"{ec.equation}; use godunov")
        if scheme == "muscl" and n < 4:
            errors.append(f"[run] {key} = {n}: {where} = muscl needs at "
                          "least 4 cells")
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
    ec.ic = _ICS.get(equation, (ec.ic,))[0]
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
            only = f.metadata["equations"]
            if only and equation not in only:
                errors.append(f"[{section}] {key}: read on "
                              f"{', '.join(only)} only, not on {equation}")
                continue
            try:
                value = _READERS[f.type](raw)
                f.metadata["rule"](value)
            except ValueError as err:
                errors.append(f"[{section}] {key} = {raw!r}: {err}")
                continue
            setattr(into, f.name, value)
    # a rejected equation left the default, which the rules would misname
    if equation == ec.equation:
        errors += _cross_errors(ec)
    if errors:
        raise ConfigurationError(f"invalid config {path}:\n  "
                                 + "\n  ".join(dict.fromkeys(errors)))
    return ec
