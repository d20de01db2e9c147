"""Experiment configuration: flat key-value text with [section] headers.

Parsed with configparser; the schema is documented in the README.  Variant
sections ([variant.<label>]) inherit the [problem]/[plan] defaults and may
override scheme, corrector, targets, horizons, and forcing per variant.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

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
#: equations whose RK driver reads ``scheme`` (``schemes.numerical_flux_1d``)
_FLUX_SCHEMED = ("advection", "burgers", "burgers_forced")


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
        raise ValueError("a fixed rate or step change must be <= 0")
    return kind, value


@dataclass
class VariantConfig:
    label: str
    scheme: str = "muscl"
    corrector: str = "none"
    target: str = "clamp"            # see rate_spec
    step_correction: str = "none"    # see rate_spec
    entropy_ratio: float = 1.0
    positivity: bool = True
    t_end: float = None              # per-variant horizon override
    cfl: float = None
    forcing: str = None              # per-variant forcing override
    nu: float = None
    expect_blowup: bool = False


@dataclass
class ExperimentConfig:
    # problem
    equation: str = "advection"
    length: float = 1.0
    c: float = 1.0
    nu: float = 0.0
    gamma: float = 1.4
    boundary: str = "periodic"
    ic: str = "sine"
    ic_seed: int = 0
    ic_offset: float = 0.0
    dg_degree: int = 1
    forcing: str = "none"
    forcing_seed: int = 0
    kolmogorov_k: int = 4
    drag: float = 0.1
    # plan
    integrator: str = "ssprk3"
    cfl: float = 0.3
    t_end: float = 1.0
    snapshots: int = 11
    max_steps: int = 500000
    # run layout
    resolutions: tuple = (64,)
    reference_resolution: int = 0    # 0: no reference run
    reference_scheme: str = "muscl"
    output: str = "out"
    # surrogate
    surrogate_base: str = "upwind"
    surrogate_amplitude: float = 0.0
    surrogate_seed: int = 0
    # verify
    verify_seed: int = 0
    verify_trials: int = 200
    variants: list = field(default_factory=list)


def _get(cfg, section, key, conv, default, errors):
    if not cfg.has_option(section, key):
        return default
    raw = cfg.get(section, key)
    try:
        if conv is bool:  # ValueError outside configparser's BOOLEAN_STATES
            return cfg.getboolean(section, key)
        return conv(raw)
    except ValueError:
        errors.append(f"[{section}] {key} = {raw!r}: expected {conv.__name__}")
        return default


def _scheme_errors(ec):
    """The rules of ``schemes.numerical_flux_1d`` for every run of a flux
    scheme: each variant at the smallest resolution and the reference."""
    runs = [(f"[variant.{v.label}] scheme", v.scheme, "resolutions",
             min(ec.resolutions)) for v in ec.variants]
    if ec.reference_resolution:
        runs.append(("[run] reference_scheme", ec.reference_scheme,
                     "reference_resolution", ec.reference_resolution))
    errors = []
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
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigurationError(f"config parse error in {path}: {err}") from err

    errors = []
    ec = ExperimentConfig()
    g = lambda s, k, conv, d: _get(cfg, s, k, conv, d, errors)

    ec.equation = g("problem", "equation", str, ec.equation)
    ec.length = g("problem", "length", float, ec.length)
    ec.c = g("problem", "c", float, ec.c)
    ec.nu = g("problem", "nu", float, ec.nu)
    ec.gamma = g("problem", "gamma", float, ec.gamma)
    ec.boundary = g("problem", "boundary", str, ec.boundary)
    ec.ic = g("problem", "ic", str, _ICS.get(ec.equation, (ec.ic,))[0])
    ec.ic_seed = g("problem", "ic_seed", int, ec.ic_seed)
    ec.ic_offset = g("problem", "ic_offset", float, ec.ic_offset)
    ec.dg_degree = g("problem", "dg_degree", int, ec.dg_degree)
    ec.forcing = g("problem", "forcing", str, ec.forcing)
    ec.forcing_seed = g("problem", "forcing_seed", int, ec.forcing_seed)
    ec.kolmogorov_k = g("problem", "kolmogorov_k", int, ec.kolmogorov_k)
    ec.drag = g("problem", "drag", float, ec.drag)

    ec.integrator = g("plan", "integrator", str, ec.integrator)
    ec.cfl = g("plan", "cfl", float, ec.cfl)
    ec.t_end = g("plan", "t_end", float, ec.t_end)
    ec.snapshots = g("plan", "snapshots", int, ec.snapshots)
    ec.max_steps = g("plan", "max_steps", int, ec.max_steps)

    if cfg.has_option("run", "resolutions"):
        try:
            ec.resolutions = tuple(
                int(tok) for tok in cfg.get("run", "resolutions").split(","))
        except ValueError:
            errors.append("[run] resolutions: expected comma-separated integers")
    ec.reference_resolution = g("run", "reference_resolution", int,
                                ec.reference_resolution)
    ec.reference_scheme = g("run", "reference_scheme", str, ec.reference_scheme)
    ec.output = g("run", "output", str, ec.output)

    ec.surrogate_base = g("surrogate", "base", str, ec.surrogate_base)
    ec.surrogate_amplitude = g("surrogate", "amplitude", float,
                               ec.surrogate_amplitude)
    ec.surrogate_seed = g("surrogate", "seed", int, ec.surrogate_seed)

    ec.verify_seed = g("verify", "seed", int, ec.verify_seed)
    ec.verify_trials = g("verify", "trials", int, ec.verify_trials)

    for section in cfg.sections():
        if not section.startswith("variant."):
            continue
        v = VariantConfig(label=section.split(".", 1)[1])
        v.scheme = g(section, "scheme", str, v.scheme)
        v.corrector = g(section, "corrector", str, v.corrector)
        v.target = g(section, "target", str, v.target)
        v.step_correction = g(section, "step_correction", str, v.step_correction)
        v.entropy_ratio = g(section, "entropy_ratio", float, v.entropy_ratio)
        v.positivity = g(section, "positivity", bool, v.positivity)
        v.t_end = g(section, "t_end", float, v.t_end)
        v.cfl = g(section, "cfl", float, v.cfl)
        v.forcing = g(section, "forcing", str, v.forcing)
        v.nu = g(section, "nu", float, v.nu)
        v.expect_blowup = g(section, "expect_blowup", bool, v.expect_blowup)
        ec.variants.append(v)

    # validation: every run rule is checked here, before any output exists
    correctors = (_DISCRETE_CORRECTORS if ec.integrator == "discrete"
                  else _CORRECTORS).get(ec.equation)
    if ec.equation not in _CORRECTORS:
        errors.append(f"[problem] equation must be one of {tuple(_CORRECTORS)}")
    if ec.integrator not in _INTEGRATORS:
        errors.append(f"[plan] integrator must be one of {_INTEGRATORS}")
    elif correctors is None and ec.equation in _CORRECTORS:
        errors.append("[plan] integrator = discrete runs the FTCS advection "
                      "demo only")
    if ec.equation in _ICS and ec.ic not in _ICS[ec.equation]:
        errors.append(f"[problem] ic = {ec.ic!r}: {ec.equation} accepts "
                      f"{_ICS[ec.equation]}")
    if ec.boundary not in ("periodic", "dirichlet"):
        errors.append("[problem] boundary must be periodic or dirichlet")
    elif ec.boundary == "dirichlet" and ec.equation != "euler1d":
        errors.append(f"[problem] boundary = dirichlet: {ec.equation} is "
                      "periodic-only; only euler1d has a bounded solver")
    if not ec.length > 0.0:
        errors.append("[problem] length must be > 0")
    if ec.equation == "euler1d" and not ec.gamma > 1.0:
        errors.append("[problem] gamma must exceed 1")
    if ec.dg_degree not in (0, 1, 2):
        errors.append("[problem] dg_degree must be 0, 1 or 2")
    if min(ec.resolutions) < 2:
        errors.append("[run] resolutions must be at least 2 cells")
    if not 0.0 < ec.cfl <= 1.0:
        errors.append("[plan] cfl must lie in (0, 1]")
    if ec.snapshots < 1:
        errors.append("[plan] snapshots must be at least 1")
    if ec.max_steps < 1:
        errors.append("[plan] max_steps must be at least 1")
    if ec.reference_resolution < 0:
        errors.append("[run] reference_resolution must be >= 0 (0: none)")
    if ec.reference_scheme not in _SCHEMES:
        errors.append(f"[run] reference_scheme must be one of {_SCHEMES}")
    if ec.surrogate_base not in _SCHEMES[:-1]:
        errors.append(f"[surrogate] base must be one of {_SCHEMES[:-1]}")
    steps = ec.equation in _STEP_CORRECTED and ec.integrator != "discrete"
    for v in ec.variants:
        where = f"[variant.{v.label}]"
        if v.scheme not in _SCHEMES:
            errors.append(f"{where} scheme must be one of {_SCHEMES}")
        if v.cfl is not None and not 0.0 < v.cfl <= 1.0:
            errors.append(f"{where} cfl must lie in (0, 1]")
        if correctors is not None and v.corrector not in correctors:
            errors.append(f"{where} corrector = {v.corrector!r}: {ec.equation} "
                          f"with {ec.integrator} accepts {correctors}")
        kinds = {}
        for key in ("target", "step_correction"):
            try:
                kinds[key] = rate_spec(getattr(v, key))[0]
            except ValueError as err:
                errors.append(f"{where} {key} = {getattr(v, key)!r}: {err}")
                continue
            if kinds[key] == "tracked" and not ec.reference_resolution:
                errors.append(f"{where} {key} = tracked needs a reference run; "
                              "set [run] reference_resolution")
        if kinds.get("target") == "none" \
                and v.corrector not in ("none", "euler1d_entropy"):
            errors.append(f"{where} target = none: corrector {v.corrector!r} "
                          "needs a target")
        if kinds.get("step_correction", "none") != "none" and not steps:
            errors.append(f"{where} step_correction applies only to "
                          f"{_STEP_CORRECTED} under a Runge-Kutta integrator")
    if ec.reference_resolution:
        if ec.equation not in _REFERENCED:
            errors.append(f"[run] reference_resolution: {ec.equation} has no "
                          "reference run")
        for n in ec.resolutions:
            if n and ec.reference_resolution % n != 0:
                errors.append(f"[run] reference_resolution "
                              f"{ec.reference_resolution} not divisible by {n}")
    if ec.equation in _FLUX_SCHEMED and ec.integrator != "discrete":
        errors += _scheme_errors(ec)
    if errors:
        raise ConfigurationError(f"invalid config {path}:\n  "
                                 + "\n  ".join(dict.fromkeys(errors)))
    return ec
