"""Scenario configs, CSV snapshot/time-series writers, and run manifests.

Configs are plain text with ``[section]`` headers and ``key = value`` lines
(sections ``grid``, ``physics``, ``bathymetry``, ``initial``, ``stepping``,
``output``).  Parsing is strict: unknown sections or keys, duplicate keys,
and malformed values are hard errors carrying the offending line number;
violations of model constraints (negative depths, missing viscosity for a
friction closure) are reported with the ``section.key`` field path.

All floats are serialized with 17 significant digits, so a write/load cycle
is the identity and repeated runs of the same scenario produce bit-identical
files.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from . import __version__, closures
from .core import (BathymetryField, Boundary, FlatBed, FlowState,
                   GaussianBump, GaussianPulseMotion, GradientPressure, Grid,
                   PhysicalParams, RegimeClass, ScalingRegime, SinusoidMotion,
                   StaticBed, ZeroPressure, classify_regime)
from .csvtext import csv_body
from .models import (DRY_THRESHOLD, ModelTier, _centered_difference,
                     _interior, _pad, _RunContext, assemble_dispersive)
from .solver import StepControls

__all__ = [
    "ConfigError", "LakeAtRest", "DamBreak", "MonochromaticWave",
    "GaussianHump", "Manufactured", "OutputSpec", "ScenarioConfig",
    "load_config", "write_config", "validate_config", "build_initial_state",
    "regime_scales", "write_snapshot", "write_timeseries",
    "write_manifest",
]

SNAPSHOT_FIELDS = ("w_bottom", "w_surface", "p_bottom")


def _fmt(value) -> str:
    return format(float(value), ".17g")


class ConfigError(ValueError):
    """A scenario config that cannot be parsed or fails validation."""


# ---------------------------------------------------------------------------
# initial-condition and output specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LakeAtRest:
    """Flat free surface at ``eta0`` with zero discharge."""

    eta0: float


@dataclass(frozen=True)
class DamBreak:
    """Two still-water levels meeting at ``x0``."""

    eta_left: float
    eta_right: float
    x0: float


@dataclass(frozen=True)
class MonochromaticWave:
    """Single sine mode ``eta = amplitude sin(k (x - x_min))`` riding on the
    still level 0, paired with the long-wave velocity ``sqrt(g/h0) eta`` so
    the profile propagates rightward."""

    amplitude: float
    k: float


@dataclass(frozen=True)
class GaussianHump:
    """Free-surface bump ``eta = amplitude exp(-(x-center)^2/(2 width^2))``
    released from rest."""

    amplitude: float
    center: float
    width: float


@dataclass(frozen=True)
class Manufactured:
    """Initial fields of a registered manufactured-solution case."""

    case: str


InitialSpec = Union[LakeAtRest, DamBreak, MonochromaticWave, GaussianHump,
                    Manufactured]


@dataclass(frozen=True)
class OutputSpec:
    """Snapshot cadence and optional derived columns.

    ``snapshot_interval=None`` keeps only the initial and final states;
    ``0.0`` stores every step; a positive value stores interval crossings.
    """

    snapshot_interval: float | None = None
    fields: tuple = ()


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one run."""

    grid: Grid
    tier: ModelTier
    params: PhysicalParams
    bathymetry: BathymetryField
    initial: InitialSpec
    controls: StepControls
    output: OutputSpec


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
#
# Config keys are the field names of the dataclass they build; the key
# ``kind``/``profile``/``motion`` picks the class from a kind table, and a
# field's annotation picks how its value is parsed and written.  Bed-motion
# keys carry the prefix ``motion_``.

_SECTIONS = ("grid", "physics", "bathymetry", "initial", "stepping", "output")
_REQUIRED_SECTIONS = ("grid", "bathymetry", "initial", "stepping")
_REQUIRED = dataclasses.MISSING


def _split_lines(text):
    """First pass: structure only.  Returns {section: {key: (raw, line)}}."""
    sections = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                known = ", ".join(_SECTIONS)
                raise ConfigError(
                    f"line {lineno}: unknown section [{name}] (known: {known})")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(
                f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in sections[current]:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, lineno)
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")
    return sections


class _Section:
    """Keys of one section; on leaving the ``with`` block every key must
    have been taken."""

    def __init__(self, name, sections):
        self.name = name
        self.entries = dict(sections.get(name, {}))

    def take(self, key, parse, default=_REQUIRED):
        if key not in self.entries:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {self.name}.{key}")
            return default
        raw, lineno = self.entries.pop(key)
        try:
            return parse(raw)
        except ValueError as err:
            raise ConfigError(
                f"line {lineno}: {self.name}.{key} {err}") from None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            for key, (_, lineno) in self.entries.items():
                raise ConfigError(
                    f"line {lineno}: unknown key {key!r} in [{self.name}]")


def _parser(convert, expects):
    """Wrap ``convert`` so that a bad value raises
    ``ValueError("<expects> <raw>")``."""
    def parse(raw):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ValueError(f"{expects} {raw!r}") from None
    return parse


def _choice(table):
    names = ", ".join(table)
    return _parser(table.__getitem__, f"must be one of {names}; got")


def _snapshot_fields(raw):
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    _check_snapshot_fields(names, "unknown field")
    return names


def _not_nan(raw):
    value = float(raw)
    if math.isnan(value):
        raise ValueError
    return value


_NUMBER_OR_INF = _parser(_not_nan, "expects a number, got")


def _number(raw):
    """A finite float: ``nan`` is not a number, ``±inf`` is not finite."""
    value = _NUMBER_OR_INF(raw)
    if math.isinf(value):
        raise ValueError(f"expects a finite number, got {raw!r}")
    return value


#: Field annotation -> (parse, format) of its config value.
_TYPES = {
    "float": (_number, _fmt),
    "float | None": (_number, _fmt),
    "int": (_parser(int, "expects an integer, got"), str),
    "bool": (_parser({"true": True, "false": False}.__getitem__,
                     "expects true or false, got"), lambda v: str(v).lower()),
    "str": (str, str),
    "Boundary": (_choice({b.value: b for b in Boundary}), lambda b: b.value),
    "tuple": (_snapshot_fields, ", ".join),
}

#: Kind tables: the value of the selecting key -> the class it builds.
_PROFILES = {"flat": FlatBed, "gaussian_bump": GaussianBump}
_MOTIONS = {"static": StaticBed, "sinusoid": SinusoidMotion,
            "gaussian_pulse": GaussianPulseMotion}
_INITIALS = {"lake_at_rest": LakeAtRest, "dam_break": DamBreak,
             "monochromatic_wave": MonochromaticWave,
             "gaussian_hump": GaussianHump, "manufactured": Manufactured}
_TIERS = {t.value: t for t in ModelTier}

#: Fields whose key is not their name (after the prefix).
_RENAMED = {"angular_frequency": "omega"}


def _keyed_fields(cls, prefix):
    """``(field, key)`` for each field of ``cls`` that a config spells out."""
    return [(f, prefix + _RENAMED.get(f.name, f.name))
            for f in dataclasses.fields(cls) if f.type in _TYPES]


def _parse(f):
    """The value parser of field ``f``.  Numbers are finite, except that a
    field whose default is infinite also takes ``inf``."""
    parse = _TYPES[f.type][0]
    if parse is _number and f.default in (math.inf, -math.inf):
        return _NUMBER_OR_INF
    return parse


def _read(sec, cls, prefix="", **given):
    """Build ``cls`` from its fields' keys; a constructor ``ValueError``
    becomes ``[section]: message``."""
    values = {f.name: sec.take(key, _parse(f), f.default)
              for f, key in _keyed_fields(cls, prefix)}
    try:
        return cls(**values, **given)
    except ValueError as err:
        raise ConfigError(f"[{sec.name}]: {err}") from None


def _check_snapshot_fields(fields, prefix):
    known = ", ".join(SNAPSHOT_FIELDS)
    for name in fields:
        if name not in SNAPSHOT_FIELDS:
            raise ValueError(f"{prefix} {name!r} (known: {known})")


def load_config(path) -> ScenarioConfig:
    """Parse and fully validate a scenario config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    sections = _split_lines(text)

    with _Section("grid", sections) as sec:
        grid = _read(sec, Grid)
    with _Section("physics", sections) as sec:
        slope = sec.take("p_atm_slope", _number, None)
        p_atm = ZeroPressure() if slope is None else GradientPressure(slope)
        params = _read(sec, PhysicalParams, p_atm=p_atm)
    with _Section("bathymetry", sections) as sec:
        profile = _read(sec, sec.take("profile", _choice(_PROFILES)))
        motion = _read(sec, sec.take("motion", _choice(_MOTIONS), StaticBed),
                       "motion_")
    with _Section("initial", sections) as sec:
        initial = _read(sec, sec.take("kind", _choice(_INITIALS)))
    with _Section("stepping", sections) as sec:
        tier = sec.take("tier", _choice(_TIERS))
        controls = _read(sec, StepControls)
    with _Section("output", sections) as sec:
        output = _read(sec, OutputSpec)
    if output.snapshot_interval is not None and output.snapshot_interval < 0.0:
        raise ConfigError("output.snapshot_interval must be non-negative")

    cfg = ScenarioConfig(grid=grid, tier=tier, params=params,
                         bathymetry=BathymetryField(profile, motion),
                         initial=initial, controls=controls, output=output)
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# semantic validation and initial states
# ---------------------------------------------------------------------------

def validate_config(cfg: ScenarioConfig) -> None:
    """Model-level checks that span sections (also used after CLI overrides)."""
    wants_friction = cfg.params.k_l > 0.0 or cfg.params.k_t > 0.0
    if cfg.tier is ModelTier.NONHYDRO2 and cfg.params.nu <= 0.0:
        raise ConfigError("stepping.tier: friction closure requires nu > 0 "
                          "(the NonHydro2 closure divides by nu)")
    if (wants_friction and cfg.params.nu <= 0.0
            and cfg.tier is not ModelTier.PEREGRINE_INVISCID):
        raise ConfigError("physics.nu: friction closure requires nu > 0 "
                          "when k_l or k_t is set")

    init = cfg.initial
    if isinstance(init, Manufactured):
        from .manufactured import get_case
        try:
            get_case(init.case)
        except ValueError as err:
            raise ConfigError(f"initial.case: {err}") from None
        return
    x = cfg.grid.cell_centers
    zb = cfg.bathymetry.elevation(x, 0.0)
    depth = _initial_eta(init, cfg.grid) - zb
    if isinstance(init, DamBreak):
        for side, level, mask in (("eta_left", init.eta_left, x < init.x0),
                                  ("eta_right", init.eta_right, x >= init.x0)):
            if np.any(mask) and (least := float(np.min(depth[mask]))) < 0.0:
                raise ConfigError(
                    f"initial.{side}: level {level} leaves negative "
                    f"depth {least:.6g} over the bed")
    elif isinstance(init, (MonochromaticWave, GaussianHump)):
        if (least := float(np.min(depth))) < 0.0:
            raise ConfigError(
                f"initial.amplitude: profile leaves negative depth "
                f"{least:.6g} over the bed")
        if isinstance(init, MonochromaticWave) and np.any(zb >= 0.0):
            raise ConfigError("initial.k: a monochromatic wave needs positive "
                              "still depth (bed below the zero level) everywhere")
    if not np.any(depth >= DRY_THRESHOLD):
        key = {LakeAtRest: "eta0", DamBreak: "eta_left"}.get(type(init),
                                                           "amplitude")
        raise ConfigError(f"initial.{key}: no cell is wet at t = 0 (every "
                          f"depth is below {DRY_THRESHOLD:g})")


def _initial_eta(init, grid):
    """Initial free surface of every kind but ``Manufactured``."""
    x = grid.cell_centers
    if isinstance(init, LakeAtRest):
        return np.full_like(x, init.eta0)
    if isinstance(init, DamBreak):
        return np.where(x < init.x0, init.eta_left, init.eta_right)
    if isinstance(init, MonochromaticWave):
        return init.amplitude * np.sin(init.k * (x - grid.x_min))
    if isinstance(init, GaussianHump):
        arg = (x - init.center) / init.width
        return init.amplitude * np.exp(-0.5 * arg**2)
    raise TypeError(f"no free-surface profile for {type(init).__name__}")


def build_initial_state(cfg: ScenarioConfig) -> FlowState:
    """Realize the configured initial condition at ``t = 0``."""
    x = cfg.grid.cell_centers
    init = cfg.initial
    if isinstance(init, Manufactured):
        from .manufactured import get_case
        return get_case(init.case).initial_state(cfg.grid)
    zb = cfg.bathymetry.elevation(x, 0.0)
    eta = _initial_eta(init, cfg.grid)
    H = np.maximum(eta - zb, 0.0)
    q = np.zeros_like(H)
    if isinstance(init, MonochromaticWave):  # right-moving linear wave
        q = H * (np.sqrt(cfg.params.g / -zb) * eta)
    return FlowState(t=0.0, H=H, q=q)


# ---------------------------------------------------------------------------
# scaling-regime verdict
# ---------------------------------------------------------------------------

def regime_scales(cfg: ScenarioConfig) -> ScalingRegime:
    """Characteristic scales implied by the configured scenario.

    Depth is the mean wet depth of the initial state, amplitude the largest
    surface displacement (floored at ``1e-12 depth`` so a still lake stays
    classifiable), and the wavelength comes from the initial-condition kind
    (mode wavelength, hump width, or domain length).
    """
    state = build_initial_state(cfg)
    x = cfg.grid.cell_centers
    zb = cfg.bathymetry.elevation(x, 0.0)
    wet = state.H >= DRY_THRESHOLD
    depth = float(np.mean(state.H[wet])) if np.any(wet) else 0.0

    amplitude = 0.0
    if np.any(wet):
        eta = zb + state.H
        amplitude = float(np.max(np.abs(eta[wet] - np.mean(eta[wet]))))
    amplitude = max(amplitude, 1e-12 * max(depth, 1.0))

    init = cfg.initial
    if isinstance(init, MonochromaticWave):
        wavelength = 2.0 * np.pi / init.k
    elif isinstance(init, GaussianHump):
        wavelength = 2.0 * np.pi * init.width
    elif isinstance(init, Manufactured):
        from .manufactured import get_case
        wavelength = get_case(init.case).length
    else:
        wavelength = cfg.grid.length

    return ScalingRegime(depth=depth, wavelength=float(wavelength),
                         amplitude=amplitude)


def _verdict(scales: ScalingRegime) -> RegimeClass:
    if scales.depth <= 0.0:
        return RegimeClass.OUT_OF_ASYMPTOTIC_RANGE
    return classify_regime(scales)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _field_lines(obj, prefix=""):
    """``key = value`` per field of ``obj``; None and () are left out."""
    lines = []
    for f, key in _keyed_fields(obj, prefix):
        value = getattr(obj, f.name)
        if value is not None and not (isinstance(value, tuple) and not value):
            lines.append(f"{key} = {_TYPES[f.type][1](value)}")
    return lines


def _kind_lines(key, table, obj, what, prefix=""):
    """The selecting ``key = kind`` line followed by ``obj``'s fields."""
    kinds = {cls: kind for kind, cls in table.items()}
    if type(obj) not in kinds:
        raise ConfigError(f"cannot serialize {what} {type(obj).__name__}")
    return [f"{key} = {kinds[type(obj)]}"] + _field_lines(obj, prefix)


def write_config(cfg: ScenarioConfig, path) -> None:
    """Serialize a config so that :func:`load_config` reproduces it exactly."""
    p_atm = cfg.params.p_atm
    if isinstance(p_atm, GradientPressure):
        pressure = [f"p_atm_slope = {_fmt(p_atm.slope)}"]
    elif isinstance(p_atm, ZeroPressure):
        pressure = []
    else:
        raise ConfigError(f"cannot serialize pressure field "
                          f"{type(p_atm).__name__}")
    bed = cfg.bathymetry
    bathymetry = _kind_lines("profile", _PROFILES, bed.profile, "bed profile")
    if not isinstance(bed.motion, StaticBed):
        bathymetry += _kind_lines("motion", _MOTIONS, bed.motion, "bed motion",
                                  "motion_")
    sections = {
        "grid": _field_lines(cfg.grid),
        "physics": _field_lines(cfg.params) + pressure,
        "bathymetry": bathymetry,
        "initial": _kind_lines("kind", _INITIALS, cfg.initial,
                               "initial condition"),
        "stepping": [f"tier = {cfg.tier.value}"] + _field_lines(cfg.controls),
        "output": _field_lines(cfg.output),
    }
    blocks = [f"[{name}]\n" + "\n".join(lines)
              for name, lines in sections.items() if lines]
    Path(path).write_text("\n\n".join(blocks) + "\n")


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _build_tag() -> str:
    """Identifier of the code that produced a file (git describe or version)."""
    here = Path(__file__).resolve().parent
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=here, capture_output=True, text=True,
                              timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "v" + __version__


def _derived_columns(state, context, tier, fields):
    """Compute the requested derived snapshot columns (dict name -> array)
    from the state's field bundle in the ``models._RunContext`` ``context``."""
    bathy, params, grid = context.bathy, context.params, context.grid
    f = context.fields(state)
    x, t, dx, bc = f.x, f.t, f.dx, grid.boundary
    H, u, zb, eta = f.H, f.u, f.zb, f.eta
    zbx = bathy.profile.slope(x)
    zbt = f.bed_rate
    dudx = _interior(f.ux_ring)

    out = {}
    if "w_bottom" in fields:
        out["w_bottom"] = closures.vertical_velocity(u, dudx, zb, zbx, zbt, zb)
    if "w_surface" in fields:
        out["w_surface"] = closures.vertical_velocity(u, dudx, zb, zbx, zbt, eta)
    if "p_bottom" in fields:
        p_a = params.p_atm.value(x, t)
        if tier is ModelTier.HYDROSTATIC:
            out["p_bottom"] = p_a + params.g * H
        else:
            system = assemble_dispersive(state, bathy, params, grid, tier,
                                         context=context)
            F = system.F
            if system.friction.any():
                F = F - system.friction * u
            a = system.A.solve(F)
            dadx = _centered_difference(_pad(a, bc, -1.0)[1:-1], dx)
            detadx = _interior(f.etax_ring)
            detadt = zbt - _interior(f.divq_ring)
            d2u = _centered_difference(_pad(dudx, bc)[1:-1], dx)
            dzbu = _interior(f.m_ring)
            d2zbu = _centered_difference(_pad(dzbu, bc)[1:-1], dx)
            out["p_bottom"] = closures.pressure_nonhydrostatic(
                zb, tier=tier, params=params, eta=eta, z_b=zb, u_bar=u,
                du_dx=dudx, a=a, da_dx=dadx, dzb_dx=zbx, dzb_dt=zbt,
                d2zb_dt2=f.bed_accel, deta_dt=detadt, deta_dx=detadx,
                d2u_dx2=d2u, d2zbu_dx2=d2zbu, p_a=p_a)
    return out


def write_snapshot(state, bathy, params, grid, tier, path, fields=()) -> None:
    """Write one state as CSV: x, H, u_bar, eta, z_b, then any requested
    derived columns (bottom/surface vertical velocity, bottom pressure)."""
    _check_snapshot_fields(fields, "unknown snapshot field")
    ordered = tuple(name for name in SNAPSHOT_FIELDS if name in fields)

    context = _RunContext(bathy, params, grid)
    f = context.fields(state)
    columns = {"x": f.x, "H": f.H, "u_bar": f.u, "eta": f.eta, "z_b": f.zb}
    columns.update(_derived_columns(state, context, tier, ordered))

    names = ("x", "H", "u_bar", "eta", "z_b") + ordered
    head = (f"# t={_fmt(state.t)} tier={tier.value} build={_build_tag()}\n"
            + ",".join(names) + "\n")
    Path(path).write_bytes(
        head.encode() + csv_body([columns[name] for name in names]))


def write_timeseries(reports, path) -> None:
    """Write per-step energy reports as CSV (one row per report)."""
    names = ("t", "mass", "momentum", "E_h", "E_ext", "dissipation_rate",
             "budget_residual")
    body = csv_body([[getattr(rep, name) for rep in reports]
                      for name in names])
    Path(path).write_bytes((",".join(names) + "\n").encode() + body)


def write_manifest(cfg: ScenarioConfig, path, extra=None) -> None:
    """Record the scenario scales, regime verdict, and optional run stats."""
    scales = regime_scales(cfg)
    verdict = _verdict(scales)
    lines = ["# run manifest",
             f"build = {_build_tag()}",
             f"tier = {cfg.tier.value}",
             f"boundary = {cfg.grid.boundary.value}",
             f"n_cells = {cfg.grid.n_cells}",
             f"domain = [{_fmt(cfg.grid.x_min)}, {_fmt(cfg.grid.x_max)}]",
             f"t_end = {_fmt(cfg.controls.t_end)}",
             f"depth_scale = {_fmt(scales.depth)}",
             f"wavelength_scale = {_fmt(scales.wavelength)}",
             f"amplitude_scale = {_fmt(scales.amplitude)}",
             f"regime = {verdict.value}"]
    if scales.depth > 0.0:
        lines += [f"epsilon = {_fmt(scales.epsilon)}",
                  f"delta = {_fmt(scales.delta)}",
                  f"ursell = {_fmt(scales.ursell)}"]
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")
