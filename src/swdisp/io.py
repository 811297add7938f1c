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

from .core import (AnalyticPressure, BathymetryField, Boundary, FlatBed,
                   FlowState, GaussianBump, GaussianPulseMotion,
                   GradientPressure, Grid, PhysicalParams, RegimeClass,
                   SampledBed, ScalingRegime, SinusoidMotion, StaticBed,
                   ZeroPressure, classify_regime)
from .models import DRY_THRESHOLD, ModelTier, _centered_difference, _pad
from .solver import StepControls

__all__ = [
    "ConfigError", "LakeAtRest", "DamBreak", "MonochromaticWave",
    "GaussianHump", "Manufactured", "OutputSpec", "ScenarioConfig",
    "load_config", "write_config", "validate_config", "build_initial_state",
    "regime_scales", "regime_verdict", "write_snapshot", "write_timeseries",
    "write_manifest",
]

SNAPSHOT_FIELDS = ("w_bottom", "w_surface", "p_bottom")


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

_SECTIONS = ("grid", "physics", "bathymetry", "initial", "stepping", "output")
_REQUIRED_SECTIONS = ("grid", "bathymetry", "initial", "stepping")
_REQUIRED = object()


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
    """Typed accessors over one section; every key must be consumed."""

    def __init__(self, name, entries):
        self.name = name
        self.entries = dict(entries)

    def _pop(self, key, default):
        if key not in self.entries:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {self.name}.{key}")
            return None
        return self.entries.pop(key)

    def take_float(self, key, default=_REQUIRED):
        item = self._pop(key, default)
        if item is None:
            return default
        raw, lineno = item
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: {self.name}.{key} expects a "
                              f"number, got {raw!r}") from None

    def take_int(self, key, default=_REQUIRED):
        item = self._pop(key, default)
        if item is None:
            return default
        raw, lineno = item
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: {self.name}.{key} expects an "
                              f"integer, got {raw!r}") from None

    def take_str(self, key, default=_REQUIRED):
        item = self._pop(key, default)
        if item is None:
            return default
        return item[0]

    def take_choice(self, key, choices, default=_REQUIRED):
        item = self._pop(key, default)
        if item is None:
            return choices[default]
        raw, lineno = item
        if raw not in choices:
            names = ", ".join(choices)
            raise ConfigError(f"line {lineno}: {self.name}.{key} must be one "
                              f"of {names}; got {raw!r}")
        return choices[raw]

    def take_bool(self, key, default=_REQUIRED):
        item = self._pop(key, default)
        if item is None:
            return default
        raw, lineno = item
        if raw not in ("true", "false"):
            raise ConfigError(f"line {lineno}: {self.name}.{key} expects "
                              f"true or false, got {raw!r}")
        return raw == "true"

    def finish(self):
        for key, (_, lineno) in self.entries.items():
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in [{self.name}]")


def _guard(section, build):
    """Run a dataclass constructor, converting its ValueError to ConfigError."""
    try:
        return build()
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"[{section}]: {err}") from None


_BOUNDARIES = {b.value: b for b in Boundary}
_TIERS = {t.value: t for t in ModelTier}


def _parse_grid(sec):
    x_min = sec.take_float("x_min")
    x_max = sec.take_float("x_max")
    n_cells = sec.take_int("n_cells")
    boundary = sec.take_choice("boundary", _BOUNDARIES, default="Periodic")
    sec.finish()
    return _guard("grid", lambda: Grid(x_min, x_max, n_cells, boundary))


def _parse_physics(sec):
    g = sec.take_float("g", default=9.81)
    nu = sec.take_float("nu", default=1e-6)
    k_l = sec.take_float("k_l", default=0.0)
    k_t = sec.take_float("k_t", default=0.0)
    slope = sec.take_float("p_atm_slope", default=None)
    sec.finish()
    p_atm = ZeroPressure() if slope is None else GradientPressure(slope)
    return _guard("physics",
                  lambda: PhysicalParams(g=g, nu=nu, k_l=k_l, k_t=k_t,
                                         p_atm=p_atm))


def _parse_bathymetry(sec):
    kind = sec.take_choice("profile", {"flat": "flat",
                                       "gaussian_bump": "gaussian_bump"})
    level = sec.take_float("level")
    if kind == "flat":
        profile = FlatBed(level=level)
    else:
        center = sec.take_float("center")
        width = sec.take_float("width")
        amplitude = sec.take_float("amplitude")
        profile = _guard("bathymetry",
                         lambda: GaussianBump(center=center, width=width,
                                              amplitude=amplitude, level=level))
    motion_kind = sec.take_choice(
        "motion", {"static": "static", "sinusoid": "sinusoid",
                   "gaussian_pulse": "gaussian_pulse"}, default="static")
    if motion_kind == "static":
        motion = StaticBed()
    elif motion_kind == "sinusoid":
        amplitude = sec.take_float("motion_amplitude")
        omega = sec.take_float("motion_omega")
        phase = sec.take_float("motion_phase", default=0.0)
        motion = SinusoidMotion(amplitude=amplitude, angular_frequency=omega,
                                phase=phase)
    else:
        amplitude = sec.take_float("motion_amplitude")
        t0 = sec.take_float("motion_t0")
        sigma = sec.take_float("motion_sigma")
        motion = _guard("bathymetry",
                        lambda: GaussianPulseMotion(amplitude=amplitude,
                                                    t0=t0, sigma=sigma))
    sec.finish()
    return BathymetryField(profile, motion)


def _parse_initial(sec):
    kinds = ("lake_at_rest", "dam_break", "monochromatic_wave",
             "gaussian_hump", "manufactured")
    kind = sec.take_choice("kind", {k: k for k in kinds})
    if kind == "lake_at_rest":
        spec = LakeAtRest(eta0=sec.take_float("eta0"))
    elif kind == "dam_break":
        spec = DamBreak(eta_left=sec.take_float("eta_left"),
                        eta_right=sec.take_float("eta_right"),
                        x0=sec.take_float("x0"))
    elif kind == "monochromatic_wave":
        spec = MonochromaticWave(amplitude=sec.take_float("amplitude"),
                                 k=sec.take_float("k"))
    elif kind == "gaussian_hump":
        spec = GaussianHump(amplitude=sec.take_float("amplitude"),
                            center=sec.take_float("center"),
                            width=sec.take_float("width"))
    else:
        spec = Manufactured(case=sec.take_str("case"))
    sec.finish()
    return spec


def _parse_stepping(sec):
    tier = sec.take_choice("tier", _TIERS)
    t_end = sec.take_float("t_end")
    cfl = sec.take_float("cfl", default=0.5)
    dt_max = sec.take_float("dt_max", default=math.inf)
    fixed_dt = sec.take_float("fixed_dt", default=None)
    first_order = sec.take_bool("first_order", default=False)
    sec.finish()
    controls = _guard("stepping",
                      lambda: StepControls(t_end=t_end, cfl=cfl,
                                           dt_max=dt_max, fixed_dt=fixed_dt,
                                           first_order=first_order))
    return tier, controls


def _parse_output(sec):
    interval = sec.take_float("snapshot_interval", default=None)
    raw = sec.take_str("fields", default=None)
    sec.finish()
    fields = ()
    if raw is not None:
        fields = tuple(name.strip() for name in raw.split(",") if name.strip())
        for name in fields:
            if name not in SNAPSHOT_FIELDS:
                known = ", ".join(SNAPSHOT_FIELDS)
                raise ConfigError(f"output.fields: unknown field {name!r} "
                                  f"(known: {known})")
    if interval is not None and interval < 0.0:
        raise ConfigError("output.snapshot_interval must be non-negative")
    return OutputSpec(snapshot_interval=interval, fields=fields)


def load_config(path) -> ScenarioConfig:
    """Parse and fully validate a scenario config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    sections = _split_lines(text)

    def section(name):
        return _Section(name, sections.get(name, {}))

    grid = _parse_grid(section("grid"))
    params = _parse_physics(section("physics"))
    bathymetry = _parse_bathymetry(section("bathymetry"))
    initial = _parse_initial(section("initial"))
    tier, controls = _parse_stepping(section("stepping"))
    output = _parse_output(section("output"))

    cfg = ScenarioConfig(grid=grid, tier=tier, params=params,
                         bathymetry=bathymetry, initial=initial,
                         controls=controls, output=output)
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

    x = cfg.grid.cell_centers
    zb = cfg.bathymetry.elevation(x, 0.0)
    init = cfg.initial
    if isinstance(init, DamBreak):
        for side, level, mask in (("eta_left", init.eta_left, x < init.x0),
                                  ("eta_right", init.eta_right, x >= init.x0)):
            if np.any(mask):
                depth = level - float(np.max(zb[mask]))
                if depth < 0.0:
                    raise ConfigError(
                        f"initial.{side}: level {level} leaves negative "
                        f"depth {depth:.6g} over the bed")
    elif isinstance(init, (MonochromaticWave, GaussianHump)):
        eta = _initial_eta(init, cfg.grid)
        depth = float(np.min(eta - zb))
        if depth < 0.0:
            raise ConfigError(
                f"initial.amplitude: profile leaves negative depth "
                f"{depth:.6g} over the bed")
        if isinstance(init, MonochromaticWave) and np.any(zb >= 0.0):
            raise ConfigError("initial.k: a monochromatic wave needs positive "
                              "still depth (bed below the zero level) everywhere")
    elif isinstance(init, Manufactured):
        from .manufactured import get_case
        try:
            get_case(init.case)
        except ValueError as err:
            raise ConfigError(f"initial.case: {err}") from None


def _initial_eta(init, grid):
    x = grid.cell_centers
    if isinstance(init, MonochromaticWave):
        return init.amplitude * np.sin(init.k * (x - grid.x_min))
    if isinstance(init, GaussianHump):
        arg = (x - init.center) / init.width
        return init.amplitude * np.exp(-0.5 * arg**2)
    raise TypeError(f"no free-surface profile for {type(init).__name__}")


def build_initial_state(cfg: ScenarioConfig) -> FlowState:
    """Realize the configured initial condition at ``t = 0``."""
    x = cfg.grid.cell_centers
    zb = cfg.bathymetry.elevation(x, 0.0)
    init = cfg.initial
    if isinstance(init, LakeAtRest):
        H = np.maximum(init.eta0 - zb, 0.0)
        q = np.zeros_like(H)
    elif isinstance(init, DamBreak):
        eta = np.where(x < init.x0, init.eta_left, init.eta_right)
        H = np.maximum(eta - zb, 0.0)
        q = np.zeros_like(H)
    elif isinstance(init, MonochromaticWave):
        eta = _initial_eta(init, cfg.grid)
        still = -zb
        H = np.maximum(eta - zb, 0.0)
        u = np.sqrt(cfg.params.g / still) * eta
        q = H * u
    elif isinstance(init, GaussianHump):
        eta = _initial_eta(init, cfg.grid)
        H = np.maximum(eta - zb, 0.0)
        q = np.zeros_like(H)
    else:
        from .manufactured import get_case
        case = get_case(init.case)
        H = case.exact_H(x, 0.0)
        q = H * case.exact_u(x, 0.0)
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
                         amplitude=amplitude,
                         bed_amplitude=float(np.max(zb) - np.min(zb)),
                         gravity=cfg.params.g, viscosity=cfg.params.nu,
                         laminar_friction=cfg.params.k_l)


def regime_verdict(cfg: ScenarioConfig) -> RegimeClass:
    scales = regime_scales(cfg)
    if scales.depth <= 0.0:
        return RegimeClass.OUT_OF_ASYMPTOTIC_RANGE
    return classify_regime(scales)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return format(float(value), ".17g")


def write_config(cfg: ScenarioConfig, path) -> None:
    """Serialize a config so that :func:`load_config` reproduces it exactly."""
    lines = ["[grid]",
             f"x_min = {_fmt(cfg.grid.x_min)}",
             f"x_max = {_fmt(cfg.grid.x_max)}",
             f"n_cells = {cfg.grid.n_cells}",
             f"boundary = {cfg.grid.boundary.value}",
             "",
             "[physics]",
             f"g = {_fmt(cfg.params.g)}",
             f"nu = {_fmt(cfg.params.nu)}",
             f"k_l = {_fmt(cfg.params.k_l)}",
             f"k_t = {_fmt(cfg.params.k_t)}"]
    p_atm = cfg.params.p_atm
    if isinstance(p_atm, GradientPressure):
        lines.append(f"p_atm_slope = {_fmt(p_atm.slope)}")
    elif not isinstance(p_atm, ZeroPressure):
        raise ConfigError(f"cannot serialize pressure field "
                          f"{type(p_atm).__name__}")

    profile = cfg.bathymetry.profile
    lines += ["", "[bathymetry]"]
    if isinstance(profile, FlatBed):
        lines += ["profile = flat", f"level = {_fmt(profile.level)}"]
    elif isinstance(profile, GaussianBump):
        lines += ["profile = gaussian_bump",
                  f"level = {_fmt(profile.level)}",
                  f"center = {_fmt(profile.center)}",
                  f"width = {_fmt(profile.width)}",
                  f"amplitude = {_fmt(profile.amplitude)}"]
    else:
        raise ConfigError(f"cannot serialize bed profile "
                          f"{type(profile).__name__}")
    motion = cfg.bathymetry.motion
    if isinstance(motion, SinusoidMotion):
        lines += ["motion = sinusoid",
                  f"motion_amplitude = {_fmt(motion.amplitude)}",
                  f"motion_omega = {_fmt(motion.angular_frequency)}",
                  f"motion_phase = {_fmt(motion.phase)}"]
    elif isinstance(motion, GaussianPulseMotion):
        lines += ["motion = gaussian_pulse",
                  f"motion_amplitude = {_fmt(motion.amplitude)}",
                  f"motion_t0 = {_fmt(motion.t0)}",
                  f"motion_sigma = {_fmt(motion.sigma)}"]

    init = cfg.initial
    lines += ["", "[initial]"]
    if isinstance(init, LakeAtRest):
        lines += ["kind = lake_at_rest", f"eta0 = {_fmt(init.eta0)}"]
    elif isinstance(init, DamBreak):
        lines += ["kind = dam_break",
                  f"eta_left = {_fmt(init.eta_left)}",
                  f"eta_right = {_fmt(init.eta_right)}",
                  f"x0 = {_fmt(init.x0)}"]
    elif isinstance(init, MonochromaticWave):
        lines += ["kind = monochromatic_wave",
                  f"amplitude = {_fmt(init.amplitude)}",
                  f"k = {_fmt(init.k)}"]
    elif isinstance(init, GaussianHump):
        lines += ["kind = gaussian_hump",
                  f"amplitude = {_fmt(init.amplitude)}",
                  f"center = {_fmt(init.center)}",
                  f"width = {_fmt(init.width)}"]
    else:
        lines += ["kind = manufactured", f"case = {init.case}"]

    lines += ["", "[stepping]",
              f"tier = {cfg.tier.value}",
              f"t_end = {_fmt(cfg.controls.t_end)}",
              f"cfl = {_fmt(cfg.controls.cfl)}",
              f"dt_max = {_fmt(cfg.controls.dt_max)}"]
    if cfg.controls.fixed_dt is not None:
        lines.append(f"fixed_dt = {_fmt(cfg.controls.fixed_dt)}")
    lines.append(f"first_order = {'true' if cfg.controls.first_order else 'false'}")

    out = cfg.output
    if out.snapshot_interval is not None or out.fields:
        lines += ["", "[output]"]
        if out.snapshot_interval is not None:
            lines.append(f"snapshot_interval = {_fmt(out.snapshot_interval)}")
        if out.fields:
            lines.append(f"fields = {', '.join(out.fields)}")

    Path(path).write_text("\n".join(lines) + "\n")


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
    except OSError:
        pass
    try:
        from importlib.metadata import version
        return "v" + version("artifact")
    except Exception:
        return "unknown"


def _centered_gradient(values, boundary, dx, parity=1.0):
    padded = _pad(values, boundary, parity=parity)
    return _centered_difference(padded[1:-1], dx)


def _derived_columns(state, bathy, params, grid, tier, fields):
    """Compute the requested derived snapshot columns (dict name -> array)."""
    from . import closures

    x = grid.cell_centers
    t = state.t
    dx = grid.dx
    H = state.H
    u = state.velocity()
    zb = bathy.elevation(x, t)
    eta = zb + H
    zbx = bathy.slope(x, t)
    zbt = bathy.rate(x, t)
    dudx = _centered_gradient(u, grid.boundary, dx, parity=-1.0)

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
            from .models import assemble_dispersive
            system = assemble_dispersive(state, bathy, params, grid, tier,
                                         include_pointwise_friction=True)
            a = system.A.solve(system.F)
            dadx = _centered_gradient(a, grid.boundary, dx, parity=-1.0)
            detadx = _centered_gradient(eta, grid.boundary, dx)
            detadt = zbt - _centered_gradient(H * u, grid.boundary, dx,
                                              parity=-1.0)
            d2u = _centered_gradient(dudx, grid.boundary, dx)
            d2zbu = _centered_gradient(
                _centered_gradient(zb * u, grid.boundary, dx, parity=-1.0),
                grid.boundary, dx)
            out["p_bottom"] = closures.pressure_nonhydrostatic(
                zb, tier=tier, params=params, eta=eta, z_b=zb, u_bar=u,
                du_dx=dudx, a=a, da_dx=dadx, dzb_dx=zbx, dzb_dt=zbt,
                d2zb_dt2=bathy.accel(x, t), deta_dt=detadt, deta_dx=detadx,
                d2u_dx2=d2u, d2zbu_dx2=d2zbu, p_a=p_a)
    return out


def write_snapshot(state, bathy, params, grid, tier, path, fields=()) -> None:
    """Write one state as CSV: x, H, u_bar, eta, z_b, then any requested
    derived columns (bottom/surface vertical velocity, bottom pressure)."""
    for name in fields:
        if name not in SNAPSHOT_FIELDS:
            known = ", ".join(SNAPSHOT_FIELDS)
            raise ValueError(f"unknown snapshot field {name!r} (known: {known})")
    ordered = tuple(name for name in SNAPSHOT_FIELDS if name in fields)

    x = grid.cell_centers
    zb = bathy.elevation(x, state.t)
    columns = {"x": x, "H": state.H, "u_bar": state.velocity(),
               "eta": zb + state.H, "z_b": zb}
    columns.update(_derived_columns(state, bathy, params, grid, tier, ordered))

    names = ("x", "H", "u_bar", "eta", "z_b") + ordered
    lines = [f"# t={_fmt(state.t)} tier={tier.value} build={_build_tag()}",
             ",".join(names)]
    for i in range(grid.n_cells):
        lines.append(",".join(_fmt(columns[name][i]) for name in names))
    Path(path).write_text("\n".join(lines) + "\n")


def write_timeseries(reports, path) -> None:
    """Write per-step energy reports as CSV (one row per report)."""
    lines = ["t,mass,momentum,E_h,E_ext,dissipation_rate,budget_residual"]
    for rep in reports:
        lines.append(",".join(_fmt(v) for v in (
            rep.t, rep.mass, rep.momentum, rep.E_h, rep.E_ext,
            rep.dissipation_rate, rep.budget_residual)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_manifest(cfg: ScenarioConfig, path, extra=None) -> None:
    """Record the scenario scales, regime verdict, and optional run stats."""
    scales = regime_scales(cfg)
    verdict = regime_verdict(cfg)
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
