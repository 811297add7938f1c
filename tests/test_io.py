"""Tests for the plain-text scenario configs and the CSV writers.

Parsing errors must carry line numbers, semantic errors must carry field
paths, and a written config must load back equal on every field.  Snapshot
and time-series files are checked column by column against hand-computed
values.
"""

import dataclasses
import itertools
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest

import swdisp
import swdisp.io as swio
from swdisp.core import (BathymetryField, Boundary, FlatBed, FlowState,
                         GaussianBump, GaussianPulseMotion, GradientPressure,
                         Grid, PhysicalParams, SinusoidMotion, StaticBed,
                         ZeroPressure)
from swdisp.diagnostics import EnergyReport
from swdisp.solver import StepControls
from swdisp.io import (ConfigError, DamBreak, GaussianHump, LakeAtRest,
                       Manufactured, MonochromaticWave, OutputSpec,
                       ScenarioConfig, build_initial_state, load_config,
                       regime_verdict, write_config, write_manifest,
                       write_snapshot, write_timeseries)
from swdisp.models import ModelTier, _RunContext

MINIMAL = """\
[grid]
x_min = 0.0
x_max = 10.0
n_cells = 64

[bathymetry]
profile = flat
level = -1.0

[initial]
kind = lake_at_rest
eta0 = 0.0

[stepping]
tier = Hydrostatic
t_end = 0.25
"""


def _load(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return load_config(path)


def _line_of(text, needle):
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    raise AssertionError(f"{needle!r} not found")


# ---------------------------------------------------------------------------
# loading and defaults


def test_minimal_config_fills_defaults(tmp_path):
    cfg = _load(tmp_path, MINIMAL)
    assert cfg.grid == Grid(0.0, 10.0, 64, Boundary.PERIODIC)
    assert cfg.tier is ModelTier.HYDROSTATIC
    assert cfg.controls.cfl == 0.5
    assert cfg.controls.t_end == 0.25
    assert cfg.controls.dt_max == np.inf
    assert cfg.controls.fixed_dt is None
    assert cfg.controls.first_order is False
    assert cfg.params == PhysicalParams()
    assert cfg.bathymetry.profile == FlatBed(-1.0)
    assert cfg.bathymetry.motion == StaticBed()
    assert cfg.initial == LakeAtRest(eta0=0.0)
    assert cfg.output == OutputSpec(snapshot_interval=None, fields=())


def test_comments_and_blank_lines_ignored(tmp_path):
    text = MINIMAL.replace("[grid]", "# leading comment\n\n[grid]")
    text = text.replace("x_max = 10.0", "x_max = 10.0   # trailing comment")
    cfg = _load(tmp_path, text)
    assert cfg.grid.x_max == 10.0


def test_full_config_parses(tmp_path):
    text = """\
[grid]
x_min = -5.0
x_max = 5.0
n_cells = 128
boundary = Wall

[physics]
g = 9.81
nu = 0.001
k_l = 0.01
k_t = 0.1
p_atm_slope = 0.02

[bathymetry]
profile = gaussian_bump
level = -2.0
center = 0.0
width = 0.5
amplitude = 0.4
motion = sinusoid
motion_amplitude = 0.01
motion_omega = 3.0
motion_phase = 0.5

[initial]
kind = dam_break
eta_left = 0.5
eta_right = 0.0
x0 = 0.0

[stepping]
tier = NonHydro2
t_end = 2.0
cfl = 0.4
dt_max = 0.01
fixed_dt = 0.005
first_order = false

[output]
snapshot_interval = 0.5
fields = w_bottom, p_bottom
"""
    cfg = _load(tmp_path, text)
    assert cfg.grid.boundary is Boundary.WALL
    assert cfg.params.p_atm == GradientPressure(0.02)
    assert cfg.bathymetry.profile == GaussianBump(
        center=0.0, width=0.5, amplitude=0.4, level=-2.0)
    assert cfg.bathymetry.motion == SinusoidMotion(
        amplitude=0.01, angular_frequency=3.0, phase=0.5)
    assert cfg.initial == DamBreak(eta_left=0.5, eta_right=0.0, x0=0.0)
    assert cfg.tier is ModelTier.NONHYDRO2
    assert cfg.controls.fixed_dt == 0.005
    assert cfg.output == OutputSpec(snapshot_interval=0.5,
                                    fields=("w_bottom", "p_bottom"))


# ---------------------------------------------------------------------------
# parse errors carry line numbers; semantic errors carry field paths


def test_unknown_key_is_an_error_with_line_number(tmp_path):
    text = MINIMAL.replace("n_cells = 64", "n_cells = 64\nspam = 1")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert "spam" in str(err.value)
    assert f"line {_line_of(text, 'spam')}" in str(err.value)


def test_unknown_section_is_an_error_with_line_number(tmp_path):
    text = MINIMAL + "\n[turbulence]\nmodel = none\n"
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert "turbulence" in str(err.value)
    assert f"line {_line_of(text, '[turbulence]')}" in str(err.value)


def test_bad_number_is_an_error_with_line_number(tmp_path):
    text = MINIMAL.replace("x_max = 10.0", "x_max = ten")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert f"line {_line_of(text, 'x_max = ten')}" in str(err.value)


def test_bad_integer_is_an_error(tmp_path):
    text = MINIMAL.replace("n_cells = 64", "n_cells = 64.5")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert "n_cells" in str(err.value)


def test_duplicate_key_is_an_error(tmp_path):
    text = MINIMAL.replace("x_min = 0.0", "x_min = 0.0\nx_min = 1.0")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert "duplicate" in str(err.value)
    assert "x_min" in str(err.value)


def test_key_before_any_section_is_an_error(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, "orphan = 1\n" + MINIMAL)
    assert "line 1" in str(err.value)


def test_line_without_equals_is_an_error(tmp_path):
    text = MINIMAL.replace("x_min = 0.0", "x_min 0.0")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert f"line {_line_of(text, 'x_min 0.0')}" in str(err.value)


def test_missing_section_is_an_error(tmp_path):
    text = MINIMAL.replace("[initial]\nkind = lake_at_rest\neta0 = 0.0\n", "")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert "initial" in str(err.value)


def test_missing_required_key_names_field_path(tmp_path):
    text = MINIMAL.replace("t_end = 0.25\n", "")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert "stepping.t_end" in str(err.value)


def test_bad_enum_value_lists_choices(tmp_path):
    text = MINIMAL.replace("[grid]", "[grid]\nboundary = Closed")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    msg = str(err.value)
    assert "Closed" in msg and "Periodic" in msg and "Wall" in msg


def test_unknown_tier_is_an_error(tmp_path):
    text = MINIMAL.replace("tier = Hydrostatic", "tier = Hydrostatic3000")
    with pytest.raises(ConfigError):
        _load(tmp_path, text)


def test_unknown_initial_kind_is_an_error(tmp_path):
    text = MINIMAL.replace("kind = lake_at_rest", "kind = tsunami")
    with pytest.raises(ConfigError):
        _load(tmp_path, text)


def test_key_from_wrong_initial_kind_is_rejected(tmp_path):
    text = MINIMAL.replace("eta0 = 0.0", "eta0 = 0.0\nx0 = 5.0")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert "x0" in str(err.value)


def test_nonhydro2_requires_viscosity(tmp_path):
    text = MINIMAL.replace("tier = Hydrostatic", "tier = NonHydro2")
    text = text.replace("[initial]", "[physics]\nnu = 0.0\n\n[initial]")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert "friction closure requires nu > 0" in str(err.value)


def test_friction_without_viscosity_rejected(tmp_path):
    text = MINIMAL.replace("[initial]", "[physics]\nnu = 0.0\nk_l = 0.01\n\n[initial]")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert "friction closure requires nu > 0" in str(err.value)


def test_dam_break_below_bed_is_a_semantic_error(tmp_path):
    text = MINIMAL.replace(
        "kind = lake_at_rest\neta0 = 0.0",
        "kind = dam_break\neta_left = -2.0\neta_right = 0.0\nx0 = 5.0")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    msg = str(err.value)
    assert "initial.eta_left" in msg and "depth" in msg


def test_unknown_manufactured_case_is_a_semantic_error(tmp_path):
    text = MINIMAL.replace("kind = lake_at_rest\neta0 = 0.0",
                           "kind = manufactured\ncase = manufactured-unobtainium")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert "initial.case" in str(err.value)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


# ---------------------------------------------------------------------------
# write_config round trip


def test_minimal_round_trip_is_identity(tmp_path):
    cfg = _load(tmp_path, MINIMAL)
    out = tmp_path / "rewritten.cfg"
    write_config(cfg, out)
    assert load_config(out) == cfg


def test_full_round_trip_is_identity(tmp_path):
    cfg = ScenarioConfig(
        grid=Grid(-3.0, 7.0, 96, Boundary.WALL),
        tier=ModelTier.NONHYDRO1,
        params=PhysicalParams(g=9.8, nu=1.0 / 3.0, k_l=0.07, k_t=0.2,
                              p_atm=GradientPressure(-0.125)),
        bathymetry=BathymetryField(
            GaussianBump(center=1.0, width=0.7, amplitude=1.0 / 7.0, level=-2.0),
            SinusoidMotion(amplitude=0.001, angular_frequency=np.pi, phase=0.1)),
        initial=MonochromaticWave(amplitude=1e-4, k=2.0 * np.pi / 10.0),
        controls=StepControls(t_end=1.75, cfl=0.45, dt_max=0.02, fixed_dt=0.001),
        output=OutputSpec(snapshot_interval=0.25,
                          fields=("w_bottom", "w_surface", "p_bottom")),
    )
    path = tmp_path / "full.cfg"
    write_config(cfg, path)
    again = load_config(path)
    assert again == cfg
    # irrational floats survive the 17-significant-digit format exactly
    assert again.params.nu == cfg.params.nu
    assert again.bathymetry.profile.amplitude == cfg.bathymetry.profile.amplitude


PROFILES = [FlatBed(level=-2.0),
            GaussianBump(center=1.0, width=0.7, amplitude=1.0 / 7.0, level=-2.0)]
MOTIONS = [StaticBed(),
           SinusoidMotion(amplitude=0.001, angular_frequency=np.pi, phase=0.1),
           GaussianPulseMotion(amplitude=0.002, t0=0.3, sigma=1.0 / 3.0)]
INITIALS = [LakeAtRest(eta0=0.0),
            DamBreak(eta_left=0.5, eta_right=1.0 / 3.0, x0=0.25),
            MonochromaticWave(amplitude=1e-4, k=2.0 * np.pi / 10.0),
            GaussianHump(amplitude=0.05, center=2.0, width=0.8),
            Manufactured(case="manufactured-hydrostatic")]


@pytest.mark.parametrize(
    "profile, motion, initial",
    list(itertools.product(PROFILES, MOTIONS, INITIALS)),
    ids=lambda obj: type(obj).__name__)
def test_round_trip_every_kind(tmp_path, profile, motion, initial):
    static = isinstance(motion, StaticBed)
    cfg = ScenarioConfig(
        grid=Grid(-3.0, 7.0, 64, Boundary.COPY if static else Boundary.WALL),
        tier=ModelTier.NONHYDRO2 if static else ModelTier.PEREGRINE_INVISCID,
        params=PhysicalParams(nu=1e-3, p_atm=ZeroPressure() if static
                              else GradientPressure(0.01)),
        bathymetry=BathymetryField(profile, motion),
        initial=initial,
        controls=StepControls(t_end=0.5, first_order=static,
                              fixed_dt=None if static else 1e-3),
        output=OutputSpec(snapshot_interval=0.0 if static else None,
                          fields=() if static else ("w_surface",)),
    )
    path = tmp_path / "kind.cfg"
    write_config(cfg, path)
    assert load_config(path) == cfg
    assert ("motion" in path.read_text()) is not static


FULL = """\
[grid]
x_min = -5.0
x_max = 5.0
n_cells = 128
boundary = Wall

[physics]
g = 9.81
nu = 0.001
k_l = 0.01
k_t = 0.1
p_atm_slope = 0.02

[bathymetry]
profile = gaussian_bump
level = -2.0
center = 0.0
width = 0.5
amplitude = 0.4
motion = gaussian_pulse
motion_amplitude = 0.01
motion_t0 = 1.0
motion_sigma = 0.5

[initial]
kind = gaussian_hump
amplitude = 0.1
center = -1.0
width = 0.8

[stepping]
tier = NonHydro2
t_end = 2.0
cfl = 0.4
dt_max = 0.01
fixed_dt = 0.005
first_order = false

[output]
snapshot_interval = 0.5
fields = w_bottom, p_bottom
"""
# keys whose absence falls back to a default; every other key is required
OPTIONAL = {"boundary", "g", "nu", "k_l", "k_t", "p_atm_slope", "motion",
            "cfl", "dt_max", "fixed_dt", "first_order", "snapshot_interval",
            "fields"}


def _key_lines(text):
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            yield lineno, section, line.split("=")[0].strip()


@pytest.mark.parametrize("lineno, section, key", list(_key_lines(FULL)),
                         ids=lambda v: str(v))
def test_single_fault_on_each_key_line(tmp_path, lineno, section, key):
    lines = FULL.splitlines()
    deleted = "\n".join(lines[:lineno - 1] + lines[lineno:]) + "\n"
    if key == "motion":
        # the motion_* keys then belong to no motion kind
        with pytest.raises(ConfigError, match="unknown key 'motion_amplitude'"):
            _load(tmp_path, deleted)
    elif key in OPTIONAL:
        _load(tmp_path, deleted)
    else:
        with pytest.raises(ConfigError) as err:
            _load(tmp_path, deleted)
        assert f"{section}.{key}" in str(err.value)

    malformed = "\n".join(lines[:lineno - 1] + [f"{key} = zz"]
                          + lines[lineno:]) + "\n"
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, malformed)
    msg = str(err.value)
    assert f"{section}.{key}" in msg and "'zz'" in msg
    assert msg.startswith(f"line {lineno}: ")


def _number_key_lines(text):
    lines = text.splitlines()
    for lineno, section, key in _key_lines(text):
        try:
            float(lines[lineno - 1].split("=")[1])
        except ValueError:
            continue
        yield lineno, section, key


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("lineno, section, key",
                         list(_number_key_lines(FULL)), ids=lambda v: str(v))
def test_non_finite_number_rejected_on_its_line(tmp_path, lineno, section, key,
                                                value):
    lines = FULL.splitlines()
    text = "\n".join(lines[:lineno - 1] + [f"{key} = {value}"]
                     + lines[lineno:]) + "\n"
    if key == "dt_max" and value != "nan":
        # its default is inf, so a written default must load back
        if value == "inf":
            assert _load(tmp_path, text).controls.dt_max == np.inf
        else:
            with pytest.raises(ConfigError, match="dt_max must be positive"):
                _load(tmp_path, text)
        return
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    msg = str(err.value)
    assert msg.startswith(f"line {lineno}: {section}.{key} ")
    assert repr(value) in msg


# ---------------------------------------------------------------------------
# initial states


def test_lake_at_rest_state(tmp_path):
    text = MINIMAL.replace("profile = flat\nlevel = -1.0",
                           "profile = gaussian_bump\nlevel = -1.0\n"
                           "center = 5.0\nwidth = 1.0\namplitude = 0.3")
    cfg = _load(tmp_path, text)
    state = build_initial_state(cfg)
    zb = cfg.bathymetry.elevation(cfg.grid.cell_centers, 0.0)
    np.testing.assert_allclose(state.H + zb, 0.0, atol=1e-15)
    assert np.all(state.q == 0.0)
    assert state.t == 0.0


def test_dam_break_state(tmp_path):
    text = MINIMAL.replace("kind = lake_at_rest\neta0 = 0.0",
                           "kind = dam_break\neta_left = 0.5\n"
                           "eta_right = 0.0\nx0 = 5.0")
    cfg = _load(tmp_path, text)
    state = build_initial_state(cfg)
    x = cfg.grid.cell_centers
    np.testing.assert_allclose(state.H[x < 5.0], 1.5)
    np.testing.assert_allclose(state.H[x >= 5.0], 1.0)


def test_gaussian_hump_state(tmp_path):
    text = MINIMAL.replace("kind = lake_at_rest\neta0 = 0.0",
                           "kind = gaussian_hump\namplitude = 0.2\n"
                           "center = 5.0\nwidth = 0.8")
    cfg = _load(tmp_path, text)
    state = build_initial_state(cfg)
    x = cfg.grid.cell_centers
    eta = 0.2 * np.exp(-0.5 * ((x - 5.0) / 0.8) ** 2)
    np.testing.assert_allclose(state.H, eta + 1.0, atol=1e-15)


def test_monochromatic_wave_state_is_right_moving(tmp_path):
    k = 2.0 * np.pi / 10.0
    text = MINIMAL.replace("kind = lake_at_rest\neta0 = 0.0",
                           f"kind = monochromatic_wave\namplitude = 0.001\nk = {k}")
    cfg = _load(tmp_path, text)
    state = build_initial_state(cfg)
    x = cfg.grid.cell_centers
    eta = 0.001 * np.sin(k * (x - cfg.grid.x_min))
    np.testing.assert_allclose(state.H, eta + 1.0, atol=1e-15)
    # paired with the long-wave speed so the profile propagates rightward
    u_expected = np.sqrt(cfg.params.g / 1.0) * eta
    np.testing.assert_allclose(state.velocity(), u_expected, atol=1e-12)


def test_manufactured_state_matches_case(tmp_path):
    from swdisp.manufactured import get_case
    text = MINIMAL.replace("kind = lake_at_rest\neta0 = 0.0",
                           "kind = manufactured\ncase = manufactured-hydrostatic")
    case = get_case("manufactured-hydrostatic")
    text = text.replace("x_max = 10.0", f"x_max = {case.length!r}")
    text = text.replace("level = -1.0", f"level = {case.bathymetry.profile.level!r}")
    cfg = _load(tmp_path, text)
    state = build_initial_state(cfg)
    np.testing.assert_allclose(state.H, case.exact_H(cfg.grid.cell_centers, 0.0))


# ---------------------------------------------------------------------------
# snapshot files


def _make_run(tmp_path, fields=""):
    text = MINIMAL
    if fields:
        text += f"\n[output]\nfields = {fields}\n"
    cfg = _load(tmp_path, text)
    state = build_initial_state(cfg)
    return cfg, state


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return lines[0], header, data


def test_snapshot_base_columns(tmp_path):
    cfg, state = _make_run(tmp_path)
    path = tmp_path / "snap.csv"
    write_snapshot(state, cfg.bathymetry, cfg.params, cfg.grid, cfg.tier, path)
    comment, header, data = _read_csv(path)
    assert header == ["x", "H", "u_bar", "eta", "z_b"]
    assert "t=" in comment and "tier=Hydrostatic" in comment and "build=" in comment
    np.testing.assert_allclose(data[:, 0], cfg.grid.cell_centers)
    np.testing.assert_allclose(data[:, 1], state.H)
    np.testing.assert_allclose(data[:, 3], 0.0, atol=1e-15)  # eta = H + z_b
    np.testing.assert_allclose(data[:, 4], -1.0)


def test_snapshot_derived_columns(tmp_path):
    cfg, state = _make_run(tmp_path, fields="w_bottom, w_surface, p_bottom")
    # give the flow some structure so the derived columns are nontrivial
    x = cfg.grid.cell_centers
    u = 0.1 * np.sin(2.0 * np.pi * x / 10.0)
    state = dataclasses.replace(state, q=state.H * u)
    path = tmp_path / "snap.csv"
    write_snapshot(state, cfg.bathymetry, cfg.params, cfg.grid, cfg.tier, path,
                   fields=cfg.output.fields)
    _, header, data = _read_csv(path)
    assert header == ["x", "H", "u_bar", "eta", "z_b",
                      "w_bottom", "w_surface", "p_bottom"]
    # flat static bed: w vanishes at the bed and equals -H du/dx at the surface
    np.testing.assert_allclose(data[:, 5], 0.0, atol=1e-15)
    dudx = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * cfg.grid.dx)
    np.testing.assert_allclose(data[:, 6], -state.H * dudx, atol=1e-13)
    # hydrostatic tier: bottom pressure is the full column weight
    np.testing.assert_allclose(data[:, 7], cfg.params.g * state.H, atol=1e-13)


def test_snapshot_unknown_field_rejected(tmp_path):
    cfg, state = _make_run(tmp_path)
    with pytest.raises(ValueError):
        write_snapshot(state, cfg.bathymetry, cfg.params, cfg.grid, cfg.tier,
                       tmp_path / "snap.csv", fields=("vorticity",))


def test_snapshot_bytes_are_reproducible(tmp_path):
    cfg, state = _make_run(tmp_path, fields="p_bottom")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        write_snapshot(state, cfg.bathymetry, cfg.params, cfg.grid, cfg.tier,
                       path, fields=("p_bottom",))
    assert a.read_bytes() == b.read_bytes()


def _oracle_rows(columns):
    """One value at a time, as the writers are specified to format them."""
    return [",".join(format(float(v), ".17g") for v in row)
            for row in zip(*columns)]


@pytest.mark.parametrize("tier", list(ModelTier), ids=lambda t: t.value)
def test_snapshot_bytes_match_per_value_formatting(tmp_path, tier):
    grid = Grid(0.0, 10.0, 32, Boundary.WALL)
    bathy = BathymetryField(
        GaussianBump(center=5.0, width=1.0, amplitude=0.3, level=-1.0),
        SinusoidMotion(amplitude=0.01, angular_frequency=2.0))
    params = PhysicalParams(nu=1e-3, k_l=1e-2, k_t=1e-2,
                            p_atm=GradientPressure(0.02))
    x = grid.cell_centers
    H = 1.0 + 0.1 * np.sin(x)
    H[3:8] = [-0.0, 1.0 / 3.0, 1e-5, 5e-324, 1e16]
    q = 0.1 * H * np.cos(x)
    q[3:8] = 0.0
    q[10] = -0.0
    state = FlowState(t=0.25, H=H, q=q)
    path = tmp_path / "snap.csv"
    write_snapshot(state, bathy, params, grid, tier, path,
                   fields=swio.SNAPSHOT_FIELDS)

    zb = bathy.elevation(x, state.t)
    derived = swio._derived_columns(
        state, _RunContext(bathy, params, grid), tier, swio.SNAPSHOT_FIELDS)
    columns = [x, H, state.velocity(), zb + H, zb] + [
        derived[name] for name in swio.SNAPSHOT_FIELDS]
    expected = [f"# t=0.25 tier={tier.value} build={swio._build_tag()}",
                "x,H,u_bar,eta,z_b,w_bottom,w_surface,p_bottom"]
    expected += _oracle_rows(columns)
    assert path.read_text() == "\n".join(expected) + "\n"
    assert ",-0," in path.read_text()


def test_snapshot_floats_keep_17_significant_digits(tmp_path):
    cfg, state = _make_run(tmp_path)
    state = dataclasses.replace(state, H=np.full_like(state.H, 1.0 / 3.0))
    path = tmp_path / "snap.csv"
    write_snapshot(state, cfg.bathymetry, cfg.params, cfg.grid, cfg.tier, path)
    _, _, data = _read_csv(path)
    assert data[0, 1] == 1.0 / 3.0  # survives the text round trip bit-exactly


# ---------------------------------------------------------------------------
# time series and manifest


def test_timeseries_columns(tmp_path):
    reports = [
        EnergyReport(t=0.0, mass=10.0, momentum=0.5, E_h=3.0, E_ext=3.25,
                     modeled_rate=-0.1),
        EnergyReport(t=0.1, mass=10.0, momentum=0.4, E_h=2.9, E_ext=3.15,
                     modeled_rate=-0.1, dissipation_rate=-1.0,
                     budget_residual=0.9),
    ]
    path = tmp_path / "series.csv"
    write_timeseries(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mass,momentum,E_h,E_ext,dissipation_rate,budget_residual"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 10.0
    assert first[5] == "nan" and first[6] == "nan"
    second = lines[2].split(",")
    assert float(second[5]) == -1.0 and float(second[6]) == 0.9


def test_timeseries_bytes_match_per_value_formatting(tmp_path):
    inf = float("inf")
    reports = [
        EnergyReport(t=0.0, mass=1.0 / 3.0, momentum=-0.0, E_h=1e16,
                     E_ext=5e-324),
        EnergyReport(t=1e-5, mass=inf, momentum=-inf, E_h=np.float64(0.1),
                     E_ext=2.0, dissipation_rate=-inf, budget_residual=inf),
        EnergyReport(t=0.5, mass=1.0, momentum=0.0, E_h=1e-300, E_ext=1e300,
                     dissipation_rate=-1.0 / 3.0, budget_residual=0.0),
    ]
    names = ("t", "mass", "momentum", "E_h", "E_ext", "dissipation_rate",
             "budget_residual")
    path = tmp_path / "series.csv"
    write_timeseries(reports, path)
    expected = [",".join(names)] + _oracle_rows(
        [[getattr(rep, name) for rep in reports] for name in names])
    assert path.read_text() == "\n".join(expected) + "\n"
    assert expected[1].endswith(",nan,nan")


def test_build_tag_survives_hung_git(monkeypatch):
    def hung(args, **kwargs):
        raise subprocess.TimeoutExpired(args, kwargs.get("timeout"))

    monkeypatch.setattr(subprocess, "run", hung)
    swio._build_tag.cache_clear()
    try:
        tag = swio._build_tag()
    finally:
        swio._build_tag.cache_clear()
    assert tag == "v" + swdisp.__version__


def test_package_version_matches_pyproject():
    """The build tag's fallback version cannot drift from the package's."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = re.search(r'^version = "([^"]+)"$', pyproject.read_text(),
                        re.MULTILINE).group(1)
    assert version == swdisp.__version__


def test_manifest_records_regime_verdict(tmp_path, monkeypatch):
    # depth 1, wavelength 100, amplitude 2e-4: shallowness 0.01 and Ursell
    # number 2 put this in the dispersive (Boussinesq) window
    text = """\
[grid]
x_min = 0.0
x_max = 200.0
n_cells = 64

[bathymetry]
profile = flat
level = -1.0

[initial]
kind = monochromatic_wave
amplitude = 2e-4
k = 0.06283185307179587

[stepping]
tier = NonHydro1
t_end = 0.1
"""
    cfg = _load(tmp_path, text)
    assert regime_verdict(cfg).value == "Boussinesq"
    path = tmp_path / "manifest.txt"
    built = []

    def counted(c):
        built.append(c)
        return build_initial_state(c)

    monkeypatch.setattr(swio, "build_initial_state", counted)
    write_manifest(cfg, path)
    assert len(built) == 1  # the verdict comes from the scales it wrote
    body = path.read_text()
    assert "regime = Boussinesq" in body
    assert "tier = NonHydro1" in body


def test_regime_verdict_for_still_water_is_long_wave(tmp_path):
    cfg = _load(tmp_path, MINIMAL)
    assert regime_verdict(cfg).value == "SaintVenant"
