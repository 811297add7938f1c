"""End-to-end tests of the command-line interface.

``main(argv)`` is driven in process and must honor the exit-code contract:
0 success, 1 quantitative check failed, 2 configuration error, 3 solver
failure.  Output files and summary lines are parsed back and checked.
"""

import re

import numpy as np
import pytest

from swdisp.cli import main

LAKE = """\
[grid]
x_min = 0.0
x_max = 10.0
n_cells = 64

[bathymetry]
profile = gaussian_bump
level = -1.0
center = 5.0
width = 1.0
amplitude = 0.3

[initial]
kind = lake_at_rest
eta0 = 0.0

[stepping]
tier = Hydrostatic
t_end = 0.1
"""

DAM = """\
[grid]
x_min = 0.0
x_max = 10.0
n_cells = 64

[physics]
nu = 0.001

[bathymetry]
profile = flat
level = -1.0

[initial]
kind = dam_break
eta_left = 0.2
eta_right = 0.0
x0 = 5.0

[stepping]
tier = Hydrostatic
t_end = 0.2

[output]
snapshot_interval = 0.05
fields = p_bottom
"""

SMOOTH = """\
[grid]
x_min = 0.0
x_max = 10.0
n_cells = 64

[physics]
nu = 0.001
k_l = 0.01

[bathymetry]
profile = gaussian_bump
level = -1.5
center = 4.0
width = 0.8
amplitude = 0.4

[initial]
kind = gaussian_hump
amplitude = 0.2
center = 6.0
width = 1.0

[stepping]
tier = Hydrostatic
t_end = 0.1
"""


def _write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _summary_value(out, key):
    match = re.search(rf"{key}=([^\s]+)", out)
    assert match, f"{key} missing from summary: {out!r}"
    return match.group(1)


# ---------------------------------------------------------------------------
# help and argument errors


def test_help_lists_every_flag(capsys):
    seen = ""
    for sub in ("run", "dispersion", "converge", "steady-check"):
        with pytest.raises(SystemExit) as stop:
            main([sub, "--help"])
        assert stop.value.code == 0
        seen += capsys.readouterr().out
    for flag in ("--config", "--tier", "--t-end", "--cells", "--out",
                 "--seed", "--debug-first-order"):
        assert flag in seen


def test_no_subcommand_is_an_error(capsys):
    with pytest.raises(SystemExit) as stop:
        main([])
    assert stop.value.code == 2


def test_unknown_flag_is_an_error(tmp_path):
    with pytest.raises(SystemExit) as stop:
        main(["run", "--config", _write(tmp_path, LAKE), "--bogus"])
    assert stop.value.code == 2


# ---------------------------------------------------------------------------
# run


def test_run_lake_at_rest_summary(tmp_path, capsys):
    rc = main(["run", "--config", _write(tmp_path, LAKE)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tier=Hydrostatic" in out
    assert abs(float(_summary_value(out, "mass_drift"))) <= 1e-13
    assert _summary_value(out, "positivity_clamps") == "0"
    assert "wall_time" in out


def test_run_missing_config_exits_2(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "error" in capsys.readouterr().err.lower()


def test_run_invalid_config_exits_2(tmp_path, capsys):
    rc = main(["run", "--config", _write(tmp_path, LAKE + "spam = 1\n")])
    assert rc == 2
    assert "spam" in capsys.readouterr().err


def test_run_tier_override_is_reported(tmp_path, capsys):
    rc = main(["run", "--config", _write(tmp_path, LAKE),
               "--tier", "NonHydro1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tier=NonHydro1" in out
    assert "override" in out.lower()


def test_run_cells_and_t_end_overrides(tmp_path, capsys):
    rc = main(["run", "--config", _write(tmp_path, LAKE),
               "--cells", "32", "--t-end", "0.02"])
    out = capsys.readouterr().out
    assert rc == 0
    assert _summary_value(out, "cells") == "32"


def test_run_nonhydro2_prints_pressure_form_note(tmp_path, capsys):
    cfg = LAKE.replace("tier = Hydrostatic", "tier = NonHydro2")
    cfg = cfg.replace("[initial]", "[physics]\nnu = 0.001\n\n[initial]")
    rc = main(["run", "--config", _write(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "note:" in out


def test_run_writes_snapshots_timeseries_manifest(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", _write(tmp_path, DAM),
               "--out", str(out_dir)])
    assert rc == 0
    snaps = sorted(out_dir.glob("snapshot_*.csv"))
    assert len(snaps) >= 4  # initial, interval crossings, final
    series = (out_dir / "timeseries.csv").read_text().splitlines()
    assert series[0] == "t,mass,momentum,E_h,E_ext,dissipation_rate,budget_residual"
    mass = np.array([float(line.split(",")[1]) for line in series[1:]])
    assert abs(mass[-1] - mass[0]) <= 1e-12 * mass[0]
    manifest = (out_dir / "manifest.txt").read_text()
    assert "regime" in manifest and "tier" in manifest
    # snapshots carry the requested derived column
    header = snaps[0].read_text().splitlines()[1]
    assert header == "x,H,u_bar,eta,z_b,p_bottom"


def test_run_outputs_are_deterministic(tmp_path, capsys):
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        rc = main(["run", "--config", _write(tmp_path, DAM), "--out", str(d)])
        assert rc == 0
    final_a = sorted(dirs[0].glob("snapshot_*.csv"))[-1]
    final_b = sorted(dirs[1].glob("snapshot_*.csv"))[-1]
    assert final_a.read_bytes() == final_b.read_bytes()


def test_run_all_dry_is_a_solver_failure(tmp_path, capsys):
    cfg = LAKE.replace("eta0 = 0.0", "eta0 = -2.0")
    cfg = cfg.replace("profile = gaussian_bump", "profile = flat")
    cfg = cfg.replace("level = -1.0\ncenter = 5.0\nwidth = 1.0\namplitude = 0.3",
                      "level = -2.0")
    rc = main(["run", "--config", _write(tmp_path, cfg)])
    assert rc == 3
    assert "dry" in capsys.readouterr().err


def test_run_lake_below_the_bed_everywhere_exits_3(tmp_path, capsys):
    cfg = LAKE.replace("eta0 = 0.0", "eta0 = -1.5")  # bed >= -1 everywhere
    rc = main(["run", "--config", _write(tmp_path, cfg)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "solver failure: cannot size a time step: all cells are dry\n")


def test_run_solver_error_exits_3(tmp_path, capsys, monkeypatch):
    import swdisp.cli as cli
    from swdisp.solver import SolverError

    def failing_run(*args, **kwargs):
        raise SolverError("banded solve failed: singular matrix")

    monkeypatch.setattr(cli, "run_simulation", failing_run)
    rc = main(["run", "--config", _write(tmp_path, LAKE)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "solver failure: banded solve failed: singular matrix\n")


def test_run_negative_snapshot_interval_exits_2(tmp_path, capsys):
    cfg = DAM.replace("snapshot_interval = 0.05", "snapshot_interval = -0.05")
    rc = main(["run", "--config", _write(tmp_path, cfg)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: output.snapshot_interval must be non-negative\n")


_FLAT_MONOCHROMATIC = LAKE.replace(
    "profile = gaussian_bump\nlevel = -1.0\ncenter = 5.0\nwidth = 1.0\n"
    "amplitude = 0.3", "profile = flat\nlevel = 0.0").replace(
    "kind = lake_at_rest\neta0 = 0.0",
    "kind = monochromatic_wave\namplitude = 0.0\nk = 0.6283185307179586")


@pytest.mark.parametrize("text, message", [
    (LAKE + "\n[grid]\nn_cells = 32\n",
     f"line {len(LAKE.splitlines()) + 2}: duplicate section [grid]"),
    (SMOOTH.replace("amplitude = 0.2", "amplitude = -2.0"),
     "initial.amplitude: profile leaves negative depth -0.51649 over the bed"),
    (_FLAT_MONOCHROMATIC,
     "initial.k: a monochromatic wave needs positive still depth (bed below "
     "the zero level) everywhere"),
    (SMOOTH.replace("width = 0.8", "width = 0.0"),
     "[bathymetry]: bump width must be positive"),
    (SMOOTH.replace("amplitude = 0.4\n", "amplitude = 0.4\n"
                    "motion = gaussian_pulse\nmotion_amplitude = 0.1\n"
                    "motion_t0 = 0.05\nmotion_sigma = 0.0\n"),
     "[bathymetry]: pulse width sigma must be positive"),
    (SMOOTH.replace("t_end = 0.1", "t_end = 0.1\nfixed_dt = 0.0"),
     "[stepping]: fixed_dt must be positive"),
], ids=["duplicate-section", "negative-depth", "dry-monochromatic",
        "bump-width", "pulse-sigma", "fixed-dt"])
def test_run_rejected_config_exits_2(tmp_path, capsys, text, message):
    """A config that parses but breaks a model constraint stops before the
    run with exit 2 and one line naming where it breaks."""
    rc = main(["run", "--config", _write(tmp_path, text)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_debug_first_order_flag_matches_first_order_config(tmp_path, capsys):
    """``--debug-first-order`` is reported and writes the snapshots of the
    same config with ``first_order = true``."""
    first = DAM.replace("t_end = 0.2", "t_end = 0.2\nfirst_order = true")
    runs = {"flag": (DAM, ["--debug-first-order"]), "config": (first, []),
            "second": (DAM, [])}
    snaps = {}
    for name, (text, extra) in runs.items():
        out_dir = tmp_path / name
        rc = main(["run", "--config", _write(tmp_path, text, f"{name}.cfg"),
                   "--out", str(out_dir)] + extra)
        out = capsys.readouterr().out
        assert rc == 0
        assert ("override: first_order -> true" in out) == (name == "flag")
        snaps[name] = [p.read_bytes()
                       for p in sorted(out_dir.glob("snapshot_*.csv"))]
    assert len(snaps["flag"]) >= 4
    assert snaps["flag"] == snaps["config"]
    assert snaps["flag"][-1] != snaps["second"][-1]


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_hydrostatic_speeds(tmp_path, capsys):
    rc = main(["dispersion", "--tier", "Hydrostatic", "--h0", "1.0",
               "--cells", "256", "--k-values", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    row = next(line for line in out.splitlines()
               if line.strip() and line.lstrip()[0].isdigit())
    k, c_meas, c_ref, rel = (float(tok) for tok in row.split())
    assert k == 0.5
    assert c_ref == pytest.approx(np.sqrt(9.81), rel=1e-9)
    assert rel < 1e-2


def test_dispersion_k_zero_rejected(tmp_path, capsys):
    rc = main(["dispersion", "--tier", "Hydrostatic",
               "--k-values", "0.5,0.0"])
    assert rc == 2
    assert "degenerate" in capsys.readouterr().err


def test_dispersion_aliased_k_skipped_with_warning(tmp_path, capsys):
    rc = main(["dispersion", "--tier", "Hydrostatic", "--h0", "1.0",
               "--cells", "64", "--k-values", "0.25,8.0"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "alias" in (captured.out + captured.err).lower()
    rows = [line for line in captured.out.splitlines()
            if line.strip() and line.lstrip()[0].isdigit()]
    assert len(rows) == 1  # only the resolved wavenumber was measured


def test_dispersion_all_aliased_exits_2(tmp_path, capsys):
    rc = main(["dispersion", "--tier", "Hydrostatic", "--cells", "8",
               "--k-values", "2.0"])
    assert rc == 2


# ---------------------------------------------------------------------------
# converge


def test_converge_manufactured_hydrostatic(tmp_path, capsys):
    rc = main(["converge", "--scenario", "manufactured-hydrostatic",
               "--grids", "64,128", "--t-end", "0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = [line.split() for line in out.splitlines()
            if line.strip() and line.lstrip()[0].isdigit()]
    assert len(rows) == 2
    order = float(rows[-1][-1])
    assert 1.5 < order < 2.5


def test_converge_lake_at_rest_notes_machine_precision(tmp_path, capsys):
    rc = main(["converge", "--scenario", "lake-at-rest", "--grids", "32,64"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "machine precision" in out


def test_converge_first_order_scheme_fails(tmp_path, capsys):
    rc = main(["converge", "--scenario", "manufactured-hydrostatic",
               "--grids", "64,128", "--t-end", "0.2", "--debug-first-order"])
    assert rc == 1


def test_converge_unknown_scenario_exits_2(tmp_path, capsys):
    rc = main(["converge", "--scenario", "warp-drive"])
    assert rc == 2


@pytest.mark.parametrize("command, flag", [
    ("run --cells 4", "--cells"),
    ("run --t-end -1", "--t-end"),
    ("run --t-end nan", "--t-end"),
    ("run --t-end inf", "--t-end"),
    ("dispersion --cells 4", "--cells"),
    ("dispersion --h0 nan", "--h0"),
    ("dispersion --k-values inf", "--k-values"),
    ("dispersion --k-values abc", "--k-values"),
    ("dispersion --k-values ,", "--k-values"),
    ("converge --scenario lake-at-rest --grids 4,8", "--grids"),
    ("converge --scenario lake-at-rest --grids 16,16", "--grids"),
    ("converge --scenario lake-at-rest --grids 32,16", "--grids"),
    ("converge --scenario lake-at-rest --grids 64", "--grids"),
    ("converge --scenario lake-at-rest --grids a,b", "--grids"),
    ("converge --scenario lake-at-rest --t-end 0", "--t-end"),
    ("converge --scenario manufactured-hydrostatic --t-end -1", "--t-end"),
])
def test_bad_flag_is_a_config_error_naming_it(tmp_path, capsys, command,
                                              flag):
    """A flag value the run cannot use stops before any run with exit 2
    and the flag's name, not as a solver failure."""
    argv = command.split()
    if argv[0] == "run":
        argv = argv[:1] + ["--config", _write(tmp_path, LAKE)] + argv[1:]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: {flag}: ")


@pytest.mark.parametrize("scenario", ["lake-at-rest", "linear-wave-nonhydro1"])
def test_converge_honours_t_end(monkeypatch, capsys, scenario):
    """Both errors are defined at any horizon, so ``--t-end`` sets the end
    time of every run of the study."""
    import swdisp.cli

    horizons = []

    def recording(state, bathy, params, grid, tier, controls, **kwargs):
        horizons.append(controls.t_end)
        return original(state, bathy, params, grid, tier, controls, **kwargs)

    original = swdisp.cli.run_simulation
    monkeypatch.setattr(swdisp.cli, "run_simulation", recording)
    rc = main(["converge", "--scenario", scenario, "--grids", "16,32",
               "--t-end", "0.03"])
    capsys.readouterr()
    assert rc in (0, 1)
    assert horizons == [0.03, 0.03]


# ---------------------------------------------------------------------------
# steady-check


def test_steady_check_tiers_agree(tmp_path, capsys):
    rc = main(["steady-check", "--config", _write(tmp_path, SMOOTH)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Hydrostatic" in out and "NonHydro1" in out
    match = re.search(r"max difference = ([0-9.e+-]+)", out)
    assert match and float(match.group(1)) <= 1e-13


def test_steady_check_randomized_samples_are_deterministic(tmp_path, capsys):
    args = ["steady-check", "--config", _write(tmp_path, SMOOTH),
            "--samples", "3", "--seed", "7"]
    rc = main(args)
    first = capsys.readouterr().out
    assert rc == 0
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_steady_check_nonhydro2_is_informational(tmp_path, capsys):
    rc = main(["steady-check", "--config", _write(tmp_path, SMOOTH),
               "--tier", "NonHydro2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "NonHydro2" in out
    assert "hydrostatic part" in out


def test_steady_check_bad_config_exits_2(tmp_path, capsys):
    rc = main(["steady-check", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
