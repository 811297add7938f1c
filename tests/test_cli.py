"""End-to-end tests of the command-line interface.

``main(argv)`` is driven in process and must honor the exit-code contract:
0 success, 1 quantitative check failed, 2 configuration error, 3 solver
failure.  Output files and summary lines are parsed back and checked.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

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


def broken(reason):
    """Mark a case that a known defect breaks: it must fail its check."""
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=reason)


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


def test_run_all_dry_is_a_config_error(tmp_path, capsys):
    cfg = LAKE.replace("eta0 = 0.0", "eta0 = -2.0")
    cfg = cfg.replace("profile = gaussian_bump", "profile = flat")
    cfg = cfg.replace("level = -1.0\ncenter = 5.0\nwidth = 1.0\namplitude = 0.3",
                      "level = -2.0")
    rc = main(["run", "--config", _write(tmp_path, cfg)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: initial.eta0: no cell is wet at t = 0 (every depth is "
        "below 1e-08)\n")


def test_run_lake_below_the_bed_everywhere_exits_2(tmp_path, capsys):
    cfg = LAKE.replace("eta0 = 0.0", "eta0 = -1.5")  # bed >= -1 everywhere
    rc = main(["run", "--config", _write(tmp_path, cfg)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: initial.eta0: no cell is wet at t = 0 (every depth is "
        "below 1e-08)\n")


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


def _tree(root):
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


@pytest.mark.parametrize("where", ["a-file", "under-a-file"])
def test_run_unusable_out_exits_2_before_the_run(tmp_path, capsys,
                                                 monkeypatch, where):
    """An ``--out`` that names a file, or a path under one, is refused with
    one ``config error: --out:`` line before the run starts."""
    import swdisp.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("run_simulation was called")

    monkeypatch.setattr(cli, "run_simulation", no_run)
    config = _write(tmp_path, DAM)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken if where == "a-file" else taken / "out"
    before = _tree(tmp_path)
    rc = main(["run", "--config", config, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: --out: ") and err.count("\n") == 1
    assert _tree(tmp_path) == before


def _every_step_dam(tmp_path):
    return _write(tmp_path, DAM.replace("snapshot_interval = 0.05",
                                        "snapshot_interval = 0.0"))


def test_run_writes_each_snapshot_before_the_next_step(tmp_path, capsys,
                                                       monkeypatch):
    """With a snapshot per step, step k starts with k snapshot files on
    disk: each is written as the run reaches its state."""
    import swdisp.solver as solver

    out = tmp_path / "out"
    on_disk, step = [], solver.step

    def counted(*args, **kwargs):
        on_disk.append(len(list(out.rglob("snapshot_*.csv"))))
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "step", counted)
    rc = main(["run", "--config", _every_step_dam(tmp_path),
               "--out", str(out)])
    assert rc == 0
    assert len(on_disk) > 3
    assert on_disk == list(range(1, len(on_disk) + 1))
    # each step's state, the initial state, the time series and the manifest
    assert len(list(out.iterdir())) == len(on_disk) + 3


def test_plain_run_keeps_no_snapshot_states(tmp_path, capsys, monkeypatch):
    """Without ``--out`` the run hands each snapshot state to a callable
    that drops it, so the result holds no state and no file is written."""
    import swdisp.cli as cli

    results, run = [], cli.run_simulation

    def recorded(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_simulation", recorded)
    config = _every_step_dam(tmp_path)
    before = _tree(tmp_path)
    assert main(["run", "--config", config]) == 0
    [result] = results
    assert result.stats["steps"] > 3
    assert (result.states, result.times) == ([], [])
    assert len(result.reports) == result.stats["steps"] + 1
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("existing", [False, True],
                         ids=["absent-out", "existing-out"])
def test_a_failed_run_leaves_out_as_it_found_it(tmp_path, capsys, monkeypatch,
                                                existing):
    """A run that stops in step 5, after five snapshots were written, exits
    3 naming the step, and leaves ``--out`` as it was: an absent one (and
    its absent parent) is not created, and the files of an existing one
    keep their bytes, with nothing added."""
    import swdisp.solver as solver
    from swdisp.solver import SolverError

    config = _every_step_dam(tmp_path)
    out = tmp_path / "results" / "run"
    if existing:
        out.mkdir(parents=True)
        (out / "snapshot_000000.csv").write_text("an earlier run\n")
        (out / "manifest.txt").write_text("build = earlier\n")
    before = _tree(tmp_path)
    written, step = [], solver.step

    def failing(*args, **kwargs):
        written.append(len(list(out.rglob("snapshot_*.csv"))))
        if len(written) == 5:
            raise SolverError("banded solve failed: singular matrix")
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "step", failing)
    rc = main(["run", "--config", config, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert re.fullmatch(r"solver failure: banded solve failed: singular "
                        r"matrix at step 5, t = \S+\n", err)
    assert written[-1] == 5 + existing
    assert _tree(tmp_path) == before
    assert out.exists() == existing


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

_DAM_OVER_BUMP = DAM.replace(
    "profile = flat\nlevel = -1.0",
    "profile = gaussian_bump\nlevel = -1.0\ncenter = {center}\n"
    "width = 0.7\namplitude = 0.45")


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
    (DAM.replace("eta_left = 0.2", "eta_left = -1.0").replace(
        "eta_right = 0.0", "eta_right = -1.0"),
     "initial.eta_left: no cell is wet at t = 0 (every depth is below 1e-08)"),
    (_DAM_OVER_BUMP.format(center=3.0).replace("eta_left = 0.2",
                                               "eta_left = -0.6"),
     "initial.eta_left: level -0.6 leaves negative depth -0.0489922 over "
     "the bed"),
    (_DAM_OVER_BUMP.format(center=7.0).replace("eta_right = 0.0",
                                               "eta_right = -0.6"),
     "initial.eta_right: level -0.6 leaves negative depth -0.0489922 over "
     "the bed"),
], ids=["duplicate-section", "negative-depth", "dry-monochromatic",
        "bump-width", "pulse-sigma", "fixed-dt", "dry-dam-break",
        "dam-break-left-over-bed", "dam-break-right-over-bed"])
def test_run_rejected_config_exits_2(tmp_path, capsys, text, message):
    """A config that parses but breaks a model constraint stops before the
    run with exit 2 and one line naming where it breaks."""
    rc = main(["run", "--config", _write(tmp_path, text)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


_DRY_DAM = """\
[grid]
x_min = 0.0
x_max = 10.0
n_cells = 200
boundary = Wall

[physics]
nu = 0.001

[bathymetry]
profile = flat
level = -0.5

[initial]
kind = dam_break
eta_left = 0.5
eta_right = -0.5
x0 = 5.0

[stepping]
tier = {tier}
t_end = 1.0
cfl = 0.45
"""


@broken("ROADMAP item 1: the stage clamps H < 0 to zero and advances u by "
        "acceleration, so a dam break onto a dry bed creates mass")
@pytest.mark.parametrize("tier", ["Hydrostatic", "NonHydro1", "NonHydro2",
                                  "PeregrineInviscid"])
def test_dry_dam_break_keeps_mass(tmp_path, capsys, tier):
    """A dam break onto a dry bed between walls keeps its mass to 1e-12."""
    out_dir = tmp_path / "out"
    config = _write(tmp_path, _DRY_DAM.format(tier=tier))
    rc = main(["run", "--config", config, "--out", str(out_dir)])
    assert rc == 0
    manifest = (out_dir / "manifest.txt").read_text()
    drift = re.search(r"^mass_drift = (\S+)$", manifest, re.M).group(1)
    assert abs(float(drift)) <= 1e-12


_FUZZ_SEED_192 = """\
[grid]
x_min = 0.0
x_max = 10.0
n_cells = 48
boundary = Copy

[physics]
nu = 0.001
k_t = 0.05

[bathymetry]
profile = gaussian_bump
level = -1.0
center = 2.672
width = 1.384
amplitude = -0.272

[initial]
kind = dam_break
eta_left = -0.237
eta_right = -0.772
x0 = 5.454

[stepping]
tier = NonHydro2
t_end = 1.0
cfl = 0.45
"""


@broken("ROADMAP item 13: stable_dt bounds only |u| + sqrt(g H), not the "
        "speed of NonHydro2's modified-height flux")
def test_nonhydro2_fully_wet_dam_break_finishes(tmp_path, capsys):
    """The fully wet NonHydro2 dam break over a trough that the config fuzz
    found (seed 192) runs to t_end at cfl 0.45."""
    rc = main(["run", "--config", _write(tmp_path, _FUZZ_SEED_192)])
    assert rc == 0


_SCIPY_PROBE = """\
import contextlib, io, json, sys
from pathlib import Path
import swdisp.cli
from swdisp.io import load_config
hydro, nh1, out = sys.argv[1:]
seen = {"import": "scipy.linalg" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    seen["run_rc"] = swdisp.cli.main(["run", "--config", hydro,
                                      "--out", out + "/plain"])
    seen["run"] = "scipy.linalg" in sys.modules
    sys.modules["scipy.linalg"] = None  # any import of it now fails
    seen["blocked_rc"] = swdisp.cli.main(["run", "--config", hydro,
                                          "--out", out + "/blocked"])
    del sys.modules["scipy.linalg"]
load_config(nh1)
from swdisp import models
seen["loaded_cached"] = models._load_dgtsv.cache_info().currsize
with contextlib.redirect_stdout(io.StringIO()):
    seen["nh1_rc"] = swdisp.cli.main(["run", "--config", nh1])
seen["nh1_cached"] = models._load_dgtsv.cache_info().currsize
seen["nh1_modules"] = [m in sys.modules for m in ("scipy.linalg", "numpy.f2py")]
seen["nh1_scipy"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
seen["numpy_dgtsv"] = models._load_dgtsv().func is models._dgtsv_ilp64
seen["files"] = [sorted(p.name for p in Path(out, d).iterdir())
                 for d in ("plain", "blocked")]
print(json.dumps(seen))
"""


def test_hydrostatic_run_never_loads_scipy_linalg(tmp_path):
    """A Hydrostatic ``run --out`` neither imports scipy's LAPACK nor needs
    it, and loading a dispersive config loads no LAPACK.  Its run loads
    ``dgtsv`` at the first solve without importing scipy.linalg or
    numpy.f2py, and, wherever numpy's own LAPACK exports the routine,
    without importing any scipy module.  The probe runs in a fresh
    interpreter, as this one holds scipy already."""
    nh1 = LAKE.replace("tier = Hydrostatic", "tier = NonHydro1")
    args = [_write(tmp_path, LAKE), _write(tmp_path, nh1, "nh1.cfg"),
            str(tmp_path)]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *args],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["import"] is False
    assert (seen["run_rc"], seen["run"]) == (0, False)
    assert seen["blocked_rc"] == 0
    assert seen["loaded_cached"] == 0
    assert (seen["nh1_rc"], seen["nh1_cached"]) == (0, 1)
    assert seen["nh1_modules"] == [False, False]
    if seen["numpy_dgtsv"]:
        assert seen["nh1_scipy"] == []
    plain, blocked = seen["files"]
    assert plain == blocked and "manifest.txt" in plain


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


@pytest.mark.parametrize("tier", ["Hydrostatic", "PeregrineInviscid"])
def test_steady_check_refuses_a_tier_without_a_check(tmp_path, capsys, tier):
    with pytest.raises(SystemExit) as stop:
        main(["steady-check", "--config", _write(tmp_path, SMOOTH),
              "--tier", tier])
    assert stop.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_steady_check_bad_config_exits_2(tmp_path, capsys):
    rc = main(["steady-check", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
