"""The parity tool's comparison of sweep files, on small hand-made files."""

import importlib.util
from pathlib import Path

import numpy as np

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def _parity_module():
    spec = importlib.util.spec_from_file_location("parity", PARITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = _parity_module()
SCENARIO = "Hydrostatic-Wall-bump-o2-static-laminar"


def _sweep(path, cli_files):
    arrays = {f"{SCENARIO}/H": np.ones(4), f"{SCENARIO}/q": np.zeros(4),
              f"{SCENARIO}/counts": np.array([10, 0]),
              f"{SCENARIO}/error": np.array(""),
              f"{SCENARIO}/mass": np.full(3, 2.0)}
    arrays.update({parity.CLI_PREFIX + key: np.frombuffer(data, np.uint8)
                   for key, data in cli_files.items()})
    np.savez_compressed(path, **arrays)
    return str(path)


def test_compare_reports_each_cli_run_before_the_last_line(tmp_path, capsys):
    a = _sweep(tmp_path / "a.npz", {
        "hydro/snap.csv": b"1,2\n", "hydro/empty.csv": b"",
        "nh2-friction/snap.csv": b"1,2\n", "nh2-friction/t.csv": b"0\n",
        "nh1-periodic/old.csv": b"x\n", "nh1-periodic/same.csv": b"y\n"})
    b = _sweep(tmp_path / "b.npz", {
        "hydro/snap.csv": b"1,2\n", "hydro/empty.csv": b"",
        "nh2-friction/snap.csv": b"1,3\n", "nh2-friction/t.csv": b"0\n",
        "nh1-periodic/new.csv": b"x\n", "nh1-periodic/same.csv": b"y\n",
        "peregrine-copy/snap.csv": b"1\n"})
    assert parity.compare(a, b, 0.0) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:5] == [
        "swdisp run --out (hydro): identical",
        "swdisp run --out (nh2-friction): snap.csv",
        "swdisp run --out (nh1-periodic): missing:old.csv extra:new.csv",
        "swdisp run --out (peregrine-copy): absent from A"]
    assert lines[-1].startswith("1 scenarios, 0 above tol 0,")


def test_census_counts_scenarios_only(tmp_path, capsys):
    path = _sweep(tmp_path / "a.npz", {"hydro/snap.csv": b"1,2\n"})
    assert parity.census(path) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split() == ["Hydrostatic", "0", "0", "0", "0", "1"]
    assert rows[-1].split() == ["total", "0", "0", "0", "0", "1"]


def test_cli_configs_are_the_benchmark_config_with_their_changes():
    hydro = parity.cli_config("hydro")
    assert "tier = Hydrostatic" in hydro and "boundary = Wall" in hydro
    assert "n_cells = 256" in hydro
    nh1 = parity.cli_config("nh1-periodic")
    assert nh1.replace("NonHydro1", "Hydrostatic").replace(
        "Periodic", "Wall").replace("k_l = 0.01", "k_l = 0") == hydro
