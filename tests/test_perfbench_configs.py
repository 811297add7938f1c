"""The benchmark writes its scenario configs itself; a config-format change
must fail here rather than only as failed launches in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from swdisp.io import load_config, write_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


workloads = _workloads_module()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_loads_and_round_trips(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    path = tmp_path / "scenario.cfg"
    path.write_text(workloads.config_text(wl, workloads.inputs_from_seed(0),
                                          wl.n_cells))
    cfg = load_config(path)
    assert cfg.tier.value == wl.tier
    assert cfg.grid.boundary.value == wl.boundary
    assert cfg.grid.n_cells == wl.n_cells
    rewritten = tmp_path / "rewritten.cfg"
    write_config(cfg, rewritten)
    assert load_config(rewritten) == cfg
