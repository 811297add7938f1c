"""The step table's in-process A/B: each tree's run uses its own modules."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import swdisp

STEP_TABLE = Path(__file__).resolve().parents[1] / "tools" / "step_table.py"


def _step_table_module():
    spec = importlib.util.spec_from_file_location("step_table", STEP_TABLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_swapped_trees_run_a_periodic_case_as_the_package_does():
    """One ``src`` loaded twice gives two module sets; a Periodic NonHydro1
    run of each, with its modules swapped in, ends bit-identical to the run
    of this process's own modules.  A scenario built from one tree's
    classes and run by the other's code would fail the ``is`` checks on
    ``Boundary`` and silently drop the periodic corners.  Each run spends
    time in its reports, so the table's report column times the name that
    ``run_simulation`` calls."""
    step_table = _step_table_module()
    for name in step_table.MODULES:
        importlib.import_module(name)
    own = {name: module for name, module in sys.modules.items()
           if name.split(".")[0] == "swdisp"}
    src = Path(swdisp.__file__).resolve().parents[1]
    trees = [step_table.load_tree(src) for _ in range(2)]
    assert trees[0]["swdisp.core"] is not trees[1]["swdisp.core"]
    assert all(sys.modules[name] is module for name, module in own.items())

    runs = [step_table.run(tree, "NonHydro1", "256")
            for tree in [own] + trees]
    assert all(sys.modules[name] is module for name, module in own.items())
    assert all(report > 0.0 for _, report, _ in runs)
    final = [state for _, _, state in runs]
    for state in final[1:]:
        assert state.t == final[0].t
        np.testing.assert_array_equal(state.H, final[0].H)
        np.testing.assert_array_equal(state.q, final[0].q)
