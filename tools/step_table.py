"""Per-tier cost of one step and one energy report inside ``run_simulation``.

Runs the benchmark geometry (domain [0, 20], Gaussian bed bump of amplitude
0.3 on level -1, a surface hump of amplitude 0.05 released from rest,
periodic boundaries, nu = 1e-3, k_l = 1e-2) for each tier at n = 256, 1024
and 8192, and at n = 8192 on a bed moving as ``b(t) = 0.01 sin(2 t)``
("8192 sinusoidal"), with energy reports on.  A report costs the time spent
inside the energy functions the run calls, which the script times by
wrapping them: ``energy_reports``, which takes a block of states, or, in a
checkout without it, ``energy_hydro`` and ``energy_extended``.  A step costs
the rest of the run's wall time; both are given per step.  Each figure is
the lowest of ``BLOCKS`` medians of ``REPEATS`` runs, because the CPU speed
of a shared host drifts.

    PYTHONPATH=src python tools/step_table.py --out BENCH_step_table.json

prints the table (µs, step / report) and writes it as JSON with the Python,
numpy and scipy versions and the commit of the swdisp source that ran; a
``PYTHONPATH`` naming another checkout's ``src`` measures that checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import swdisp.diagnostics
from swdisp.core import (BathymetryField, Boundary, FlowState, GaussianBump,
                         Grid, PhysicalParams, SinusoidMotion, StaticBed)
from swdisp.io import _build_tag
from swdisp.models import ModelTier
from swdisp.solver import StepControls, run_simulation

STEPS = {256: 200, 1024: 100, 8192: 25}  # steps per timed run
# table rows: (label, n, bed motion)
ROWS = [(str(n), n, StaticBed()) for n in STEPS] + [
    ("8192 sinusoidal", 8192, SinusoidMotion(amplitude=0.01,
                                             angular_frequency=2.0))]
BLOCKS, REPEATS = 3, 5  # lowest of BLOCKS medians of REPEATS runs each


def _scenario(n, motion):
    grid = Grid(0.0, 20.0, n, Boundary.PERIODIC)
    bathy = BathymetryField(GaussianBump(center=10.0, width=1.5,
                                         amplitude=0.3, level=-1.0), motion)
    x = grid.cell_centers
    H = 0.05 * np.exp(-0.5 * ((x - 6.5) / 0.8) ** 2) - bathy.elevation(x, 0.0)
    state = FlowState(t=0.0, H=H, q=np.zeros(n))
    # about STEPS[n] steps at cfl 0.5 (wave speed sqrt(g * 1.05) at rest)
    controls = StepControls(
        t_end=STEPS[n] * 0.5 * grid.dx / np.sqrt(9.81 * 1.05))
    return grid, bathy, state, PhysicalParams(nu=1e-3, k_l=1e-2), controls


def _timed(fn, spent):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - start
    return wrapper


def _per_step(tier, n, motion):
    """Medians of (step, report) seconds per step over ``REPEATS`` runs."""
    grid, bathy, state, params, controls = _scenario(n, motion)
    spent = [0.0]
    names = (("energy_reports",) if hasattr(swdisp.diagnostics,
                                            "energy_reports")
             else ("energy_hydro", "energy_extended"))
    saved = [getattr(swdisp.diagnostics, name) for name in names]
    steps, reports = [], []
    try:
        for name, fn in zip(names, saved):
            setattr(swdisp.diagnostics, name, _timed(fn, spent))
        for _ in range(REPEATS):
            spent[0] = 0.0
            start = time.perf_counter()
            result = run_simulation(state, bathy, params, grid, tier, controls)
            wall = time.perf_counter() - start
            count = result.stats["steps"]
            steps.append((wall - spent[0]) / count)
            reports.append(spent[0] / count)
    finally:
        for name, fn in zip(names, saved):
            setattr(swdisp.diagnostics, name, fn)
    return statistics.median(steps), statistics.median(reports)


def measure():
    """``{tier: {label: (step_us, report_us)}}``, lowest of ``BLOCKS``
    medians."""
    table = {}
    for tier in ModelTier:
        for label, n, motion in ROWS:
            medians = [_per_step(tier, n, motion) for _ in range(BLOCKS)]
            table.setdefault(tier.value, {})[label] = tuple(
                round(min(column) * 1e6) for column in zip(*medians))
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    args = parser.parse_args(argv)

    table = measure()
    tiers = list(table)
    width = max(len(label) for label, _, _ in ROWS)
    print(f"| {'n':<{width}} | " + " | ".join(tiers) + " |")
    print(f"|{'-' * (width + 2)}|"
          + "|".join("-" * (len(t) + 2) for t in tiers) + "|")
    for label, _, _ in ROWS:
        cells = [f"{table[t][label][0]} / {table[t][label][1]}".ljust(len(t))
                 for t in tiers]
        print(f"| {label:<{width}} | " + " | ".join(cells) + " |")
    if args.out:
        record = {
            "unit": "us per step / us per report",
            "table": {t: {label: list(v) for label, v in row.items()}
                      for t, row in table.items()},
            "blocks": BLOCKS, "repeats": REPEATS,
            "commit": _build_tag(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
