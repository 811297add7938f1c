"""Per-tier cost of one step and one energy report inside ``run_simulation``.

Runs the benchmark geometry (domain [0, 20], Gaussian bed bump of amplitude
0.3 on level -1, a surface hump of amplitude 0.05 released from rest,
periodic boundaries, nu = 1e-3, k_l = 1e-2) for each tier at n = 256, 1024
and 8192, and at n = 8192 on a bed moving as ``b(t) = 0.01 sin(2 t)``
("8192 sinusoidal"), with energy reports on.  A report costs the time spent
inside the energy functions the run calls, which the script times by
wrapping them: ``energy_reports``, which takes a block of states, or, in a
checkout without it, ``energy_hydro`` and ``energy_extended``.  A step costs
the rest of the run's wall time; both are given per step.  A block is
``REPEATS`` runs of one tier and row in a fresh child process, and each
figure is the lowest of ``BLOCKS`` block medians, because the CPU speed of
a shared host drifts.

A tier's set-up is what a run pays before its first step: the wall time,
in a fresh interpreter, to import ``swdisp.cli`` and ``load_config`` the
tier's benchmark-geometry config (n = 256, written by ``write_config``),
and that interpreter's peak RSS, each the median of ``REPEATS`` launches.

    PYTHONPATH=src python tools/step_table.py --out BENCH_step_table.json

prints the table (µs, step / report) and writes it as JSON with the Python,
numpy and scipy versions and the commit of the swdisp source that ran; a
``PYTHONPATH`` naming another checkout's ``src`` measures that checkout.

    PYTHONPATH=src python tools/step_table.py --out BENCH_step_table.json \
        --parent <parent checkout>/src

also times the parent's ``src`` in the same invocation: each block of one
tree is followed by the same block of the other, the tree that goes first
alternates (see :func:`measure`; set-up launches alternate the same way,
see :func:`measure_setup`), and the parent's table is written next to
``--out`` with ``_parent`` before the suffix.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import swdisp.diagnostics
from swdisp.core import (BathymetryField, Boundary, FlowState, GaussianBump,
                         Grid, PhysicalParams, SinusoidMotion, StaticBed)
from swdisp.io import (GaussianHump, OutputSpec, ScenarioConfig, _build_tag,
                       write_config)
from swdisp.models import ModelTier
from swdisp.solver import StepControls, run_simulation

STEPS = {256: 200, 1024: 100, 8192: 25}  # steps per timed run
# table rows: (label, n, bed motion)
ROWS = [(str(n), n, StaticBed()) for n in STEPS] + [
    ("8192 sinusoidal", 8192, SinusoidMotion(amplitude=0.01,
                                             angular_frequency=2.0))]
TIERS = [tier.value for tier in ModelTier]
BLOCKS, REPEATS = 3, 5  # lowest of BLOCKS medians of REPEATS runs each

# a child process times one block with the swdisp of its PYTHONPATH and
# prints its medians and that source's commit as JSON
_CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
          "import step_table; "
          "print(json.dumps(step_table._block(*sys.argv[2:])))")
# a child process prints the seconds it takes to import swdisp.cli and load
# the config sys.argv[1], and its peak RSS in MB
_SETUP_CHILD = ("import resource, sys, time; start = time.perf_counter(); "
                "import swdisp.cli, swdisp.io; "
                "swdisp.io.load_config(sys.argv[1]); "
                "print(time.perf_counter() - start, resource.getrusage("
                "resource.RUSAGE_SELF).ru_maxrss / 1024)")


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


def _block(tier_name, label):
    """Medians of (step, report) seconds per step over ``REPEATS`` runs of
    one tier and row, and the commit of the swdisp source that ran."""
    _, n, motion = next(row for row in ROWS if row[0] == label)
    grid, bathy, state, params, controls = _scenario(n, motion)
    tier = ModelTier(tier_name)
    spent = [0.0]
    names = (("energy_reports",) if hasattr(swdisp.diagnostics,
                                            "energy_reports")
             else ("energy_hydro", "energy_extended"))
    for name in names:
        setattr(swdisp.diagnostics, name,
                _timed(getattr(swdisp.diagnostics, name), spent))
    steps, reports = [], []
    for _ in range(REPEATS):
        spent[0] = 0.0
        start = time.perf_counter()
        result = run_simulation(state, bathy, params, grid, tier, controls)
        wall = time.perf_counter() - start
        count = result.stats["steps"]
        steps.append((wall - spent[0]) / count)
        reports.append(spent[0] / count)
    return statistics.median(steps), statistics.median(reports), _build_tag()


def _run_block(src, tier, label):
    """:func:`_block` in a fresh child process whose ``PYTHONPATH`` is
    ``src`` (None: this process's environment)."""
    env = dict(os.environ)
    if src is not None:
        env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent),
         tier, label], env=env, stdout=subprocess.PIPE, text=True,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def measure(trees):
    """``[(table, commit)]`` per tree in ``trees`` (each a ``src`` path or
    None), with ``table = {tier: {label: (step_us, report_us)}}`` the
    lowest of ``BLOCKS`` medians.  The trees' blocks of one tier and row
    run back to back, and the tree that goes first alternates from one
    pair to the next and, for each tier and row, from one block to the
    next."""
    cells = [(tier, label) for tier in TIERS for label, _, _ in ROWS]
    medians = [{cell: [] for cell in cells} for _ in trees]
    commits = [None] * len(trees)
    for block in range(BLOCKS):
        for i, cell in enumerate(cells):
            order = range(len(trees))
            for k in (order if (block + i) % 2 == 0 else reversed(order)):
                *times, commits[k] = _run_block(trees[k], *cell)
                medians[k][cell].append(times)
    return [({tier: {label: tuple(round(min(column) * 1e6)
                                  for column in zip(*m[tier, label]))
                     for label, _, _ in ROWS} for tier in TIERS}, commit)
            for m, commit in zip(medians, commits)]


def _setup_launch(src, config):
    """``(seconds, peak RSS MB)`` of one :data:`_SETUP_CHILD` launch."""
    env = dict(os.environ)
    if src is not None:
        env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(config)],
                          env=env, stdout=subprocess.PIPE, text=True,
                          check=True)
    return tuple(float(v) for v in proc.stdout.split())


def measure_setup(trees):
    """``{tier: (setup_s, peak_rss_mb)}`` per tree in ``trees``, medians of
    ``REPEATS`` launches.  After one untimed launch per tree (bytecode,
    page cache), the trees' launches of one tier run back to back, and the
    tree that goes first alternates from one launch pair to the next."""
    grid, bathy, _, params, controls = _scenario(256, StaticBed())
    launches = [{tier: [] for tier in TIERS} for _ in trees]
    with tempfile.TemporaryDirectory() as tmp:
        configs = {}
        for tier in TIERS:
            configs[tier] = Path(tmp, f"{tier}.cfg")
            write_config(ScenarioConfig(
                grid, ModelTier(tier), params, bathy,
                GaussianHump(amplitude=0.05, center=6.5, width=0.8),
                controls, OutputSpec()), configs[tier])
        for src in trees:
            _setup_launch(src, configs[TIERS[-1]])
        for repeat in range(REPEATS):
            for i, tier in enumerate(TIERS):
                order = range(len(trees))
                for k in (order if (repeat + i) % 2 == 0
                          else reversed(order)):
                    launches[k][tier].append(
                        _setup_launch(trees[k], configs[tier]))
    return [{tier: tuple(statistics.median(column)
                         for column in zip(*runs[tier]))
             for tier in TIERS} for runs in launches]


def _print_table(table):
    width = max(len(label) for label, _, _ in ROWS)
    print(f"| {'n':<{width}} | " + " | ".join(TIERS) + " |")
    print(f"|{'-' * (width + 2)}|"
          + "|".join("-" * (len(t) + 2) for t in TIERS) + "|")
    for label, _, _ in ROWS:
        cells = [f"{table[t][label][0]} / {table[t][label][1]}".ljust(len(t))
                 for t in TIERS]
        print(f"| {label:<{width}} | " + " | ".join(cells) + " |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--parent", help="src directory of a second "
                        "checkout to time in the same invocation")
    args = parser.parse_args(argv)

    trees = [None] if args.parent is None else [None, args.parent]
    outs = [args.out]
    if args.out and args.parent:
        out = Path(args.out)
        outs.append(out.with_name(f"{out.stem}_parent{out.suffix}"))
    for (table, commit), setup, out, name in zip(
            measure(trees), measure_setup(trees), outs,
            ("this tree", "parent")):
        print(f"{name} ({commit}):")
        _print_table(table)
        for tier, (seconds, rss) in setup.items():
            print(f"set-up {tier}: {seconds:.3f} s, peak RSS {rss:.1f} MB")
        if out:
            record = {
                "unit": "us per step / us per report",
                "table": {t: {label: list(v) for label, v in row.items()}
                          for t, row in table.items()},
                "setup": {t: {"s": round(seconds, 4),
                              "peak_rss_mb": round(rss, 1)}
                          for t, (seconds, rss) in setup.items()},
                "blocks": BLOCKS, "repeats": REPEATS,
                "commit": commit, "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__,
                "machine": platform.machine(),
            }
            Path(out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
