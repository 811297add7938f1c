"""Per-tier cost of one step, one energy report and one snapshot write.

Runs the benchmark geometry (domain [0, 20], Gaussian bed bump of amplitude
0.3 on level -1, a surface hump of amplitude 0.05 released from rest,
periodic boundaries, nu = 1e-3, k_l = 1e-2) for each tier at n = 256, 1024
and 8192, and at n = 8192 on a bed moving as ``b(t) = 0.01 sin(2 t)``
("8192 sinusoidal"), with energy reports on.  A report costs the time spent
inside ``diagnostics.energy_report`` (``energy_reports`` in trees that
report a block of states), which the script times by wrapping the name
that ``run_simulation`` calls it by in ``swdisp.solver``; a step
costs the rest of the run's wall time.  Both are given per step, as the
median over ``PAIRS`` runs of each tier and row, after one untimed run that
loads what a run loads lazily.  A write costs one ``io.write_snapshot`` of
the run's final state with every derived field (``SNAPSHOT_FIELDS``) into a
temporary directory, timed after each run with the same tree's modules, and
is given per call.

A tier's set-up is what a run pays before its first step: the wall time,
in a fresh interpreter, to import ``swdisp.cli`` and ``load_config`` the
tier's benchmark-geometry config (n = 256, written by ``write_config``),
and that interpreter's peak RSS, each the median of ``REPEATS`` launches.
Linux carries a process's peak RSS over ``exec`` into the program it
starts, so a launch straight from this process, which holds numpy and
scipy, would report this process's peak (34 MB) instead of its own; each
launch therefore starts from a launcher that imports only ``os`` and
``sys`` and reads the child's peak from ``os.wait4``.

    PYTHONPATH=src python tools/step_table.py --out BENCH_step_table.json

prints the table (µs, step / report / write) and writes it as JSON, with
the quartiles of step + report, the Python, numpy and scipy versions and the
commit of the swdisp source that ran; a ``PYTHONPATH`` naming another
checkout's ``src`` measures that checkout.

    PYTHONPATH=src python tools/step_table.py --out BENCH_step_table.json \\
        --parent <parent checkout>/src

also times the parent's ``src`` in the same process, because the CPU speed
of a shared host drifts by up to 2x within minutes, more than separate
processes seconds apart can tell from a change.  Each tree's ``swdisp`` is
imported once (:func:`load_tree`) and put into ``sys.modules`` for each of
its runs (:func:`installed`), so a run builds its scenario from the classes
of the code that runs it.  A pair is one run of each tree with the same
tier and row, back to back, and the tree that goes first alternates; each
table records in how many pairs its step + report was the faster one
("wins", ties counting for neither): where a tree computes a state's
fields, in its step or in its report, moves time between the two
columns.  Set-up launches alternate the same way (see
:func:`measure_setup`).  The parent's table is written next to ``--out``
with ``_parent`` before the suffix.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
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

STEPS = {256: 200, 1024: 100, 8192: 25}  # steps per timed run
# table rows: (label, n, whether the bed moves)
ROWS = [(str(n), n, False) for n in STEPS] + [("8192 sinusoidal", 8192, True)]
TIERS = ["Hydrostatic", "NonHydro1", "NonHydro2", "PeregrineInviscid"]
PAIRS = 40  # timed runs of each tree per tier and row
REPEATS = 5  # set-up launches of each tree per tier
MODULES = ("swdisp.cli", "swdisp.core", "swdisp.diagnostics", "swdisp.io",
           "swdisp.models", "swdisp.solver")

# a child process prints the seconds it takes to import swdisp.cli and load
# the config sys.argv[1]; its launcher, given the child's code and config,
# then prints the child's peak RSS in MB
_SETUP_CHILD = ("import sys, time; start = time.perf_counter(); "
                "import swdisp.cli, swdisp.io; "
                "swdisp.io.load_config(sys.argv[1]); "
                "print(time.perf_counter() - start)")
_SETUP_LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", *sys.argv[1:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
if os.waitstatus_to_exitcode(status):
    sys.exit(f"set-up child exited with {os.waitstatus_to_exitcode(status)}")
print(usage.ru_maxrss / 1024)
"""


def _swap(modules):
    """Take every ``swdisp`` module out of ``sys.modules``, put ``modules``
    in their place, and return the ones taken out."""
    taken = {name: sys.modules.pop(name) for name in list(sys.modules)
             if name.split(".")[0] == "swdisp"}
    sys.modules.update(modules)
    return taken


def load_tree(src):
    """``{name: module}`` of the ``swdisp`` package in the directory
    ``src`` (None: the one on ``sys.path``), imported afresh; ``sys.modules``
    and ``sys.path`` are left as they were."""
    saved = _swap({})
    if src is not None:
        sys.path.insert(0, str(src))
    try:
        for name in MODULES:
            importlib.import_module(name)
    finally:
        if src is not None:
            sys.path.remove(str(src))
        tree = _swap(saved)
    return tree


@contextlib.contextmanager
def installed(tree):
    """``tree`` in ``sys.modules`` for the block, so that the imports a run
    makes find its own modules; modules it imports there join ``tree``."""
    saved = _swap(tree)
    try:
        yield tree
    finally:
        tree.update(_swap(saved))


def _scenario(tree, n, moving):
    core, solver = tree["swdisp.core"], tree["swdisp.solver"]
    grid = core.Grid(0.0, 20.0, n, core.Boundary.PERIODIC)
    motion = (core.SinusoidMotion(amplitude=0.01, angular_frequency=2.0)
              if moving else core.StaticBed())
    bathy = core.BathymetryField(core.GaussianBump(
        center=10.0, width=1.5, amplitude=0.3, level=-1.0), motion)
    x = grid.cell_centers
    H = 0.05 * np.exp(-0.5 * ((x - 6.5) / 0.8) ** 2) - bathy.elevation(x, 0.0)
    state = core.FlowState(t=0.0, H=H, q=np.zeros(n))
    # about STEPS[n] steps at cfl 0.5 (wave speed sqrt(g * 1.05) at rest)
    controls = solver.StepControls(
        t_end=STEPS[n] * 0.5 * grid.dx / np.sqrt(9.81 * 1.05))
    return grid, bathy, state, core.PhysicalParams(nu=1e-3, k_l=1e-2), controls


def run(tree, tier_name, label):
    """``(step, report, final state)`` of one run of ``tree`` on a tier and
    row: seconds per step outside and inside the energy reports."""
    _, n, moving = next(row for row in ROWS if row[0] == label)
    with installed(tree):
        grid, bathy, state, params, controls = _scenario(tree, n, moving)
        tier = tree["swdisp.models"].ModelTier(tier_name)
        solver = tree["swdisp.solver"]  # run_simulation's own binding
        name = ("energy_report" if hasattr(solver, "energy_report")
                else "energy_reports")
        report, spent = getattr(solver, name), [0.0]

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return report(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - start

        setattr(solver, name, timed)
        try:
            start = time.perf_counter()
            result = solver.run_simulation(state, bathy, params, grid, tier,
                                           controls)
            wall = time.perf_counter() - start
        finally:
            setattr(solver, name, report)
    count = result.stats["steps"]
    return (wall - spent[0]) / count, spent[0] / count, result.states[-1]


def write(tree, tier_name, label, state, path):
    """Seconds of one ``io.write_snapshot`` of ``state``, with every derived
    field, by ``tree`` on a tier and row's scenario."""
    _, n, moving = next(row for row in ROWS if row[0] == label)
    with installed(tree):
        grid, bathy, _, params, _ = _scenario(tree, n, moving)
        io = tree["swdisp.io"]
        tier = tree["swdisp.models"].ModelTier(tier_name)
        start = time.perf_counter()
        io.write_snapshot(state, bathy, params, grid, tier, path,
                          fields=io.SNAPSHOT_FIELDS)
        return time.perf_counter() - start


def measure(trees):
    """``{(tier, label): [(step_s, report_s, write_s), ...]}`` per tree in
    ``trees``, ``PAIRS`` runs each, each run followed by the write of its
    final state.  Pairs run round-robin over the tiers and rows, so every
    cell's runs span the whole measurement; within a pair the tree that goes
    first alternates from one pair to the next and from one cell to the
    next."""
    cells = [(tier, label) for tier in TIERS for label, _, _ in ROWS]
    times = [{cell: [] for cell in cells} for _ in trees]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "snapshot.csv")

        def timed(k, cell):
            step_s, report_s, final = run(trees[k], *cell)
            return step_s, report_s, write(trees[k], *cell, final, path)

        for cell in cells:
            for k in range(len(trees)):
                timed(k, cell)
        for pair in range(PAIRS):
            for i, cell in enumerate(cells):
                order = range(len(trees))
                for k in (order if (pair + i) % 2 == 0 else reversed(order)):
                    times[k][cell].append(timed(k, cell))
    return times


def _setup_launch(src, config):
    """``(seconds, peak RSS MB)`` of one :data:`_SETUP_CHILD` launch."""
    env = dict(os.environ)
    if src is not None:
        env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-c", _SETUP_LAUNCHER,
                           _SETUP_CHILD, str(config)],
                          env=env, stdout=subprocess.PIPE, text=True,
                          check=True)
    return tuple(float(v) for v in proc.stdout.split())


def measure_setup(srcs, tree):
    """``{tier: (setup_s, peak_rss_mb)}`` per checkout in ``srcs``, medians
    of ``REPEATS`` launches, with configs written by ``tree``.  After one
    untimed launch per checkout (bytecode, page cache), the checkouts'
    launches of one tier run back to back, and the one that goes first
    alternates from one launch pair to the next."""
    io, models = tree["swdisp.io"], tree["swdisp.models"]
    grid, bathy, _, params, controls = _scenario(tree, 256, False)
    launches = [{tier: [] for tier in TIERS} for _ in srcs]
    with tempfile.TemporaryDirectory() as tmp:
        configs = {}
        for tier in TIERS:
            configs[tier] = Path(tmp, f"{tier}.cfg")
            io.write_config(io.ScenarioConfig(
                grid, models.ModelTier(tier), params, bathy,
                io.GaussianHump(amplitude=0.05, center=6.5, width=0.8),
                controls, io.OutputSpec()), configs[tier])
        for src in srcs:
            _setup_launch(src, configs[TIERS[-1]])
        for repeat in range(REPEATS):
            for i, tier in enumerate(TIERS):
                order = range(len(srcs))
                for k in (order if (repeat + i) % 2 == 0
                          else reversed(order)):
                    launches[k][tier].append(
                        _setup_launch(srcs[k], configs[tier]))
    return [{tier: tuple(statistics.median(column)
                         for column in zip(*runs[tier]))
             for tier in TIERS} for runs in launches]


def _us(seconds):
    return round(seconds * 1e6)


def _print_table(table, wins):
    width = max(len(label) for label, _, _ in ROWS)
    print(f"| {'n':<{width}} | " + " | ".join(TIERS) + " |")
    print(f"|{'-' * (width + 2)}|"
          + "|".join("-" * (len(t) + 2) for t in TIERS) + "|")
    for label, _, _ in ROWS:
        cells = []
        for t in TIERS:
            text = " / ".join(str(us) for us in table[t][label])
            if wins is not None:
                text += f" ({wins[t][label]})"
            cells.append(text.ljust(len(t)))
        print(f"| {label:<{width}} | " + " | ".join(cells) + " |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--parent", help="src directory of a second "
                        "checkout to time in the same process")
    args = parser.parse_args(argv)

    srcs = [None] if args.parent is None else [None, args.parent]
    trees = [load_tree(src) for src in srcs]
    outs = [args.out]
    if args.out and args.parent:
        out = Path(args.out)
        outs.append(out.with_name(f"{out.stem}_parent{out.suffix}"))
    setups = measure_setup(srcs, trees[0])
    times = measure(trees)
    for k, (tree, setup, out, name) in enumerate(zip(
            trees, setups, outs, ("this tree", "parent"))):
        commit = tree["swdisp.io"]._build_tag()
        table, quartiles, wins = {}, {}, None if len(trees) == 1 else {}
        for tier in TIERS:
            table[tier], quartiles[tier] = {}, {}
            if wins is not None:
                wins[tier] = {}
            for label, _, _ in ROWS:
                steps, reports, writes = zip(*times[k][tier, label])
                table[tier][label] = [_us(statistics.median(column))
                                      for column in (steps, reports, writes)]
                q1, _, q3 = statistics.quantiles(
                    [a + b for a, b in zip(steps, reports)], n=4)
                quartiles[tier][label] = [_us(q1), _us(q3)]
                if wins is not None:
                    other = times[1 - k][tier, label]
                    wins[tier][label] = sum(
                        mine[0] + mine[1] < theirs[0] + theirs[1]
                        for mine, theirs in zip(times[k][tier, label], other))
        print(f"{name} ({commit}):")
        _print_table(table, wins)
        for tier, (seconds, rss) in setup.items():
            print(f"set-up {tier}: {seconds:.3f} s, peak RSS {rss:.1f} MB")
        if out:
            record = {
                "unit": "us per step / us per report / us per snapshot "
                        "write",
                "table": table,
                "step_report_quartiles_us": quartiles,
                "setup": {t: {"s": round(seconds, 4),
                              "peak_rss_mb": round(rss, 1)}
                          for t, (seconds, rss) in setup.items()},
                "runs": PAIRS, "repeats": REPEATS,
                "commit": commit, "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__,
                "machine": platform.machine(),
            }
            if wins is not None:
                record["wins"] = wins
            Path(out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
