"""Parity sweep of ``run_simulation`` over a fixed scenario grid.

Runs every scenario of the grid below on the ``swdisp`` found on
``PYTHONPATH`` and writes, per scenario, the final ``H`` and ``q``, the step
and positivity-clamp counts, every energy-report column and the text of any
error to an ``.npz`` file.  Comparing two such files tells whether two
versions of the code compute the same trajectories:

    PYTHONPATH=<checkout A>/src python tools/parity.py --out a.npz
    PYTHONPATH=<checkout B>/src python tools/parity.py --out b.npz
    python tools/parity.py --compare a.npz b.npz [--tol 0]

``--out`` also runs ``swdisp run --out`` on the four configs of
:data:`CLI_RUNS` and stores every file each run writes, with its build tag
deleted.

``--compare`` prints, for each scenario, the largest relative difference
(``max|a - b| / max(|a|, |b|)`` over each array, infinite when the shapes,
the NaN positions or the error texts differ) of its state (``H``, ``q``,
the counts and the error text) and, apart, of its report columns, and the
largest of each over all scenarios on the last line.  Report columns such
as ``budget_residual`` are differences of nearly equal numbers, so they
move far more than the state they report on.  It exits 1 when either
difference of any scenario exceeds ``--tol`` (default 0: bit-identical
values).  Before its last line it reports each ``swdisp run --out`` run as
identical, or names the files that differ, are missing or are extra in B;
these bytes do not decide the exit code.

The grid is 4 tiers x 3 boundaries x 3 beds (Gaussian bump of amplitude
0.3, emerging island of amplitude 1.05 at the centre, island of amplitude
1.2 at the left edge, all on level -1 over [0, 10]) x second / first order
x static / sinusoidal bed x two forcings (no atmospheric pressure and
laminar friction ``k_t = 0``; a pressure slope and ``k_t = 0.05``), with
n = 64, nu = 1e-3, k_l = 1e-2 and a surface hump of 0.05 at x = 3.  A run
ends at t = 3.5, after 90 to 230 steps, each step's state with its energy
report.  A run whose time step collapses is cut after ``MAX_STEPS`` steps:
its last state is repeated once at t = 3.5.

    python tools/parity.py --census a.npz

prints, per tier and in total, how many scenarios of a sweep end in each
class, the first that applies in this order: ``error`` (the run raised),
``cut`` (it reached ``MAX_STEPS``), ``absurd`` (the final max H exceeds
``ABSURD_H`` or max |q| exceeds ``ABSURD_Q``, or either is not finite),
``drift`` (on a Wall or Periodic domain, the reported mass moves from its
first value by more than ``MASS_DRIFT`` relative) and ``sane``; the
``swdisp run --out`` runs are not counted.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

N_CELLS = 64
T_END = 3.5
MAX_STEPS = 1500
STATE_FIELDS = ("H", "q", "counts", "error")
REPORT_FIELDS = ("t", "mass", "momentum", "E_h", "E_ext", "modeled_rate",
                 "dissipation_rate", "budget_residual")
BEDS = {"bump": (5.0, 1.0, 0.3), "island": (5.0, 1.0, 1.05),
        "edge": (0.0, 0.8, 1.2)}  # centre, width, amplitude
# census thresholds and classes, in order of precedence
ABSURD_H, ABSURD_Q, MASS_DRIFT = 2.5, 50.0, 1e-12
CLOSED = ("Wall", "Periodic")
CLASSES = ("error", "cut", "absurd", "drift", "sane")
# swdisp run --out runs: the perfbench cli-hydro-out config at n = 256
# (Hydrostatic, Wall), and to t = 0.5 the same config with wall-law friction
# run as NonHydro2, as NonHydro1 on a Periodic domain with k_l = 0.01
# (periodic corners and the bed operator), and as PeregrineInviscid on a
# Copy domain (copy folds and the inviscid core): (name, changes to the
# workload, further arguments of swdisp run)
CLI_RUNS = (
    ("hydro", {}, ()),
    ("nh2-friction", {"k_l": 0.01, "k_t": 0.05},
     ("--t-end", "0.5", "--tier", "NonHydro2")),
    ("nh1-periodic", {"tier": "NonHydro1", "boundary": "Periodic",
                      "k_l": 0.01}, ("--t-end", "0.5")),
    ("peregrine-copy", {"tier": "PeregrineInviscid", "boundary": "Copy"},
     ("--t-end", "0.5")),
)
CLI_CELLS = 256
CLI_PREFIX = "swdisp-run:"  # of the keys that hold the files of a CLI run
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def scenarios():
    """``(name, args)`` of every scenario; ``_run(*args)`` runs it."""
    from swdisp.core import Boundary
    from swdisp.models import ModelTier

    for args in itertools.product(ModelTier, Boundary, BEDS, (2, 1),
                                  ("static", "moving"),
                                  ("laminar", "pressure")):
        tier, boundary, bed, order, motion, forcing = args
        yield (f"{tier.value}-{boundary.value}-{bed}-o{order}-{motion}"
               f"-{forcing}"), args


def _run(tier, boundary, bed, order, motion, forcing):
    import swdisp.solver as solver
    from swdisp.core import (BathymetryField, Boundary, FlowState,
                             GaussianBump, Grid, GradientPressure,
                             PhysicalParams, SinusoidMotion, StaticBed)

    grid = Grid(0.0, 10.0, N_CELLS, boundary)
    x = grid.cell_centers
    center, width, amplitude = BEDS[bed]
    bathy = BathymetryField(
        GaussianBump(center=center, width=width, amplitude=amplitude,
                     level=-1.0),
        StaticBed() if motion == "static" else SinusoidMotion(
            amplitude=0.01, angular_frequency=2.0, phase=0.4))
    if forcing == "laminar":
        params = PhysicalParams(nu=1e-3, k_l=1e-2)
    else:
        params = PhysicalParams(nu=1e-3, k_l=1e-2, k_t=0.05,
                                p_atm=GradientPressure(0.01))
    eta = 0.05 * np.exp(-0.5 * (x - 3.0) ** 2)
    H = np.maximum(eta - bathy.elevation(x, 0.0), 0.0)
    u = 0.0 if boundary is Boundary.WALL else 0.05 * np.sin(0.2 * np.pi * x)
    state = FlowState(t=0.0, H=H, q=H * u)
    controls = solver.StepControls(t_end=T_END, cfl=0.45,
                                   first_order=order == 1)

    # count steps through the module attribute run_simulation calls; past
    # the cap, a step returns its state unchanged at t_end, ending the run
    inner, taken = solver.step, [0]

    def counted(s, *args, **kwargs):
        taken[0] += 1
        if taken[0] > MAX_STEPS:
            return FlowState(t=T_END, H=s.H, q=s.q)
        return inner(s, *args, **kwargs)

    solver.step = counted
    try:
        result = solver.run_simulation(state, bathy, params, grid, tier,
                                       controls)
    finally:
        solver.step = inner
    final = result.states[-1]
    out = {"H": final.H, "q": final.q,
           "counts": np.array([result.stats["steps"],
                               result.stats["positivity_clamps"]])}
    for key in REPORT_FIELDS:
        out[key] = np.array([getattr(r, key) for r in result.reports])
    return out


def cli_config(name):
    """Config text of the :data:`CLI_RUNS` run ``name``, written by
    ``perfbench/workloads.py`` at its default seed."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import WORKLOADS, config_text, inputs_from_seed
    finally:
        sys.path.remove(str(PERFBENCH))
    changes = next(c for run, c, _ in CLI_RUNS if run == name)
    workload = dataclasses.replace(WORKLOADS["cli-hydro-out"], **changes)
    return config_text(workload, inputs_from_seed(0), CLI_CELLS)


def cli_files():
    """``{key: bytes}`` of every file the :data:`CLI_RUNS` write, each
    ``swdisp run --out`` run by the ``swdisp`` this process imports, with
    the build tags deleted; a run that fails leaves its exit code and
    standard error in an ``error`` entry instead."""
    import swdisp

    src = str(Path(swdisp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, _, args in CLI_RUNS:
            config, out = Path(tmp, f"{name}.cfg"), Path(tmp, name)
            config.write_text(cli_config(name))
            proc = subprocess.run(
                [sys.executable, "-m", "swdisp.cli", "run", "--config",
                 str(config), *args, "--out", str(out)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            key = f"{CLI_PREFIX}{name}/"
            if proc.returncode:
                files[key + "error"] = (f"exit {proc.returncode}: ".encode()
                                        + proc.stderr)
            else:
                for path in sorted(out.iterdir()):
                    files[key + path.name] = re.sub(
                        rb"build ?= ?[^ \n]*", b"", path.read_bytes())
            print(f"swdisp run --out ({name}): "
                  f"{'failed' if proc.returncode else 'ok'}", flush=True)
    return files


def sweep(path):
    arrays = {}
    for name, args in scenarios():
        try:
            out = _run(*args)
            out["error"] = np.array("")
        except Exception as exc:  # the text is compared, not the arrays
            out = {"error": np.array(f"{type(exc).__name__}: {exc}")}
        print(f"{name}: {out['error'] or 'ok'}", flush=True)
        arrays.update({f"{name}/{key}": v for key, v in out.items()})
    arrays.update({key: np.frombuffer(data, dtype=np.uint8)
                   for key, data in cli_files().items()})
    np.savez_compressed(path, **arrays)


def _names(sweep_file):
    """The scenario names of a loaded sweep file, sorted."""
    return sorted({key.split("/")[0] for key in sweep_file.files
                   if not key.startswith(CLI_PREFIX)})


def _compare_cli_runs(a, b):
    """Print one line per :data:`CLI_RUNS` run: identical, or the files of
    B that differ from A's, are missing or are extra."""
    for name, _, _ in CLI_RUNS:
        prefix = f"{CLI_PREFIX}{name}/"
        files_a = {k[len(prefix):] for k in a.files if k.startswith(prefix)}
        files_b = {k[len(prefix):] for k in b.files if k.startswith(prefix)}
        if not (files_a and files_b):
            verdict = "absent from " + ("A and B" if files_a == files_b
                                        else "B" if files_a else "A")
        else:
            verdict = " ".join(
                [f for f in sorted(files_a & files_b)
                 if not np.array_equal(a[prefix + f], b[prefix + f])]
                + [f"missing:{f}" for f in sorted(files_a - files_b)]
                + [f"extra:{f}" for f in sorted(files_b - files_a)]
            ) or "identical"
        print(f"swdisp run --out ({name}): {verdict}")


def _difference(a, b):
    """Largest relative difference of two arrays (see the module doc)."""
    if a.dtype.kind == "U" or b.dtype.kind == "U":
        return 0.0 if str(a) == str(b) else np.inf
    nan = np.isnan(a)
    if a.shape != b.shape or (nan != np.isnan(b)).any():
        return np.inf
    a, b = a[~nan], b[~nan]
    if not a.size:
        return 0.0
    scale = max(np.abs(a).max(), np.abs(b).max())
    return float(np.abs(a - b).max() / scale) if scale > 0.0 else 0.0


def _largest(differences):
    """``"state d (field), report d (field)"`` of ``{kind: (d, field)}``."""
    return ", ".join(f"{kind} {d:.3e}" + (f" ({where})" if where else "")
                     for kind, (d, where) in differences.items())


def compare(path_a, path_b, tol):
    a, b = np.load(path_a), np.load(path_b)
    names = sorted(set(_names(a)) | set(_names(b)))
    worst = {"state": (0.0, ""), "report": (0.0, "")}
    failed = []
    for name in names:
        keys = sorted({k for k in a.files + b.files
                       if k.split("/")[0] == name})
        largest = {"state": (0.0, ""), "report": (0.0, "")}
        for key in keys:
            d = (_difference(a[key], b[key])
                 if key in a.files and key in b.files else np.inf)
            field = key.split("/")[1]
            kind = "state" if field in STATE_FIELDS else "report"
            if d > largest[kind][0]:
                largest[kind] = (d, field)
        print(f"{name}: {_largest(largest)}")
        for kind, (d, field) in largest.items():
            if d > worst[kind][0]:
                worst[kind] = (d, f"{name}/{field}")
        if max(d for d, _ in largest.values()) > tol:
            failed.append(name)
    _compare_cli_runs(a, b)
    print(f"{len(names)} scenarios, {len(failed)} above tol {tol:g}, "
          f"largest {_largest(worst)}")
    return 1 if failed else 0


def classify(sweep_file, name):
    """Census class of scenario ``name`` of a loaded sweep (module doc)."""
    def get(field):
        return sweep_file[f"{name}/{field}"]

    if str(get("error")):
        return "error"
    if get("counts")[0] > MAX_STEPS:
        return "cut"
    if not (get("H").max() <= ABSURD_H and np.abs(get("q")).max() <= ABSURD_Q):
        return "absurd"
    mass = get("mass")
    if (name.split("-")[1] in CLOSED
            and np.abs(mass - mass[0]).max() > MASS_DRIFT * abs(mass[0])):
        return "drift"
    return "sane"


def census(path):
    sweep_file = np.load(path)
    counts = {}
    for name in _names(sweep_file):
        row = counts.setdefault(name.split("-")[0], dict.fromkeys(CLASSES, 0))
        row[classify(sweep_file, name)] += 1
    counts["total"] = {c: sum(row[c] for row in counts.values())
                       for c in CLASSES}
    width = max(len(tier) for tier in counts)
    print(f"{'tier':<{width}} " + " ".join(f"{c:>6}" for c in CLASSES))
    for tier, row in counts.items():
        print(f"{tier:<{width}} " + " ".join(f"{row[c]:>6}" for c in CLASSES))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the sweep to this .npz file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sweep files")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest relative difference accepted")
    parser.add_argument("--census", metavar="A",
                        help="count the scenarios of a sweep file by class")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, args.tol)
    if args.census:
        return census(args.census)
    if not args.out:
        parser.error("give --out, --compare or --census")
    sweep(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
