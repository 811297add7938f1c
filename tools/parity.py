"""Parity sweep of ``run_simulation`` over a fixed scenario grid.

Runs every scenario of the grid below on the ``swdisp`` found on
``PYTHONPATH`` and writes, per scenario, the final ``H`` and ``q``, the step
and positivity-clamp counts, every energy-report column and the text of any
error to an ``.npz`` file.  Comparing two such files tells whether two
versions of the code compute the same trajectories:

    PYTHONPATH=<checkout A>/src python tools/parity.py --out a.npz
    PYTHONPATH=<checkout B>/src python tools/parity.py --out b.npz
    python tools/parity.py --compare a.npz b.npz [--tol 0]

``--compare`` prints, for each scenario, the largest relative difference
(``max|a - b| / max(|a|, |b|)`` over each array, infinite when the shapes,
the NaN positions or the error texts differ) of its state (``H``, ``q``,
the counts and the error text) and, apart, of its report columns, and the
largest of each over all scenarios on the last line.  Report columns such
as ``budget_residual`` are differences of nearly equal numbers, so they
move far more than the state they report on.  It exits 1 when either
difference of any scenario exceeds ``--tol`` (default 0: bit-identical
values).

The grid is 4 tiers x 3 boundaries x 3 beds (Gaussian bump of amplitude
0.3, emerging island of amplitude 1.05 at the centre, island of amplitude
1.2 at the left edge, all on level -1 over [0, 10]) x second / first order
x static / sinusoidal bed x two forcings (no atmospheric pressure and
laminar friction ``k_t = 0``; a pressure slope and ``k_t = 0.05``), with
n = 64, nu = 1e-3, k_l = 1e-2 and a surface hump of 0.05 at x = 3.  A run
ends at t = 3.5, after 90 to 230 steps, so that its energy reports span at
least three blocks of 32 states.  A run whose time step collapses is cut
after ``MAX_STEPS`` steps: its last state is repeated once at t = 3.5.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

N_CELLS = 64
T_END = 3.5
MAX_STEPS = 1500
STATE_FIELDS = ("H", "q", "counts", "error")
REPORT_FIELDS = ("t", "mass", "momentum", "E_h", "E_ext", "modeled_rate",
                 "dissipation_rate", "budget_residual")
BEDS = {"bump": (5.0, 1.0, 0.3), "island": (5.0, 1.0, 1.05),
        "edge": (0.0, 0.8, 1.2)}  # centre, width, amplitude


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
    np.savez_compressed(path, **arrays)


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
    names = sorted({key.split("/")[0] for key in a.files}
                   | {key.split("/")[0] for key in b.files})
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
    print(f"{len(names)} scenarios, {len(failed)} above tol {tol:g}, "
          f"largest {_largest(worst)}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the sweep to this .npz file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sweep files")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest relative difference accepted")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, args.tol)
    if not args.out:
        parser.error("give --out or --compare")
    sweep(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
