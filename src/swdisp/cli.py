"""Command-line interface.

Subcommands
-----------
``run``           integrate a scenario config and report drift statistics
``dispersion``    measure phase speeds against the analytic dispersion curve
``converge``      grid-refinement study of a named scenario
``steady-check``  verify the hydrostatic and first dispersive tier share the
                  same stationary residual

Exit codes: 0 success, 1 a quantitative check failed, 2 configuration error,
3 solver failure.  All commands are deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .core import (BathymetryField, Boundary, FlatBed, FlowState,
                   GaussianBump, Grid, PhysicalParams)
from .diagnostics import convergence_study, measure_dispersion
from .io import (ConfigError, build_initial_state, load_config,
                 validate_config, write_manifest, write_snapshot,
                 write_timeseries)
from .models import DRY_THRESHOLD, ModelTier, steady_residual
from .solver import SolverError, StepControls, run_simulation

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_TIER_NAMES = tuple(t.value for t in ModelTier)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _from_flag(flag, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a ``ValueError`` reported for ``flag``."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{flag}: {err}") from None


def _apply_overrides(cfg, args):
    """Fold command-line overrides into the config and re-validate."""
    notes = []
    if args.tier is not None:
        cfg = dataclasses.replace(cfg, tier=ModelTier(args.tier))
        notes.append(f"tier -> {args.tier}")
    if args.cells is not None:
        cfg = dataclasses.replace(cfg, grid=_from_flag(
            "--cells", dataclasses.replace, cfg.grid, n_cells=args.cells))
        notes.append(f"cells -> {args.cells}")
    if args.t_end is not None:
        cfg = dataclasses.replace(cfg, controls=_from_flag(
            "--t-end", dataclasses.replace, cfg.controls, t_end=args.t_end))
        notes.append(f"t_end -> {args.t_end}")
    if args.debug_first_order:
        cfg = dataclasses.replace(
            cfg, controls=dataclasses.replace(cfg.controls, first_order=True))
        notes.append("first_order -> true")
    if notes:
        validate_config(cfg)
    return cfg, notes


def _relative_drift(first, last):
    if abs(first) > 1e-300:
        return (last - first) / abs(first)
    return last - first


@contextlib.contextmanager
def _staged(out_dir):
    """A new directory inside ``out_dir`` for the run's files, which move
    into ``out_dir`` when the block ends without an error.  On an error the
    staging directory goes, with any directories made for ``out_dir``, so
    ``out_dir`` stays as it was found.  A path that cannot be made a
    directory is a :class:`ConfigError` for ``--out``."""
    if out_dir.exists() and not out_dir.is_dir():
        raise ConfigError(f"--out: {out_dir} exists and is not a directory")
    made = next((p for p in reversed((out_dir, *out_dir.parents))
                 if not p.exists()), None)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".swdisp-run-", dir=out_dir))
    except OSError as err:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise ConfigError(f"--out: {err.strerror}: {err.filename}") from None
    try:
        yield stage
    except BaseException:
        shutil.rmtree(stage if made is None else made, ignore_errors=True)
        raise
    for path in sorted(stage.iterdir()):
        os.replace(path, out_dir / path.name)
    stage.rmdir()


def _drop(state):
    """The ``on_snapshot`` of a run without ``--out``: it keeps nothing."""


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    cfg, notes = _apply_overrides(cfg, args)
    if notes:
        print("override: " + ", ".join(notes))
    if cfg.tier is ModelTier.NONHYDRO2:
        print("note: NonHydro2 fluxes the hydrostatic pressure g H^2/2 with "
              "hydrostatic reconstruction (well balanced); only "
              "PeregrineInviscid applies the surface gradient in "
              "non-conservative form")

    state = build_initial_state(cfg)
    with (contextlib.nullcontext() if args.out is None
          else _staged(Path(args.out))) as stage:
        index = itertools.count()

        def write(snap):
            write_snapshot(snap, cfg.bathymetry, cfg.params, cfg.grid,
                           cfg.tier, stage / f"snapshot_{next(index):06d}.csv",
                           fields=cfg.output.fields)

        started = time.perf_counter()
        result = run_simulation(state, cfg.bathymetry, cfg.params, cfg.grid,
                                cfg.tier, cfg.controls,
                                snapshot_interval=cfg.output.snapshot_interval,
                                on_snapshot=_drop if stage is None else write)
        wall = time.perf_counter() - started

        reports = result.reports
        mass_drift = _relative_drift(reports[0].mass, reports[-1].mass)
        energy_drift = _relative_drift(reports[0].E_h, reports[-1].E_h)
        stats = result.stats

        if stage is not None:
            write_timeseries(reports, stage / "timeseries.csv")
            write_manifest(cfg, stage / "manifest.txt", extra={
                "steps": stats["steps"],
                "positivity_clamps": stats["positivity_clamps"],
                "mass_drift": format(mass_drift, ".17g"),
                "energy_drift": format(energy_drift, ".17g"),
            })

    print(f"run complete: tier={cfg.tier.value} cells={cfg.grid.n_cells} "
          f"steps={stats['steps']} mass_drift={mass_drift:+.3e} "
          f"energy_drift={energy_drift:+.3e} "
          f"positivity_clamps={stats['positivity_clamps']} "
          f"wall_time={wall:.2f}s")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

def _analytic_speed(tier, h0, k, g=9.81):
    c0 = math.sqrt(g * h0)
    if tier is ModelTier.HYDROSTATIC:
        return c0
    return c0 / math.sqrt(1.0 + (k * h0) ** 2 / 3.0)


def _measure_speed(tier, h0, k, grid, g=9.81):
    """Phase speed of a small right-moving mode ``k`` on still depth ``h0``."""
    amplitude = 1e-4 * h0
    x = grid.cell_centers
    eta = amplitude * np.sin(k * (x - grid.x_min))
    c_guess = _analytic_speed(tier, h0, k, g)
    H = h0 + eta
    state = FlowState(t=0.0, H=H, q=H * (c_guess * eta / h0))
    bathy = BathymetryField(FlatBed(level=-h0))
    params = PhysicalParams(g=g, nu=0.0, k_l=0.0, k_t=0.0)

    period = 2.0 * math.pi / (c_guess * k)
    controls = StepControls(t_end=2.0 * period, cfl=0.4)
    result = run_simulation(state, bathy, params, grid, tier, controls,
                            snapshot_interval=period / 16.0,
                            collect_reports=False)
    etas = [s.H - h0 for s in result.states]
    return measure_dispersion(result.times, etas, x, k)


def cmd_dispersion(args) -> int:
    tier = ModelTier(args.tier)
    if not 0.0 < args.h0 < math.inf:
        raise ConfigError(f"--h0: need a finite positive depth, got {args.h0}")
    try:
        ks = [float(tok) for tok in args.k_values.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--k-values: expected comma-separated numbers, "
                          f"got {args.k_values!r}") from None
    if not ks:
        raise ConfigError("--k-values: empty wavenumber list")
    for k in ks:
        if not 0.0 < k < math.inf:
            raise ConfigError(f"--k-values: k = {k:g} is degenerate "
                              f"(wavenumber must be finite and positive)")

    # one periodic box sized to the longest requested wavelength
    k_min = min(ks)
    grid = _from_flag("--cells", Grid, 0.0, 2.0 * math.pi / k_min, args.cells,
                      Boundary.PERIODIC)

    rows = []
    for k in ks:
        waves = k / k_min
        if abs(waves - round(waves)) > 1e-9 * max(1.0, waves):
            print(f"warning: skipping k={k:g}: does not fit an integer "
                  f"number of wavelengths in the domain")
            continue
        cells_per_wave = args.cells * k_min / k
        if cells_per_wave < 16.0:
            print(f"warning: skipping k={k:g}: aliased on this grid "
                  f"({cells_per_wave:.1f} cells per wavelength < 16)")
            continue
        c_meas = _measure_speed(tier, args.h0, k, grid)
        c_ref = _analytic_speed(tier, args.h0, k)
        rows.append((k, c_meas, c_ref, abs(c_meas - c_ref) / c_ref))

    if not rows:
        raise ConfigError("all requested wavenumbers were skipped; "
                          "nothing to measure")

    print(f"{'k':>12} {'c_measured':>16} {'c_analytic':>16} {'rel_error':>12}")
    for k, c_meas, c_ref, rel in rows:
        print(f"{k:12.6g} {c_meas:16.10g} {c_ref:16.10g} {rel:12.3e}")

    worst = max(rel for _, _, _, rel in rows)
    if worst > 1e-2:
        print(f"dispersion check failed: worst relative error {worst:.3e} "
              f"exceeds 1e-2")
        return EXIT_CHECK_FAILED
    print(f"dispersion check passed: worst relative error {worst:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def _lake_at_rest_error(n_cells, *, t_end=None, first_order=False):
    grid = Grid(0.0, 10.0, n_cells, Boundary.PERIODIC)
    bathy = BathymetryField(GaussianBump(center=5.0, width=1.0,
                                         amplitude=0.3, level=-1.0))
    params = PhysicalParams()
    x = grid.cell_centers
    H = -bathy.elevation(x, 0.0)
    state = FlowState(t=0.0, H=H, q=np.zeros_like(H))
    controls = StepControls(t_end=0.1 if t_end is None else t_end, cfl=0.45,
                            first_order=first_order)
    result = run_simulation(state, bathy, params, grid,
                            ModelTier.HYDROSTATIC, controls,
                            collect_reports=False)
    final = result.states[-1]
    eta_err = np.max(np.abs((final.H + bathy.elevation(x, 0.0))))
    return grid.dx, float(np.max(np.abs(final.velocity())) + eta_err)


def _linear_wave_error(n_cells, *, t_end=None, first_order=False):
    h0, k, amplitude, g = 1.0, 1.0, 1e-6, 9.81
    c = _analytic_speed(ModelTier.NONHYDRO1, h0, k, g)
    grid = Grid(0.0, 2.0 * math.pi / k, n_cells, Boundary.PERIODIC)
    x = grid.cell_centers
    eta = amplitude * np.sin(k * x)
    H = h0 + eta
    state = FlowState(t=0.0, H=H, q=H * (c * eta / h0))
    bathy = BathymetryField(FlatBed(level=-h0))
    params = PhysicalParams(g=g, nu=0.0, k_l=0.0, k_t=0.0)

    if t_end is None:
        t_end = 2.0 * math.pi / (c * k)  # one period
    steps = max(1, math.ceil(t_end / (0.4 * grid.dx / math.sqrt(g * h0))))
    controls = StepControls(t_end=t_end, fixed_dt=t_end / steps,
                            first_order=first_order)
    result = run_simulation(state, bathy, params, grid, ModelTier.NONHYDRO1,
                            controls, collect_reports=False)
    final = result.states[-1]
    eta_exact = amplitude * np.sin(k * (x - c * t_end))
    err = final.H - h0 - eta_exact
    return grid.dx, math.sqrt(grid.dx * float(np.sum(err**2)))


_SCENARIO_GRIDS = {
    "manufactured-hydrostatic": (64, 128, 256),
    "manufactured-nonhydro1": (64, 128, 256),
    "lake-at-rest": (32, 64, 128),
    "linear-wave-nonhydro1": (128, 256, 512),
}


def cmd_converge(args) -> int:
    scenario = args.scenario
    if scenario not in _SCENARIO_GRIDS:
        known = ", ".join(sorted(_SCENARIO_GRIDS))
        raise ConfigError(f"--scenario: unknown scenario {scenario!r} "
                          f"(known: {known})")
    if args.grids is None:
        resolutions = _SCENARIO_GRIDS[scenario]
    else:
        try:
            resolutions = tuple(int(tok) for tok in args.grids.split(","))
        except ValueError:
            raise ConfigError(f"--grids: expected comma-separated integers, "
                              f"got {args.grids!r}") from None
    if len(resolutions) < 2:
        raise ConfigError("--grids: need at least two resolutions")
    if any(a >= b for a, b in zip(resolutions, resolutions[1:])):
        raise ConfigError(f"--grids: cell counts must strictly increase, "
                          f"got {args.grids!r}")
    for n in resolutions:
        _from_flag("--grids", Grid, 0.0, 1.0, n)  # the grid's own size rule
    t_end = args.t_end
    if t_end is not None and not 0.0 < t_end < math.inf:
        raise ConfigError("--t-end: the horizon must be finite and positive")

    if scenario.startswith("manufactured-"):
        from .manufactured import get_case, run_convergence_point
        error = functools.partial(run_convergence_point, get_case(scenario))
    elif scenario == "lake-at-rest":
        error = _lake_at_rest_error
    else:
        error = _linear_wave_error
    rows = convergence_study(
        lambda n: error(n, t_end=t_end, first_order=args.debug_first_order),
        resolutions)
    print(f"{'n_cells':>8} {'dx':>12} {'error':>14} {'order':>8}")
    for row in rows:
        order = "-" if math.isnan(row.order) else f"{row.order:8.3f}"
        print(f"{row.n_cells:8d} {row.dx:12.6g} {row.error:14.6e} {order:>8}")

    if all(row.error <= 1e-13 for row in rows):
        print("all errors at machine precision; observed order is not "
              "meaningful (exactly preserved state)")
        return EXIT_OK
    finest = rows[-1].order
    if not finest >= 1.5:
        print(f"convergence check failed: observed order {finest:.3f} on the "
              f"finest grid pair is below 1.5")
        return EXIT_CHECK_FAILED
    print(f"convergence check passed: observed order {finest:.3f} on the "
          f"finest grid pair")
    return EXIT_OK


# ---------------------------------------------------------------------------
# steady-check
# ---------------------------------------------------------------------------

def _randomized_states(base, grid, rng, count):
    """Smooth wet perturbations of the base state (low Fourier modes)."""
    x = grid.cell_centers
    length = grid.length
    min_depth = float(np.min(base.H))
    speed = math.sqrt(9.81 * max(min_depth, 1e-3))
    for _ in range(count):
        d_eta = np.zeros_like(base.H)
        du = np.zeros_like(base.H)
        for mode in range(1, 4):
            phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
            d_eta += (rng.uniform(-1.0, 1.0) * 0.08 * min_depth
                      * np.cos(2.0 * math.pi * mode * x / length + phase[0]))
            du += (rng.uniform(-1.0, 1.0) * 0.1 * speed
                   * np.cos(2.0 * math.pi * mode * x / length + phase[1]))
        H = np.maximum(base.H + d_eta, 0.0)
        yield FlowState(t=0.0, H=H, q=H * (base.velocity() + du))


def cmd_steady_check(args) -> int:
    cfg = load_config(args.config)
    state = build_initial_state(cfg)

    if args.tier == "NonHydro2":
        cfg2 = dataclasses.replace(cfg, tier=ModelTier.NONHYDRO2)
        validate_config(cfg2)
        r_h = steady_residual(state, cfg.bathymetry, cfg.params, cfg.grid,
                              ModelTier.HYDROSTATIC)
        r_2 = steady_residual(state, cfg.bathymetry, cfg.params, cfg.grid,
                              ModelTier.NONHYDRO2)
        wet = state.H >= DRY_THRESHOLD
        print("NonHydro2 stationary decomposition (informational):")
        print(f"  max|hydrostatic part|   = {np.max(np.abs(r_h[wet])):.6e}")
        print(f"  max|dispersive extras|  = "
              f"{np.max(np.abs((r_2 - r_h)[wet])):.6e}")
        return EXIT_OK

    states = [state]
    if args.samples > 0:
        rng = np.random.default_rng(args.seed)
        states += list(_randomized_states(state, cfg.grid, rng, args.samples))

    worst = 0.0
    n_wet = 0
    for s in states:
        r_h = steady_residual(s, cfg.bathymetry, cfg.params, cfg.grid,
                              ModelTier.HYDROSTATIC)
        r_1 = steady_residual(s, cfg.bathymetry, cfg.params, cfg.grid,
                              ModelTier.NONHYDRO1)
        wet = s.H >= DRY_THRESHOLD
        n_wet = int(np.sum(wet))
        if n_wet:
            worst = max(worst, float(np.max(np.abs((r_h - r_1)[wet]))))

    print(f"steady residual agreement (Hydrostatic vs NonHydro1): "
          f"max difference = {worst:.3e} over {n_wet} wet cells, "
          f"{len(states)} state(s)")
    if worst > 1e-13:
        print("steady check failed: the tiers disagree on stationary states")
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="swdisp",
        description="One-dimensional shallow-water solver with dispersive "
                    "and viscous model tiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate a scenario config")
    run.add_argument("--config", required=True, help="scenario config file")
    run.add_argument("--tier", choices=_TIER_NAMES,
                     help="override the configured model tier")
    run.add_argument("--t-end", type=float, dest="t_end",
                     help="override the end time [s]")
    run.add_argument("--cells", type=int, help="override the cell count")
    run.add_argument("--out", help="directory for snapshots, time series, "
                                   "and the manifest")
    run.add_argument("--debug-first-order", action="store_true",
                     help="drop the linear reconstruction (first-order space)")
    run.set_defaults(func=cmd_run)

    disp = sub.add_parser("dispersion",
                          help="measure phase speeds on a flat bed")
    disp.add_argument("--tier", choices=_TIER_NAMES, default="NonHydro1",
                      help="model tier to measure")
    disp.add_argument("--h0", type=float, default=1.0,
                      help="still-water depth [m]")
    disp.add_argument("--k-values", dest="k_values", default="0.25,0.5,1.0",
                      help="comma-separated wavenumbers [1/m]")
    disp.add_argument("--cells", type=int, default=512,
                      help="cells in the periodic box")
    disp.set_defaults(func=cmd_dispersion)

    conv = sub.add_parser("converge", help="grid-refinement study")
    conv.add_argument("--scenario", required=True,
                      help="one of: " + ", ".join(sorted(_SCENARIO_GRIDS)))
    conv.add_argument("--grids", help="comma-separated cell counts")
    conv.add_argument("--t-end", type=float, dest="t_end",
                      help="override the scenario horizon [s]")
    conv.add_argument("--debug-first-order", action="store_true",
                      help="drop the linear reconstruction (expected to fail)")
    conv.set_defaults(func=cmd_converge)

    steady = sub.add_parser("steady-check",
                            help="compare stationary residuals across tiers")
    steady.add_argument("--config", required=True, help="scenario config file")
    steady.add_argument("--tier", choices=("NonHydro1", "NonHydro2"),
                        default="NonHydro1",
                        help="NonHydro1 compares its residual with "
                             "Hydrostatic's; NonHydro2 prints the "
                             "informational decomposition")
    steady.add_argument("--samples", type=int, default=0,
                        help="additional randomized smooth states to test")
    steady.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized test states")
    steady.set_defaults(func=cmd_steady_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ValueError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
