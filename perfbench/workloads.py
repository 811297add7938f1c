"""The benchmark's workloads and the inputs they draw from a seed.

Every workload uses the same geometry (the ROADMAP baseline scenario): the
domain [0, 20], a Gaussian bed bump (centre 10, width 1.5, amplitude 0.3,
level -1) and a Gaussian surface hump of width 0.8 released from rest.  The
seed picks the hump amplitude, the hump centre and the bed-motion phase.

This module uses only the standard library, so ``run.py`` can
generate inputs without importing numpy or swdisp.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

X_MIN, X_MAX = 0.0, 20.0
BUMP = dict(center=10.0, width=1.5, amplitude=0.3, level=-1.0)
HUMP_WIDTH = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    tier: str           # swdisp ModelTier value
    boundary: str       # swdisp Boundary value
    n_cells: int
    t_end: float
    nu: float
    k_l: float
    k_t: float
    moving_bed: bool
    collect_reports: bool
    via_cli: bool
    snapshot_interval: float | None = None
    fields: tuple = ()


# t_end is chosen so that stepping takes about 2.5 s per launch on a 2-core
# machine: most of a launch is then stepping rather than imports, and about
# a dozen launches still fit in one measured run.
WORKLOADS = {
    # per-call numpy overhead; periodic walls force the Woodbury corner path
    "nh1-periodic-256": Workload(
        name="nh1-periodic-256", tier="NonHydro1", boundary="Periodic",
        n_cells=256, t_end=15.0, nu=1e-3, k_l=1e-2, k_t=0.0,
        moving_bed=False, collect_reports=True, via_cli=False),
    # bytes moved; banded path without corners, NonHydro2 + moving-bed
    # forcing, report layer bypassed
    "nh2-wall-8192-moving": Workload(
        name="nh2-wall-8192-moving", tier="NonHydro2", boundary="Wall",
        n_cells=8192, t_end=0.07, nu=1e-3, k_l=1e-2, k_t=0.05,
        moving_bed=True, collect_reports=False, via_cli=False),
    # user-facing `swdisp run --out`: snapshot writes, start-up and imports
    "cli-hydro-out": Workload(
        name="cli-hydro-out", tier="Hydrostatic", boundary="Wall",
        n_cells=1024, t_end=4.0, nu=1e-3, k_l=0.0, k_t=0.0,
        moving_bed=False, collect_reports=True, via_cli=True,
        snapshot_interval=0.05, fields=("w_bottom", "w_surface", "p_bottom")),
}

MOTION_AMPLITUDE = 0.01
MOTION_OMEGA = 2.0


@dataclass(frozen=True)
class Inputs:
    """The seed-dependent part of a scenario."""

    hump_amplitude: float
    hump_center: float
    motion_phase: float


def inputs_from_seed(seed: int) -> Inputs:
    rng = random.Random(seed)
    return Inputs(hump_amplitude=rng.uniform(0.04, 0.06),
                  hump_center=rng.uniform(5.0, 8.0),
                  motion_phase=rng.uniform(0.0, 2.0 * math.pi))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def config_text(wl: Workload, inp: Inputs, n_cells: int) -> str:
    """Scenario config in swdisp's text format (see ``swdisp.io``)."""
    lines = ["[grid]", f"x_min = {_fmt(X_MIN)}", f"x_max = {_fmt(X_MAX)}",
             f"n_cells = {n_cells}", f"boundary = {wl.boundary}", "",
             "[physics]", f"nu = {_fmt(wl.nu)}", f"k_l = {_fmt(wl.k_l)}",
             f"k_t = {_fmt(wl.k_t)}", "",
             "[bathymetry]", "profile = gaussian_bump",
             f"level = {_fmt(BUMP['level'])}",
             f"center = {_fmt(BUMP['center'])}",
             f"width = {_fmt(BUMP['width'])}",
             f"amplitude = {_fmt(BUMP['amplitude'])}"]
    if wl.moving_bed:
        lines += ["motion = sinusoid",
                  f"motion_amplitude = {_fmt(MOTION_AMPLITUDE)}",
                  f"motion_omega = {_fmt(MOTION_OMEGA)}",
                  f"motion_phase = {_fmt(inp.motion_phase)}"]
    lines += ["", "[initial]", "kind = gaussian_hump",
              f"amplitude = {_fmt(inp.hump_amplitude)}",
              f"center = {_fmt(inp.hump_center)}",
              f"width = {_fmt(HUMP_WIDTH)}", "",
              "[stepping]", f"tier = {wl.tier}", f"t_end = {_fmt(wl.t_end)}"]
    if wl.snapshot_interval is not None or wl.fields:
        lines += ["", "[output]"]
        if wl.snapshot_interval is not None:
            lines.append(f"snapshot_interval = {_fmt(wl.snapshot_interval)}")
        if wl.fields:
            lines.append(f"fields = {', '.join(wl.fields)}")
    return "\n".join(lines) + "\n"
