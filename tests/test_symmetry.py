"""Symmetry oracles: transformations that the equations commute with, and
that the discrete step must commute with too.

Each test runs one seeded smooth state and its transformed twin (the bed
transformed through a ``SampledBed``) and compares the transformed result of
the first with the result of the second, to 1e-13 relative to max |H| and
max |q|:

* translation: ``np.roll`` of a Periodic state commutes with ``step``;
* reflection: x -> L - x with q -> -q commutes with ``step`` on every
  boundary;
* datum shift: raising bed and surface by one leaves a Periodic run as it
  was;
* mirror: a Wall run on [0, L] equals the right half of the Periodic run on
  [-L, L] with mirrored data.

Three known defects break some of these, and their cases are strict
expected failures, so each turns into a pass the day its fix lands: the
dispersive tiers' wall closure breaks the mirror (ROADMAP item 2),
NonHydro1 and PeregrineInviscid assume still water at z = 0 (item 3), and
NonHydro2's moving-bed forcing depends on the datum (a FOUND in
``CHANGES.md``).
"""

import numpy as np
import pytest

from swdisp.core import (BathymetryField, Boundary, FlowState, Grid,
                         PhysicalParams, SampledBed, SinusoidMotion,
                         StaticBed)
from swdisp.models import ModelTier
from swdisp.solver import StepControls, run_simulation, step

L = 10.0
TOL = 1e-13
BEDS = ("static", "moving")


def smooth_fields(n, seed):
    """Bed, depth and discharge at ``n`` cell centres of [0, L]: a few
    random Fourier modes about a bed level of -1 and still water at 0."""
    rng = np.random.default_rng(seed)
    x = (np.arange(n) + 0.5) * L / n

    def modes(amp):
        return sum(amp / m * rng.uniform(-1, 1)
                   * np.sin(2 * np.pi * m * x / L + rng.uniform(0, 2 * np.pi))
                   for m in (1, 2, 3))

    zb = -1.0 + modes(0.15)
    H = modes(0.05) - zb
    return zb, H, H * modes(0.2)


def bathymetry(zb, bed):
    motion = (StaticBed() if bed == "static"
              else SinusoidMotion(amplitude=0.01, angular_frequency=2.0,
                                  phase=0.4))
    return BathymetryField(SampledBed(zb), motion)


def three_steps(zb, H, q, boundary, tier, bed, k_t):
    grid = Grid(0.0, L, len(zb), boundary)
    bathy = bathymetry(zb, bed)
    params = PhysicalParams(nu=1e-3, k_l=0.01, k_t=k_t)
    s = FlowState(t=0.0, H=H, q=q)
    for _ in range(3):
        s = step(s, bathy, params, grid, tier, 5e-3)
    return s


def run_to_one(zb, H, q, boundary, tier, bed, x_min=0.0):
    """The final state of a CFL-stepped run to t = 1 on [x_min, L]."""
    grid = Grid(x_min, L, len(zb), boundary)
    params = PhysicalParams(nu=1e-3, k_l=0.01, k_t=0.05)
    return run_simulation(FlowState(t=0.0, H=H, q=q), bathymetry(zb, bed),
                          params, grid, tier,
                          StepControls(t_end=1.0, cfl=0.45),
                          collect_reports=False).states[-1]


def assert_close(H, q, expected):
    scale_H, scale_q = np.max(np.abs(expected.H)), np.max(np.abs(expected.q))
    assert np.max(np.abs(H - expected.H)) <= TOL * scale_H
    assert np.max(np.abs(q - expected.q)) <= TOL * scale_q


@pytest.mark.parametrize("k_t", [0.0, 0.05])
@pytest.mark.parametrize("bed", BEDS)
@pytest.mark.parametrize("tier", list(ModelTier))
def test_translation_commutes_with_step(tier, bed, k_t):
    zb, H, q = smooth_fields(96, seed=1)
    shift = 17
    plain = three_steps(zb, H, q, Boundary.PERIODIC, tier, bed, k_t)
    rolled = three_steps(np.roll(zb, shift), np.roll(H, shift),
                         np.roll(q, shift), Boundary.PERIODIC, tier, bed, k_t)
    assert_close(np.roll(plain.H, shift), np.roll(plain.q, shift), rolled)


@pytest.mark.parametrize("k_t", [0.0, 0.05])
@pytest.mark.parametrize("bed", BEDS)
@pytest.mark.parametrize("tier", list(ModelTier))
@pytest.mark.parametrize("boundary", list(Boundary))
def test_reflection_commutes_with_step(boundary, tier, bed, k_t):
    zb, H, q = smooth_fields(96, seed=1)
    plain = three_steps(zb, H, q, boundary, tier, bed, k_t)
    mirrored = three_steps(zb[::-1], H[::-1], -q[::-1], boundary, tier, bed,
                           k_t)
    assert_close(plain.H[::-1], -plain.q[::-1], mirrored)


def broken(reason):
    """Mark a case that a known defect breaks: it must fail its check."""
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=reason)


WALL_CLOSURE = broken("ROADMAP item 2: the dispersive operator drops the "
                      "wall's ghost unknown instead of mirroring it")
STILL_WATER_AT_ZERO = broken("ROADMAP item 3: NonHydro1 and "
                             "PeregrineInviscid assume still water at z = 0")
MOVING_BED_DATUM = broken("FOUND in CHANGES.md: NonHydro2's moving-bed "
                          "forcing adds b''(t) z_b, which depends on the "
                          "datum")


@pytest.mark.parametrize("tier, bed", [
    (ModelTier.HYDROSTATIC, "static"),
    (ModelTier.HYDROSTATIC, "moving"),
    (ModelTier.NONHYDRO2, "static"),
    pytest.param(ModelTier.NONHYDRO2, "moving", marks=MOVING_BED_DATUM),
    *(pytest.param(tier, bed, marks=STILL_WATER_AT_ZERO)
      for tier in (ModelTier.NONHYDRO1, ModelTier.PEREGRINE_INVISCID)
      for bed in BEDS)])
def test_datum_shift_leaves_the_run_unchanged(tier, bed):
    zb, H, q = smooth_fields(128, seed=2)
    low = run_to_one(zb, H, q, Boundary.PERIODIC, tier, bed)
    high = run_to_one(zb + 1.0, H, q, Boundary.PERIODIC, tier, bed)
    assert_close(high.H, high.q, low)


@pytest.mark.parametrize("bed", BEDS)
def test_hydrostatic_wall_run_is_half_the_mirrored_periodic_run(bed):
    n = 64
    zb, H, q = smooth_fields(n, seed=3)
    wall = run_to_one(zb, H, q, Boundary.WALL, ModelTier.HYDROSTATIC, bed)
    whole = run_to_one(np.r_[zb[::-1], zb], np.r_[H[::-1], H],
                       np.r_[-q[::-1], q], Boundary.PERIODIC,
                       ModelTier.HYDROSTATIC, bed, x_min=-L)
    assert_close(whole.H[n:], whole.q[n:], wall)


@WALL_CLOSURE
@pytest.mark.parametrize("bed", BEDS)
@pytest.mark.parametrize("tier", list(ModelTier)[1:])
def test_dispersive_wall_run_is_half_the_mirrored_periodic_run(tier, bed):
    n = 64
    zb, H, q = smooth_fields(n, seed=3)
    wall = run_to_one(zb, H, q, Boundary.WALL, tier, bed)
    whole = run_to_one(np.r_[zb[::-1], zb], np.r_[H[::-1], H],
                       np.r_[-q[::-1], q], Boundary.PERIODIC, tier, bed,
                       x_min=-L)
    assert_close(whole.H[n:], whole.q[n:], wall)
