"""Tests for grids, state containers, bathymetry fields, and regime bookkeeping.

Oracle strategy: every derived quantity is recomputed here from its defining
formula (independent arithmetic, centered finite differences), never by
calling back into the code under test.
"""

import numpy as np
import pytest

from swdisp.core import (
    DRY_THRESHOLD,
    BathymetryField,
    Boundary,
    FlatBed,
    FlowState,
    GaussianBump,
    GaussianPulseMotion,
    Grid,
    GradientPressure,
    PhysicalParams,
    RegimeClass,
    SampledBed,
    ScalingRegime,
    SinusoidMotion,
    StaticBed,
    ZeroPressure,
    classify_regime,
)


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

def test_grid_dx_and_centers():
    g = Grid(x_min=0.0, x_max=2.0, n_cells=10)
    assert g.dx == pytest.approx(0.2, abs=0.0)
    # centers x_i = x_min + (i + 1/2) dx, recomputed independently
    expected = 0.0 + (np.arange(10) + 0.5) * 0.2
    np.testing.assert_allclose(g.cell_centers, expected, rtol=0, atol=1e-15)


def test_grid_rejects_too_few_cells():
    with pytest.raises(ValueError):
        Grid(x_min=0.0, x_max=1.0, n_cells=7)


def test_grid_rejects_empty_interval():
    with pytest.raises(ValueError):
        Grid(x_min=1.0, x_max=1.0, n_cells=16)


def test_grid_boundary_default_periodic():
    g = Grid(x_min=0.0, x_max=1.0, n_cells=8)
    assert g.boundary is Boundary.PERIODIC


# ---------------------------------------------------------------------------
# FlowState
# ---------------------------------------------------------------------------

def test_flowstate_velocity_masks_dry_cells():
    H = np.array([1.0, 2.0, 0.0, DRY_THRESHOLD / 10] + [1.0] * 4)
    q = np.array([2.0, 2.0, 0.0, 1e-12] + [0.0] * 4)
    s = FlowState(t=0.0, H=H, q=q)
    u = s.velocity()
    assert u[0] == pytest.approx(2.0)
    assert u[1] == pytest.approx(1.0)
    assert u[2] == 0.0
    assert u[3] == 0.0


def test_flowstate_size_mismatch_rejected():
    with pytest.raises(ValueError):
        FlowState(t=0.0, H=np.ones(8), q=np.ones(9))


def test_flowstate_negative_height_rejected():
    with pytest.raises(ValueError):
        FlowState(t=0.0, H=np.array([1.0] * 7 + [-0.1]), q=np.zeros(8))


# ---------------------------------------------------------------------------
# classify_regime: direct evaluation of the definitions
# ---------------------------------------------------------------------------

def test_regime_derived_quantities():
    s = ScalingRegime(depth=2.0, wavelength=40.0, amplitude=0.1)
    # independent arithmetic from the definitions
    eps = 2.0 / 40.0
    delta = 0.1 / 2.0
    assert s.epsilon == pytest.approx(eps, rel=1e-15)
    assert s.delta == pytest.approx(delta, rel=1e-15)
    assert s.ursell == pytest.approx(delta / eps**2, rel=1e-15)


def test_regime_long_small_wave_is_out_of_range():
    # eps = 0.01, delta = 0.04, Ursell = 0.04/1e-4 = 400 -> out of range
    s = ScalingRegime(depth=1.0, wavelength=100.0, amplitude=0.04)
    assert 0.04 / (1.0 / 100.0) ** 2 == pytest.approx(400.0)
    assert classify_regime(s) is RegimeClass.OUT_OF_ASYMPTOTIC_RANGE


def test_regime_boussinesq_example():
    # eps = 0.1, delta = 0.05, Ursell = 0.05/0.01 = 5 (inclusive upper bound)
    s = ScalingRegime(depth=1.0, wavelength=10.0, amplitude=0.05)
    assert 0.05 / (1.0 / 10.0) ** 2 == pytest.approx(5.0)
    assert classify_regime(s) is RegimeClass.BOUSSINESQ


def test_regime_finite_amplitude_example():
    # eps = 0.1, delta = 0.5 -> finite amplitude wins over Ursell check
    s = ScalingRegime(depth=1.0, wavelength=10.0, amplitude=0.5)
    assert classify_regime(s) is RegimeClass.FINITE_AMPLITUDE


def test_regime_saint_venant_branch():
    # eps = 0.05, delta = 4e-4, Ursell = 0.16 < 0.2
    s = ScalingRegime(depth=1.0, wavelength=20.0, amplitude=4e-4)
    assert 4e-4 / 0.05**2 == pytest.approx(0.16)
    assert classify_regime(s) is RegimeClass.SAINT_VENANT


def test_regime_rejects_nonpositive_scales():
    with pytest.raises(ValueError):
        classify_regime(ScalingRegime(depth=-1.0, wavelength=10.0, amplitude=0.1))
    with pytest.raises(ValueError):
        classify_regime(ScalingRegime(depth=1.0, wavelength=0.0, amplitude=0.1))
    with pytest.raises(ValueError):
        classify_regime(ScalingRegime(depth=1.0, wavelength=10.0, amplitude=0.0))


# ---------------------------------------------------------------------------
# Bathymetry fields: closed forms vs centered finite differences
# ---------------------------------------------------------------------------

def _fd_x(f, x, t, h):
    return (f(x + h, t) - f(x - h, t)) / (2 * h)


def _fd_t(f, x, t, h):
    return (f(x, t + h) - f(x, t - h)) / (2 * h)


def test_gaussian_bump_closed_form():
    bump = GaussianBump(center=2.0, width=0.5, amplitude=0.3, level=-1.5)
    bathy = BathymetryField(bump)
    x = np.linspace(0.0, 4.0, 41)
    # independent formula
    expected = -1.5 + 0.3 * np.exp(-((x - 2.0) ** 2) / (2 * 0.5**2))
    np.testing.assert_allclose(bathy.elevation(x, 0.0), expected, rtol=1e-15)


@pytest.mark.parametrize("profile", [
    FlatBed(level=-1.0),
    GaussianBump(center=0.5, width=0.7, amplitude=0.25, level=-2.0),
])
def test_spatial_derivatives_match_centered_differences(profile):
    bathy = BathymetryField(profile, SinusoidMotion(amplitude=0.1, angular_frequency=2.0, phase=0.3))
    x = np.linspace(-2.0, 3.0, 17)
    t = 0.8
    for h, tol in [(1e-3, 5e-6), (1e-4, 5e-8)]:
        fd = _fd_x(bathy.elevation, x, t, h)
        np.testing.assert_allclose(profile.slope(x), fd, rtol=0, atol=tol)


@pytest.mark.parametrize("motion", [
    SinusoidMotion(amplitude=0.2, angular_frequency=3.0, phase=0.5),
    GaussianPulseMotion(amplitude=0.15, t0=1.0, sigma=0.4),
])
def test_time_derivatives_match_centered_differences(motion):
    bathy = BathymetryField(FlatBed(level=-1.0), motion)
    x = np.linspace(0.0, 1.0, 5)
    for t in [0.0, 0.7, 1.3]:
        for h, tol in [(1e-4, 1e-7), (1e-5, 1e-9)]:
            fd = _fd_t(bathy.elevation, x, t, h)
            np.testing.assert_allclose(motion.rate(t), fd, rtol=0, atol=tol)
            fd2 = (motion.rate(t + h) - motion.rate(t - h)) / (2 * h)
            np.testing.assert_allclose(motion.accel(t), fd2, rtol=0, atol=tol)


def test_static_motion_time_derivatives_zero():
    assert StaticBed().rate(2.0) == 0.0
    assert StaticBed().accel(2.0) == 0.0


def test_sampled_bed_uses_centered_differences():
    g = Grid(0.0, 1.0, 16)
    x = g.cell_centers
    values = -1.0 + 0.1 * np.sin(2 * np.pi * x)
    bathy = BathymetryField(SampledBed(values))
    np.testing.assert_allclose(bathy.elevation(x, 0.0), values, atol=0.0)
    # oracle: np.gradient implements centered differences in the interior
    np.testing.assert_allclose(bathy.profile.slope(x), np.gradient(values, x), atol=1e-13)


def test_sampled_bed_length_mismatch_rejected():
    bathy = BathymetryField(SampledBed(np.zeros(8)))
    with pytest.raises(ValueError):
        bathy.elevation(np.zeros(9), 0.0)


# ---------------------------------------------------------------------------
# PhysicalParams and atmospheric pressure fields
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(g=-9.81)
    with pytest.raises(ValueError):
        PhysicalParams(k_l=-0.1)
    with pytest.raises(ValueError):
        PhysicalParams(k_t=-0.1)
    with pytest.raises(ValueError):
        PhysicalParams(nu=-1e-3)


def test_zero_pressure_field():
    p = ZeroPressure()
    x = np.linspace(0, 1, 5)
    assert np.all(p.value(x, 1.0) == 0.0)
    assert np.all(p.grad_x(x, 1.0) == 0.0)
    assert np.all(p.rate_t(x, 1.0) == 0.0)


def test_gradient_pressure_field():
    p = GradientPressure(slope=0.7)
    x = np.linspace(-1, 1, 5)
    np.testing.assert_allclose(p.value(x, 0.3), 0.7 * x, atol=0.0)
    np.testing.assert_allclose(p.grad_x(x, 0.3), 0.7 * np.ones_like(x), atol=0.0)
    assert np.all(p.rate_t(x, 0.3) == 0.0)
