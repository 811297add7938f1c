"""Tests for pointwise closures: friction, velocity profile, vertical
velocity, and pressure reconstructions.

Oracle strategy: depth integrals are checked against independent high-order
Gauss-Legendre quadrature of the defining formulas; worked values are
recomputed by hand arithmetic inline.
"""

import numpy as np
import pytest
from scipy.special import roots_legendre

from swdisp.closures import (
    depth_integrated_w_squared,
    effective_friction,
    friction_kappa,
    pressure_hydrostatic,
    pressure_nonhydrostatic,
    velocity_profile,
    vertical_velocity,
)
from swdisp.core import PhysicalParams
from swdisp.models import ModelTier


def _quad_depth_average(f, z_lo, z_hi, n=64):
    """Independent Gauss-Legendre depth average of f over [z_lo, z_hi]."""
    nodes, weights = roots_legendre(n)
    z = 0.5 * (z_hi + z_lo) + 0.5 * (z_hi - z_lo) * nodes
    return 0.5 * np.sum(weights * f(z))


# ---------------------------------------------------------------------------
# friction_kappa
# ---------------------------------------------------------------------------

def test_friction_laminar_only():
    params = PhysicalParams(nu=0.137, k_l=0.01, k_t=0.0)
    assert friction_kappa(u_bar=5.0, dzb_dx=0.3, H=2.0, params=params) == pytest.approx(0.01, abs=0.0)


def test_friction_laminar_kappa_in_every_column():
    """With k_t = 0 the wall law is k_l in every column, dry columns and
    any velocity or slope included (the bottom-velocity estimate is not
    needed), in the broadcast shape of the inputs."""
    rng = np.random.default_rng(5)
    u = rng.uniform(-3.0, 3.0, (4, 12))
    slope = rng.uniform(-0.5, 0.5, 12)
    H = rng.uniform(0.0, 2.0, (4, 12))
    H[:, :3] = 0.0
    for nu in (0.0, 1e-3):
        params = PhysicalParams(nu=nu, k_l=0.02, k_t=0.0)
        kappa = friction_kappa(u, slope, H, params)
        np.testing.assert_array_equal(kappa, np.full((4, 12), 0.02))
    # the turbulent closure keeps its nu error
    with pytest.raises(ValueError, match="requires nu > 0"):
        friction_kappa(u, slope, H, PhysicalParams(nu=0.0, k_l=0.02, k_t=0.1))


def test_friction_turbulent_only():
    # v_b = |u| / (1 + 0) = 3, kappa = 0.1 * 2 * 3 = 0.6; must hold for any nu
    for nu in [0.0, 1e-6, 1.0]:
        params = PhysicalParams(nu=nu, k_l=0.0, k_t=0.1)
        assert friction_kappa(3.0, 0.0, 2.0, params) == pytest.approx(0.6, rel=1e-15)


def test_friction_mixed_example():
    # v_b = 1/(1 + 0.03*1/(3*0.01)) = 1/2, kappa = 0.03 + 0.1*1*0.5 = 0.08
    params = PhysicalParams(nu=0.01, k_l=0.03, k_t=0.1)
    assert friction_kappa(1.0, 0.0, 1.0, params) == pytest.approx(0.08, rel=1e-14)


def test_friction_dry_column_returns_laminar():
    params = PhysicalParams(nu=0.01, k_l=0.04, k_t=10.0)
    assert friction_kappa(2.0, 0.5, 0.0, params) == pytest.approx(0.04, abs=0.0)


def test_friction_slope_enters_through_speed_magnitude():
    params = PhysicalParams(nu=0.02, k_l=0.0, k_t=0.2)
    slope = 0.75
    expected = 0.2 * 1.5 * (2.0 * np.sqrt(1 + slope**2))  # k_t*H*|u|sqrt(1+s^2)
    assert friction_kappa(-2.0, slope, 1.5, params) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# effective_friction
# ---------------------------------------------------------------------------

def test_effective_friction_zero():
    assert effective_friction(0.0, 1.0, 1e-3) == 0.0


def test_effective_friction_hand_value():
    assert effective_friction(3.0, 1.0, 1.0) == pytest.approx(1.5, rel=1e-15)


def test_effective_friction_saturates_at_3nu_over_H():
    assert effective_friction(1e12, 1.0, 1.0) == pytest.approx(3.0, abs=1e-6)


def test_effective_friction_monotone_and_bounded():
    nu, H = 0.05, 2.0
    kappas = np.linspace(0.0, 50.0, 200)
    vals = effective_friction(kappas, H, nu)
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals <= 3 * nu / H + 1e-15)


@pytest.mark.parametrize("k_t", [0.0, 0.1])
def test_friction_returns_an_array_for_scalar_arguments(k_t):
    """Scalar arguments give 0-d arrays, not numpy scalars, from both the
    wall law (with and without its turbulent part) and the effective drag;
    arrays keep their broadcast shape."""
    params = PhysicalParams(nu=0.01, k_l=0.03, k_t=k_t)
    kappa = friction_kappa(1.0, 0.2, 1.0, params)
    assert type(kappa) is np.ndarray and kappa.shape == ()
    drag = effective_friction(kappa, 1.0, params.nu)
    assert type(drag) is np.ndarray and drag.shape == ()
    assert friction_kappa(np.ones(3), 0.2, np.ones((2, 1)),
                          params).shape == (2, 3)
    assert effective_friction(np.ones(3), np.ones((2, 1)),
                              params.nu).shape == (2, 3)


# ---------------------------------------------------------------------------
# velocity_profile
# ---------------------------------------------------------------------------

def test_profile_motion_by_slices_when_frictionless():
    z = np.linspace(0.0, 2.0, 7)
    u = velocity_profile(u_bar=1.3, H=2.0, kappa=0.0, nu=0.05, z_rel=z)
    np.testing.assert_allclose(u, 1.3 * np.ones_like(z), atol=0.0)


def test_profile_hand_values():
    # kappa/nu = 3: u(0) = 1*(1 + 3*(-1/3)) = 0, u(H) = 1*(1 + 3*(1 - 1/2 - 1/3)) = 1.5
    assert velocity_profile(1.0, 1.0, 0.3, 0.1, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert velocity_profile(1.0, 1.0, 0.3, 0.1, 1.0) == pytest.approx(1.5, rel=1e-14)


def test_profile_depth_average_is_u_bar():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u_bar = rng.uniform(-3, 3)
        H = rng.uniform(0.1, 5.0)
        kappa = rng.uniform(0.0, 2.0)
        nu = rng.uniform(0.01, 1.0)
        avg = _quad_depth_average(
            lambda z: velocity_profile(u_bar, H, kappa, nu, z), 0.0, H)
        assert avg == pytest.approx(u_bar, abs=1e-12 * max(1.0, abs(u_bar)))


def test_profile_degenerate_dry_column():
    assert velocity_profile(0.7, 0.0, 0.5, 0.1, 0.0) == pytest.approx(0.7, abs=0.0)


def test_bottom_velocity_endpoint_relation():
    rng = np.random.default_rng(5)
    for _ in range(30):
        u_bar = rng.uniform(-2, 2)
        H = rng.uniform(0.1, 4.0)
        kappa = rng.uniform(0.0, 1.5)
        nu = rng.uniform(0.05, 0.8)
        # the wall-law bed velocity of the laminar profile reduction
        ub = u_bar / (1 + kappa * H / (3 * nu))
        # the depth-average-exact parabola evaluates at the bed to
        # u_bar*(1 - kappa H/(3 nu)); both wall values agree to O((kappa H/nu)^2)
        a3 = kappa * H / (3 * nu)
        wall = velocity_profile(u_bar, H, kappa, nu, 0.0)
        assert wall == pytest.approx(u_bar * (1 - a3), rel=1e-13, abs=1e-15)
        assert abs(wall - ub) <= abs(u_bar) * a3**2 / (1 + a3) + 1e-14


def test_profile_square_average_measured_deviation():
    """Depth average of the profile squared, measured by quadrature.

    The exact value is u_bar^2 (1 + a^2/45) with a = kappa H / nu; the
    leading-order enhancement factor (1 + 2 a^2 / 15) used for the modified
    momentum height over-counts by exactly a^2/9 * u_bar^2 at this order
    (documented deviation: the factor belongs to the bed-velocity-scaled
    parabola, not to the depth-average-exact one).
    """
    rng = np.random.default_rng(13)
    for _ in range(25):
        u_bar = rng.uniform(-2, 2)
        H = rng.uniform(0.2, 3.0)
        nu = rng.uniform(0.05, 1.0)
        kappa = rng.uniform(0.0, 1.0) * nu / H
        a = kappa * H / nu
        quad = _quad_depth_average(
            lambda z: velocity_profile(u_bar, H, kappa, nu, z) ** 2, 0.0, H)
        assert quad == pytest.approx(u_bar**2 * (1 + a**2 / 45), rel=1e-12, abs=1e-14)
        claimed = u_bar**2 * (1 + 2 * a**2 / 15)
        assert abs(claimed - quad) == pytest.approx(u_bar**2 * a**2 / 9, rel=1e-9, abs=1e-13)


# ---------------------------------------------------------------------------
# vertical_velocity
# ---------------------------------------------------------------------------

def test_vertical_velocity_uniform_flow_static_flat():
    assert vertical_velocity(u_bar=2.0, du_dx=0.0, z_b=-1.0, dzb_dx=0.0,
                             dzb_dt=0.0, z=0.3) == 0.0


def test_vertical_velocity_hand_value():
    # w = dzb_dt - z*s + z_b*s + u*dzb_dx = 0 - 0*0.2 + (-1)*0.2 + 0 = -0.2
    w = vertical_velocity(u_bar=5.0, du_dx=0.2, z_b=-1.0, dzb_dx=0.0,
                          dzb_dt=0.0, z=0.0)
    assert w == pytest.approx(-0.2, rel=1e-15)


def test_vertical_velocity_rigid_lift():
    z = np.linspace(-1.0, 0.5, 7)
    w = vertical_velocity(0.0, 0.0, -1.0, 0.0, 0.5, z)
    np.testing.assert_allclose(w, 0.5 * np.ones_like(z), atol=0.0)


def test_vertical_velocity_affine_in_z():
    rng = np.random.default_rng(21)
    for _ in range(20):
        u_bar, s, z_b, sx, st = rng.uniform(-1, 1, size=5)
        z1, z2 = rng.uniform(-2, 2, size=2)
        w1 = vertical_velocity(u_bar, s, z_b, sx, st, z1)
        w2 = vertical_velocity(u_bar, s, z_b, sx, st, z2)
        assert w1 - w2 == pytest.approx(-(z1 - z2) * s, rel=1e-13, abs=1e-15)


def test_vertical_velocity_bottom_matches_kinematic_condition():
    # at z = z_b: w = dzb_dt + u*dzb_dx exactly
    rng = np.random.default_rng(23)
    for _ in range(20):
        u_bar, s, z_b, sx, st = rng.uniform(-1, 1, size=5)
        w_b = vertical_velocity(u_bar, s, z_b, sx, st, z_b)
        assert w_b == pytest.approx(st + u_bar * sx, rel=1e-13, abs=1e-15)


# ---------------------------------------------------------------------------
# depth-integrated squared vertical velocity (closed form vs quadrature)
# ---------------------------------------------------------------------------

def test_w_squared_rigid_motion():
    # u = 0, rising bottom at rate beta: H * mean(w^2) = H * beta^2
    val = depth_integrated_w_squared(H=2.0, eta=0.5, z_b=-1.5, u_bar=0.0,
                                     du_dx=0.0, dzb_dx=0.0, dzb_dt=0.7)
    assert val == pytest.approx(2.0 * 0.49, rel=1e-14)


def test_w_squared_matches_quadrature_on_random_columns():
    rng = np.random.default_rng(31)
    for _ in range(60):
        z_b = rng.uniform(-3.0, -0.2)
        eta = rng.uniform(-0.1, 0.5)
        H = eta - z_b
        u_bar = rng.uniform(-2, 2)
        du_dx = rng.uniform(-1, 1)
        dzb_dx = rng.uniform(-1, 1)
        dzb_dt = rng.uniform(-1, 1)
        closed = depth_integrated_w_squared(H=H, eta=eta, z_b=z_b, u_bar=u_bar,
                                            du_dx=du_dx, dzb_dx=dzb_dx, dzb_dt=dzb_dt)
        quad = H * _quad_depth_average(
            lambda z: vertical_velocity(u_bar, du_dx, z_b, dzb_dx, dzb_dt, z) ** 2,
            z_b, eta)
        assert closed == pytest.approx(quad, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# pressure reconstructions
# ---------------------------------------------------------------------------

def test_pressure_hydrostatic_column():
    params = PhysicalParams(g=9.81, nu=0.0)
    p = pressure_hydrostatic(z=-0.5, eta=0.0, du_dx=0.3, p_a=0.0, params=params)
    assert p == pytest.approx(0.5 * 9.81, rel=1e-15)


def test_pressure_hydrostatic_at_surface():
    params = PhysicalParams(g=9.81, nu=0.02)
    p = pressure_hydrostatic(z=0.4, eta=0.4, du_dx=0.3, p_a=1.7, params=params)
    assert p == pytest.approx(1.7 - 2 * 0.02 * 0.3, rel=1e-15)


def test_pressure_hydrostatic_no_shear():
    params = PhysicalParams(g=2.0, nu=0.9)
    z = np.linspace(-1.0, 0.2, 6)
    p = pressure_hydrostatic(z=z, eta=0.2, du_dx=0.0, p_a=0.3, params=params)
    np.testing.assert_allclose(p, 0.3 + 2.0 * (0.2 - z), atol=1e-15)


def test_pressure_nonhydrostatic_rejects_hydrostatic_tier():
    params = PhysicalParams()
    with pytest.raises(ValueError):
        pressure_nonhydrostatic(z=0.0, tier=ModelTier.HYDROSTATIC, params=params,
                                eta=0.0, z_b=-1.0, u_bar=0.0)


@pytest.mark.parametrize("tier", [ModelTier.NONHYDRO1, ModelTier.NONHYDRO2])
def test_pressure_nonhydrostatic_steady_flat_reduces_to_hydrostatic(tier):
    params = PhysicalParams(g=9.81, nu=0.0)
    z = np.linspace(-1.0, 0.0, 5)
    p = pressure_nonhydrostatic(z=z, tier=tier, params=params,
                                eta=0.0, z_b=-1.0, u_bar=0.8, p_a=0.2)
    np.testing.assert_allclose(p, 0.2 + 9.81 * (0.0 - z), atol=1e-14)


@pytest.mark.parametrize("tier", [ModelTier.NONHYDRO1, ModelTier.NONHYDRO2])
def test_pressure_nonhydrostatic_rest_state(tier):
    params = PhysicalParams(g=9.81, nu=0.01)
    z = np.linspace(-2.0, 0.1, 5)
    p = pressure_nonhydrostatic(z=z, tier=tier, params=params,
                                eta=0.1, z_b=-2.0, u_bar=0.0, dzb_dx=0.4)
    ph = pressure_hydrostatic(z=z, eta=0.1, du_dx=0.0, p_a=0.0, params=params)
    np.testing.assert_allclose(p, ph, atol=0.0)


@pytest.mark.parametrize("tier", [ModelTier.NONHYDRO1, ModelTier.NONHYDRO2])
def test_pressure_nonhydrostatic_rigid_acceleration(tier):
    alpha = 1.3
    params = PhysicalParams(g=9.81, nu=0.005)
    z = np.linspace(-1.0, 0.0, 7)
    p = pressure_nonhydrostatic(z=z, tier=tier, params=params,
                                eta=0.0, z_b=-1.0, u_bar=0.6,
                                d2zb_dt2=alpha)
    ph = pressure_hydrostatic(z=z, eta=0.0, du_dx=0.0, p_a=0.0, params=params)
    np.testing.assert_allclose(p, ph + (0.0 - z) * alpha, atol=1e-14)
