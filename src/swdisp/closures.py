"""Pointwise physical closures: wall-law friction, the parabolic vertical
velocity profile, the affine vertical velocity field, and column pressure
reconstructions.

All functions operate elementwise on scalars or broadcasting arrays, such
as a state's cells.  Depth integrals used elsewhere are supplied here in
closed form so they can be checked against independent quadrature.
"""

from __future__ import annotations

import numpy as np

from .core import ModelTier, PhysicalParams

__all__ = [
    "friction_kappa",
    "effective_friction",
    "bottom_velocity",
    "velocity_profile",
    "mean_square_velocity_factor",
    "vertical_velocity",
    "depth_integrated_w_squared",
    "pressure_hydrostatic",
    "pressure_nonhydrostatic",
]


def friction_kappa(u_bar, dzb_dx, H, params: PhysicalParams):
    """Wall-law friction coefficient ``kappa = k_l + k_t H |v_b|`` [m/s].

    The bottom-velocity magnitude is estimated from the depth-averaged
    velocity through the laminar profile reduction,
    ``|v_b| = |u_bar| sqrt(1 + (dz_b/dx)^2) / (1 + k_l H / (3 nu))``;
    only the laminar coefficient enters the reduction.  A dry column
    (``H = 0``) returns ``k_l``, and so does every column when ``k_t = 0``
    (the estimate is then not computed).
    """
    k_l, k_t, nu = params.k_l, params.k_t, params.nu
    u_bar = np.asarray(u_bar, dtype=float)
    H = np.asarray(H, dtype=float)
    dzb_dx = np.asarray(dzb_dx, dtype=float)
    if k_l > 0 and k_t > 0 and nu <= 0:
        raise ValueError("friction closure requires nu > 0")
    if k_t == 0:
        return np.full(np.broadcast(u_bar, dzb_dx, H).shape, float(k_l))
    reduction = 1.0 + (k_l * H / (3.0 * nu) if k_l > 0 else 0.0)
    v_b = np.abs(u_bar) * np.sqrt(1.0 + dzb_dx**2) / reduction
    return np.asarray(k_l + k_t * H * v_b)  # an array also for scalars


def effective_friction(kappa, H, nu):
    """Depth-averaged drag coefficient ``kappa / (1 + kappa H / (3 nu))``.

    Monotone increasing in ``kappa`` and bounded above by ``3 nu / H``:
    however rough the bed, the parabolic profile cannot extract momentum
    faster than viscosity transports it to the wall.
    """
    if nu <= 0:
        raise ValueError("effective friction requires nu > 0")
    kappa = np.asarray(kappa, dtype=float)
    H = np.asarray(H, dtype=float)
    return np.asarray(kappa / (1.0 + kappa * H / (3.0 * nu)))


def bottom_velocity(u_bar, H, kappa, nu):
    """Horizontal velocity at the bed, ``u_bar / (1 + kappa H / (3 nu))``."""
    if nu <= 0:
        raise ValueError("bottom velocity estimate requires nu > 0")
    return np.asarray(u_bar, dtype=float) / (1.0 + np.asarray(kappa, dtype=float)
                                             * np.asarray(H, dtype=float) / (3.0 * nu))


def velocity_profile(u_bar, H, kappa, nu, z_rel):
    """Parabolic horizontal velocity at height ``z_rel`` above the bed.

    ``u(z) = u_bar (1 + (kappa/nu)(z_rel - z_rel^2/(2H) - H/3))``: the unique
    parabola with wall-law shear at the bed whose depth average is exactly
    ``u_bar``.  ``kappa = 0`` recovers motion by slices (``u = u_bar`` at
    every height); a dry column returns ``u_bar`` unchanged.
    """
    if nu <= 0:
        raise ValueError("velocity profile requires nu > 0")
    u_bar = np.asarray(u_bar, dtype=float)
    H = np.asarray(H, dtype=float)
    z = np.asarray(z_rel, dtype=float)
    wet = H > 0
    H_safe = np.where(wet, H, 1.0)
    correction = (kappa / nu) * (z - z * z / (2.0 * H_safe) - H_safe / 3.0)
    return u_bar * (1.0 + np.where(wet, correction, 0.0))


def mean_square_velocity_factor(kappa, H, nu):
    """Momentum-flux enhancement factor ``1 + 2 (kappa H / nu)^2 / 15``.

    Multiplying the water height by this factor accounts for the depth
    average of the squared parabolic deviation from the bed velocity in the
    momentum flux of the fully nonlinear dispersive tier.
    """
    if nu <= 0:
        raise ValueError("mean-square velocity factor requires nu > 0")
    a = np.asarray(kappa, dtype=float) * np.asarray(H, dtype=float) / nu
    return 1.0 + 2.0 * a**2 / 15.0


def vertical_velocity(u_bar, du_dx, z_b, dzb_dx, dzb_dt, z):
    """Vertical velocity ``w = dz_b/dt + (z_b - z) du_bar/dx + u_bar dz_b/dx``.

    Affine in ``z`` (incompressibility with a depth-uniform horizontal
    velocity); at ``z = z_b`` it reduces to the kinematic bottom condition
    ``w_b = dz_b/dt + u_bar dz_b/dx``.
    """
    z = np.asarray(z, dtype=float)
    return dzb_dt + (z_b - z) * du_dx + u_bar * dzb_dx


def depth_integrated_w_squared(H, eta, z_b, u_bar, du_dx, dzb_dx, dzb_dt):
    """Exact depth integral of the squared vertical velocity.

    With ``w = W0 - z s`` (``W0 = dz_b/dt + z_b s + u_bar dz_b/dx``,
    ``s = du_bar/dx``) the integral over ``[z_b, eta]`` is
    ``W0^2 H - W0 s (eta^2 - z_b^2) + s^2 (eta^3 - z_b^3)/3``,
    i.e. ``H`` times the depth mean of ``w^2``.
    """
    s = du_dx
    w0 = dzb_dt + z_b * s + u_bar * dzb_dx
    return (w0**2 * H - w0 * s * (eta**2 - z_b**2)
            + s**2 * (eta * eta * eta - z_b * z_b * z_b) / 3.0)


def pressure_hydrostatic(z, eta, du_dx, p_a, params: PhysicalParams):
    """Hydrostatic column pressure ``p^a + g (eta - z) - 2 nu du_bar/dx``.

    The two viscous normal-stress contributions (local and surface) coincide
    at leading order once the profile correction is dropped, giving the
    combined ``-2 nu du_bar/dx`` offset.
    """
    z = np.asarray(z, dtype=float)
    return p_a + params.g * (eta - z) - 2.0 * params.nu * du_dx


def pressure_nonhydrostatic(z, *, tier, params: PhysicalParams, eta, z_b, u_bar,
                            du_dx=0.0, a=0.0, da_dx=0.0, dzb_dx=0.0,
                            dzb_dt=0.0, d2zb_dt2=0.0, deta_dt=0.0,
                            deta_dx=0.0, d2u_dx2=0.0, d2zbu_dx2=0.0,
                            p_a=0.0):
    """Column pressure with non-hydrostatic (dispersive) corrections.

    Adds to the hydrostatic pressure the bottom-acceleration term
    ``(eta - z) d^2 z_b/dt^2`` minus the time derivative of the depth-partial
    integral of the horizontal flux, evaluated with the depth-uniform
    velocity (a quadratic polynomial in ``z``, closed form).  The fully
    nonlinear tier additionally carries the quadratic-velocity terms: the
    ``u w`` flux integral and ``-w^2``.

    Time derivatives (``a = du_bar/dt``, ``da_dx``, ``deta_dt``, bottom
    motion rates) are supplied by the caller; they are never re-derived here.
    """
    if tier is ModelTier.HYDROSTATIC:
        raise ValueError("non-hydrostatic pressure is undefined for the Hydrostatic tier")
    z = np.asarray(z, dtype=float)
    H = eta - z_b
    p = pressure_hydrostatic(z, eta, du_dx, p_a, params)
    # d/dt of Phi(z) = du_dx*(H^2 - (z - z_b)^2)/2 - u_bar*dzb_dx*(eta - z),
    # using separability (d^2 z_b/dx dt = 0)
    dphi_dt = (da_dx * (H**2 - (z - z_b) ** 2) / 2.0
               + du_dx * (H * (deta_dt - dzb_dt) + (z - z_b) * dzb_dt)
               - a * dzb_dx * (eta - z)
               - u_bar * dzb_dx * deta_dt)
    p = p + (eta - z) * d2zb_dt2 - dphi_dt
    if tier is ModelTier.NONHYDRO2:
        s = du_dx
        w0 = dzb_dt + z_b * s + u_bar * dzb_dx
        w = w0 - z * s
        flux_integral_dx = (s * (w0 * (eta - z) - s * (eta**2 - z**2) / 2.0)
                           + u_bar * (d2zbu_dx2 * (eta - z) + w0 * deta_dx
                                      - d2u_dx2 * (eta**2 - z**2) / 2.0
                                      - s * eta * deta_dx))
        p = p + flux_integral_dx - w * w
    return p
