"""Model tiers: spatial discretizations of the depth-averaged equations.

The hydrostatic tier is a well-balanced finite-volume scheme (second-order
piecewise-linear reconstruction, Rusanov fluxes, hydrostatic reconstruction
of face depths) with viscous momentum diffusion, atmospheric-pressure
gradients, moving-bottom mass exchange, and linear-in-velocity bed friction.

Every tier poses one implicit problem ``A[a] = F`` for the acceleration
``a = d(u_bar)/dt``: ``A`` collects the depth-integrated inertia, ``F`` all
explicit forcings.  For the hydrostatic tier ``A = diag(H)``.  The
dispersive tiers reuse the hydrostatic tendencies for their advective core
and add the inertia of the non-hydrostatic pressure, which makes ``A``
tridiagonal.  ``A`` is built from its stencil diagonals so the
linear-algebra layer can apply boundary folding and solve it.

Sign and orientation conventions: ``z_b < 0`` below the datum, ``H >= 0``,
``eta = z_b + H``; fluxes are positive rightward; tendencies are in
conservation form ``d(H)/dt``, ``d(q)/dt`` with ``q = H u_bar``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .closures import effective_friction, friction_kappa
from .core import (
    DRY_THRESHOLD,
    BathymetryField,
    Boundary,
    FlowState,
    Grid,
    PhysicalParams,
)

__all__ = [
    "ModelTier",
    "DispersiveSystem",
    "hydrostatic_tendency",
    "assemble_dispersive",
    "steady_residual",
    "pointwise_friction_coefficient",
]


class ModelTier(enum.Enum):
    """Which closure of the vertical structure drives the momentum balance."""

    HYDROSTATIC = "Hydrostatic"
    NONHYDRO1 = "NonHydro1"
    NONHYDRO2 = "NonHydro2"
    PEREGRINE_INVISCID = "PeregrineInviscid"


# number of ghost cells appended on each side for reconstruction stencils
NGHOST = 2


def _pad(values, boundary, parity=1.0):
    """Extend a cell array with ``NGHOST`` ghost cells per side.

    Periodic wraps; wall mirrors about the boundary face (``parity=-1``
    negates, for velocity-like quantities); copy repeats the edge value.
    """
    v = np.asarray(values, dtype=float)
    out = np.empty(v.size + 2 * NGHOST)
    out[NGHOST:-NGHOST] = v
    if boundary is Boundary.PERIODIC:
        out[:NGHOST] = v[-NGHOST:]
        out[-NGHOST:] = v[:NGHOST]
    elif boundary is Boundary.WALL:
        out[:NGHOST] = parity * v[NGHOST - 1 :: -1]
        out[-NGHOST:] = parity * v[: -NGHOST - 1 : -1]
    else:  # Boundary.COPY
        out[:NGHOST] = v[0]
        out[-NGHOST:] = v[-1]
    return out


def _centered_difference(values, dx):
    """Centered first derivative at the interior points of ``values``.

    The output has two entries fewer than the input: a padded array
    (``n + 2 * NGHOST`` entries) gives its width-1 ring (cells ``-1 .. n``),
    and a ring array gives the ``n`` real cells.
    """
    return (values[2:] - values[:-2]) / (2.0 * dx)


def _cell_curvature(padded, dx):
    """Centered second derivative at the padded interior (width-1 ring)."""
    return (padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / dx**2


def _interior(cellwise):
    """Real-cell slice of a width-1-ring array."""
    return cellwise[1:-1]


def _fv_core(state, bathy, params, grid, *, first_order, stats,
             include_pressure, sources=None):
    """Finite-volume mass/momentum tendencies of the advective core.

    With ``include_pressure`` the momentum flux carries ``g H^2 / 2`` with
    hydrostatic face reconstruction (well balanced against the bed source);
    without it only ``H u^2`` is fluxed, for tiers that apply the pressure
    gradient in non-conservative form.
    """
    n = grid.n_cells
    dx = grid.dx
    g = params.g
    t = state.t
    bc = grid.boundary
    x = grid.cell_centers

    H = state.H
    u = state.velocity()
    zb = bathy.elevation(x, t)
    eta = zb + H

    Hp = _pad(H, bc, 1.0)
    up = _pad(u, bc, -1.0)
    zp = _pad(zb, bc, 1.0)
    etap = zp + Hp

    if first_order:
        sH = np.zeros(n + 2)
        su = np.zeros(n + 2)
        seta = np.zeros(n + 2)
    else:
        # unlimited central (Fromm) slopes on H, eta, u at cells -1 .. n
        sH = 0.5 * (Hp[2:] - Hp[:-2])
        su = 0.5 * (up[2:] - up[:-2])
        seta = 0.5 * (etap[2:] - etap[:-2])

    Hc = Hp[1:-1]
    uc = up[1:-1]
    etac = etap[1:-1]

    # in-cell face-extrapolated values for cells -1 .. n
    H_left_in = Hc - 0.5 * sH
    H_right_in = Hc + 0.5 * sH
    u_left_in = uc - 0.5 * su
    u_right_in = uc + 0.5 * su
    eta_left_in = etac - 0.5 * seta
    eta_right_in = etac + 0.5 * seta
    z_left_in = eta_left_in - H_left_in
    z_right_in = eta_right_in - H_right_in

    # face j (j = 0 .. n) sits between ring cells j-1 and j
    H_L = H_right_in[:-1]
    H_R = H_left_in[1:]
    u_L = u_right_in[:-1]
    u_R = u_left_in[1:]
    eta_L = eta_right_in[:-1]
    eta_R = eta_left_in[1:]
    z_L = z_right_in[:-1]
    z_R = z_left_in[1:]

    z_face = np.maximum(z_L, z_R)
    Hs_L_raw = eta_L - z_face
    Hs_R_raw = eta_R - z_face
    Hs_L = np.maximum(Hs_L_raw, 0.0)
    Hs_R = np.maximum(Hs_R_raw, 0.0)
    if stats is not None:
        clamped = int(np.count_nonzero(Hs_L_raw < 0.0)
                      + np.count_nonzero(Hs_R_raw < 0.0))
        if clamped:
            stats["positivity_clamps"] = stats.get("positivity_clamps", 0) + clamped

    qs_L = Hs_L * u_L
    qs_R = Hs_R * u_R
    lam = np.maximum(np.abs(u_L) + np.sqrt(g * Hs_L),
                     np.abs(u_R) + np.sqrt(g * Hs_R))

    flux_H = 0.5 * (qs_L + qs_R) - 0.5 * lam * (Hs_R - Hs_L)
    if include_pressure:
        flux_q = (0.5 * (qs_L * u_L + 0.5 * g * Hs_L**2
                         + qs_R * u_R + 0.5 * g * Hs_R**2)
                  - 0.5 * lam * (qs_R - qs_L))
    else:
        flux_q = (0.5 * (qs_L * u_L + qs_R * u_R)
                  - 0.5 * lam * (qs_R - qs_L))

    dHdt = -(flux_H[1:] - flux_H[:-1]) / dx

    # per-cell face values (cell i owns ring index i+1)
    H_own_left = H_left_in[1:-1]
    H_own_right = H_right_in[1:-1]
    z_own_left = z_left_in[1:-1]
    z_own_right = z_right_in[1:-1]

    if include_pressure:
        flux_q_right = flux_q[1:] + 0.5 * g * (H_own_right**2 - Hs_L[1:]**2)
        flux_q_left = flux_q[:-1] + 0.5 * g * (H_own_left**2 - Hs_R[:-1]**2)
        bed_source = (-g * 0.5 * (H_own_left + H_own_right)
                      * (z_own_right - z_own_left) / dx)
        dqdt = -(flux_q_right - flux_q_left) / dx + bed_source
    else:
        dqdt = -(flux_q[1:] - flux_q[:-1]) / dx
        # non-conservative surface-gradient form of the pressure
        dqdt -= g * H * _centered_difference(etap[1:-1], dx)

    # moving bottom: a rising bed displaces no depth-averaged mass directly
    # (H evolves only through the flux divergence) but shows up in eta; all
    # motion terms enter via the tiers' explicit forcings and the closures.

    if sources is not None:
        src_H, src_q = sources
        dHdt = dHdt + src_H(x, t)
        dqdt = dqdt + src_q(x, t)

    return dHdt, dqdt, Hp, up, zp, etap


def _viscous_tendency(Hp, up, dx, nu):
    """Conservative depth-integrated viscous term d/dx(4 nu H du/dx)."""
    # face-centered H and du/dx over faces 0..n built from the width-1 ring
    Hf = 0.5 * (Hp[1:-2] + Hp[2:-1])
    dudx_f = (up[2:-1] - up[1:-2]) / dx
    mu = 4.0 * nu * Hf * dudx_f
    return (mu[1:] - mu[:-1]) / dx


def hydrostatic_tendency(state, bathy, params, grid, *, include_friction=True,
                         first_order=False, stats=None, sources=None):
    """Tendencies ``(dH/dt, dq/dt)`` of the viscous hydrostatic tier.

    Parameters
    ----------
    state : FlowState
        Current conserved variables; ``state.t`` fixes the evaluation time
        for the bed and the atmospheric pressure.
    bathy : BathymetryField
    params : PhysicalParams
    grid : Grid
    include_friction : bool
        Add the pointwise damping ``-kappa_eff u_bar`` to ``dq/dt``.  The
        time integrator disables this and treats friction implicitly.
    first_order : bool
        Drop the linear reconstruction (debug mode for convergence tests).
    stats : dict, optional
        Mutated in place with event counters (face-depth clamps).
    sources : (callable, callable), optional
        Manufactured source pair ``(S_H(x, t), S_q(x, t))`` added verbatim.

    Returns
    -------
    (ndarray, ndarray)
        ``dH/dt`` and ``dq/dt`` at the cell centers.
    """
    dHdt, dqdt, Hp, up, zp, _ = _fv_core(
        state, bathy, params, grid, first_order=first_order, stats=stats,
        include_pressure=True, sources=sources)
    x = grid.cell_centers
    t = state.t

    if params.nu > 0.0:
        dqdt = dqdt + _viscous_tendency(Hp, up, grid.dx, params.nu)

    grad_pa = params.p_atm.grad_x(x, t)
    if np.any(grad_pa):
        dqdt = dqdt - state.H * grad_pa

    if include_friction and (params.k_l > 0.0 or params.k_t > 0.0):
        dqdt = dqdt - pointwise_friction_coefficient(
            state, bathy, params, grid, ModelTier.HYDROSTATIC) * state.velocity()

    return dHdt, dqdt


def pointwise_friction_coefficient(state, bathy, params, grid, tier):
    """Coefficient ``c`` of the pointwise momentum damping ``-c u_bar``.

    Hydrostatic: ``kappa_eff``.  Dispersive viscous tiers additionally carry
    the bed-slope enhancement ``(1 + 5/2 (dz_b/dx)^2)``.  Inviscid tier: 0.
    """
    n = grid.n_cells
    if tier is ModelTier.PEREGRINE_INVISCID:
        return np.zeros(n)
    if params.k_l == 0.0 and params.k_t == 0.0:
        return np.zeros(n)
    x = grid.cell_centers
    zb = bathy.elevation(x, state.t)
    zp = _pad(zb, grid.boundary, 1.0)
    zbx = _centered_difference(zp[1:-1], grid.dx)
    H = state.H
    u = state.velocity()
    kappa = friction_kappa(u, zbx, H, params)
    wet = H >= DRY_THRESHOLD
    coeff = np.where(wet, effective_friction(kappa, np.maximum(H, DRY_THRESHOLD),
                                             params.nu), 0.0)
    if tier in (ModelTier.NONHYDRO1, ModelTier.NONHYDRO2):
        coeff = coeff * (1.0 + 2.5 * zbx**2)
    return coeff


@dataclass
class DispersiveSystem:
    """Implicit acceleration problem ``A[a] = F`` of a tier.

    Attributes
    ----------
    A : swdisp.solver.BandedMatrix
        Depth-integrated inertia operator: tridiagonal for the dispersive
        tiers (symmetric-positive structure, diagonally dominant for
        resolved depths, two corners on periodic domains), ``diag(H)`` for
        the hydrostatic tier.
    F : ndarray
        Explicit right-hand side (advective core plus dispersive,
        moving-bottom, atmospheric, and friction-gradient forcings).
    dHdt : ndarray
        Mass tendency of the advective core (flux form).
    friction : ndarray
        Pointwise damping coefficient for implicit treatment by the
        integrator (zero when it was already folded into ``F``).
    """

    A: "object"
    F: np.ndarray
    dHdt: np.ndarray
    friction: np.ndarray = field(default=None)


def _operator_stencils(Hc, zc, coeff1_cells, coeff2_cells, slope_c1,
                       slope_c2, zbx, dx, boundary):
    """Band diagonals of ``A[a] = H a + d/dx(flux) + dz_b/dx * slope``.

    ``flux = coeff1 da/dx + coeff2 d(z_b a)/dx`` discretized with arithmetic
    face averages of the cellwise coefficient arrays and one-gap face
    gradients; ``slope = slope_c1 da/dx + slope_c2 d(z_b a)/dx`` uses
    centered differences.  ``coeff*``/``zc`` are width-1-ring arrays;
    ``Hc``/``zbx``/``slope_*`` are real-cell arrays.
    """
    n = Hc.size
    c1_face_R = 0.5 * (coeff1_cells[1:-1] + coeff1_cells[2:])
    c1_face_L = 0.5 * (coeff1_cells[1:-1] + coeff1_cells[:-2])
    c2_face_R = 0.5 * (coeff2_cells[1:-1] + coeff2_cells[2:])
    c2_face_L = 0.5 * (coeff2_cells[1:-1] + coeff2_cells[:-2])
    zc_mid = zc[1:-1]
    zc_R = zc[2:]
    zc_L = zc[:-2]

    if boundary is Boundary.WALL:
        # no dispersive flux through a wall face
        c1_face_L[0] = c2_face_L[0] = 0.0
        c1_face_R[-1] = c2_face_R[-1] = 0.0

    inv_dx2 = 1.0 / dx**2
    inv_2dx = 1.0 / (2.0 * dx)

    sup1 = (c1_face_R + c2_face_R * zc_R) * inv_dx2 \
        + zbx * (slope_c1 + slope_c2 * zc_R) * inv_2dx
    diag = Hc - (c1_face_R + c1_face_L) * inv_dx2 \
        - (c2_face_R + c2_face_L) * zc_mid * inv_dx2
    sub1 = (c1_face_L + c2_face_L * zc_L) * inv_dx2 \
        - zbx * (slope_c1 + slope_c2 * zc_L) * inv_2dx
    return {-1: sub1, 0: diag, 1: sup1}


def _dry_guard(stencils, H):
    """Decouple dry cells: identity row so the solve returns ``a = F = 0``."""
    dry = H < DRY_THRESHOLD
    if not dry.any():
        return stencils
    out = {}
    for k, arr in stencils.items():
        arr = arr.copy()
        arr[dry] = 1.0 if k == 0 else 0.0
        # also cut couplings *into* dry cells from wet neighbors
        if k != 0:
            idx = np.nonzero(dry)[0] - k
            idx = idx[(idx >= 0) & (idx < arr.size)]
            arr[idx] = 0.0
        out[k] = arr
    return out


def assemble_dispersive(state, bathy, params, grid, tier, *,
                        include_pointwise_friction=True, first_order=False,
                        stats=None, sources=None, debug=False):
    """Build the implicit system ``A[a] = F`` of a tier.

    Parameters mirror :func:`hydrostatic_tendency`; ``tier`` selects the
    vertical closure (the hydrostatic tier is the diagonal case
    ``A = diag(H)``, ``F = dq/dt - u_bar dH/dt``).
    ``include_pointwise_friction=False`` leaves the damping ``-c u_bar`` out
    of ``F`` and reports ``c`` in ``DispersiveSystem.friction`` for implicit
    treatment.  ``debug`` turns on diagonal-dominance and residual checking
    in the linear algebra.

    Returns
    -------
    DispersiveSystem
    """
    from .solver import BandedMatrix

    H = state.H
    u = state.velocity()
    if tier is ModelTier.HYDROSTATIC:
        dHdt, dqdt = hydrostatic_tendency(
            state, bathy, params, grid, include_friction=False,
            first_order=first_order, stats=stats, sources=sources)
        F = dqdt - u * dHdt
        stencils = {0: H}
    else:
        stencils, F, dHdt = _dispersive_terms(
            state, bathy, params, grid, tier, u, first_order=first_order,
            stats=stats, sources=sources)
    A = BandedMatrix.from_stencils(_dry_guard(stencils, H), grid.boundary)

    if debug:  # row sums of |A| in O(n)
        magnitude = BandedMatrix(np.abs(A.bands), tuple(map(abs, A.corners)))
        diag = magnitude.bands[1]
        offdiag = magnitude.matvec(np.ones(A.n)) - diag
        if np.any(diag < offdiag - 1e-12 * diag):
            raise AssertionError("inertia operator lost diagonal dominance")

    # ---- pointwise friction ----------------------------------------------
    fric = pointwise_friction_coefficient(state, bathy, params, grid, tier)
    if include_pointwise_friction and np.any(fric):
        F = F - fric * u

    wet = H >= DRY_THRESHOLD
    if not wet.all():
        F = np.where(wet, F, 0.0)

    return DispersiveSystem(A=A, F=F, dHdt=dHdt, friction=fric)


def _dispersive_terms(state, bathy, params, grid, tier, u, *, first_order,
                      stats, sources):
    """Stencils of ``A``, ``F`` without pointwise friction, and ``dH/dt``."""
    n = grid.n_cells
    dx = grid.dx
    bc = grid.boundary
    x = grid.cell_centers
    t = state.t
    H = state.H
    zb = bathy.elevation(x, t)
    eta = zb + H

    inviscid = tier is ModelTier.PEREGRINE_INVISCID
    eff_params = params
    if inviscid:
        eff_params = PhysicalParams(g=params.g, nu=0.0, k_l=0.0, k_t=0.0,
                                    p_atm=params.p_atm)

    # ---- advective core -------------------------------------------------
    if inviscid:
        dHdt, dqdt_core, Hp, up, zp, etap = _fv_core(
            state, bathy, eff_params, grid, first_order=first_order,
            stats=stats, include_pressure=False, sources=sources)
        grad_pa = params.p_atm.grad_x(x, t)
        if np.any(grad_pa):
            dqdt_core = dqdt_core - H * grad_pa
    else:
        dHdt, dqdt_core = hydrostatic_tendency(
            state, bathy, eff_params, grid, include_friction=False,
            first_order=first_order, stats=stats, sources=sources)
        Hp = _pad(H, bc, 1.0)
        up = _pad(u, bc, -1.0)
        zp = _pad(zb, bc, 1.0)
        etap = zp + Hp

    F = dqdt_core - u * dHdt

    # ---- shared discrete fields -----------------------------------------
    ring = slice(1, -1)
    s_ring = _centered_difference(up, dx)  # du/dx at cells -1..n
    zbx_ring = _centered_difference(zp, dx)
    Hx_ring = _centered_difference(Hp, dx)
    etax_ring = _centered_difference(etap, dx)
    u_ring = up[ring]
    H_ring = Hp[ring]
    z_ring = zp[ring]
    eta_ring = etap[ring]

    s = _interior(s_ring)
    zbx = _interior(zbx_ring)

    bed_rate = bathy.rate(x, t)
    bed_rate_scalar = float(bed_rate[0]) if np.ndim(bed_rate) else float(bed_rate)
    bed_accel = bathy.accel(x, t)

    kappa_ring = (np.zeros(n + 2) if inviscid or
                  (params.k_l == 0.0 and params.k_t == 0.0)
                  else friction_kappa(u_ring, zbx_ring, H_ring, params))
    kappa = _interior(kappa_ring)

    # ---- operator stencils ----------------------------------------------
    if tier is ModelTier.NONHYDRO2:
        # A[a] = H a + d/dx((H^3/6 - eta H^2/2) da/dx + (H^2/2) d(z_b a)/dx)
        #            + dz_b/dx ((H^2/2 - eta H) da/dx + H d(z_b a)/dx)
        coeff1 = Hp**3 / 6.0 - etap * Hp**2 / 2.0
        coeff2 = Hp**2 / 2.0
        slope_c1 = H**2 / 2.0 - eta * H
        slope_c2 = H
    else:
        # A[a] = H a + d/dx(-(z_b^3/6) da/dx + (z_b^2/2) d(z_b a)/dx)
        #            + dz_b/dx ((z_b^2/2) da/dx - z_b d(z_b a)/dx)
        coeff1 = -(zp**3) / 6.0
        coeff2 = zp**2 / 2.0
        slope_c1 = zb**2 / 2.0
        slope_c2 = -zb

    stencils = _operator_stencils(H, zp[ring], coeff1[ring], coeff2[ring],
                                  slope_c1, slope_c2, zbx, dx, bc)

    # ---- explicit dispersive forcings ------------------------------------
    if tier in (ModelTier.NONHYDRO1, ModelTier.PEREGRINE_INVISCID):
        if not inviscid and np.any(kappa):
            flux_k = (kappa_ring / 6.0) * z_ring * (z_ring * s_ring
                                                    + 7.0 * zbx_ring * u_ring)
            F = F + _centered_difference(flux_k, dx)
            F = F - (kappa / 2.0) * zbx * (zb * s - zbx * u)
        if bed_rate_scalar != 0.0:
            mixed = bed_rate_scalar * s_ring          # d/dx(u db/dt)
            F = F - _centered_difference((z_ring**2 / 2.0) * mixed, dx)
            F = F + zbx * zb * _interior(mixed)
    else:  # NONHYDRO2
        uxx_ring = _cell_curvature(up, dx)
        zbxx_ring = _cell_curvature(zp, dx)
        m_ring = _centered_difference(zp * up, dx)  # d(z_b u)/dx
        divq_ring = _centered_difference(Hp * up, dx)
        deta_dt_ring = bed_rate_scalar - divq_ring

        # stationary quadratic-velocity pressure work
        F = F + _nh2_stationary_extras_from_rings(
            H_ring, u_ring, s_ring, Hx_ring, zbx_ring, zbxx_ring, uxx_ring,
            kappa_ring, params, zbx, dx)

        # time-derivative-bearing depth-averaged pressure part
        P1_ring = -H_ring * deta_dt_ring * (eta_ring * s_ring - m_ring)
        F = F - _centered_difference(P1_ring, dx)
        # and its bottom-pressure partner
        pb = (_interior(deta_dt_ring) * _interior(m_ring)
              - eta * _interior(deta_dt_ring) * s
              + _interior(deta_dt_ring) * bed_rate_scalar)
        F = F - zbx * pb

        if bed_rate_scalar != 0.0:
            mixed = bed_rate_scalar * s_ring
            F = F - _centered_difference((H_ring**2 / 2.0) * mixed, dx)
            F = F - zbx * H * _interior(mixed)
        accel_scalar = float(bed_accel[0]) if np.ndim(bed_accel) else float(bed_accel)
        if accel_scalar != 0.0:
            F = F + zb * zbx * accel_scalar
            F = F - 0.5 * accel_scalar * _centered_difference(H_ring**2, dx)

        if np.any(kappa):
            fluxg = kappa_ring * H_ring * (
                (H_ring / 6.0) * s_ring
                - ((7.0 / 6.0) * zbx_ring + etax_ring / 3.0) * u_ring)
            F = F + _centered_difference(fluxg, dx)
            F = F + kappa * zbx * ((0.5 * _interior(Hx_ring) + zbx) * u
                                   + (H / 2.0) * s)

    return stencils, F, dHdt


def _nh2_stationary_extras_from_rings(H_ring, u_ring, s_ring, Hx_ring,
                                      zbx_ring, zbxx_ring, uxx_ring,
                                      kappa_ring, params, zbx, dx):
    """Stationary extra momentum tendencies of the fully nonlinear tier.

    The modified-height convective correction plus the quadratic-velocity
    part of the non-hydrostatic pressure (depth average and bed value), all
    free of time derivatives.
    """
    if params.nu > 0.0:
        Hm_minus_H = 2.0 * kappa_ring**2 * H_ring**3 / (15.0 * params.nu**2)
    else:
        Hm_minus_H = np.zeros_like(H_ring)
    out = -_centered_difference(Hm_minus_H * u_ring**2, dx)

    depth_avg = (H_ring / 6.0) * (
        -4.0 * H_ring**2 * s_ring**2
        - 2.0 * H_ring**2 * u_ring * uxx_ring
        - 6.0 * H_ring * Hx_ring * s_ring * u_ring
        + 9.0 * H_ring * zbx_ring * s_ring * u_ring
        + 3.0 * H_ring * zbxx_ring * u_ring**2
        + 6.0 * zbx_ring * Hx_ring * u_ring**2)
    out = out - _centered_difference(depth_avg, dx)

    bottom_ring = (-0.5 * _centered_difference(H_ring**2 * s_ring * u_ring, dx)
                   + _centered_difference(H_ring * zbx_ring * u_ring**2, dx))
    out = out - zbx * bottom_ring
    return out


def steady_residual(state, bathy, params, grid, tier):
    """Momentum residual of a candidate steady state (all d/dt forced to 0).

    The mild-slope dispersive tier shares the hydrostatic stationary
    operator verbatim (its dispersive terms all carry accelerations or bed
    motion), so its residual is computed by the identical code path.  The
    fully nonlinear tier adds its stationary quadratic-velocity pressure
    terms and the modified-height convective correction.  The inviscid tier
    drops viscosity/friction and applies the surface-gradient pressure in
    non-conservative form.
    """
    if tier in (ModelTier.HYDROSTATIC, ModelTier.NONHYDRO1):
        return hydrostatic_tendency(state, bathy, params, grid,
                                    include_friction=True)[1]

    n = grid.n_cells
    dx = grid.dx
    bc = grid.boundary
    x = grid.cell_centers
    t = state.t
    H = state.H
    u = state.velocity()
    zb = bathy.elevation(x, t)

    if tier is ModelTier.PEREGRINE_INVISCID:
        eff = PhysicalParams(g=params.g, nu=0.0, k_l=0.0, k_t=0.0,
                             p_atm=params.p_atm)
        _, dqdt, _, _, _, _ = _fv_core(state, bathy, eff, grid,
                                       first_order=False, stats=None,
                                       include_pressure=False)
        grad_pa = params.p_atm.grad_x(x, t)
        if np.any(grad_pa):
            dqdt = dqdt - H * grad_pa
        return dqdt

    # fully nonlinear tier
    r = hydrostatic_tendency(state, bathy, params, grid,
                             include_friction=True)[1]
    Hp = _pad(H, bc, 1.0)
    up = _pad(u, bc, -1.0)
    zp = _pad(zb, bc, 1.0)
    s_ring = _centered_difference(up, dx)
    zbx_ring = _centered_difference(zp, dx)
    Hx_ring = _centered_difference(Hp, dx)
    uxx_ring = _cell_curvature(up, dx)
    zbxx_ring = _cell_curvature(zp, dx)
    zbx = _interior(zbx_ring)
    kappa_ring = (np.zeros(n + 2) if params.k_l == 0.0 and params.k_t == 0.0
                  else friction_kappa(up[1:-1], zbx_ring, Hp[1:-1], params))
    return r + _nh2_stationary_extras_from_rings(
        Hp[1:-1], up[1:-1], s_ring, Hx_ring, zbx_ring, zbxx_ring, uxx_ring,
        kappa_ring, params, zbx, dx)
