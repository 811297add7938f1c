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
tridiagonal.  Every tier builds ``A`` one way: the stage's own
off-diagonal bands (boundary folded in; all zero for Hydrostatic; a copy of
the run's for NonHydro1 and PeregrineInviscid) with the state's diagonal
added in place, and dry cells then cut out of the bands.  NonHydro2 adds
its explicit dispersive forcings in one form,
``D(H G) + dz_b/dx (P - D(H B))`` with ``D`` the centred difference: every
pure-divergence flux is summed over ``H`` into ``G`` and the bottom-pressure
flux into ``B`` before the two are differenced.

A run keeps what it does not change in one private :class:`_RunContext`:
the grid and, as the bed ``Z_b(x) + b(t)`` is separable, its slope and
curvature, the dispersive friction's bed factor, and the bed part of
NonHydro1's and PeregrineInviscid's ``A`` for the last ``b``.  It hands out
one field bundle (:class:`_Fields`) per state, which carries the state's
wet mask and derives, once each, its differences, wall-law ``kappa``,
``kappa_eff`` and atmospheric-pressure gradient, and for the energy reports
one bundle per block of states, with one row per state.

Sign and orientation conventions: ``z_b < 0`` below the datum, ``H >= 0``,
``eta = z_b + H``; fluxes are positive rightward; tendencies are in
conservation form ``d(H)/dt``, ``d(q)/dt`` with ``q = H u_bar``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .closures import effective_friction, friction_kappa
from .core import DRY_THRESHOLD, Boundary, ZeroPressure

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
    A 2-D array is padded along its last axis, one row per state.
    """
    v = np.asarray(values, dtype=float)
    out = np.empty(v.shape[:-1] + (v.shape[-1] + 2 * NGHOST,))
    out[..., NGHOST:-NGHOST] = v
    if boundary is Boundary.PERIODIC:
        out[..., :NGHOST] = v[..., -NGHOST:]
        out[..., -NGHOST:] = v[..., :NGHOST]
    elif boundary is Boundary.WALL:
        out[..., :NGHOST] = parity * v[..., NGHOST - 1 :: -1]
        out[..., -NGHOST:] = parity * v[..., : -NGHOST - 1 : -1]
    else:  # Boundary.COPY
        out[..., :NGHOST] = v[..., :1]
        out[..., -NGHOST:] = v[..., -1:]
    return out


def _centered_difference(values, dx):
    """Centered first derivative at the interior points of ``values``.

    The output has two entries fewer than the input: a padded array
    (``n + 2 * NGHOST`` entries) gives its width-1 ring (cells ``-1 .. n``),
    and a ring array gives the ``n`` real cells.  Taken along the last axis.
    """
    return (values[..., 2:] - values[..., :-2]) / (2.0 * dx)


def _cell_curvature(padded, dx):
    """Centered second derivative at the padded interior (width-1 ring)."""
    return (padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / dx**2


def _interior(cellwise):
    """Real-cell slice of a width-1-ring array (along the last axis)."""
    return cellwise[..., 1:-1]


@dataclass
class _Fields:
    """Fields of one state read by the core, assembly, friction and reports.

    ``Hp``, ``up``, ``zp``, ``etap`` carry ``NGHOST`` ghost cells per side.
    ``eta`` and the centered differences (width-1 ring) ``ux_ring``,
    ``Hx_ring``, ``etax_ring``, ``divq_ring`` of ``H u`` and ``m_ring`` of
    ``z_b u`` are computed on first use; the bed's are the run's.
    ``bed_offset``, ``bed_rate`` and ``bed_accel`` are ``b``, ``db/dt`` and
    ``d^2b/dt^2``; ``wet`` is ``H >= DRY_THRESHOLD``; ``params`` and the
    bed factor ``1 + 5/2 (dz_b/dx)^2`` are the run's.  The wall-law
    ``kappa_ring``, ``kappa_eff`` and the atmospheric-pressure gradient
    ``grad_pa`` are derived on first use, ``face_clamps`` (face depths
    clamped to zero) set by :func:`_fv_core`.  A block bundle
    (:meth:`_RunContext.block`) holds one row per state, its times and bed
    values as columns, and has no ``grad_pa``.
    """

    t: float
    x: np.ndarray
    dx: float
    H: np.ndarray
    q: np.ndarray
    u: np.ndarray
    zb: np.ndarray
    Hp: np.ndarray
    up: np.ndarray
    zp: np.ndarray
    etap: np.ndarray
    zbx_ring: np.ndarray
    zbxx_ring: np.ndarray
    bed_offset: float
    bed_rate: float
    bed_accel: float
    wet: np.ndarray
    all_wet: bool
    params: object
    bed_factor: np.ndarray
    face_clamps: int = 0  # set by _fv_core

    @cached_property
    def eta(self):
        return self.zb + self.H

    @cached_property
    def ux_ring(self):
        return _centered_difference(self.up, self.dx)

    @cached_property
    def Hx_ring(self):
        return _centered_difference(self.Hp, self.dx)

    @cached_property
    def etax_ring(self):
        return _centered_difference(self.etap, self.dx)

    @cached_property
    def divq_ring(self):
        return _centered_difference(self.Hp * self.up, self.dx)

    @cached_property
    def m_ring(self):
        return _centered_difference(self.zp * self.up, self.dx)

    @cached_property
    def grad_pa(self):
        """None for a ``ZeroPressure``."""
        p_atm = self.params.p_atm
        return (None if isinstance(p_atm, ZeroPressure)
                else p_atm.grad_x(self.x, self.t))

    @cached_property
    def kappa_ring(self):
        """None without wall-law friction (``k_l = k_t = 0``)."""
        p = self.params
        return (None if p.k_l == 0.0 and p.k_t == 0.0 else friction_kappa(
            self.up[..., 1:-1], self.zbx_ring, self.Hp[..., 1:-1], p))

    @cached_property
    def kappa_eff(self):
        """Zero on dry cells; None without wall-law friction."""
        if self.kappa_ring is None:
            return None
        kappa, H, nu = _interior(self.kappa_ring), self.H, self.params.nu
        return (effective_friction(kappa, H, nu) if self.all_wet
                else np.where(self.wet, effective_friction(
                    kappa, np.maximum(H, DRY_THRESHOLD), nu), 0.0))


class _RunContext:
    """What a run does not change, and the fields of the last state seen.

    Built once per run by :func:`swdisp.solver.run_simulation`, and per
    call by a public function that gets none (see :meth:`of`): the cell
    centres and the padded profile ``Z_b`` with its ring slope and
    curvature, which ``z_b = Z_b + b(t)`` shares at every time, the
    dispersive friction's bed factor ``1 + 5/2 (dz_b/dx)^2``, and whether
    the atmospheric pressure is a ``ZeroPressure``.
    :meth:`fields` returns the last bundle again for the same state object,
    so a state must not be mutated after its fields were taken, and
    :meth:`bed_operator` a copy of the last operator for the same ``b``.
    Bundles hold no reference back to the context: a context built per
    call is then freed at once, not by the cyclic garbage collector.
    """

    def __init__(self, bathy, params, grid):
        self.bathy, self.params, self.grid = bathy, params, grid
        self.boundary = grid.boundary
        self.x = grid.cell_centers
        self.dx = grid.dx
        self.zero_pressure = isinstance(params.p_atm, ZeroPressure)
        self.Zp = _pad(bathy.profile.value(self.x), self.boundary)
        self.zbx_ring = _centered_difference(self.Zp, self.dx)
        self.zbxx_ring = _cell_curvature(self.Zp, self.dx)
        self.bed_factor = 1.0 + 2.5 * _interior(self.zbx_ring)**2
        self._last = self._operator = (None, None)

    @classmethod
    def of(cls, context, bathy, params, grid):
        """``context``, or a new context when it is None.

        Raises ``ValueError`` when ``context`` was built from other objects
        than ``bathy``, ``params`` and ``grid``: its bed, boundary, pressure
        gradient and the wall-law kappa of its bundles would silently stand
        in for theirs.
        """
        if context is None:
            return cls(bathy, params, grid)
        if not (context.bathy is bathy and context.params is params
                and context.grid is grid):
            raise ValueError("context was built from another bathymetry, "
                             "params or grid")
        return context

    def fields(self, state):
        """The :class:`_Fields` of ``state``, built once per state object."""
        last, f = self._last
        if state is not last:
            f = self._build(state.t, state.H, state.q, *self._bed(state.t))
            self._last = (state, f)
        return f

    def block(self, states):
        """One bundle of ``states``, not kept: one row per state, ``t`` and
        the bed values as columns."""
        t = np.array([s.t for s in states])[:, None]
        bed = np.array([self._bed(s.t) for s in states]).T[..., None]
        return self._build(t, np.array([s.H for s in states]),
                           np.array([s.q for s in states]), *bed)

    def _bed(self, t):
        """``b``, ``db/dt`` and ``d^2b/dt^2`` at time ``t``."""
        m = self.bathy.motion
        return float(m.value(t)), float(m.rate(t)), float(m.accel(t))

    def bed_operator(self, f):
        """``(X, Y, off)`` of the bed in ``f``, built once per ``b``:
        :func:`_bed_operator`'s diagonal parts and a copy, the caller's to
        change, of the ``BandedMatrix`` of its off-diagonals with a zero
        diagonal (boundary folds aside)."""
        from .solver import BandedMatrix

        b, parts = self._operator
        if f.bed_offset != b:
            sub, X, Y, sup = _bed_operator(f.zp, self.zbx_ring, self.dx,
                                           self.boundary)
            parts = (X, Y, BandedMatrix.from_stencils(sub, sup, self.boundary))
            self._operator = (f.bed_offset, parts)
        X, Y, off = parts
        return X, Y, BandedMatrix(off.bands.copy(), off.corners)

    def _build(self, t, H, q, b, bed_rate, bed_accel):
        bc = self.boundary
        zp = self.Zp + b
        wet = H >= DRY_THRESHOLD
        u = np.zeros_like(H)  # FlowState.velocity, from the same mask
        np.divide(q, H, out=u, where=wet)
        Hp = _pad(H, bc, 1.0)
        return _Fields(t=t, x=self.x, dx=self.dx, H=H, q=q, u=u,
                       zb=zp[..., NGHOST:-NGHOST], Hp=Hp, up=_pad(u, bc, -1.0),
                       zp=zp, etap=zp + Hp, zbx_ring=self.zbx_ring,
                       zbxx_ring=self.zbxx_ring, bed_offset=b,
                       bed_rate=bed_rate, bed_accel=bed_accel,
                       wet=wet, all_wet=bool(wet.all()), params=self.params,
                       bed_factor=self.bed_factor)


def _fv_core(f, *, first_order, include_pressure, sources=None):
    """Finite-volume mass/momentum tendencies of the advective core.

    With ``include_pressure`` the momentum flux carries ``g H^2 / 2`` with
    hydrostatic face reconstruction (well balanced against the bed source);
    without it only ``H u^2`` is fluxed, for tiers that apply the pressure
    gradient in non-conservative form.
    """
    dx, g = f.dx, f.params.g
    Hp, up, etap = f.Hp, f.up, f.etap
    Hc, uc, etac = Hp[1:-1], up[1:-1], etap[1:-1]

    # in-cell face-extrapolated values for cells -1 .. n, from half the
    # unlimited central (Fromm) slopes on H, u, eta (zero in first order)
    if first_order:
        hH = hu = heta = 0.0
    else:
        hH = 0.25 * (Hp[2:] - Hp[:-2])
        hu = 0.25 * (up[2:] - up[:-2])
        heta = 0.25 * (etap[2:] - etap[:-2])
    H_left_in, H_right_in = Hc - hH, Hc + hH
    u_left_in, u_right_in = uc - hu, uc + hu
    eta_left_in, eta_right_in = etac - heta, etac + heta
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
    f.face_clamps = 0
    if Hs_L_raw.min() < 0.0 or Hs_R_raw.min() < 0.0:
        f.face_clamps = int(np.count_nonzero(Hs_L_raw < 0.0)
                            + np.count_nonzero(Hs_R_raw < 0.0))

    qs_L = Hs_L * u_L
    qs_R = Hs_R * u_R
    half_lam = 0.5 * np.maximum(np.abs(u_L) + np.sqrt(g * Hs_L),
                                np.abs(u_R) + np.sqrt(g * Hs_R))

    flux_H = 0.5 * (qs_L + qs_R) - half_lam * (Hs_R - Hs_L)
    if include_pressure:
        Hs_L2, Hs_R2 = Hs_L**2, Hs_R**2
        flux_q = (0.5 * (qs_L * u_L + 0.5 * g * Hs_L2
                         + qs_R * u_R + 0.5 * g * Hs_R2)
                  - half_lam * (qs_R - qs_L))
    else:
        flux_q = (0.5 * (qs_L * u_L + qs_R * u_R)
                  - half_lam * (qs_R - qs_L))

    dHdt = (flux_H[:-1] - flux_H[1:]) / dx

    # per-cell face values (cell i owns ring index i+1)
    H_own_left = H_left_in[1:-1]
    H_own_right = H_right_in[1:-1]
    z_own_left = z_left_in[1:-1]
    z_own_right = z_right_in[1:-1]

    if include_pressure:
        flux_q_right = flux_q[1:] + 0.5 * g * (H_own_right**2 - Hs_L2[1:])
        flux_q_left = flux_q[:-1] + 0.5 * g * (H_own_left**2 - Hs_R2[:-1])
        bed_source = (-g * 0.5 * (H_own_left + H_own_right)
                      * (z_own_right - z_own_left) / dx)
        dqdt = (flux_q_left - flux_q_right) / dx + bed_source
    else:
        dqdt = (flux_q[:-1] - flux_q[1:]) / dx
        # non-conservative surface-gradient form of the pressure
        dqdt -= g * f.H * _interior(f.etax_ring)

    # moving bottom: a rising bed displaces no depth-averaged mass directly
    # (H evolves only through the flux divergence) but shows up in eta; all
    # motion terms enter via the tiers' explicit forcings and the closures.

    if sources is not None:
        src_H, src_q = sources
        dHdt = dHdt + src_H(f.x, f.t)
        dqdt = dqdt + src_q(f.x, f.t)

    return dHdt, dqdt


def _viscous_tendency(Hp, up, dx, nu):
    """Conservative depth-integrated viscous term d/dx(4 nu H du/dx)."""
    # face-centered H and du/dx over faces 0..n built from the width-1 ring
    Hf = 0.5 * (Hp[1:-2] + Hp[2:-1])
    dudx_f = (up[2:-1] - up[1:-2]) / dx
    mu = 4.0 * nu * Hf * dudx_f
    return (mu[1:] - mu[:-1]) / dx


def _core_tendency(f, inviscid, *, damped=False, first_order=False,
                   sources=None):
    """``(dH/dt, dq/dt)`` of the advective core with its explicit forcings.

    The viscous tiers flux the hydrostatic pressure and add viscosity; the
    inviscid tier applies the surface gradient in non-conservative form.
    Both add the atmospheric-pressure gradient.  ``damped`` adds the
    hydrostatic wall-law damping ``-kappa_eff u_bar``.
    """
    dHdt, dqdt = _fv_core(f, first_order=first_order,
                          include_pressure=not inviscid, sources=sources)
    if not inviscid and f.params.nu > 0.0:
        dqdt = dqdt + _viscous_tendency(f.Hp, f.up, f.dx, f.params.nu)

    if f.grad_pa is not None and f.grad_pa.any():
        dqdt = dqdt - f.H * f.grad_pa

    if damped and f.kappa_ring is not None:
        dqdt = dqdt - _friction_coefficient(f, ModelTier.HYDROSTATIC) * f.u
    return dHdt, dqdt


def hydrostatic_tendency(state, bathy, params, grid):
    """Tendencies ``(dH/dt, dq/dt)`` at the cell centers of the viscous
    hydrostatic tier, including the pointwise wall-law damping
    ``-kappa_eff u_bar``, for the ``FlowState`` ``state`` on the
    ``BathymetryField`` ``bathy``, ``PhysicalParams`` ``params`` and
    ``Grid`` ``grid``; ``state.t`` fixes the evaluation time for the bed
    and the atmospheric pressure."""
    f = _RunContext(bathy, params, grid).fields(state)
    return _core_tendency(f, False, damped=True)


def _ring_kappa(f, tier):
    """The bundle's wall-law ``kappa`` on the width-1 ring; ``None`` for the
    inviscid tier, whose ``kappa`` is then not evaluated."""
    return None if tier is ModelTier.PEREGRINE_INVISCID else f.kappa_ring


def _friction_coefficient(f, tier):
    """Pointwise damping coefficient ``c`` of ``-c u_bar`` for ``tier``:
    zeros for the inviscid tier and without wall-law friction,
    ``kappa_eff`` for Hydrostatic, and ``kappa_eff`` times the bed factor
    ``1 + 5/2 (dz_b/dx)^2`` for NonHydro1 and NonHydro2."""
    if _ring_kappa(f, tier) is None:
        return np.zeros(f.H.size)
    if tier is ModelTier.HYDROSTATIC:
        return f.kappa_eff
    return f.kappa_eff * f.bed_factor


def pointwise_friction_coefficient(state, bathy, params, grid, tier):
    """Coefficient ``c`` of the pointwise momentum damping ``-c u_bar``.

    Hydrostatic: ``kappa_eff``.  Dispersive viscous tiers additionally carry
    the bed-slope enhancement ``(1 + 5/2 (dz_b/dx)^2)``.  Inviscid tier: 0.
    """
    f = _RunContext(bathy, params, grid).fields(state)
    return _friction_coefficient(f, tier)


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
        moving-bottom, atmospheric, and friction-gradient forcings),
        without the pointwise damping ``-c u_bar``.
    dHdt : ndarray
        Mass tendency of the advective core (flux form).
    friction : ndarray
        Pointwise damping coefficient ``c`` of ``-c u_bar``, zero on dry
        cells.  The integrator treats it implicitly and skips its divisor
        when ``c`` is all zero.  It may be an array the run keeps for the
        state: do not modify it.
    """

    A: "object"
    F: np.ndarray
    dHdt: np.ndarray
    friction: np.ndarray


def _operator_parts(zc, coeff1_cells, coeff2_cells, slope_c1, slope_c2, zbx,
                    dx, boundary):
    """Band parts ``(sub, X, Y, sup)`` of ``A[a] = H a + d/dx(flux)
    + dz_b/dx * slope``, whose diagonal is ``(H - X) - Y``.

    ``flux = coeff1 da/dx + coeff2 d(z_b a)/dx`` discretized with arithmetic
    face averages of the cellwise coefficient arrays and one-gap face
    gradients; ``slope = slope_c1 da/dx + slope_c2 d(z_b a)/dx`` uses
    centered differences.  ``coeff*``/``zc`` are width-1-ring arrays;
    ``zbx``/``slope_*`` are real-cell arrays.
    """
    c1_face = 0.5 * (coeff1_cells[:-1] + coeff1_cells[1:])  # faces 0 .. n
    c2_face = 0.5 * (coeff2_cells[:-1] + coeff2_cells[1:])
    if boundary is Boundary.WALL:
        # no dispersive flux through a wall face
        c1_face[0] = c1_face[-1] = c2_face[0] = c2_face[-1] = 0.0
    c1_face_L, c1_face_R = c1_face[:-1], c1_face[1:]
    c2_face_L, c2_face_R = c2_face[:-1], c2_face[1:]
    zc_mid = zc[1:-1]
    zc_R = zc[2:]
    zc_L = zc[:-2]

    inv_dx2 = 1.0 / dx**2
    inv_2dx = 1.0 / (2.0 * dx)

    sup1 = (c1_face_R + c2_face_R * zc_R) * inv_dx2 \
        + zbx * (slope_c1 + slope_c2 * zc_R) * inv_2dx
    X = (c1_face_R + c1_face_L) * inv_dx2
    Y = (c2_face_R + c2_face_L) * zc_mid * inv_dx2
    sub1 = (c1_face_L + c2_face_L * zc_L) * inv_dx2 \
        - zbx * (slope_c1 + slope_c2 * zc_L) * inv_2dx
    return sub1, X, Y, sup1


def _bed_operator(zp, zbx_ring, dx, boundary):
    """Operator parts of NonHydro1 and PeregrineInviscid, which depend on
    the bed alone:

    ``A[a] = H a + d/dx(-(z_b^3/6) da/dx + (z_b^2/2) d(z_b a)/dx)
    + dz_b/dx ((z_b^2/2) da/dx - z_b d(z_b a)/dx)``.
    """
    z_ring = zp[1:-1]
    zb = _interior(z_ring)
    return _operator_parts(z_ring, -(z_ring * z_ring * z_ring) / 6.0,
                           z_ring**2 / 2.0, zb**2 / 2.0, -zb,
                           _interior(zbx_ring), dx, boundary)


def assemble_dispersive(state, bathy, params, grid, tier, *,
                        first_order=False, sources=None, context=None):
    """Build the implicit system ``A[a] = F`` of a tier.

    Parameters mirror :func:`hydrostatic_tendency`; ``tier`` selects the
    vertical closure (the hydrostatic tier is the diagonal case
    ``A = diag(H)``, ``F = dq/dt - u_bar dH/dt``).  ``F`` leaves the damping
    ``-c u_bar`` out; ``c`` is reported for implicit treatment.
    ``first_order`` drops the linear reconstruction (debug mode for
    convergence tests); ``sources``, a manufactured pair
    ``(S_H(x, t), S_q(x, t))``, is added verbatim to the core's tendencies.
    ``context`` is the run's :class:`_RunContext` (one is built when absent;
    one built from other ``bathy``, ``params`` or ``grid`` raises
    ``ValueError``).

    Returns
    -------
    DispersiveSystem
    """
    from .solver import BandedMatrix

    context = _RunContext.of(context, bathy, params, grid)
    f = context.fields(state)
    H, u = f.H, f.u
    inviscid = tier is ModelTier.PEREGRINE_INVISCID
    dHdt, dqdt = _core_tendency(f, inviscid, first_order=first_order,
                                sources=sources)
    F = dqdt - u * dHdt
    if tier is ModelTier.HYDROSTATIC:
        A, diag = BandedMatrix(np.zeros((3, H.size))), H
    else:
        A, diag, F = _dispersive_terms(f, context, tier, F)
    A.bands[1] += diag  # the bands are this stage's own
    if not f.all_wet:
        A.decouple(~f.wet)
        F = np.where(f.wet, F, 0.0)
    return DispersiveSystem(A=A, F=F, dHdt=dHdt,
                            friction=_friction_coefficient(f, tier))


def _dispersive_terms(f, context, tier, F):
    """Off-diagonal ``BandedMatrix`` and diagonal of ``A``, and ``F`` (the
    advective core's on entry, updated in place) with the dispersive
    forcings added.

    NonHydro2's forcings take one form, ``F += D(H G) + dz_b/dx (P - D(H B))``
    with ``D`` the centred difference: ``G`` gathers every pure-divergence
    flux, ``B`` the bottom-pressure flux (both over ``H``, on the width-1
    ring), and ``P`` the pointwise terms that the bed slope multiplies.
    """
    from .solver import BandedMatrix

    dx, boundary = f.dx, context.boundary
    H, u, zb = f.H, f.u, f.zb

    # ---- shared discrete fields -----------------------------------------
    ring = slice(1, -1)
    s_ring = f.ux_ring  # du/dx at cells -1..n
    zbx_ring = f.zbx_ring
    u_ring = f.up[ring]
    H_ring = f.Hp[ring]
    z_ring = f.zp[ring]

    s = _interior(s_ring)
    zbx = _interior(zbx_ring)
    kappa_ring = _ring_kappa(f, tier)
    kappa = None if kappa_ring is None else _interior(kappa_ring)
    friction = kappa is not None and kappa.any()

    if tier is not ModelTier.NONHYDRO2:  # NonHydro1, PeregrineInviscid
        X, Y, off = context.bed_operator(f)
        if friction:
            flux_k = (kappa_ring / 6.0) * z_ring * (z_ring * s_ring
                                                    + 7.0 * zbx_ring * u_ring)
            F += _centered_difference(flux_k, dx)
            F -= (kappa / 2.0) * zbx * (zb * s - zbx * u)
        if f.bed_rate != 0.0:
            mixed = f.bed_rate * s_ring          # d/dx(u db/dt)
            F -= _centered_difference((z_ring**2 / 2.0) * mixed, dx)
            F += zbx * zb * _interior(mixed)
        return off, H - X - Y, F

    # ---- NonHydro2 operator ----------------------------------------------
    # A[a] = H a + d/dx((H^3/6 - eta H^2/2) da/dx + (H^2/2) d(z_b a)/dx)
    #            + dz_b/dx ((H^2/2 - eta H) da/dx + H d(z_b a)/dx)
    eta_ring = f.etap[ring]
    coeff2 = 0.5 * (H_ring * H_ring)
    sub, X, Y, sup = _operator_parts(
        z_ring, coeff2 * (H_ring / 3.0 - eta_ring), coeff2,
        _interior(coeff2) - f.eta * H, H, zbx, dx, boundary)
    off = BandedMatrix.from_stencils(sub, sup, boundary)

    # ---- NonHydro2 forcings: G, B and P ------------------------------------
    G, B = _nh2_stationary_extras(f)
    # time-derivative pressure: D(H w) and its bottom partner dz_b/dx w
    deta_dt_ring = f.bed_rate - f.divq_ring
    w_ring = deta_dt_ring * (eta_ring * s_ring - f.m_ring)
    G += w_ring
    P = _interior(w_ring)
    Hs_ring = H_ring * s_ring
    if f.bed_rate != 0.0:  # the pressure of u db/dt
        G -= (0.5 * f.bed_rate) * Hs_ring
        P = P - f.bed_rate * (_interior(deta_dt_ring) + _interior(Hs_ring))
    if f.bed_accel != 0.0:
        G -= (0.5 * f.bed_accel) * H_ring
        P = P + f.bed_accel * zb
    if friction:  # the friction gradient
        G += kappa_ring * (Hs_ring / 6.0 - ((7.0 / 6.0) * zbx_ring
                                            + f.etax_ring / 3.0) * u_ring)
        P = P + kappa * ((0.5 * _interior(f.Hx_ring) + zbx) * u
                         + 0.5 * _interior(Hs_ring))
    return off, H - X - Y, _add_nh2_forcing(F, f, G, B, P)


def _add_nh2_forcing(F, f, G, B, P=0.0):
    """``F += D(H G) + dz_b/dx (P - D(H B))`` in place, ``D`` the centred
    difference, ``G`` and ``B`` on the width-1 ring; returns ``F``."""
    H_ring = f.Hp[1:-1]
    F += _centered_difference(H_ring * G, f.dx)
    F += _interior(f.zbx_ring) * (P - _centered_difference(H_ring * B, f.dx))
    return F


def _nh2_stationary_extras(f):
    """Stationary extra momentum fluxes of the fully nonlinear tier: ``(G,
    B)`` over ``H`` on the width-1 ring, whose forcing is
    ``D(H G) - dz_b/dx D(H B)``.

    ``G`` holds the modified-height convective correction and the
    quadratic-velocity part of the depth-averaged non-hydrostatic pressure,
    ``B`` that of the bottom pressure; both are free of time derivatives.
    """
    H, u = f.Hp[1:-1], f.up[1:-1]
    s, Hx, zbx = f.ux_ring, f.Hx_ring, f.zbx_ring
    uxx = _cell_curvature(f.up, f.dx)
    u2 = u * u
    su = s * u

    # depth average over H: -(1/6) (-4 H^2 s^2 - 2 H^2 u u_xx
    # - 6 H H_x s u + 9 H z_b' s u + 3 H z_b'' u^2 + 6 z_b' H_x u^2)
    G = H * (H * (2.0 * s * s + u * uxx) / 3.0 + (Hx - 1.5 * zbx) * su
             - 0.5 * f.zbxx_ring * u2) - zbx * Hx * u2
    if f.kappa_ring is not None and f.params.nu > 0.0:
        # modified height H_m - H = 2 kappa^2 H^3 / (15 nu^2)
        kH = f.kappa_ring * H
        G -= (2.0 / (15.0 * f.params.nu**2)) * (kH * kH * u2)
    return G, zbx * u2 - 0.5 * H * su


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
    f = _RunContext(bathy, params, grid).fields(state)
    if tier is ModelTier.PEREGRINE_INVISCID:
        return _core_tendency(f, True)[1]
    dqdt = _core_tendency(f, False, damped=True)[1]
    if tier is ModelTier.NONHYDRO2:
        G, B = _nh2_stationary_extras(f)
        _add_nh2_forcing(dqdt, f, G, B)
    return dqdt
