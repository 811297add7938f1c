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
tridiagonal.  ``A`` is a :class:`BandedMatrix` (tridiagonal band storage
plus the two wrap-around corners of a periodic domain), which this module
alone builds and cuts.  Every tier builds it one way: the stage's own
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
one field bundle (:class:`_Fields`) per state, which the state's energy
report, time step and stages share.  A bundle's constructor sets its
fields; the rest it derives once each on first use.  The
finite-volume core returns its count of clamped face depths, which reaches
the stage as :attr:`DispersiveSystem.face_clamps`.

Arithmetic is written as plain expressions, except in the finite-volume
core and NonHydro2's operator and forcings, which build each expression in
one array they allocate (augmented assignment or ``out=``, in the plain
order, so results are bit-identical).  In an in-process A/B of alternated
runs, the plain form there made most NonHydro2 steps at n = 8192 1-6 %
slower; elsewhere it costs a step 0-4 %, NonHydro1's at n = 8192 6-10 %.
No function writes into the state, a field bundle or the run context.

Sign and orientation conventions: ``z_b < 0`` below the datum, ``H >= 0``,
``eta = z_b + H``; fluxes are positive rightward; tendencies are in
conservation form ``d(H)/dt``, ``d(q)/dt`` with ``q = H u_bar``.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np
from numpy.linalg import _umath_linalg

from .closures import effective_friction, friction_kappa
from .core import DRY_THRESHOLD, Boundary, ModelTier, ZeroPressure

__all__ = [
    "ModelTier",
    "SolverError",
    "BandedMatrix",
    "DispersiveSystem",
    "hydrostatic_tendency",
    "assemble_dispersive",
    "steady_residual",
    "pointwise_friction_coefficient",
]


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


class SolverError(RuntimeError):
    """A linear solve failed or was inaccurate, or a run went non-finite."""


# names of LAPACK's dgtsv with 8-byte integers in numpy's LAPACK: that of
# the scipy-openblas64 build numpy's wheels ship, then the plain ILP64 one
_NUMPY_DGTSV = ("scipy_dgtsv_64_", "dgtsv_64_")


@cache
def _load_dgtsv():
    """LAPACK's ``dgtsv`` as ``dgtsv(bands, rhs) -> info``, ``info > 0``
    for a singular matrix.  It overwrites both arrays, which must be owned
    and C-contiguous: ``bands`` in :class:`BandedMatrix` storage and
    ``rhs``, ``n`` or ``(k, n)`` values (a right-hand side per row), by the
    solution.

    Loaded at the first tridiagonal solve, so the hydrostatic tier runs
    without LAPACK.  ctypes finds the routine, under a name of
    ``_NUMPY_DGTSV``, in the LAPACK that ``import numpy`` has already
    loaded, so a dispersive run imports no scipy module.  Against
    scipy's ``_flapack``, which maps a second OpenBLAS, the load fell from
    3.1 to 0.2 ms and peak RSS by 2.4 MB (medians of 10 alternated fresh
    interpreters on a 2-core x86_64 host).  Where no such name resolves
    (Windows, or a numpy on a 4-byte-integer LAPACK), scipy's ``dgtsv``
    comes from its ``_flapack`` extension module alone, found on
    ``scipy.__path__`` without running ``scipy/linalg/__init__`` (0.2-0.3 s
    and 23 MB of imports), else from :mod:`scipy.linalg.lapack`.
    """
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name in _NUMPY_DGTSV:
        if hasattr(lib, name):
            routine = getattr(lib, name)
            int64 = ctypes.POINTER(ctypes.c_int64)
            routine.argtypes = [int64, int64, *[ctypes.c_void_p] * 4, int64,
                                int64]
            routine.restype = None
            return partial(_dgtsv_ilp64, routine)
    import importlib.machinery
    import importlib.util
    import os

    import scipy

    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack",
        [os.path.join(path, "linalg") for path in scipy.__path__])
    if spec is None:
        from scipy.linalg.lapack import dgtsv
    else:
        flapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
        dgtsv = flapack.dgtsv
    return partial(_dgtsv_f2py, dgtsv)


def _dgtsv_ilp64(routine, bands, rhs):
    """``dgtsv`` through the ctypes function ``routine``: ``n``, ``nrhs``,
    ``ldb`` and ``info`` are 8-byte integers passed by reference."""
    n, info = ctypes.c_int64(bands.shape[1]), ctypes.c_int64()
    at = ctypes.addressof(ctypes.c_char.from_buffer(bands))
    step = 8 * n.value  # bytes per band row
    routine(n, ctypes.c_int64(rhs.size // n.value), at + 2 * step, at + step,
            at + 8, ctypes.addressof(ctypes.c_char.from_buffer(rhs)), n, info)
    return info.value


def _dgtsv_f2py(routine, bands, rhs):
    """``dgtsv`` through scipy's wrapper ``routine``, told to overwrite."""
    return routine(bands[2, :-1], bands[1], bands[0, 1:], rhs.T,
                   True, True, True, True)[-1]


@dataclass
class BandedMatrix:
    """Tridiagonal matrix in LAPACK ``(1, 1)`` band storage, plus the two
    wrap-around corners of a periodic domain.

    ``bands[1 + i - j, j]`` holds ``A[i, j]`` for ``|i - j| <= 1``: row 0 is
    the super-diagonal, row 1 the diagonal, row 2 the sub-diagonal
    (``bands[0, 0]`` and ``bands[2, -1]`` are unused and zero).  ``corners``
    is ``(A[0, n-1], A[n-1, 0])`` on a periodic domain with wrap-around
    coupling and empty otherwise; :meth:`solve` removes it with the
    cyclic-tridiagonal Sherman-Morrison step (Temperton 1975; Numerical
    Recipes section 2.7), one extra right-hand side in the same call.
    """

    bands: np.ndarray
    corners: tuple = ()

    @property
    def n(self):
        return self.bands.shape[1]

    @classmethod
    def from_stencils(cls, sub, sup, boundary):
        """Off-diagonal bands of a tridiagonal operator, with a zero diagonal.

        ``sub[i]`` and ``sup[i]`` are the coefficients of unknowns ``i - 1``
        and ``i + 1`` in row ``i``.  The two ghost references (``sub[0]`` to
        unknown -1, ``sup[-1]`` to unknown n) follow ``boundary``: periodic
        wraps them into the corners, wall treats the ghost unknowns as zero
        (drops the entry), copy folds them onto the diagonal.  The caller
        adds the diagonal to ``bands[1]``.
        """
        bands = np.empty((3, len(sub)))
        bands[0, 0] = bands[2, -1] = 0.0
        bands[0, 1:] = sup[:-1]
        bands[1] = 0.0
        bands[2, :-1] = sub[1:]
        low, high = sub[0], sup[-1]
        corners = ()
        if boundary is Boundary.PERIODIC and (low != 0.0 or high != 0.0):
            corners = (low, high)
        elif boundary is Boundary.COPY:
            bands[1, 0] += low
            bands[1, -1] += high
        # Boundary.WALL: ghost unknowns vanish, entries dropped
        return cls(bands=bands, corners=corners)

    def decouple(self, mask):
        """Cut the cells where ``mask`` is true out of the system, in place:
        each gets an identity row and a unit column, across the wrap of a
        periodic domain too, so the solve returns the right-hand side there.
        Both corners go when the first or last cell is cut."""
        cells, bands = np.flatnonzero(mask), self.bands
        bands[:, cells] = ((0.0,), (1.0,), (0.0,))  # column
        bands[0, cells[cells < self.n - 1] + 1] = 0.0  # row: A[i, i+1]
        bands[2, cells[cells > 0] - 1] = 0.0  # row: A[i, i-1]
        if mask[0] or mask[-1]:
            self.corners = ()

    def _where(self, b):
        """`` (operator row i, right-hand side row j)``: the first row of
        ``A`` and of ``b`` that holds an inf or NaN, each named only where
        there is one; empty where both are finite (the corner update
        overflowed)."""
        k, j = np.nonzero(~np.isfinite(self.bands))
        rows = [j + k - 1]  # bands[k, j] is A[j + k - 1, j]
        rows += [[i] for i, c in zip((0, self.n - 1), self.corners)
                 if not math.isfinite(c)]
        found = {"operator": np.concatenate(rows),
                 "right-hand side": np.flatnonzero(~np.isfinite(b))}
        named = [f"{what} row {int(i.min())}"
                 for what, i in found.items() if i.size]
        return f" ({', '.join(named)})" if named else ""

    def matvec(self, x):
        """Product ``A @ x``."""
        x = np.asarray(x, dtype=float)
        y = self.bands[1] * x
        y[:-1] += self.bands[0, 1:] * x[1:]
        y[1:] += self.bands[2, :-1] * x[:-1]
        if self.corners:
            y[0] += self.corners[0] * x[-1]
            y[-1] += self.corners[1] * x[0]
        return y

    @np.errstate(over="ignore", invalid="ignore")
    def solve(self, b):
        """Solve ``A x = b``; a singular matrix, an inf or NaN in the
        operator or ``b`` (named by its first row) or a solution that is not
        finite raises :class:`SolverError` (an overflow raises no warning).

        A diagonal matrix is solved by division, any other by LAPACK
        ``dgtsv``.  Corners are split off as ``A = T + u v^T`` with
        ``u = (gamma, 0, .., 0, A[n-1, 0])``, ``v = (1, 0, .., 0,
        A[0, n-1] / gamma)``, ``gamma = -A[0, 0]``; ``T y = b`` and
        ``T z = u`` share one call and ``x = y - (v.y / (1 + v.z)) z``,
        refused as singular when ``1 + v.z`` is within rounding of zero.
        """
        b = np.asarray(b, dtype=float)
        diag = self.bands[1]
        if not (self.corners or self.bands[::2].any()):
            if not diag.all():
                raise SolverError("banded solve failed: singular matrix")
            x = b / diag
        else:
            # LAPACK overwrites these copies, x with the solution
            bands = self.bands.copy()
            if self.corners:
                upper, lower = self.corners
                gamma = -diag[0]
                ratio = upper / gamma
                bands[1, 0] -= gamma
                bands[1, -1] -= lower * ratio
                x = np.zeros((2, self.n))  # b and u, one per row
                x[0] = b
                x[1, 0] = gamma
                x[1, -1] += lower
            else:
                x = b.copy()
            if not (np.isfinite(bands).all() and np.isfinite(x).all()):
                raise SolverError("banded solve failed: array must not "
                                  "contain infs or NaNs" + self._where(b))
            if _load_dgtsv()(bands, x) > 0:
                raise SolverError("banded solve failed: singular matrix")
            if self.corners:
                y, z = x
                denom = 1.0 + z[0] + ratio * z[-1]
                scale = 1.0 + abs(z[0]) + abs(ratio * z[-1])
                if abs(denom) <= 8 * math.ulp(1.0) * scale:
                    raise SolverError("banded solve failed: singular matrix")
                x = y - ((y[0] + ratio * y[-1]) / denom) * z
        if not np.isfinite(x).all():
            raise SolverError("banded solve failed: non-finite solution")
        return x


class _Fields:
    """Fields of one state, read by the core, assembly, friction and the
    state's energy report.

    The constructor sets the wet mask (``H >= DRY_THRESHOLD``), velocity,
    bed and the ``NGHOST``-padded ``Hp``, ``up``, ``zp``, ``etap``, and
    shares the constants of the run context ``run`` without keeping it (a
    context built per call is then freed at once, not by the cyclic
    garbage collector).  The cached properties derive the rest once each;
    ``_ring`` fields are on the width-1 ring.  Nothing else writes into a
    bundle.
    """

    def __init__(self, run, t, H, q, b, bed_rate, bed_accel):
        self.t, self.H, self.q = t, H, q
        self.bed_offset, self.bed_rate, self.bed_accel = b, bed_rate, bed_accel
        self.x, self.dx, self.params = run.x, run.dx, run.params
        self.zbx_ring, self.zbxx_ring = run.zbx_ring, run.zbxx_ring
        self.bed_factor = run.bed_factor
        self.zp = run.Zp + b
        self.zb = self.zp[NGHOST:-NGHOST]
        self.wet = H >= DRY_THRESHOLD
        self.all_wet = bool(self.wet.all())
        self.u = np.zeros_like(H)  # FlowState.velocity, from the same mask
        np.divide(q, H, out=self.u, where=self.wet)
        self.Hp = _pad(H, run.boundary, 1.0)
        self.up = _pad(self.u, run.boundary, -1.0)
        self.etap = self.zp + self.Hp

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
            self.up[1:-1], self.zbx_ring, self.Hp[1:-1], p))

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
            t, m = state.t, self.bathy.motion
            f = _Fields(self, t, state.H, state.q, float(m.value(t)),
                        float(m.rate(t)), float(m.accel(t)))
            self._last = (state, f)
        return f

    def bed_operator(self, f):
        """``(X, Y, off)`` of the bed in ``f``, built once per ``b``:
        :func:`_bed_operator`'s diagonal parts and a copy, the caller's to
        change, of the ``BandedMatrix`` of its off-diagonals with a zero
        diagonal (boundary folds aside)."""
        b, parts = self._operator
        if f.bed_offset != b:
            sub, X, Y, sup = _bed_operator(f.zp, self.zbx_ring, self.dx,
                                           self.boundary)
            parts = (X, Y, BandedMatrix.from_stencils(sub, sup, self.boundary))
            self._operator = (f.bed_offset, parts)
        X, Y, off = parts
        return X, Y, BandedMatrix(off.bands.copy(), off.corners)


def _face_values(cells, padded, first_order):
    """In-cell values at the left and right faces of cells -1 .. n: the
    cell value minus and plus half the unlimited central (Fromm) slope,
    with a zero slope in first order."""
    if first_order:  # fresh arrays; ``+ 0.0`` turns -0 into +0
        return cells - 0.0, cells + 0.0
    half_slope = padded[2:] - padded[:-2]
    half_slope *= 0.25
    left = cells - half_slope
    return left, np.add(cells, half_slope, out=half_slope)


def _fv_core(f, *, first_order, include_pressure, sources=None):
    """Finite-volume mass/momentum tendencies of the advective core, and the
    number of face depths its hydrostatic reconstruction clamped to zero.

    With ``include_pressure`` the momentum flux carries ``g H^2 / 2`` with
    hydrostatic face reconstruction (well balanced against the bed source);
    without it only ``H u^2`` is fluxed, for tiers that apply the pressure
    gradient in non-conservative form.
    """
    dx, g = f.dx, f.params.g
    Hp, up, etap = f.Hp, f.up, f.etap
    H_left_in, H_right_in = _face_values(Hp[1:-1], Hp, first_order)
    u_left_in, u_right_in = _face_values(up[1:-1], up, first_order)
    eta_left_in, eta_right_in = _face_values(etap[1:-1], etap, first_order)
    z_left_in = eta_left_in - H_left_in
    z_right_in = eta_right_in - H_right_in

    # face j (j = 0 .. n) sits between ring cells j-1 and j
    u_L = u_right_in[:-1]
    u_R = u_left_in[1:]
    eta_L = eta_right_in[:-1]
    eta_R = eta_left_in[1:]
    z_L = z_right_in[:-1]
    z_R = z_left_in[1:]

    z_face = np.maximum(z_L, z_R)
    Hs_L = eta_L - z_face
    Hs_R = np.subtract(eta_R, z_face, out=z_face)
    clamps = 0
    if Hs_L.min() < 0.0 or Hs_R.min() < 0.0:
        clamps = int(np.count_nonzero(Hs_L < 0.0)
                     + np.count_nonzero(Hs_R < 0.0))
    np.maximum(Hs_L, 0.0, out=Hs_L)
    np.maximum(Hs_R, 0.0, out=Hs_R)

    qs_L = Hs_L * u_L
    qs_R = Hs_R * u_R
    # half the largest wave speed, 0.5 max(|u_L| + sqrt(g Hs_L), ...)
    half_lam = np.abs(u_L)
    wave = np.multiply(g, Hs_L)  # scratch of face length from here on
    half_lam += np.sqrt(wave, out=wave)
    speed_R = np.abs(u_R)
    np.multiply(g, Hs_R, out=wave)
    speed_R += np.sqrt(wave, out=wave)
    np.maximum(half_lam, speed_R, out=half_lam)
    half_lam *= 0.5

    flux_H = qs_L + qs_R
    flux_H *= 0.5
    flux_H -= np.multiply(half_lam, np.subtract(Hs_R, Hs_L, out=wave),
                          out=wave)
    flux_q = qs_L * u_L
    if include_pressure:
        Hs_L2 = np.square(Hs_L, out=Hs_L)  # the depths are not read again
        Hs_R2 = np.square(Hs_R, out=Hs_R)
        flux_q += np.multiply(0.5 * g, Hs_L2, out=wave)
        flux_q += np.multiply(qs_R, u_R, out=wave)
        flux_q += np.multiply(0.5 * g, Hs_R2, out=wave)
    else:
        flux_q += np.multiply(qs_R, u_R, out=wave)
    flux_q *= 0.5
    flux_q -= np.multiply(half_lam, np.subtract(qs_R, qs_L, out=wave),
                          out=wave)

    dHdt = flux_H[:-1] - flux_H[1:]
    dHdt /= dx

    # per-cell face values (cell i owns ring index i+1)
    H_own_left = H_left_in[1:-1]
    H_own_right = H_right_in[1:-1]

    if include_pressure:
        flux_q_right = H_own_right**2
        flux_q_right -= Hs_L2[1:]
        flux_q_right *= 0.5 * g
        flux_q_right += flux_q[1:]
        dqdt = H_own_left**2
        dqdt -= Hs_R2[:-1]
        dqdt *= 0.5 * g
        dqdt += flux_q[:-1]  # the left face's flux
        dqdt -= flux_q_right
        dqdt /= dx
        bed_source = H_own_left + H_own_right
        bed_source *= -g * 0.5
        bed_source *= z_right_in[1:-1] - z_left_in[1:-1]
        bed_source /= dx
        dqdt += bed_source
    else:
        dqdt = flux_q[:-1] - flux_q[1:]
        dqdt /= dx
        # non-conservative surface-gradient form of the pressure
        surface = g * f.H
        surface *= _interior(f.etax_ring)
        dqdt -= surface

    # moving bottom: a rising bed displaces no depth-averaged mass directly
    # (H evolves only through the flux divergence) but shows up in eta; all
    # motion terms enter via the tiers' explicit forcings and the closures.

    if sources is not None:
        src_H, src_q = sources
        dHdt += src_H(f.x, f.t)
        dqdt += src_q(f.x, f.t)

    return dHdt, dqdt, clamps


def _viscous_tendency(Hp, up, dx, nu):
    """Conservative depth-integrated viscous term d/dx(4 nu H du/dx)."""
    # face-centered H and du/dx over faces 0..n built from the width-1 ring
    Hf = 0.5 * (Hp[1:-2] + Hp[2:-1])
    dudx_f = (up[2:-1] - up[1:-2]) / dx
    mu = 4.0 * nu * Hf * dudx_f
    return (mu[1:] - mu[:-1]) / dx


def _core_tendency(f, inviscid, *, damped=False, first_order=False,
                   sources=None):
    """``(dH/dt, dq/dt, face clamps)`` of the advective core with its
    explicit forcings.

    The viscous tiers flux the hydrostatic pressure and add viscosity; the
    inviscid tier applies the surface gradient in non-conservative form.
    Both add the atmospheric-pressure gradient.  ``damped`` adds the
    hydrostatic wall-law damping ``-kappa_eff u_bar``.
    """
    dHdt, dqdt, clamps = _fv_core(f, first_order=first_order,
                                  include_pressure=not inviscid,
                                  sources=sources)
    if not inviscid and f.params.nu > 0.0:
        dqdt = dqdt + _viscous_tendency(f.Hp, f.up, f.dx, f.params.nu)

    if f.grad_pa is not None and f.grad_pa.any():
        dqdt = dqdt - f.H * f.grad_pa

    if damped and f.kappa_ring is not None:
        dqdt = dqdt - _friction_coefficient(f, ModelTier.HYDROSTATIC) * f.u
    return dHdt, dqdt, clamps


def hydrostatic_tendency(state, bathy, params, grid):
    """Tendencies ``(dH/dt, dq/dt)`` at the cell centers of the viscous
    hydrostatic tier, including the pointwise wall-law damping
    ``-kappa_eff u_bar``, for the ``FlowState`` ``state`` on the
    ``BathymetryField`` ``bathy``, ``PhysicalParams`` ``params`` and
    ``Grid`` ``grid``; ``state.t`` fixes the evaluation time for the bed
    and the atmospheric pressure."""
    f = _RunContext(bathy, params, grid).fields(state)
    return _core_tendency(f, False, damped=True)[:2]


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
    A : BandedMatrix
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
    face_clamps : int
        Face depths the advective core's reconstruction clamped to zero.
    """

    A: BandedMatrix
    F: np.ndarray
    dHdt: np.ndarray
    friction: np.ndarray
    face_clamps: int


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
    c1_face = coeff1_cells[:-1] + coeff1_cells[1:]  # faces 0 .. n
    c1_face *= 0.5
    c2_face = coeff2_cells[:-1] + coeff2_cells[1:]
    c2_face *= 0.5
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

    # sup1 = (c1_R + c2_R zc_R) / dx^2 + zbx (slope_c1 + slope_c2 zc_R) / 2dx
    sup1 = c2_face_R * zc_R
    sup1 += c1_face_R
    sup1 *= inv_dx2
    slope = slope_c2 * zc_R
    slope += slope_c1
    slope *= zbx
    slope *= inv_2dx
    sup1 += slope
    X = c1_face_R + c1_face_L
    X *= inv_dx2
    Y = c2_face_R + c2_face_L
    Y *= zc_mid
    Y *= inv_dx2
    # sub1 = (c1_L + c2_L zc_L) / dx^2 - zbx (slope_c1 + slope_c2 zc_L) / 2dx
    sub1 = c2_face_L * zc_L
    sub1 += c1_face_L
    sub1 *= inv_dx2
    np.multiply(slope_c2, zc_L, out=slope)
    slope += slope_c1
    slope *= zbx
    slope *= inv_2dx
    sub1 -= slope
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
    context = _RunContext.of(context, bathy, params, grid)
    f = context.fields(state)
    H, u = f.H, f.u
    inviscid = tier is ModelTier.PEREGRINE_INVISCID
    dHdt, dqdt, clamps = _core_tendency(f, inviscid, first_order=first_order,
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
                            friction=_friction_coefficient(f, tier),
                            face_clamps=clamps)


def _dispersive_terms(f, context, tier, F):
    """Off-diagonal ``BandedMatrix`` and diagonal of ``A``, and ``F`` (the
    advective core's on entry, updated in place) with the dispersive
    forcings added.

    NonHydro2's forcings take one form, ``F += D(H G) + dz_b/dx (P - D(H B))``
    with ``D`` the centred difference: ``G`` gathers every pure-divergence
    flux, ``B`` the bottom-pressure flux (both over ``H``, on the width-1
    ring), and ``P`` the pointwise terms that the bed slope multiplies.
    """
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
        diag = H - X - Y
        if friction:
            flux_k = (kappa_ring / 6.0) * z_ring * (z_ring * s_ring
                                                    + 7.0 * zbx_ring * u_ring)
            F += _centered_difference(flux_k, dx)
            F -= (kappa / 2.0) * zbx * (zb * s - zbx * u)
        if f.bed_rate != 0.0:
            mixed = f.bed_rate * s_ring          # d/dx(u db/dt)
            F -= _centered_difference((z_ring**2 / 2.0) * mixed, dx)
            F += zbx * zb * _interior(mixed)
    else:
        # ---- NonHydro2 operator ------------------------------------------
        # A[a] = H a + d/dx((H^3/6 - eta H^2/2) da/dx + (H^2/2) d(z_b a)/dx)
        #            + dz_b/dx ((H^2/2 - eta H) da/dx + H d(z_b a)/dx)
        eta_ring = f.etap[ring]
        coeff2 = np.square(H_ring)
        coeff2 *= 0.5
        coeff1 = H_ring / 3.0
        coeff1 -= eta_ring
        coeff1 *= coeff2
        slope_c1 = f.eta * H
        np.subtract(_interior(coeff2), slope_c1, out=slope_c1)
        sub, X, Y, sup = _operator_parts(z_ring, coeff1, coeff2, slope_c1, H,
                                         zbx, dx, boundary)
        off = BandedMatrix.from_stencils(sub, sup, boundary)
        diag = H - X - Y
        del sub, X, Y, sup, coeff1, coeff2, slope_c1  # free before G, B, P

        # ---- NonHydro2 forcings: G, B and P --------------------------------
        G, B = _nh2_stationary_extras(f)
        # time-derivative pressure: D(H w) and its bottom partner dz_b/dx w
        deta_dt_ring = np.subtract(f.bed_rate, f.divq_ring)
        w_ring = eta_ring * s_ring
        w_ring -= f.m_ring
        w_ring *= deta_dt_ring
        G += w_ring
        P = _interior(w_ring)  # w_ring is not read again: P accumulates in it
        Hs_ring = H_ring * s_ring
        if f.bed_rate != 0.0:  # the pressure of u db/dt
            G -= (0.5 * f.bed_rate) * Hs_ring
            rate = _interior(deta_dt_ring)
            rate += _interior(Hs_ring)
            rate *= f.bed_rate
            P -= rate
        if f.bed_accel != 0.0:
            accel = (0.5 * f.bed_accel) * H_ring
            G -= accel
            P += np.multiply(f.bed_accel, zb, out=_interior(accel))
        if friction:  # the friction gradient
            # G += kappa (Hs / 6 - (7/6 zbx + etax / 3) u)
            flux_k = Hs_ring / 6.0
            grad = (7.0 / 6.0) * zbx_ring
            grad += f.etax_ring / 3.0
            grad *= u_ring
            flux_k -= grad
            flux_k *= kappa_ring
            G += flux_k
            # P += kappa ((Hx / 2 + zbx) u + Hs / 2)
            point = np.multiply(0.5, _interior(f.Hx_ring), out=_interior(grad))
            point += zbx
            point *= u
            point += np.multiply(0.5, _interior(Hs_ring), out=_interior(flux_k))
            point *= kappa
            P += point
        _add_nh2_forcing(F, f, G, B, P)
    return off, diag, F


def _add_nh2_forcing(F, f, G, B, P=0.0):
    """``F += D(H G) + dz_b/dx (P - D(H B))`` in place, ``D`` the centred
    difference, ``G`` and ``B`` on the width-1 ring (both overwritten)."""
    H_ring = f.Hp[1:-1]
    G *= H_ring
    F += _centered_difference(G, f.dx)
    B *= H_ring
    slope = _centered_difference(B, f.dx)
    np.subtract(P, slope, out=slope)
    slope *= _interior(f.zbx_ring)
    F += slope


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
    term = _cell_curvature(f.up, f.dx)  # u_xx, then the scratch of each term
    u2 = np.square(u)
    su = s * u

    # depth average over H: -(1/6) (-4 H^2 s^2 - 2 H^2 u u_xx
    # - 6 H H_x s u + 9 H z_b' s u + 3 H z_b'' u^2 + 6 z_b' H_x u^2), as
    # G = H (H (2 s^2 + u u_xx) / 3 + (Hx - 3/2 zbx) s u - zbxx u^2 / 2)
    #     - zbx Hx u^2
    G = 2.0 * s
    G *= s
    G += np.multiply(u, term, out=term)
    G *= H
    G /= 3.0
    np.multiply(1.5, zbx, out=term)
    G += np.multiply(np.subtract(Hx, term, out=term), su, out=term)
    np.multiply(0.5, f.zbxx_ring, out=term)
    G -= np.multiply(term, u2, out=term)
    G *= H
    np.multiply(zbx, Hx, out=term)
    G -= np.multiply(term, u2, out=term)
    if f.kappa_ring is not None and f.params.nu > 0.0:
        # modified height H_m - H = 2 kappa^2 H^3 / (15 nu^2)
        kH = np.multiply(f.kappa_ring, H, out=term)
        np.square(kH, out=kH)
        kH *= u2
        G -= np.multiply(2.0 / (15.0 * f.params.nu**2), kH, out=kH)
    B = np.multiply(zbx, u2, out=u2)  # zbx u^2 - H s u / 2
    np.multiply(0.5, H, out=term)
    B -= np.multiply(term, su, out=term)
    return G, B


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
