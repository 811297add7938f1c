"""Tridiagonal linear algebra and semi-implicit time integration.

Every tier's implicit acceleration problem is tridiagonal (plus two
wrap-around corners on periodic domains); the hydrostatic tier's is the
diagonal case.  A diagonal matrix is solved by division, any other by
LAPACK's tridiagonal solver ``dgtsv`` (:mod:`scipy.linalg.lapack`); periodic
corners are removed with the cyclic-tridiagonal Sherman-Morrison step
(Temperton 1975; Numerical Recipes section 2.7), one extra right-hand side
in the same call.  scipy's LAPACK is imported at the first tridiagonal
solve, or when :func:`swdisp.io.validate_config` accepts a dispersive tier,
so the hydrostatic tier runs without loading it.

Time integration is a two-stage explicit-in-flux, implicit-in-friction
scheme: each stage advances mass in flux form (exact conservation), solves
for the depth-averaged acceleration, and applies the pointwise friction as
an implicit divisor; the two stage results are averaged (Heun), giving
second-order accuracy in time.  :func:`run_simulation` builds one
``models._RunContext``, so what the run does not change is computed once
and a state's report, time-step choice and step share one field bundle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DRY_THRESHOLD, Boundary, FlowState
from .models import _RunContext, assemble_dispersive

__all__ = [
    "SolverError",
    "BandedMatrix",
    "StepControls",
    "stable_dt",
    "step",
    "run_simulation",
    "RunResult",
]


class SolverError(RuntimeError):
    """A linear solve failed or was inaccurate, or a run went non-finite."""


@functools.cache
def _load_dgtsv():
    """LAPACK's ``dgtsv``; importing :mod:`scipy.linalg` takes most of the
    package's start-up, and only a tridiagonal solve needs it."""
    from scipy.linalg.lapack import dgtsv
    return dgtsv


@dataclass
class BandedMatrix:
    """Tridiagonal matrix in LAPACK ``(1, 1)`` band storage, plus the two
    wrap-around corners of a periodic domain.

    ``bands[1 + i - j, j]`` holds ``A[i, j]`` for ``|i - j| <= 1``: row 0 is
    the super-diagonal, row 1 the diagonal, row 2 the sub-diagonal
    (``bands[0, 0]`` and ``bands[2, -1]`` are unused and zero).  ``corners``
    is ``(A[0, n-1], A[n-1, 0])`` on a periodic domain with wrap-around
    coupling and empty otherwise; :meth:`solve` removes it with one
    Sherman-Morrison correction.
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

    def todense(self):
        """Dense ``(n, n)`` copy (for diagnostics and small-system checks)."""
        A = (np.diag(self.bands[1]) + np.diag(self.bands[0, 1:], 1)
             + np.diag(self.bands[2, :-1], -1))
        if self.corners:
            A[0, -1] += self.corners[0]
            A[-1, 0] += self.corners[1]
        return A

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
        """Solve ``A x = b``; a singular matrix or a solution that is not
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
            bands, rhs, owned = self.bands, b, False
            if self.corners:
                upper, lower = self.corners
                gamma = -diag[0]
                ratio = upper / gamma
                bands = bands.copy()
                bands[1, 0] -= gamma
                bands[1, -1] -= lower * ratio
                rhs = np.zeros((self.n, 2), order="F")
                rhs[:, 0] = b
                rhs[0, 1] = gamma
                rhs[-1, 1] += lower
                owned = True
            if not (np.isfinite(bands).all() and np.isfinite(rhs).all()):
                raise SolverError("banded solve failed: array must not "
                                  "contain infs or NaNs")
            # LAPACK may overwrite only the copies made above
            dgtsv = _load_dgtsv()
            *_, x, info = dgtsv(bands[2, :-1], bands[1], bands[0, 1:], rhs,
                                owned, owned, owned, owned)
            if info > 0:
                raise SolverError("banded solve failed: singular matrix")
            if self.corners:
                y, z = x[:, 0], x[:, 1]
                denom = 1.0 + z[0] + ratio * z[-1]
                scale = 1.0 + abs(z[0]) + abs(ratio * z[-1])
                if abs(denom) <= 8 * math.ulp(1.0) * scale:
                    raise SolverError("banded solve failed: singular matrix")
                x = y - ((y[0] + ratio * y[-1]) / denom) * z
        if not np.isfinite(x).all():
            raise SolverError("banded solve failed: non-finite solution")
        return x


@dataclass(frozen=True)
class StepControls:
    """Time-stepping policy.

    ``fixed_dt`` overrides the CFL choice entirely (convergence studies);
    otherwise ``dt = min(dt_max, cfl * dx / max(|u| + sqrt(g H)))`` over wet
    cells.  ``first_order`` drops the linear reconstruction in space (debug).
    """

    t_end: float
    cfl: float = 0.5
    dt_max: float = math.inf
    fixed_dt: float = None
    first_order: bool = False

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and non-negative")
        if not self.dt_max > 0.0:
            raise ValueError("dt_max must be positive")
        if self.fixed_dt is not None and not self.fixed_dt > 0.0:
            raise ValueError("fixed_dt must be positive")


def stable_dt(state, params, grid, controls, *, context=None):
    """Admissible time step for the current state.

    Returns ``controls.fixed_dt`` verbatim when set; otherwise the CFL bound
    on the gravity-wave speed over wet cells.  Raises ``ValueError`` when
    every cell is dry (no wave speed to bound).  ``context`` is the run's
    ``models._RunContext`` (built from these ``params`` and ``grid``); the
    velocity then comes from its field bundle.
    """
    if context is not None:
        _RunContext.of(context, context.bathy, params, grid)
    if controls.fixed_dt is not None:
        return controls.fixed_dt
    f = None if context is None else context.fields(state)
    wet = state.H >= DRY_THRESHOLD if f is None else f.wet
    if not wet.any():
        raise ValueError("cannot size a time step: all cells are dry")
    u, H = (state.velocity(), state.H) if f is None else (f.u, f.H)
    if f is None or not f.all_wet:
        u, H = u[wet], H[wet]
    speed = np.abs(u)
    wave = np.multiply(params.g, H)
    speed += np.sqrt(wave, out=wave)
    return min(controls.dt_max, controls.cfl * grid.dx / speed.max())


def _wet_discharge(H, u):
    """``H u`` with ``u`` zeroed where ``H < DRY_THRESHOLD`` (or NaN),
    computed in ``u``, which the caller gives up."""
    np.copyto(u, 0.0, where=~(H >= DRY_THRESHOLD))
    return np.multiply(H, u, out=u)


def _stage(state, context, tier, dt, *, sources, first_order):
    """One explicit-flux / implicit-friction Euler stage: the new state and
    the number of face depths and new depths clamped to zero."""
    H0 = state.H
    f = context.fields(state)

    system = assemble_dispersive(
        state, context.bathy, context.params, context.grid, tier,
        first_order=first_order, sources=sources, context=context)
    a = system.A.solve(system.F)

    H1 = dt * system.dHdt
    H1 += H0
    negative = H1 < 0.0
    clamps = f.face_clamps
    if negative.any():
        clamps += int(np.count_nonzero(negative))
        H1[negative] = 0.0

    u1 = dt * a
    u1 += f.u
    if system.friction.any():  # else the implicit divisor is exactly 1
        # the friction is zero on dry cells, so any nonzero depth stands in
        H_safe = H0 if f.all_wet else np.where(f.wet, H0, 1.0)
        divisor = system.friction / H_safe
        divisor *= dt
        divisor += 1.0
        u1 /= divisor
    return FlowState(t=state.t + dt, H=H1, q=_wet_discharge(H1, u1)), clamps


def step(state, bathy, params, grid, tier, dt, *, stats=None, sources=None,
         first_order=False, context=None):
    """Advance one time step of size ``dt`` (two-stage average, second order).

    Mass is updated in flux form in both stages, so the average conserves it
    exactly on periodic and walled domains (up to positivity clamping of
    draining cells, which is counted in ``stats['positivity_clamps']``).
    ``context`` is the run's ``models._RunContext`` (built when absent; one
    built from other ``bathy``, ``params`` or ``grid`` raises ``ValueError``).
    """
    context = _RunContext.of(context, bathy, params, grid)
    kw = dict(sources=sources, first_order=first_order)
    u0 = context.fields(state).u
    s1, clamps1 = _stage(state, context, tier, dt, **kw)
    s2, clamps2 = _stage(s1, context, tier, dt, **kw)
    if stats is not None and clamps1 + clamps2:
        stats["positivity_clamps"] = (stats.get("positivity_clamps", 0)
                                      + clamps1 + clamps2)
    H_new = state.H + s2.H
    H_new *= 0.5
    u_new = s2.velocity()
    u_new += u0
    u_new *= 0.5
    return FlowState(t=state.t + dt, H=H_new, q=_wet_discharge(H_new, u_new))


@dataclass
class RunResult:
    """Trajectory summary returned by :func:`run_simulation`.

    ``states`` holds the initial state, any requested snapshots, and the
    final state, ``times`` their times; ``reports`` holds one energy report
    per step (when collected; computed per block of states once they exist,
    with the values of a report on each state alone) with measured rates and
    budget residuals attached; ``stats`` accumulates event counters (steps
    taken, positivity clamps).
    """

    times: list
    states: list
    reports: list
    stats: dict


_REPORT_BLOCK_CELLS = 2048  # cells per block of reports in run_simulation


def _check_finite(state, step_index):
    """Raise :class:`SolverError` at the first cell with a NaN or infinite
    ``H`` or ``q`` (a NaN must not pass for a dry cell)."""
    finite = np.isfinite(state.H + state.q)
    if not finite.all():
        i = int(np.argmin(finite))
        raise SolverError(
            f"non-finite state at step {step_index}, t = {state.t:.6g}: "
            f"cell {i} has H = {state.H[i]}, q = {state.q[i]}")


def run_simulation(state, bathy, params, grid, tier, controls, *,
                   sources=None, snapshot_interval=None, collect_reports=True):
    """Integrate from ``state.t`` to ``controls.t_end``.

    ``snapshot_interval=None`` stores only the initial and final states;
    ``0.0`` stores every step; a positive value stores states at each
    crossing of a multiple of that interval.  The run is deterministic:
    no wall-clock or randomized decisions enter the loop.  A NaN or
    infinite ``H`` or ``q`` in the initial or any later state raises
    :class:`SolverError` with the step, time and first bad cell.  A
    negative or NaN ``snapshot_interval`` raises ``ValueError``.
    """
    from .diagnostics import attach_measured_rates, energy_reports

    if snapshot_interval is not None and not snapshot_interval >= 0.0:
        raise ValueError("snapshot_interval must be non-negative, got "
                         f"{snapshot_interval}")

    context = _RunContext(bathy, params, grid)
    block = max(1, _REPORT_BLOCK_CELLS // grid.n_cells)
    pending, reports = [], []  # states whose reports are not computed yet

    def flush():
        reports.extend(energy_reports(pending, bathy, params, grid, tier,
                                      context=context))
        pending.clear()

    def report(s):
        if collect_reports:
            pending.append(s)
            if len(pending) == block:
                flush()

    s = state.copy()
    _check_finite(s, 0)
    stats = {"steps": 0, "positivity_clamps": 0}
    states = [s.copy()]
    report(s)

    t_end = controls.t_end
    guard = 1e-12 * max(1.0, abs(t_end))
    next_mark = s.t + snapshot_interval if snapshot_interval else None

    # a run that overflows ends with the SolverError of its solve or of
    # _check_finite; numpy's warnings on the way would add nothing to it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while s.t < t_end - guard:
            dt = stable_dt(s, params, grid, controls, context=context)
            dt = min(dt, t_end - s.t)
            s = step(s, bathy, params, grid, tier, dt, stats=stats,
                     sources=sources, first_order=controls.first_order,
                     context=context)
            stats["steps"] += 1
            _check_finite(s, stats["steps"])
            report(s)
            if snapshot_interval == 0.0:
                states.append(s.copy())
            elif next_mark is not None and s.t >= next_mark - guard:
                states.append(s.copy())
                while next_mark <= s.t + guard:
                    next_mark += snapshot_interval

    if states[-1].t != s.t:
        states.append(s.copy())

    if collect_reports:
        flush()
        attach_measured_rates(reports)
    return RunResult(times=[st.t for st in states], states=states,
                     reports=reports, stats=stats)
