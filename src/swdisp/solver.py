"""Semi-implicit time integration.

Time integration is a two-stage explicit-in-flux, implicit-in-friction
scheme: each stage advances mass in flux form (exact conservation), solves
the tier's ``A[a] = F`` (:func:`swdisp.models.assemble_dispersive`) for the
depth-averaged acceleration, and applies the pointwise friction as an
implicit divisor; the two stage results are averaged (Heun), giving
second-order accuracy in time.  :func:`run_simulation` builds one
``models._RunContext``, so what the run does not change is computed once
and a state's report, time-step choice and first stage share one field
bundle: each state is reported as it arrives.
:class:`BandedMatrix` and :class:`SolverError` live in :mod:`swdisp.models`
and are importable from here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DRY_THRESHOLD, FlowState
from .diagnostics import attach_measured_rates, energy_reports
from .models import BandedMatrix, SolverError, _RunContext, assemble_dispersive

__all__ = [
    "SolverError",
    "BandedMatrix",
    "StepControls",
    "stable_dt",
    "step",
    "run_simulation",
    "RunResult",
]


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
    clamps = system.face_clamps
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
    per state, the initial one and each step's result (when collected),
    with measured rates and budget residuals attached; ``stats`` accumulates
    event counters (steps taken, positivity clamps).
    """

    times: list
    states: list
    reports: list
    stats: dict


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
    :class:`SolverError` with the step, time and first bad cell, and a
    :class:`SolverError` of a step is raised again with ``at step k, t =
    ...`` (the step's number and start time) appended.  A negative or NaN
    ``snapshot_interval`` raises ``ValueError``.
    """
    if snapshot_interval is not None and not snapshot_interval >= 0.0:
        raise ValueError("snapshot_interval must be non-negative, got "
                         f"{snapshot_interval}")

    context = _RunContext(bathy, params, grid)
    reports = []

    def report(s):
        if collect_reports:
            reports.extend(energy_reports([s], bathy, params, grid, tier,
                                          context=context))

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
            try:
                s = step(s, bathy, params, grid, tier, dt, stats=stats,
                         sources=sources, first_order=controls.first_order,
                         context=context)
            except SolverError as err:
                raise SolverError(f"{err} at step {stats['steps'] + 1}, "
                                  f"t = {s.t:.6g}") from err
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

    attach_measured_rates(reports)
    return RunResult(times=[st.t for st in states], states=states,
                     reports=reports, stats=stats)
