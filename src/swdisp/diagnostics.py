"""Energy budgets, dispersion measurement, and convergence bookkeeping.

The hydrostatic mechanical energy

``E_h = sum_i (H u^2/2 + g H (eta + z_b)/2 + H p_a) dx``

is monitored together with its modeled budget: atmospheric-pressure work,
depth-integrated viscous dissipation, bed-friction dissipation (neither for
the inviscid tier), and the work done by a moving bottom.  The extended
energy adds the vertical kinetic energy of the tier's vertical-velocity
closure (and the modified-height kinetic correction of the fully nonlinear
tier).  :func:`energy_report` computes a state's report on the field bundle
that its time step and stages use.

Phase speeds are measured by projecting the free surface onto a single
Fourier mode and fitting the phase drift over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closures import depth_integrated_w_squared
from .models import ModelTier, _interior, _ring_kappa, _RunContext

__all__ = [
    "EnergyReport",
    "energy_hydro",
    "energy_extended",
    "energy_report",
    "attach_measured_rates",
    "measure_dispersion",
    "ConvergenceRow",
    "convergence_study",
]


@dataclass
class EnergyReport:
    """Integral diagnostics of one state.

    ``modeled_rate`` is the budget's right-hand side (work and dissipation
    terms) evaluated on this state; ``dissipation_rate`` and
    ``budget_residual`` are filled in trajectory context by
    :func:`attach_measured_rates` (NaN for an isolated report): the measured
    ``dE_h/dt`` over the preceding step and its distance from the
    trapezoidal modeled rate.
    """

    t: float
    mass: float
    momentum: float
    E_h: float
    E_ext: float
    modeled_rate: float = math.nan
    dissipation_rate: float = math.nan
    budget_residual: float = math.nan


def energy_hydro(state, bathy, params, grid):
    """Hydrostatic energy report (E_ext coincides with E_h here): the
    :func:`energy_report` of ``state`` on the hydrostatic tier."""
    return energy_report(state, bathy, params, grid, ModelTier.HYDROSTATIC)


def energy_extended(state, bathy, params, grid, tier):
    """Energy report including the tier's vertical kinetic energy: the
    :func:`energy_report` of ``state`` on a dispersive ``tier``."""
    if tier is ModelTier.HYDROSTATIC:
        raise ValueError("the hydrostatic tier has no extended energy; "
                         "use energy_hydro")
    return energy_report(state, bathy, params, grid, tier)


def energy_report(state, bathy, params, grid, tier, *, context=None):
    """The :class:`EnergyReport` of ``state``, computed on its field
    bundle.  The hydrostatic tier reports ``E_ext = E_h``; the inviscid
    tier's budget carries no viscous or friction dissipation.  ``context``
    is the run's ``models._RunContext`` (built when absent; one built from
    other ``bathy``, ``params`` or ``grid`` raises ``ValueError``)."""
    context = _RunContext.of(context, bathy, params, grid)
    f = context.fields(state)
    dx, H, u = f.dx, f.H, f.u
    kappa_ring = _ring_kappa(f, tier)

    E_h = H * u**2 / 2 + params.g * H * (f.eta + f.zb) / 2
    if context.zero_pressure:  # no H p_a energy; -(H * 0).sum() is -0.0
        rate = -0.0
    else:
        E_h = E_h + H * params.p_atm.value(f.x, f.t)
        rate = -((H * params.p_atm.rate_t(f.x, f.t)).sum() * dx)
    E_h = E_h.sum() * dx

    dudx = _interior(f.ux_ring)
    if params.nu > 0.0 and tier is not ModelTier.PEREGRINE_INVISCID:
        rate = rate - (4.0 * params.nu * H * dudx**2).sum() * dx
    # kappa_eff u^2 also for NonHydro1/2, whose stages damp with the bed factor
    if kappa_ring is not None:
        rate = rate - (f.kappa_eff * u**2).sum() * dx
    # a bed at rest does no work (adding its 0.0 would turn -0.0 into 0.0)
    if f.bed_rate != 0.0:
        rate = rate + (params.g * H * f.bed_rate).sum() * dx

    E_ext = E_h
    if tier is not ModelTier.HYDROSTATIC:
        wsq = depth_integrated_w_squared(H, f.eta, f.zb, u, dudx,
                                         _interior(f.zbx_ring), f.bed_rate)
        extra = (0.5 * wsq).sum() * dx
        if (tier is ModelTier.NONHYDRO2 and params.nu > 0.0
                and kappa_ring is not None):
            kappa = _interior(kappa_ring)
            modified = 2.0 * kappa**2 * H**3 / (15.0 * params.nu**2)
            extra = extra + (modified * u**2 / 2).sum() * dx
        E_ext = E_h + extra

    return EnergyReport(f.t, float(H.sum() * dx), float(f.q.sum() * dx),
                        float(E_h), float(E_ext), float(rate))


def attach_measured_rates(reports):
    """Fill measured ``dE_h/dt`` and budget residuals along a trajectory.

    For each consecutive pair the measured rate is the finite difference of
    ``E_h`` over the step and the residual is its distance from the
    trapezoidal average of the endpoint modeled rates.  Mutates the reports
    in place; the first report keeps NaN.
    """
    for prev, cur in zip(reports, reports[1:]):
        dt = cur.t - prev.t
        if dt <= 0.0:
            continue
        measured = (cur.E_h - prev.E_h) / dt
        cur.dissipation_rate = measured
        cur.budget_residual = abs(measured
                                  - 0.5 * (prev.modeled_rate + cur.modeled_rate))


def measure_dispersion(times, etas, x, k):
    """Phase speed of surface mode ``k`` from a sequence of snapshots.

    Projects each snapshot onto ``exp(-i k x)``, unwraps the phase history,
    and returns ``c = -dphi/dt / k`` from a least-squares linear fit.
    Snapshots must be dense enough that the phase advances by less than half
    a period between consecutive entries.

    Raises
    ------
    ValueError
        For ``k <= 0``, a mode resolved by fewer than 16 cells per
        wavelength, fewer than two snapshots, or a vanishing projection.
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    if k <= 0.0:
        raise ValueError("wavenumber must be positive")
    dx = x[1] - x[0]
    cells_per_wavelength = 2.0 * np.pi / (k * dx)
    if cells_per_wavelength < 16.0:
        raise ValueError(
            f"mode k={k:g} has only {cells_per_wavelength:.1f} cells per "
            "wavelength (< 16): too aliased to measure")
    if times.size < 2:
        raise ValueError("need at least two snapshots")
    phasor = np.exp(-1j * k * x)
    amps = np.array([np.sum(np.asarray(eta) * phasor) for eta in etas])
    scale = max(float(np.max(np.abs(amps))), 1e-300)
    if np.min(np.abs(amps)) < 1e-8 * scale:
        raise ValueError("mode projection vanishes in some snapshot; "
                         "cannot track its phase")
    phase = np.unwrap(np.angle(amps))
    slope = np.polyfit(times, phase, 1)[0]
    return -slope / k


@dataclass(frozen=True)
class ConvergenceRow:
    """One resolution of a refinement study."""

    n_cells: int
    dx: float
    error: float
    order: float


def convergence_study(run_case, resolutions):
    """Errors and successive convergence orders over a resolution sweep.

    ``run_case(n) -> (dx, error)`` runs one resolution.  The first row's
    order is NaN; later rows report ``log(err_prev/err)/log(dx_prev/dx)``
    (negative when the error grew).
    """
    rows = []
    prev_dx = prev_err = None
    for n in resolutions:
        dx, err = run_case(n)
        if prev_dx is None:
            order = math.nan
        elif err == 0.0 or prev_err == 0.0:
            order = math.inf
        else:
            order = math.log(prev_err / err) / math.log(prev_dx / dx)
        rows.append(ConvergenceRow(n_cells=n, dx=dx, error=err, order=order))
        prev_dx, prev_err = dx, err
    return rows
