"""Manufactured solutions for grid-convergence studies.

Each case prescribes smooth periodic fields ``H*(x, t)`` and ``u*(x, t)``
and the source pair ``(S_H, S_q)`` that makes them an exact solution of the
chosen model tier.  The sources are derived symbolically from the model's
residual operator and compiled to numpy callables, so a convergence study
reduces to integrating with the sources switched on and measuring the L2
distance from the exact fields.

On a flat bed at ``z0`` the momentum residuals are

* Hydrostatic:  ``d(Hu)/dt + d(Hu^2 + g H^2/2)/dx - d(4 nu H du/dx)/dx``
* NonHydro1:    the same plus ``(z0^3/3) d^3u/dt dx^2``, the linear-inertia
  part of the dispersive operator (``z0^3`` is negative, so this is the
  usual Boussinesq correction).

Friction is kept off (``k_l = k_t = 0``) so the residual stays polynomial
in the fields and their derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import sympy as sp

from .core import (BathymetryField, Boundary, FlatBed, FlowState, Grid,
                   PhysicalParams)
from .models import ModelTier
from .solver import StepControls, run_simulation

__all__ = ["ManufacturedCase", "case_names", "get_case",
           "run_convergence_point"]

CFL = 0.4  # Courant number of a convergence run's fixed step


@dataclass(frozen=True)
class ManufacturedCase:
    """A forced exact solution on a periodic domain ``[0, length)``.

    ``exact_H``, ``exact_u``, ``source_H``, and ``source_q`` are vectorized
    callables of ``(x, t)``.
    """

    name: str
    tier: ModelTier
    length: float
    bathymetry: BathymetryField
    params: PhysicalParams
    t_end: float
    exact_H: Callable[[np.ndarray, float], np.ndarray]
    exact_u: Callable[[np.ndarray, float], np.ndarray]
    source_H: Callable[[np.ndarray, float], np.ndarray]
    source_q: Callable[[np.ndarray, float], np.ndarray]

    def grid(self, n_cells: int) -> Grid:
        return Grid(0.0, self.length, n_cells, Boundary.PERIODIC)

    def initial_state(self, grid: Grid) -> FlowState:
        x = grid.cell_centers
        H = self.exact_H(x, 0.0)
        return FlowState(t=0.0, H=H, q=H * self.exact_u(x, 0.0))

    @property
    def sources(self):
        return (self.source_H, self.source_q)


def _compile(expr, x, t):
    """Lambdify one field of (x, t) and force ndarray output."""
    fn = sp.lambdify((x, t), expr, modules="numpy")

    def wrapped(xv, tv):
        xv = np.asarray(xv, dtype=float)
        out = np.asarray(fn(xv, tv), dtype=float)
        if out.shape != xv.shape:
            out = np.broadcast_to(out, xv.shape).copy()
        return out

    return wrapped


def _build_case(name, tier, *, H0, amp_H, amp_u, omega1, omega2, length,
                g, nu, t_end):
    x, t = sp.symbols("x t", real=True)
    k = 2 * sp.pi / length
    H = H0 + amp_H * sp.sin(k * x - omega1 * t)
    u = amp_u * sp.cos(k * x - omega2 * t)

    source_H = sp.diff(H, t) + sp.diff(H * u, x)
    source_q = (sp.diff(H * u, t)
                + sp.diff(H * u**2 + sp.Rational(1, 2) * g * H**2, x)
                - sp.diff(4 * nu * H * sp.diff(u, x), x))
    z0 = -H0
    if tier is not ModelTier.HYDROSTATIC:
        source_q = source_q + (z0**3 / 3) * sp.diff(u, t, x, x)

    return ManufacturedCase(
        name=name,
        tier=tier,
        length=float(length),
        bathymetry=BathymetryField(FlatBed(level=float(z0))),
        params=PhysicalParams(g=float(g), nu=float(nu), k_l=0.0, k_t=0.0),
        t_end=float(t_end),
        exact_H=_compile(H, x, t),
        exact_u=_compile(u, x, t),
        source_H=_compile(source_H, x, t),
        source_q=_compile(source_q, x, t),
    )


_CASES = None


def _registry():
    global _CASES
    if _CASES is None:
        _CASES = {case.name: case for case in (
            _build_case("manufactured-hydrostatic", ModelTier.HYDROSTATIC,
                        H0=1.0, amp_H=0.02, amp_u=0.03, omega1=1.3,
                        omega2=1.7, length=10.0, g=9.81, nu=0.01, t_end=0.5),
            _build_case("manufactured-nonhydro1", ModelTier.NONHYDRO1,
                        H0=1.0, amp_H=0.02, amp_u=0.03, omega1=1.3,
                        omega2=1.7, length=10.0, g=9.81, nu=0.005, t_end=0.5),
        )}
    return _CASES


def case_names() -> tuple:
    return tuple(_registry())


def get_case(name: str) -> ManufacturedCase:
    try:
        return _registry()[name]
    except KeyError:
        known = ", ".join(case_names())
        raise ValueError(f"unknown manufactured case {name!r} "
                         f"(known: {known})") from None


def run_convergence_point(case: ManufacturedCase, n_cells: int, *,
                          t_end=None, first_order=False):
    """Integrate the forced case on ``n_cells`` and return ``(dx, error)``.

    The step is fixed at ``CFL dx / c_ref`` (rounded to land on ``t_end``
    exactly) so space and time refine together and the combined scheme
    order shows up directly in the L2 error of ``(H, u_bar)`` against the
    exact fields.
    """
    if t_end is None:
        t_end = case.t_end
    grid = case.grid(n_cells)
    state = case.initial_state(grid)

    u0 = state.velocity()
    c_ref = float(np.max(np.abs(u0) + np.sqrt(case.params.g * state.H)))
    steps = max(1, math.ceil(t_end / (CFL * grid.dx / c_ref)))
    controls = StepControls(t_end=t_end, fixed_dt=t_end / steps,
                            first_order=first_order)

    result = run_simulation(state, case.bathymetry, case.params, grid,
                            case.tier, controls, sources=case.sources,
                            collect_reports=False)
    final = result.states[-1]
    x = grid.cell_centers
    err_H = final.H - case.exact_H(x, t_end)
    err_u = final.velocity() - case.exact_u(x, t_end)
    error = (math.sqrt(grid.dx * float(np.sum(err_H**2)))
             + math.sqrt(grid.dx * float(np.sum(err_u**2))))
    return grid.dx, error
