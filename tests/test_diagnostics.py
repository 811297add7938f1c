"""Tests for energy reports, dispersion measurement, and convergence tables.

Oracle strategy: energies are recomputed from their defining sums; the
closed-form mean-square vertical velocity is checked against per-cell
Gauss-Legendre quadrature with identical discrete inputs; phase speeds are
recovered from synthetic traveling waves with known speed.
"""

import itertools

import numpy as np
import pytest
from scipy.special import roots_legendre

from swdisp.closures import vertical_velocity
from swdisp.core import (
    AnalyticPressure,
    BathymetryField,
    Boundary,
    FlatBed,
    FlowState,
    GaussianBump,
    GradientPressure,
    Grid,
    PhysicalParams,
    SinusoidMotion,
    StaticBed,
    ZeroPressure,
)
from swdisp.diagnostics import (
    EnergyReport,
    attach_measured_rates,
    convergence_study,
    energy_extended,
    energy_hydro,
    energy_reports,
    measure_dispersion,
)
from swdisp.models import ModelTier

G = 9.81


def _roll_gradient(f, dx):
    return (np.roll(f, -1) - np.roll(f, 1)) / (2 * dx)


# ---------------------------------------------------------------------------
# energy_hydro
# ---------------------------------------------------------------------------

def test_flat_lake_energy_value():
    grid = Grid(0.0, 1.0, 16)
    bathy = BathymetryField(FlatBed(level=-1.0))
    params = PhysicalParams(g=G, nu=1e-3)
    state = FlowState(t=0.0, H=np.ones(16), q=np.zeros(16))
    rep = energy_hydro(state, bathy, params, grid)
    # E_h = sum g H (eta + z_b)/2 dx = g*1*(0-1)/2*1 = -g/2 (datum-relative)
    assert rep.E_h == pytest.approx(-G / 2, rel=1e-13)
    assert rep.mass == pytest.approx(1.0, rel=1e-14)
    assert rep.momentum == 0.0


def test_still_water_has_zero_modeled_rate():
    grid = Grid(0.0, 1.0, 16)
    bathy = BathymetryField(FlatBed(level=-1.0))
    params = PhysicalParams(g=G, nu=1e-2, k_l=0.5, k_t=0.3)
    state = FlowState(t=0.0, H=np.ones(16), q=np.zeros(16))
    rep = energy_hydro(state, bathy, params, grid)
    assert rep.modeled_rate == 0.0


def test_uniform_flow_friction_dissipation_rate():
    # kappa = k_l = 0.15, nu = 0.1, H = 1 -> kappa_eff = 0.15/1.5 = 0.1;
    # uniform u = 1 on L = 1 -> modeled dE/dt = -kappa_eff u^2 L = -0.1
    grid = Grid(0.0, 1.0, 16)
    bathy = BathymetryField(FlatBed(level=-1.0))
    params = PhysicalParams(g=G, nu=0.1, k_l=0.15, k_t=0.0)
    H = np.ones(16)
    state = FlowState(t=0.0, H=H, q=H * 1.0)
    rep = energy_hydro(state, bathy, params, grid)
    assert rep.modeled_rate == pytest.approx(-0.1, rel=1e-13)


def test_modeled_rate_is_dissipative_without_forcing():
    grid = Grid(0.0, 2.0, 48)
    bathy = BathymetryField(GaussianBump(1.0, 0.3, 0.4, -1.5))
    params = PhysicalParams(g=G, nu=5e-3, k_l=0.02, k_t=0.1)
    rng = np.random.default_rng(17)
    x = grid.cell_centers
    zb = bathy.elevation(x, 0.0)
    for _ in range(10):
        eta = 0.2 * rng.standard_normal() * np.sin(2 * np.pi * x / 2.0 + rng.uniform(0, 6))
        u = 0.5 * rng.standard_normal() * np.cos(2 * np.pi * x / 2.0 + rng.uniform(0, 6))
        H = eta - zb
        state = FlowState(t=0.0, H=H, q=H * u)
        rep = energy_hydro(state, bathy, params, grid)
        assert rep.modeled_rate <= 0.0


def test_rigid_lift_work_term():
    # moving bottom at rate b' contributes + sum g H b' dx to the budget
    grid = Grid(0.0, 1.0, 16)
    motion = SinusoidMotion(amplitude=0.1, angular_frequency=2.0)
    bathy = BathymetryField(FlatBed(level=-1.0), motion)
    params = PhysicalParams(g=G, nu=1e-3)
    state = FlowState(t=0.3, H=np.ones(16), q=np.zeros(16))
    rep = energy_hydro(state, bathy, params, grid)
    assert rep.modeled_rate == pytest.approx(G * 1.0 * motion.rate(0.3), rel=1e-13)


# ---------------------------------------------------------------------------
# energy_extended
# ---------------------------------------------------------------------------

def test_energy_extended_rejects_hydrostatic():
    grid = Grid(0.0, 1.0, 8)
    bathy = BathymetryField(FlatBed(level=-1.0))
    state = FlowState(t=0.0, H=np.ones(8), q=np.zeros(8))
    with pytest.raises(ValueError):
        energy_extended(state, bathy, PhysicalParams(), grid, ModelTier.HYDROSTATIC)


def test_energy_extended_rest_state_equals_hydro():
    grid = Grid(0.0, 1.0, 16)
    bathy = BathymetryField(GaussianBump(0.5, 0.1, 0.3, -1.0))
    params = PhysicalParams(g=G, nu=1e-3)
    zb = bathy.elevation(grid.cell_centers, 0.0)
    state = FlowState(t=0.0, H=-zb, q=np.zeros(16))
    rep_h = energy_hydro(state, bathy, params, grid)
    rep_e = energy_extended(state, bathy, params, grid, ModelTier.NONHYDRO1)
    assert rep_e.E_ext == pytest.approx(rep_h.E_h, abs=1e-15)


def test_energy_extended_rigid_motion_adds_H_beta_squared():
    grid = Grid(0.0, 1.0, 16)
    motion = SinusoidMotion(amplitude=0.2, angular_frequency=1.5, phase=0.4)
    bathy = BathymetryField(FlatBed(level=-1.0), motion)
    params = PhysicalParams(g=G, nu=1e-3)
    t = 0.7
    beta = motion.rate(t)
    H = np.full(16, 1.3)
    state = FlowState(t=t, H=H, q=np.zeros(16))
    rep_h = energy_hydro(state, bathy, params, grid)
    rep_e = energy_extended(state, bathy, params, grid, ModelTier.NONHYDRO1)
    expected_extra = np.sum(H * beta**2 / 2) * grid.dx
    assert rep_e.E_ext - rep_h.E_h == pytest.approx(expected_extra, rel=1e-13)


@pytest.mark.parametrize("tier", [ModelTier.NONHYDRO1, ModelTier.PEREGRINE_INVISCID,
                                  ModelTier.NONHYDRO2])
def test_energy_extended_matches_per_cell_quadrature(tier):
    """E_ext - E_h equals the independently quadratured depth integral of
    w^2/2 (plus the modified-height momentum correction for the fully
    nonlinear tier), using the same discrete gradients."""
    grid = Grid(0.0, 2.0, 32)
    bathy = BathymetryField(GaussianBump(1.0, 0.25, 0.3, -1.4))
    params = PhysicalParams(g=G, nu=4e-2, k_l=0.02, k_t=0.05)
    rng = np.random.default_rng(19)
    x = grid.cell_centers
    dx = grid.dx
    zb = bathy.elevation(x, 0.0)
    eta = 0.15 * np.sin(2 * np.pi * x / 2.0 + 0.3)
    u = 0.4 * np.cos(4 * np.pi * x / 2.0 + 1.1)
    H = eta - zb
    state = FlowState(t=0.0, H=H, q=H * u)
    rep_h = energy_hydro(state, bathy, params, grid)
    rep_e = energy_extended(state, bathy, params, grid, tier)

    s = _roll_gradient(u, dx)
    zbx = _roll_gradient(zb, dx)
    nodes, weights = roots_legendre(64)
    extra = 0.0
    for i in range(grid.n_cells):
        z = 0.5 * (eta[i] + zb[i]) + 0.5 * (eta[i] - zb[i]) * nodes
        w = vertical_velocity(u[i], s[i], zb[i], zbx[i], 0.0, z)
        extra += 0.5 * H[i] * 0.5 * np.sum(weights * w**2)
    extra *= dx
    if tier is ModelTier.NONHYDRO2:
        from swdisp.closures import friction_kappa
        kappa = friction_kappa(u, zbx, H, params)
        extra += np.sum(2 * kappa**2 * H**3 / (15 * params.nu**2) * u**2 / 2) * dx
    assert rep_e.E_ext - rep_h.E_h == pytest.approx(extra, rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# measured rates / budget residual bookkeeping
# ---------------------------------------------------------------------------

REPORT_FIELDS = ("t", "mass", "momentum", "E_h", "E_ext", "modeled_rate",
                 "dissipation_rate", "budget_residual")


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("tier", list(ModelTier))
def test_block_reports_equal_reports_of_each_state(tier, boundary):
    """``energy_reports`` on a block of states gives, bit for bit, the
    report of each state alone, for static and moving beds, every kind of
    atmospheric pressure, all-wet states and states around an island, and
    laminar and turbulent friction."""
    grid = Grid(0.0, 10.0, 40, boundary)
    x = grid.cell_centers
    pressures = (ZeroPressure(), GradientPressure(0.01), AnalyticPressure(
        value_fn=lambda x, t: 0.01 * x + 0.02 * np.cos(t),
        grad_x_fn=lambda x, t: np.full_like(x, 0.01),
        rate_t_fn=lambda x, t: -0.02 * np.sin(t)))  # a scalar rate
    motions = (StaticBed(), SinusoidMotion(amplitude=0.01,
                                           angular_frequency=2.0, phase=0.4))
    for amplitude, motion, p_atm, k_t in itertools.product(
            (0.3, 1.05), motions, pressures, (0.0, 0.05)):
        bathy = BathymetryField(GaussianBump(center=5.0, width=1.0,
                                             amplitude=amplitude, level=-1.0),
                                motion)
        params = PhysicalParams(g=G, nu=1e-3, k_l=1e-2, k_t=k_t, p_atm=p_atm)
        states = []
        for i in range(6):
            t = 0.07 * i
            eta = 0.05 * (1.0 + 0.1 * i) * np.exp(-0.5 * (x - 3.0 - 0.2 * i)**2)
            H = np.maximum(eta - bathy.elevation(x, t), 0.0)
            u = 0.05 * np.sin(0.2 * np.pi * (x - 0.3 * i))
            states.append(FlowState(t=t, H=H, q=H * u))
        assert (min(s.H.min() for s in states) == 0.0) == (amplitude > 1.0)

        block = energy_reports(states, bathy, params, grid, tier)
        if tier is ModelTier.HYDROSTATIC:
            alone = [energy_hydro(s, bathy, params, grid) for s in states]
        else:
            alone = [energy_extended(s, bathy, params, grid, tier)
                     for s in states]
        np.testing.assert_array_equal(
            [[getattr(r, k) for k in REPORT_FIELDS] for r in block],
            [[getattr(r, k) for k in REPORT_FIELDS] for r in alone])
    assert energy_reports([], bathy, params, grid, tier) == []


def test_attach_measured_rates():
    reports = [
        EnergyReport(t=0.0, mass=1.0, momentum=0.0, E_h=2.0, E_ext=2.0, modeled_rate=-1.0),
        EnergyReport(t=0.1, mass=1.0, momentum=0.0, E_h=1.9, E_ext=1.9, modeled_rate=-1.0),
        EnergyReport(t=0.2, mass=1.0, momentum=0.0, E_h=1.8, E_ext=1.8, modeled_rate=-0.8),
    ]
    attach_measured_rates(reports)
    assert np.isnan(reports[0].dissipation_rate)
    assert reports[1].dissipation_rate == pytest.approx(-1.0, rel=1e-12)
    assert reports[1].budget_residual == pytest.approx(0.0, abs=1e-12)
    assert reports[2].dissipation_rate == pytest.approx(-1.0, rel=1e-12)
    # trapezoid model over the step: (-1.0 + -0.8)/2 = -0.9 -> residual 0.1
    assert reports[2].budget_residual == pytest.approx(0.1, rel=1e-10)


# ---------------------------------------------------------------------------
# measure_dispersion
# ---------------------------------------------------------------------------

def test_measure_dispersion_recovers_known_speed():
    L, k_mode = 8.0, 3
    k = 2 * np.pi * k_mode / L
    c_true = 1.7
    x = (np.arange(256) + 0.5) * (L / 256)
    times = np.linspace(0.0, 2.0, 200)
    etas = [1e-3 * np.cos(k * (x - c_true * t)) for t in times]
    c = measure_dispersion(times, etas, x, k)
    assert c == pytest.approx(c_true, rel=1e-10)


def test_measure_dispersion_leftgoing_wave_has_negative_speed():
    L = 4.0
    k = 2 * np.pi / L
    x = (np.arange(128) + 0.5) * (L / 128)
    times = np.linspace(0.0, 3.0, 150)
    etas = [np.cos(k * (x + 0.9 * t)) for t in times]
    c = measure_dispersion(times, etas, x, k)
    assert c == pytest.approx(-0.9, rel=1e-10)


def test_measure_dispersion_rejects_aliased_wavenumber():
    L = 1.0
    x = (np.arange(32) + 0.5) * (L / 32)
    k = 2 * np.pi * 4 / L  # 8 cells per wavelength < 16
    with pytest.raises(ValueError):
        measure_dispersion([0.0, 0.1], [np.sin(k * x), np.sin(k * x)], x, k)


def test_measure_dispersion_rejects_zero_wavenumber():
    x = (np.arange(64) + 0.5) / 64
    with pytest.raises(ValueError):
        measure_dispersion([0.0, 0.1], [x * 0, x * 0], x, 0.0)


# ---------------------------------------------------------------------------
# convergence_study
# ---------------------------------------------------------------------------

def test_convergence_study_orders_from_synthetic_errors():
    def fake_case(n):
        dx = 1.0 / n
        return dx, 3.0 * dx**2
    rows = convergence_study(fake_case, [16, 32, 64])
    assert len(rows) == 3
    assert np.isnan(rows[0].order)
    assert rows[1].order == pytest.approx(2.0, abs=1e-12)
    assert rows[2].order == pytest.approx(2.0, abs=1e-12)
    assert rows[1].error == pytest.approx(3.0 / 32**2, rel=1e-13)


def test_convergence_study_nonmonotone_reported_not_fatal():
    errs = {16: 1e-3, 32: 2e-3, 64: 1e-3}
    rows = convergence_study(lambda n: (1.0 / n, errs[n]), [16, 32, 64])
    assert rows[1].order < 0  # increase reported as negative order
