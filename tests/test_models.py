"""Tests for the semi-discrete model assembly: hydrostatic finite-volume
tendencies, the tridiagonal implicit operator, and stationary
residuals.

Oracle strategy: the flat-bottom implicit operator is compared against an
independently constructed dense matrix; stationary difference terms for the
fully nonlinear tier are re-assembled here with separate centered-difference
code; NonHydro2's forcing and operator are compared with their terms
written out one by one; balance properties are asserted at machine
precision.
"""


import numpy as np
import pytest

from swdisp.core import (
    BathymetryField,
    Boundary,
    FlatBed,
    FlowState,
    GaussianBump,
    GradientPressure,
    Grid,
    PhysicalParams,
    SinusoidMotion,
)
from swdisp.models import (
    ModelTier,
    assemble_dispersive,
    hydrostatic_tendency,
    steady_residual,
)

G = 9.81


def lake_at_rest(grid, bathy, eta0=0.0):
    zb = bathy.elevation(grid.cell_centers, 0.0)
    H = np.maximum(0.0, eta0 - zb)
    return FlowState(t=0.0, H=H, q=np.zeros_like(H))


def smooth_random_state(grid, bathy, rng, eta_amp=0.1, u_amp=0.3, eta0=0.0):
    """Random smooth wet periodic state built from a few Fourier modes."""
    x = grid.cell_centers
    L = grid.length
    eta = np.full(grid.n_cells, eta0)
    u = np.zeros(grid.n_cells)
    for m in (1, 2, 3):
        eta = eta + eta_amp / m * rng.uniform(-1, 1) * np.sin(
            2 * np.pi * m * x / L + rng.uniform(0, 2 * np.pi))
        u = u + u_amp / m * rng.uniform(-1, 1) * np.sin(
            2 * np.pi * m * x / L + rng.uniform(0, 2 * np.pi))
    zb = bathy.elevation(x, 0.0)
    H = eta - zb
    assert (H > 0.1).all()
    return FlowState(t=0.0, H=H, q=H * u)


# ---------------------------------------------------------------------------
# hydrostatic_tendency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.WALL, Boundary.COPY])
@pytest.mark.parametrize("profile", [
    FlatBed(level=-1.0),
    GaussianBump(center=0.5, width=0.12, amplitude=0.4, level=-1.0),
])
def test_lake_at_rest_is_exact_equilibrium(boundary, profile):
    grid = Grid(0.0, 1.0, 48, boundary=boundary)
    bathy = BathymetryField(profile)
    params = PhysicalParams(g=G, nu=1e-3, k_l=0.01)
    state = lake_at_rest(grid, bathy)
    dHdt, dqdt = hydrostatic_tendency(state, bathy, params, grid)
    assert np.max(np.abs(dHdt)) <= 1e-13
    assert np.max(np.abs(dqdt)) <= 1e-13


def test_uniform_flow_flat_bottom_is_steady():
    grid = Grid(0.0, 2.0, 32)
    bathy = BathymetryField(FlatBed(level=-1.0))
    params = PhysicalParams(g=G, nu=0.0, k_l=0.0, k_t=0.0)
    H = np.full(32, 1.0)
    state = FlowState(t=0.0, H=H, q=H * 0.7)
    dHdt, dqdt = hydrostatic_tendency(state, bathy, params, grid)
    assert np.max(np.abs(dHdt)) <= 1e-14
    assert np.max(np.abs(dqdt)) <= 1e-13


def test_pressure_gradient_drives_still_water():
    alpha = 0.6
    grid = Grid(0.0, 1.0, 16)
    bathy = BathymetryField(FlatBed(level=-2.0))
    params = PhysicalParams(g=G, nu=0.0, p_atm=GradientPressure(slope=alpha))
    state = lake_at_rest(grid, bathy)
    dHdt, dqdt = hydrostatic_tendency(state, bathy, params, grid)
    np.testing.assert_allclose(dHdt, 0.0, atol=1e-14)
    np.testing.assert_allclose(dqdt, -state.H * alpha, rtol=1e-13)


def test_constant_pressure_offset_changes_nothing():
    from swdisp.core import AnalyticPressure
    grid = Grid(0.0, 1.0, 24)
    bathy = BathymetryField(GaussianBump(0.5, 0.1, 0.3, -1.0))
    rng = np.random.default_rng(2)
    state = smooth_random_state(grid, bathy, rng)
    slope = 0.4
    p1 = PhysicalParams(g=G, nu=1e-3, p_atm=GradientPressure(slope=slope))
    p2 = PhysicalParams(g=G, nu=1e-3, p_atm=AnalyticPressure(
        value_fn=lambda x, t: slope * x + 123.0,
        grad_x_fn=lambda x, t: np.full_like(x, slope),
        rate_t_fn=lambda x, t: np.zeros_like(x)))
    out1 = hydrostatic_tendency(state, bathy, p1, grid)
    out2 = hydrostatic_tendency(state, bathy, p2, grid)
    np.testing.assert_allclose(out1[0], out2[0], atol=0.0)
    np.testing.assert_allclose(out1[1], out2[1], atol=0.0)


@pytest.mark.parametrize("tier", list(ModelTier))
def test_mass_tendency_sums_to_zero_on_periodic_domain(tier):
    grid = Grid(0.0, 3.0, 64)
    bathy = BathymetryField(GaussianBump(1.5, 0.3, 0.35, -1.2))
    params = PhysicalParams(g=G, nu=1e-3, k_l=0.01, k_t=0.05)
    rng = np.random.default_rng(4)
    state = smooth_random_state(grid, bathy, rng)
    if tier is ModelTier.HYDROSTATIC:
        dHdt, _ = hydrostatic_tendency(state, bathy, params, grid)
    else:
        dHdt = assemble_dispersive(state, bathy, params, grid, tier).dHdt
    assert abs(np.sum(dHdt) * grid.dx) <= 1e-13


def test_positivity_clamp_is_counted(monkeypatch):
    """Face depths clamped by the hydrostatic reconstruction are counted in
    ``step(stats=)``, here where no stage's new depth ``H + dt dH/dt`` goes
    negative, so the count comes from the faces alone."""
    import swdisp.solver as solver
    from swdisp.core import SampledBed

    grid = Grid(0.0, 1.0, 16)
    # bed spike poking through the surface forces a clamped reconstruction
    zb = np.full(16, -1.0)
    zb[8] = 0.5
    bathy = BathymetryField(SampledBed(zb))
    H = np.maximum(0.0, 0.0 - zb)
    state = FlowState(t=0.0, H=H, q=np.zeros(16))
    dt = 1e-3
    new_depths = []

    def spy(s, *args, **kwargs):
        system = assemble_dispersive(s, *args, **kwargs)
        new_depths.append(s.H + dt * system.dHdt)
        return system

    monkeypatch.setattr(solver, "assemble_dispersive", spy)
    stats = {}
    solver.step(state, bathy, PhysicalParams(g=G, nu=1e-3), grid,
                ModelTier.HYDROSTATIC, dt, stats=stats)
    assert len(new_depths) == 2
    assert min(h.min() for h in new_depths) >= 0.0
    assert stats.get("positivity_clamps", 0) > 0


def test_stage_clamp_counts_every_negative_new_depth(monkeypatch):
    """Every new depth ``H + dt dH/dt`` that a stage drives below zero is
    clamped to zero and counted in ``step(stats=)``, beside the stage's
    clamped face depths.  Flow over a bed spike that pokes through the
    surface takes the dry spike cell below zero in the second stage here; a
    stage that keeps its new depths non-negative by itself passes as well."""
    import swdisp.solver as solver
    from swdisp.core import SampledBed

    grid = Grid(0.0, 1.0, 16, Boundary.WALL)
    zb = np.full(16, -1.0)
    zb[8] = 0.5
    bathy = BathymetryField(SampledBed(zb))
    H = np.maximum(0.0, 0.0 - zb)
    state = FlowState(t=0.0, H=H, q=0.2 * H)
    dt = 1e-3
    new_depths, face_clamps = [], []

    def spy(s, *args, **kwargs):
        system = assemble_dispersive(s, *args, **kwargs)
        new_depths.append(s.H + dt * system.dHdt)
        face_clamps.append(kwargs["context"].fields(s).face_clamps)
        return system

    monkeypatch.setattr(solver, "assemble_dispersive", spy)
    stats = {}
    new = solver.step(state, bathy, PhysicalParams(g=G, nu=1e-3), grid,
                      ModelTier.HYDROSTATIC, dt, stats=stats)
    assert len(new_depths) == 2
    negative = sum(int(np.count_nonzero(h < 0.0)) for h in new_depths)
    assert stats.get("positivity_clamps", 0) == sum(face_clamps) + negative
    assert new.H.min() >= 0.0


# ---------------------------------------------------------------------------
# assemble_dispersive
# ---------------------------------------------------------------------------

def dense_second_difference(n, dx, periodic=True):
    """Independent dense build of the (positive-definite) second-difference
    matrix: D2[i,i] = 2/dx^2, D2[i,i+-1] = -1/dx^2."""
    D2 = np.zeros((n, n))
    for i in range(n):
        D2[i, i] = 2.0
        D2[i, (i - 1) % n] += -1.0
        D2[i, (i + 1) % n] += -1.0
    if not periodic:
        raise NotImplementedError
    return D2 / dx**2


@pytest.mark.parametrize("tier", [ModelTier.NONHYDRO1, ModelTier.PEREGRINE_INVISCID])
def test_flat_bottom_operator_matches_dense_construction(tier):
    z0 = -0.8
    grid = Grid(0.0, 2.0, 24)
    bathy = BathymetryField(FlatBed(level=z0))
    params = PhysicalParams(g=G, nu=1e-3)
    rng = np.random.default_rng(6)
    state = smooth_random_state(grid, bathy, rng, eta0=0.0, eta_amp=0.05, u_amp=0.1)
    sys = assemble_dispersive(state, bathy, params, grid, tier)
    expected = np.diag(state.H) - (z0**3 / 3.0) * dense_second_difference(24, grid.dx)
    np.testing.assert_allclose(sys.A.todense(), expected, rtol=0, atol=1e-11)


def test_flat_bottom_operator_nonhydro2_linearizes_to_same_stencil():
    # at rest on a flat bottom the NonHydro2 operator coincides with NonHydro1
    z0 = -1.0
    grid = Grid(0.0, 2.0, 16)
    bathy = BathymetryField(FlatBed(level=z0))
    params = PhysicalParams(g=G, nu=1e-3)
    state = lake_at_rest(grid, bathy, eta0=0.0)
    A1 = assemble_dispersive(state, bathy, params, grid, ModelTier.NONHYDRO1).A.todense()
    A2 = assemble_dispersive(state, bathy, params, grid, ModelTier.NONHYDRO2).A.todense()
    np.testing.assert_allclose(A2, A1, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tier", [ModelTier.NONHYDRO1, ModelTier.NONHYDRO2,
                                  ModelTier.PEREGRINE_INVISCID])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.WALL])
def test_lake_at_rest_dispersive_rhs_vanishes(tier, boundary):
    grid = Grid(0.0, 1.0, 32, boundary=boundary)
    bathy = BathymetryField(GaussianBump(0.5, 0.1, 0.4, -1.0))
    params = PhysicalParams(g=G, nu=1e-3, k_l=0.02, k_t=0.1)
    state = lake_at_rest(grid, bathy)
    sys = assemble_dispersive(state, bathy, params, grid, tier)
    assert np.max(np.abs(sys.F)) <= 1e-13
    assert np.max(np.abs(sys.dHdt)) <= 1e-13
    a = sys.A.solve(sys.F)
    assert np.max(np.abs(a)) <= 1e-13


def test_vanishing_bottom_reduces_to_hydrostatic():
    """z_b == 0 annihilates every dispersive term: A = diag(H) and F equals
    the hydrostatic right-hand side once the pointwise damping ``-c u``,
    which ``F`` leaves out, is added: what the hydrostatic tier assembles
    on any bed."""
    grid = Grid(0.0, 2.0, 40)
    bathy = BathymetryField(FlatBed(level=0.0))
    params = PhysicalParams(g=G, nu=2e-3, k_l=0.01, k_t=0.02)
    x = grid.cell_centers
    H = 1.0 + 0.1 * np.sin(2 * np.pi * x / grid.length)
    u = 0.2 * np.cos(2 * np.pi * x / grid.length)
    state = FlowState(t=0.0, H=H, q=H * u)
    dHdt, dqdt = hydrostatic_tendency(state, bathy, params, grid)
    F_hydro = dqdt - u * dHdt
    for tier in (ModelTier.NONHYDRO1, ModelTier.HYDROSTATIC):
        sys = assemble_dispersive(state, bathy, params, grid, tier)
        np.testing.assert_allclose(sys.A.todense(), np.diag(H), rtol=0, atol=1e-14)
        np.testing.assert_allclose(sys.F - sys.friction * u, F_hydro,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(sys.dHdt, dHdt, rtol=0, atol=0.0)


@pytest.mark.parametrize("tier", [ModelTier.NONHYDRO1, ModelTier.NONHYDRO2])
def test_operator_is_diagonally_dominant_on_random_states(tier):
    # mild-slope bathymetry: the operator's zeroth-order weight
    # H - h^2 h''/2 must stay positive, which bounds admissible bed curvature
    grid = Grid(0.0, 4.0, 48)
    bathy = BathymetryField(GaussianBump(2.0, 1.0, 0.2, -1.5))
    params = PhysicalParams(g=G, nu=5e-3, k_l=0.01)
    rng = np.random.default_rng(10)
    for _ in range(10):
        state = smooth_random_state(grid, bathy, rng, eta_amp=0.15, u_amp=0.5)
        sys = assemble_dispersive(state, bathy, params, grid, tier)
        A = sys.A.todense()
        diag = np.abs(np.diag(A))
        off = np.sum(np.abs(A), axis=1) - diag
        assert np.all(diag > off)


def test_implicit_solve_reproduces_dense_solution():
    grid = Grid(0.0, 2.0, 32)
    bathy = BathymetryField(GaussianBump(1.0, 0.3, 0.4, -1.2))
    params = PhysicalParams(g=G, nu=1e-3)
    rng = np.random.default_rng(12)
    state = smooth_random_state(grid, bathy, rng)
    sys = assemble_dispersive(state, bathy, params, grid, ModelTier.NONHYDRO1)
    a_banded = sys.A.solve(sys.F)
    a_dense = np.linalg.solve(sys.A.todense(), sys.F)
    np.testing.assert_allclose(a_banded, a_dense, rtol=1e-11, atol=1e-13)


# ---------------------------------------------------------------------------
# steady_residual
# ---------------------------------------------------------------------------

def test_steady_residual_nonhydro1_matches_hydrostatic_exactly():
    grid = Grid(0.0, 3.0, 48)
    bathy = BathymetryField(GaussianBump(1.5, 0.4, 0.5, -1.5))
    params = PhysicalParams(g=G, nu=2e-3, k_l=0.02, k_t=0.1)
    rng = np.random.default_rng(14)
    for _ in range(20):
        state = smooth_random_state(grid, bathy, rng, eta_amp=0.2, u_amp=0.6)
        r_h = steady_residual(state, bathy, params, grid, ModelTier.HYDROSTATIC)
        r_1 = steady_residual(state, bathy, params, grid, ModelTier.NONHYDRO1)
        assert np.max(np.abs(r_h - r_1)) <= 1e-14


@pytest.mark.parametrize("tier", list(ModelTier))
def test_steady_residual_lake_at_rest_is_zero(tier):
    grid = Grid(0.0, 1.0, 32)
    bathy = BathymetryField(GaussianBump(0.5, 0.1, 0.4, -1.0))
    params = PhysicalParams(g=G, nu=1e-3, k_l=0.01)
    state = lake_at_rest(grid, bathy)
    r = steady_residual(state, bathy, params, grid, tier)
    assert np.max(np.abs(r)) <= 1e-13


def _centered(arr, dx):
    return (np.roll(arr, -1) - np.roll(arr, 1)) / (2 * dx)


def test_steady_residual_nonhydro2_difference_decomposition():
    """The fully nonlinear tier's stationary residual differs from the
    hydrostatic one by the modified-height momentum flux plus the stationary
    quadratic-velocity pressure terms; both re-assembled independently here
    with plain centered differences.
    """
    grid = Grid(0.0, 4.0, 64)
    bathy = BathymetryField(GaussianBump(2.0, 0.5, 0.4, -1.5))
    params = PhysicalParams(g=G, nu=5e-2, k_l=0.03, k_t=0.05)
    rng = np.random.default_rng(16)
    dx = grid.dx
    for _ in range(10):
        state = smooth_random_state(grid, bathy, rng, eta_amp=0.15, u_amp=0.5)
        r_h = steady_residual(state, bathy, params, grid, ModelTier.HYDROSTATIC)
        r_2 = steady_residual(state, bathy, params, grid, ModelTier.NONHYDRO2)

        # --- independent assembly of the difference terms ---
        H = state.H
        u = state.velocity()
        x = grid.cell_centers
        zb = bathy.elevation(x, 0.0)
        zbx = _centered(zb, dx)
        zbxx = (np.roll(zb, -1) - 2 * zb + np.roll(zb, 1)) / dx**2
        Hx = _centered(H, dx)
        s = _centered(u, dx)
        uxx = (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / dx**2
        from swdisp.closures import friction_kappa
        kappa = friction_kappa(u, zbx, H, params)
        Hm_minus_H = 2.0 * kappa**2 * H**3 / (15.0 * params.nu**2)
        flux_term = -_centered(Hm_minus_H * u**2, dx)
        A_depth = (H / 6.0) * (-4 * H**2 * s**2 - 2 * H**2 * u * uxx
                               - 6 * H * Hx * s * u + 9 * H * zbx * s * u
                               + 3 * H * zbxx * u**2 + 6 * zbx * Hx * u**2)
        A_bottom = -0.5 * _centered(H**2 * s * u, dx) + _centered(H * zbx * u**2, dx)
        expected_diff = flux_term - _centered(A_depth, dx) - zbx * A_bottom
        np.testing.assert_allclose(r_2 - r_h, expected_diff, rtol=1e-10, atol=1e-12)


def test_inviscid_tier_ignores_wall_law_friction():
    """The inviscid tier never evaluates the friction closure, so a
    non-zero k_l, k_t with nu = 0 neither raises nor changes the system."""
    grid = Grid(0.0, 10.0, 64, Boundary.PERIODIC)
    bathy = BathymetryField(GaussianBump(center=5.0, width=1.0,
                                         amplitude=0.3, level=-1.0))
    state = smooth_random_state(grid, bathy, np.random.default_rng(7))
    tier = ModelTier.PEREGRINE_INVISCID
    rough = assemble_dispersive(
        state, bathy, PhysicalParams(nu=0.0, k_l=0.01, k_t=0.05), grid, tier)
    smooth = assemble_dispersive(
        state, bathy, PhysicalParams(nu=0.0, k_l=0.0, k_t=0.0), grid, tier)
    assert not np.any(rough.friction)
    np.testing.assert_array_equal(rough.F, smooth.F)


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("tier", list(ModelTier))
def test_dry_cells_are_decoupled(tier, boundary):
    """An island that breaks the surface leaves dry cells: each gets an
    identity row in ``A`` and no coupling from its wet neighbours, and
    ``F`` and the friction coefficient vanish there, so the solve returns
    ``a = 0`` on them.  An island at the left edge dries cells 0 and 1, one
    at the right edge cells n - 2 and n - 1, so on a periodic domain the
    wrap-around couplings are cut too and ``A`` keeps no corners, and on a
    copy domain the ghost fold leaves the dry end cell's diagonal at 1."""
    from swdisp.core import DRY_THRESHOLD

    grid = Grid(0.0, 10.0, 48, boundary)
    x, n = grid.cell_centers, grid.n_cells
    params = PhysicalParams(g=G, nu=1e-3, k_l=0.01, k_t=0.05,
                            p_atm=GradientPressure(0.01))

    def bump(center, amplitude, width):
        return BathymetryField(GaussianBump(center=center, width=width,
                                            amplitude=amplitude, level=-1.0))

    cases = ((bump(5.0, 1.05, 1.0), 0.02 * np.sin(x), None),
             (bump(0.0, 1.2, 0.8), 0.0, [0, 1]),
             (bump(10.0, 1.2, 0.8), 0.0, [n - 2, n - 1]))
    for bathy, eta, edge in cases:
        H = np.maximum(0.0, eta - bathy.elevation(x, 0.0))
        state = FlowState(t=0.0, H=H, q=H * 0.1 * np.cos(0.5 * x))
        dry = np.flatnonzero(H < DRY_THRESHOLD)
        assert 0 < dry.size < n // 2
        system = assemble_dispersive(state, bathy, params, grid, tier)
        A = system.A.todense()
        for i in dry:
            row = np.zeros(n)
            row[i] = 1.0
            np.testing.assert_array_equal(A[i], row)
            np.testing.assert_array_equal(A[:, i], row)
        assert np.all(system.F[dry] == 0.0)
        assert np.all(system.friction[dry] == 0.0)
        assert np.any(system.F != 0.0)
        if edge is not None:
            np.testing.assert_array_equal(dry, edge)
            assert system.A.corners == ()


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("tier", [ModelTier.NONHYDRO1,
                                  ModelTier.PEREGRINE_INVISCID])
def test_wet_operator_equals_assembly_from_its_stencils(tier, boundary):
    """On a wet state the NonHydro1/PeregrineInviscid operator reuses the
    run's off-diagonal band rows: its bands and corners must equal, bit
    for bit, ``BandedMatrix.from_stencils`` of the same off-diagonal
    stencils plus the same diagonal, also for a second state assembled
    with the same context."""
    from swdisp.models import _bed_operator, _RunContext
    from swdisp.solver import BandedMatrix

    grid = Grid(0.0, 10.0, 40, boundary)
    bathy = BathymetryField(GaussianBump(center=5.0, width=1.0,
                                         amplitude=0.3, level=-1.0))
    params = PhysicalParams(g=G, nu=1e-3, k_l=0.01)
    context = _RunContext(bathy, params, grid)
    rng = np.random.default_rng(21)
    for _ in range(2):
        state = smooth_random_state(grid, bathy, rng, eta_amp=0.05)
        f = context.fields(state)
        sub, X, Y, sup = _bed_operator(f.zp, context.zbx_ring, grid.dx,
                                       boundary)
        want = BandedMatrix.from_stencils(sub, sup, boundary)
        want.bands[1] += f.H - X - Y
        got = assemble_dispersive(state, bathy, params, grid, tier,
                                  context=context).A
        np.testing.assert_array_equal(got.bands, want.bands)
        assert got.corners == want.corners
        assert bool(got.corners) == (boundary is Boundary.PERIODIC)


def test_friction_coefficient_carries_bed_factor_of_viscous_dispersive_tiers():
    """``kappa_eff`` is shared by the tiers; NonHydro1 and NonHydro2 scale
    it by ``1 + 5/2 (dz_b/dx)^2`` and PeregrineInviscid has none.  The
    assembled system reports the same coefficient."""
    from swdisp.models import pointwise_friction_coefficient

    grid = Grid(0.0, 10.0, 40, Boundary.PERIODIC)
    bathy = BathymetryField(GaussianBump(center=5.0, width=1.0,
                                         amplitude=0.3, level=-1.0))
    params = PhysicalParams(g=G, nu=1e-3, k_l=0.01, k_t=0.05)
    state = smooth_random_state(grid, bathy, np.random.default_rng(23))
    zb = bathy.elevation(grid.cell_centers, 0.0)
    zbx = (np.roll(zb, -1) - np.roll(zb, 1)) / (2.0 * grid.dx)
    hydro = pointwise_friction_coefficient(state, bathy, params, grid,
                                           ModelTier.HYDROSTATIC)
    assert np.all(hydro > 0.0)
    for tier, factor in ((ModelTier.HYDROSTATIC, 1.0),
                         (ModelTier.NONHYDRO1, 1.0 + 2.5 * zbx**2),
                         (ModelTier.NONHYDRO2, 1.0 + 2.5 * zbx**2),
                         (ModelTier.PEREGRINE_INVISCID, 0.0)):
        coeff = pointwise_friction_coefficient(state, bathy, params, grid,
                                               tier)
        np.testing.assert_allclose(coeff, hydro * factor, rtol=1e-14, atol=0)
        system = assemble_dispersive(state, bathy, params, grid, tier)
        np.testing.assert_array_equal(system.friction, coeff)


def _nh2_term_by_term(f, kappa_ring, params):
    """NonHydro2's dispersive forcing and stationary extras, one centred
    difference and one bed-slope product per term, each product rebuilt
    where it is used."""
    dx = f.dx

    def D(ring):  # centred difference of a width-1-ring array
        return (ring[2:] - ring[:-2]) / (2.0 * dx)

    mid = slice(1, -1)
    H, u, zb = f.H, f.u, f.zb
    H_ring, u_ring, eta_ring = f.Hp[mid], f.up[mid], f.etap[mid]
    s_ring, Hx_ring, zbx_ring = f.ux_ring, f.Hx_ring, f.zbx_ring
    uxx_ring = (f.up[2:] - 2.0 * f.up[1:-1] + f.up[:-2]) / dx**2
    s, zbx = s_ring[mid], zbx_ring[mid]

    depth_avg = (H_ring / 6.0) * (
        -4.0 * H_ring**2 * s_ring**2
        - 2.0 * H_ring**2 * u_ring * uxx_ring
        - 6.0 * H_ring * Hx_ring * s_ring * u_ring
        + 9.0 * H_ring * zbx_ring * s_ring * u_ring
        + 3.0 * H_ring * f.zbxx_ring * u_ring**2
        + 6.0 * zbx_ring * Hx_ring * u_ring**2)
    extras = -D(depth_avg)
    if kappa_ring is not None and params.nu > 0.0:
        Hm_minus_H = 2.0 * kappa_ring**2 * H_ring**3 / (15.0 * params.nu**2)
        extras = extras - D(Hm_minus_H * u_ring**2)
    extras = extras - zbx * (-0.5 * D(H_ring**2 * s_ring * u_ring)
                             + D(H_ring * zbx_ring * u_ring**2))

    F = extras.copy()
    m_ring = f.m_ring
    deta_dt_ring = f.bed_rate - f.divq_ring
    F -= D(-H_ring * deta_dt_ring * (eta_ring * s_ring - m_ring))
    F -= zbx * (deta_dt_ring[mid] * m_ring[mid]
                - f.eta * deta_dt_ring[mid] * s
                + deta_dt_ring[mid] * f.bed_rate)
    mixed = f.bed_rate * s_ring
    F -= D((H_ring**2 / 2.0) * mixed)
    F -= zbx * H * mixed[mid]
    F += zb * zbx * f.bed_accel
    F -= 0.5 * f.bed_accel * D(H_ring**2)
    if kappa_ring is not None:
        kappa = kappa_ring[mid]
        F += D(kappa_ring * H_ring * (
            (H_ring / 6.0) * s_ring
            - ((7.0 / 6.0) * zbx_ring + f.etax_ring / 3.0) * u_ring))
        F += kappa * zbx * ((0.5 * Hx_ring[mid] + zbx) * u + (H / 2.0) * s)
    return F, extras


def _nh2_dense_operator(f, boundary):
    """Dense NonHydro2 inertia operator, row by row from its face fluxes:
    ``H a + d/dx((H^3/6 - eta H^2/2) a_x + (H^2/2) (z_b a)_x)
    + z_b' ((H^2/2 - eta H) a_x + H (z_b a)_x)``."""
    n, dx = f.H.size, f.dx
    H_ring, eta_ring, z = f.Hp[1:-1], f.etap[1:-1], f.zp[1:-1]
    c1 = H_ring**3 / 6.0 - eta_ring * H_ring**2 / 2.0
    c2 = H_ring**2 / 2.0
    c1_face = 0.5 * (c1[:-1] + c1[1:])  # face j between ring cells j, j+1
    c2_face = 0.5 * (c2[:-1] + c2[1:])
    if boundary is Boundary.WALL:
        c1_face[[0, -1]] = c2_face[[0, -1]] = 0.0
    H, eta, zbx = f.H, f.eta, f.zbx_ring[1:-1]

    def column(j):  # column of the unknown that ring cell j stands for
        if 1 <= j <= n:
            return j - 1
        if boundary is Boundary.PERIODIC:
            return (j - 1) % n
        if boundary is Boundary.COPY:
            return 0 if j == 0 else n - 1
        return None  # a wall's ghost unknowns are zero

    A = np.zeros((n, n))
    for i in range(n):
        r = i + 1  # ring index of cell i
        sc1, sc2 = H[i]**2 / 2.0 - eta[i] * H[i], H[i]
        coeff = {r - 1: (c1_face[r - 1] + c2_face[r - 1] * z[r - 1]) / dx**2
                 - zbx[i] * (sc1 + sc2 * z[r - 1]) / (2.0 * dx),
                 r: H[i] - (c1_face[r] + c1_face[r - 1]) / dx**2
                 - (c2_face[r] + c2_face[r - 1]) * z[r] / dx**2,
                 r + 1: (c1_face[r] + c2_face[r] * z[r + 1]) / dx**2
                 + zbx[i] * (sc1 + sc2 * z[r + 1]) / (2.0 * dx)}
        for j, value in coeff.items():
            if column(j) is not None:
                A[i, column(j)] += value
    return A


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("moving", [False, True])
@pytest.mark.parametrize("k_t", [0.0, 0.05])
def test_nonhydro2_forcing_matches_term_by_term_form(boundary, moving, k_t):
    """NonHydro2's ``F``, ``A`` and ``steady_residual`` equal the sum of
    their terms written out one by one (:func:`_nh2_term_by_term`, and a
    dense operator built row by row), to rounding, on a moving wet state
    over a bump, with and without turbulent friction and bed motion."""
    from swdisp.core import StaticBed
    from swdisp.models import _ring_kappa, _RunContext

    grid = Grid(0.0, 10.0, 32, boundary)
    x = grid.cell_centers
    bathy = BathymetryField(
        GaussianBump(center=5.0, width=1.0, amplitude=0.3, level=-1.0),
        SinusoidMotion(amplitude=0.01, angular_frequency=2.0, phase=0.4)
        if moving else StaticBed())
    params = PhysicalParams(g=G, nu=1e-3, k_l=1e-2, k_t=k_t)
    t = 0.3
    H = 0.05 * np.exp(-0.5 * (x - 3.0)**2) - bathy.elevation(x, t)
    u = 0.1 * np.sin(0.2 * np.pi * x) + 0.05 * np.cos(0.7 * x)
    state = FlowState(t=t, H=H, q=H * u)
    tier = ModelTier.NONHYDRO2

    f = _RunContext(bathy, params, grid).fields(state)
    kappa_ring = _ring_kappa(f, params, tier)
    forcing, extras = _nh2_term_by_term(f, kappa_ring, params)
    hydro = assemble_dispersive(state, bathy, params, grid,
                                ModelTier.HYDROSTATIC)
    system = assemble_dispersive(state, bathy, params, grid, tier)
    residual = steady_residual(state, bathy, params, grid, tier)
    want_residual = steady_residual(state, bathy, params, grid,
                                    ModelTier.HYDROSTATIC) + extras
    for got, want in ((system.F, hydro.F + forcing),
                      (system.A.todense(), _nh2_dense_operator(f, boundary)),
                      (residual, want_residual)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
