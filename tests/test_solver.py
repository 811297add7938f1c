"""Tests for the banded direct solver, CFL control, and the two-stage
semi-implicit time stepper.

Oracle strategy: banded solves are compared against dense ``np.linalg.solve``
on independently constructed matrices; fixed points and conservation are
asserted at machine precision; wave speeds against hand-derived values.
"""

import functools
import importlib.machinery
import warnings

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
    ZeroPressure,
)
from swdisp import models, solver
from swdisp.models import ModelTier
from swdisp.solver import (BandedMatrix, SolverError, StepControls, run_simulation,
                           stable_dt, step)

from oracles import dense

G = 9.81


def lake_at_rest(grid, bathy, eta0=0.0):
    zb = bathy.elevation(grid.cell_centers, 0.0)
    H = np.maximum(0.0, eta0 - zb)
    return FlowState(t=0.0, H=H, q=np.zeros_like(H))


# ---------------------------------------------------------------------------
# BandedMatrix
# ---------------------------------------------------------------------------

def random_stencils(n, rng, strength=4.0):
    stencils = {k: rng.uniform(-1, 1, size=n) for k in (-1, 1)}
    stencils[0] = strength + rng.uniform(0, 1, size=n)  # diagonally dominant
    return stencils


def banded_from_stencils(stencils, boundary):
    """``from_stencils`` of the off-diagonals of ``stencils`` (offsets -1
    and 1; a missing offset is zero) with its diagonal added."""
    zero = np.zeros(len(next(iter(stencils.values()))))
    A = BandedMatrix.from_stencils(stencils.get(-1, zero),
                                   stencils.get(1, zero), boundary)
    A.bands[1] += stencils.get(0, zero)
    return A


def dense_from_stencils(stencils, n, boundary):
    A = np.zeros((n, n))
    for k, coeffs in stencils.items():
        for i in range(n):
            j = i + k
            if 0 <= j < n:
                A[i, j] += coeffs[i]
            elif boundary is Boundary.PERIODIC:
                A[i, j % n] += coeffs[i]
            elif boundary is Boundary.COPY:
                A[i, min(max(j, 0), n - 1)] += coeffs[i]
            # WALL: out-of-range unknowns are zero -> dropped
    return A


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.WALL, Boundary.COPY])
def test_banded_solve_matches_dense(boundary):
    rng = np.random.default_rng(1)
    for n in (8, 13, 50):
        stencils = random_stencils(n, rng)
        if n == 13:  # diagonal-only: solved by division
            stencils = {0: stencils[0]}
        A = banded_from_stencils(stencils, boundary)
        expected = dense_from_stencils(stencils, n, boundary)
        np.testing.assert_allclose(dense(A), expected, atol=1e-14)
        b = rng.standard_normal(n)
        x = A.solve(b)
        np.testing.assert_allclose(x, np.linalg.solve(expected, b), rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(A.matvec(x), b, rtol=1e-10, atol=1e-12)


def test_dgtsv_fallback_is_the_routine_of_scipy_linalg_lapack(monkeypatch):
    """Where numpy's own 8-byte-integer ``dgtsv`` does not resolve,
    ``_load_dgtsv`` takes scipy's from its ``_flapack`` extension alone,
    and where that is not found under ``scipy/linalg`` either, from
    :mod:`scipy.linalg.lapack`.  On numpy's routine and on scipy's,
    Periodic, Wall and Copy systems with one and two right-hand sides give
    the same bits, and singular systems raise :class:`SolverError`."""
    import scipy.linalg.lapack
    rng = np.random.default_rng(1)
    boundaries = (Boundary.PERIODIC, Boundary.WALL, Boundary.COPY)
    systems = [(banded_from_stencils(random_stencils(50, rng), boundary),
                rng.standard_normal(50)) for boundary in boundaries]
    pairs = rng.standard_normal((2, 50))
    singular = [banded_from_stencils({-1: -np.ones(16), 0: np.full(16, 2.0),
                                      1: -np.ones(16)}, Boundary.PERIODIC)]
    for boundary in boundaries:  # row 7 all zero
        stencils = random_stencils(16, rng)
        for coeffs in stencils.values():
            coeffs[7] = 0.0
        singular.append(banded_from_stencils(stencils, boundary))

    def solved():
        """Loads ``dgtsv`` afresh; its solutions of ``systems`` through
        :meth:`BandedMatrix.solve` (two right-hand sides on the Periodic
        one, where the corners add a second) and through the routine with
        one and two right-hand sides."""
        models._load_dgtsv.cache_clear()
        dgtsv = models._load_dgtsv()
        found = [A.solve(b) for A, b in systems]
        for A, b in systems:
            for rhs in (b.copy(), pairs.copy()):
                assert dgtsv(A.bands.copy(), rhs) == 0
                found.append(rhs)
        for A in singular:
            with pytest.raises(SolverError, match="singular matrix$"):
                A.solve(np.ones(A.n))
        return dgtsv, found

    find_spec, asked = importlib.machinery.PathFinder.find_spec, []

    def no_flapack(cls, name, path=None, target=None):
        asked.append(name)
        if name == "scipy.linalg._flapack":
            return None
        return find_spec(name, path, target)

    try:
        native, on_numpy = solved()
        monkeypatch.setattr(models, "_NUMPY_DGTSV", ("no_such_dgtsv_64_",))
        flapack, on_flapack = solved()
        assert flapack.func is models._dgtsv_f2py
        assert flapack.args == (scipy.linalg.lapack.dgtsv,)
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            classmethod(no_flapack))
        package, on_package = solved()
        assert package.args == (scipy.linalg.lapack.dgtsv,)
        assert "scipy.linalg._flapack" in asked
        for x, y in zip(on_flapack, on_package, strict=True):
            assert np.array_equal(x, y)
        if native.func is not models._dgtsv_ilp64:
            pytest.skip("numpy's LAPACK exports no 8-byte-integer dgtsv")
        for x, y in zip(on_numpy, on_flapack, strict=True):
            assert np.array_equal(x, y)
    finally:
        models._load_dgtsv.cache_clear()


def test_banded_solve_residual_check():
    rng = np.random.default_rng(3)
    n = 40
    A = banded_from_stencils(random_stencils(n, rng), Boundary.PERIODIC)
    b = rng.standard_normal(n)
    x = A.solve(b)
    assert np.max(np.abs(A.matvec(x) - b)) <= 1e-10 * np.max(np.abs(b))


def test_banded_bandwidth_fields():
    stencils = random_stencils(16, np.random.default_rng(0))
    A = banded_from_stencils(stencils, Boundary.PERIODIC)
    assert A.n == 16 and A.bands.shape == (3, 16)  # bandwidth 1


@pytest.mark.parametrize("boundary", list(Boundary))
def test_decouple_gives_identity_rows_and_columns(boundary):
    """``decouple`` equals zeroing each chosen row and column of the dense
    matrix and putting 1 on its diagonal; corners go exactly when the first
    or last cell is chosen, and the solve returns ``b`` on chosen cells."""
    rng = np.random.default_rng(5)
    n = 12
    for cut in ([3], [4, 5, 9], [0, 1], [10, 11], [0, 6, 11]):
        stencils = random_stencils(n, rng)
        A = banded_from_stencils(stencils, boundary)
        expected = dense_from_stencils(stencils, n, boundary)
        expected[cut, :] = expected[:, cut] = 0.0
        expected[cut, cut] = 1.0
        mask = np.zeros(n, dtype=bool)
        mask[cut] = True
        A.decouple(mask)
        np.testing.assert_array_equal(dense(A), expected)
        assert bool(A.corners) == (boundary is Boundary.PERIODIC
                                   and not (mask[0] or mask[-1]))
        b = rng.standard_normal(n)
        np.testing.assert_array_equal(A.solve(b)[mask], b[mask])


@pytest.mark.parametrize("offsets", [(-1, 0, 1), (0,)])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.WALL])
def test_singular_system_raises_solver_error(boundary, offsets):
    rng = np.random.default_rng(4)
    n = 12
    stencils = {k: v for k, v in random_stencils(n, rng).items() if k in offsets}
    for coeffs in stencils.values():
        coeffs[5] = 0.0  # row 5 vanishes
    A = banded_from_stencils(stencils, boundary)
    assert bool(A.corners) == (boundary is Boundary.PERIODIC and len(offsets) == 3)
    with pytest.raises(SolverError):
        A.solve(rng.standard_normal(n))


@pytest.mark.parametrize("n", [8, 9, 64, 256])
def test_singular_periodic_laplacian_raises(n):
    """The periodic second difference (diagonal 2, off-diagonals and
    corners -1) has the constants in its null space.  The corner update's
    ``1 + v.z`` then comes out of rounding (5.6e-17 for n = 8, 64, 256), not
    exactly zero, and must still be refused; the same matrix with its
    diagonal raised by 1e-6 solves."""
    b = np.sin(np.arange(n))
    A = banded_from_stencils({-1: -np.ones(n), 0: np.full(n, 2.0),
                              1: -np.ones(n)}, Boundary.PERIODIC)
    with pytest.raises(SolverError) as err:
        A.solve(b)
    assert str(err.value) == "banded solve failed: singular matrix"
    A.bands[1] += 1e-6
    x = A.solve(b)
    assert np.max(np.abs(A.matvec(x) - b)) <= 1e-9


_NONFINITE_CASES = [
    (boundary, where, value)
    for boundary in Boundary
    for where in ("sub", "diag", "sup", "b")
    + (("upper", "lower") if boundary is Boundary.PERIODIC else ())
    for value in (np.nan, np.inf, -np.inf)]


@pytest.mark.parametrize("boundary,where,value", _NONFINITE_CASES)
def test_non_finite_input_raises_solver_error_naming_its_row(boundary, where,
                                                             value):
    """A NaN or infinity in any band, either periodic corner or the
    right-hand side stops the solve with one text, which the CLI and the
    run's error reports quote, and the first row of ``A`` or ``b`` that
    holds it."""
    rng = np.random.default_rng(6)
    n = 10
    A = banded_from_stencils(random_stencils(n, rng), boundary)
    b = rng.standard_normal(n)
    if where == "b":
        b[4] = value
    elif where in ("upper", "lower"):
        corners = list(A.corners)
        corners[where == "lower"] = value
        A.corners = tuple(corners)
    else:
        A.bands[{"sup": 0, "diag": 1, "sub": 2}[where], 4] = value
    with pytest.raises(SolverError) as err:
        A.solve(b)
    row = {"sup": "operator row 3", "diag": "operator row 4",
           "sub": "operator row 5", "b": "right-hand side row 4",
           "upper": "operator row 0", "lower": f"operator row {n - 1}"}
    assert str(err.value) == ("banded solve failed: array must not contain "
                              f"infs or NaNs ({row[where]})")


def test_non_finite_solve_names_the_first_bad_row_of_each_input():
    """A NaN in row 5 of ``A`` and infinities in rows 7 and 2 of ``b``."""
    rng = np.random.default_rng(7)
    A = banded_from_stencils(random_stencils(12, rng), Boundary.WALL)
    A.bands[1, 5] = np.nan
    b = rng.standard_normal(12)
    b[[7, 2]] = np.inf
    with pytest.raises(SolverError, match=r"NaNs \(operator row 5, "
                       r"right-hand side row 2\)$"):
        A.solve(b)
    b[:] = 0.0
    with pytest.raises(SolverError, match=r"NaNs \(operator row 5\)$"):
        A.solve(b)


def _overflowing_system(branch):
    """A system with finite entries whose solution overflows, for each path
    of the solve: division, ``dgtsv`` and the periodic corner update."""
    if branch == "periodic":
        n = 8
        A = banded_from_stencils({-1: -np.ones(n), 0: np.full(n, 2.0 + 1e-9),
                                  1: -np.ones(n)}, Boundary.PERIODIC)
        return A, np.full(n, 1e300) * np.sin(np.arange(1.0, n + 1.0))
    sup = np.zeros(4)
    if branch == "dgtsv":
        sup[1] = 0.5
    A = banded_from_stencils({-1: np.zeros(4), 0: np.array([1e-300, 1, 1, 1]),
                              1: sup}, Boundary.WALL)
    return A, np.array([1e300, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("branch", ["division", "dgtsv", "periodic"])
def test_non_finite_solution_raises_solver_error(branch):
    """Finite inputs whose solution overflows stop the solve with one text,
    and no floating-point warning escapes."""
    A, b = _overflowing_system(branch)
    assert bool(A.corners) == (branch == "periodic")
    assert A.bands[::2].any() == (branch != "division")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as err:
            A.solve(b)
    assert str(err.value) == "banded solve failed: non-finite solution"


# ---------------------------------------------------------------------------
# stable_dt
# ---------------------------------------------------------------------------

def test_stable_dt_hand_value():
    grid = Grid(0.0, 1.6, 16)  # dx = 0.1
    state = FlowState(t=0.0, H=np.ones(16), q=np.zeros(16))
    controls = StepControls(cfl=0.5, t_end=1.0)
    dt = stable_dt(state, PhysicalParams(g=9.81), grid, controls)
    assert dt == pytest.approx(0.5 * 0.1 / np.sqrt(9.81), rel=1e-12)
    assert dt == pytest.approx(0.0159638, abs=1e-6)


def test_stable_dt_fixed_override():
    grid = Grid(0.0, 1.6, 16)
    state = FlowState(t=0.0, H=np.ones(16), q=np.zeros(16))
    controls = StepControls(cfl=0.5, t_end=1.0, fixed_dt=1e-3)
    assert stable_dt(state, PhysicalParams(), grid, controls) == 1e-3


def test_stable_dt_scales_linearly_with_dx():
    state16 = FlowState(t=0.0, H=np.ones(16), q=0.5 * np.ones(16))
    controls = StepControls(cfl=0.4, t_end=1.0)
    params = PhysicalParams(g=G)
    dt1 = stable_dt(state16, params, Grid(0.0, 1.6, 16), controls)
    dt2 = stable_dt(state16, params, Grid(0.0, 3.2, 16), controls)
    assert dt2 == pytest.approx(2 * dt1, rel=1e-13)


def test_stable_dt_all_dry_errors():
    grid = Grid(0.0, 1.0, 8)
    state = FlowState(t=0.0, H=np.zeros(8), q=np.zeros(8))
    with pytest.raises(ValueError):
        stable_dt(state, PhysicalParams(), grid, StepControls(t_end=1.0))


def test_step_controls_validation():
    with pytest.raises(ValueError):
        StepControls(cfl=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        StepControls(cfl=1.5, t_end=1.0)


# ---------------------------------------------------------------------------
# step: fixed points and conservation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tier", list(ModelTier))
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.WALL])
def test_lake_at_rest_is_fixed_point(tier, boundary):
    grid = Grid(0.0, 1.0, 32, boundary=boundary)
    bathy = BathymetryField(GaussianBump(0.5, 0.1, 0.4, -1.0))
    params = PhysicalParams(g=G, nu=1e-3, k_l=0.01)
    state = lake_at_rest(grid, bathy)
    H0, q0 = state.H.copy(), state.q.copy()
    for _ in range(20):
        state = step(state, bathy, params, grid, tier, dt=5e-3)
    assert np.max(np.abs(state.H - H0)) <= 1e-13
    assert np.max(np.abs(state.q - q0)) <= 1e-13


@pytest.mark.parametrize("tier", list(ModelTier))
def test_mass_exactly_conserved_on_periodic_domain(tier):
    grid = Grid(0.0, 2.0, 64)
    bathy = BathymetryField(GaussianBump(1.0, 0.25, 0.3, -1.2))
    params = PhysicalParams(g=G, nu=1e-3, k_l=0.01)
    x = grid.cell_centers
    zb = bathy.elevation(x, 0.0)
    eta = 0.1 * np.exp(-((x - 0.6) ** 2) / (2 * 0.05**2))
    H = eta - zb
    state = FlowState(t=0.0, H=H, q=np.zeros_like(H))
    mass0 = np.sum(state.H) * grid.dx
    controls = StepControls(cfl=0.4, t_end=1.0)
    for _ in range(100):
        dt = stable_dt(state, params, grid, controls)
        state = step(state, bathy, params, grid, tier, dt)
    mass = np.sum(state.H) * grid.dx
    assert abs(mass - mass0) / mass0 <= 1e-13


def test_small_wave_travels_at_gravity_wave_speed():
    H0, L = 1.0, 20.0
    grid = Grid(0.0, L, 400)
    bathy = BathymetryField(FlatBed(level=-H0))
    params = PhysicalParams(g=G, nu=0.0)
    x = grid.cell_centers
    c = np.sqrt(G * H0)
    amp = 1e-5
    eta = amp * np.exp(-((x - 5.0) ** 2) / (2 * 0.5**2))
    state = FlowState(t=0.0, H=H0 + eta, q=(H0 + eta) * (c * eta / H0))
    t_end = 5.0 / c  # travel 5 m
    controls = StepControls(cfl=0.4, t_end=t_end)
    result = run_simulation(state, bathy, params, grid, ModelTier.HYDROSTATIC,
                            controls, collect_reports=False)
    eta_f = result.states[-1].H - H0
    peak = x[np.argmax(eta_f)]
    assert peak == pytest.approx(10.0, abs=0.01 * 10.0)


def test_positivity_violations_counted_in_stats():
    grid = Grid(0.0, 1.0, 32)
    bathy = BathymetryField(FlatBed(level=0.0))
    x = grid.cell_centers
    # strongly divergent velocity over a thin dip drains the dip cell
    # past zero within a step; the clamp must fire and be counted
    H = np.full(32, 1e-3)
    H[16] = 2e-5
    u = 5.0 * np.tanh((x - 0.5) / 0.1)
    state = FlowState(t=0.0, H=H, q=H * u)
    params = PhysicalParams(g=G, nu=0.0)
    stats = {}
    s = state
    for _ in range(10):
        s = step(s, bathy, params, grid, ModelTier.HYDROSTATIC, dt=2e-3, stats=stats)
    assert np.all(s.H >= 0.0)
    assert stats.get("positivity_clamps", 0) > 0


def test_peregrine_energy_drift_temporal_part_is_high_order():
    """The inviscid dispersive tier's extended-energy drift splits into a
    dt-independent (spatial upwinding) part and a temporal part; Richardson
    differences cancel the former, and the latter must shrink by ~8x per dt
    halving (the two-stage average has O(dt^4) per-step energy error on
    oscillatory modes, hence O(dt^3) accumulated)."""
    from swdisp.diagnostics import energy_extended
    H0, L = 1.0, 4.0
    grid = Grid(0.0, L, 64)
    bathy = BathymetryField(FlatBed(level=-H0))
    params = PhysicalParams(g=G, nu=0.0)
    x = grid.cell_centers
    eta = 1e-3 * np.sin(2 * np.pi * x / L)
    state0 = FlowState(t=0.0, H=H0 + eta, q=np.zeros_like(eta))

    def drift(dt, n_steps):
        s = state0.copy()
        e0 = energy_extended(s, bathy, params, grid, ModelTier.PEREGRINE_INVISCID).E_ext
        for _ in range(n_steps):
            s = step(s, bathy, params, grid, ModelTier.PEREGRINE_INVISCID, dt)
        e1 = energy_extended(s, bathy, params, grid, ModelTier.PEREGRINE_INVISCID).E_ext
        return e1 - e0

    d1 = drift(8e-3, 100)
    d2 = drift(4e-3, 200)
    d3 = drift(2e-3, 400)
    assert d1 < 0.0  # net drift is dissipative, never a blow-up
    assert abs(d1) < 1e-8
    assert (d1 - d2) / (d2 - d3) == pytest.approx(8.0, rel=0.5)


@pytest.mark.parametrize("tier", list(ModelTier))
def test_non_finite_state_raises_solver_error(tier):
    grid = Grid(0.0, 10.0, 32, Boundary.PERIODIC)
    bathy = BathymetryField(FlatBed(level=-1.0))
    s0 = lake_at_rest(grid, bathy)
    s0.q[5] = np.nan
    with pytest.raises(SolverError) as err:
        run_simulation(s0, bathy, PhysicalParams(nu=1e-3), grid, tier,
                       StepControls(t_end=0.1))
    assert "non-finite" in str(err.value)
    assert "cell 5" in str(err.value)


@pytest.mark.parametrize("interval", [-0.05, np.nan])
def test_invalid_snapshot_interval_is_refused_before_the_first_step(
        interval, monkeypatch):
    """A negative interval would move the next snapshot mark backwards for
    ever; it and NaN are refused before any step is taken (a step taken
    fails the test at once instead of letting the run hang)."""
    import swdisp.solver as solver

    def no_step(*args, **kwargs):
        raise AssertionError("run_simulation took a step")

    grid = Grid(0.0, 10.0, 32, Boundary.PERIODIC)
    bathy = BathymetryField(FlatBed(level=-1.0))
    monkeypatch.setattr(solver, "step", no_step)
    with pytest.raises(ValueError, match="snapshot_interval"):
        solver.run_simulation(lake_at_rest(grid, bathy), bathy,
                              PhysicalParams(nu=1e-3), grid,
                              ModelTier.HYDROSTATIC, StepControls(t_end=0.1),
                              snapshot_interval=interval)


def test_zero_snapshot_interval_stores_every_step():
    grid, bathy, state, params = _bump_run_setup()
    result = run_simulation(state, bathy, params, grid, ModelTier.NONHYDRO1,
                            StepControls(t_end=0.05, cfl=0.45),
                            snapshot_interval=0.0, collect_reports=False)
    assert result.stats["steps"] > 1
    assert len(result.states) == result.stats["steps"] + 1
    assert result.times == [s.t for s in result.states]
    assert np.all(np.diff(result.times) > 0.0)
    assert result.times[-1] == 0.05


@pytest.mark.parametrize("interval, controls", [
    (None, StepControls(t_end=0.05, cfl=0.45)),
    (0.0, StepControls(t_end=0.05, cfl=0.45)),
    (0.02, StepControls(t_end=0.05, cfl=0.45)),
    # 8 exact steps of 1/64: the last one ends on the mark 0.125
    (0.0625, StepControls(t_end=0.125, fixed_dt=0.015625)),
], ids=["none", "every-step", "interval", "last-step-on-a-mark"])
def test_on_snapshot_gets_the_states_a_run_would_store(interval, controls):
    """``on_snapshot`` receives, in order and bit for bit, the states that a
    run without it returns in ``states``; the run then keeps none of them."""
    grid, bathy, state, params = _bump_run_setup()
    run = functools.partial(run_simulation, state, bathy, params, grid,
                            ModelTier.NONHYDRO1, controls,
                            snapshot_interval=interval)
    stored = run().states
    handed = []
    result = run(on_snapshot=handed.append)
    assert result.states == [] and result.times == []
    assert len(handed) == len(stored) >= 2
    for got, want in zip(handed, stored):
        assert got.t == want.t
        assert np.array_equal(got.H, want.H) and np.array_equal(got.q, want.q)
    if interval == 0.0625:
        assert [s.t for s in handed] == [0.0, 0.0625, 0.125]


def _counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _bump_run_setup(n=64):
    grid = Grid(0.0, 10.0, n, Boundary.PERIODIC)
    bathy = BathymetryField(GaussianBump(center=5.0, width=1.0,
                                         amplitude=0.3, level=-1.0))
    H = lake_at_rest(grid, bathy, eta0=0.01).H
    state = FlowState(t=0.0, H=H, q=0.1 * H)
    return grid, bathy, state, PhysicalParams(nu=1e-3, k_l=1e-2, k_t=0.05)


@pytest.mark.parametrize("tier", list(ModelTier))
def test_step_derives_bed_and_kappa_once_per_stage(tier, monkeypatch):
    """A static bed is evaluated at most once per step, and the wall-law
    kappa at most once per stage."""
    import swdisp.models

    grid, bathy, state, params = _bump_run_setup()
    counts = {"elevation": 0, "friction_kappa": 0}
    monkeypatch.setattr(BathymetryField, "elevation",
                        _counting(counts, "elevation", BathymetryField.elevation))
    monkeypatch.setattr(swdisp.models, "friction_kappa",
                        _counting(counts, "friction_kappa",
                                  swdisp.models.friction_kappa))
    step(state, bathy, params, grid, tier, 1e-3)
    assert counts["elevation"] <= 1
    assert counts["friction_kappa"] <= 2


@pytest.mark.parametrize("pressure", [ZeroPressure(),
                                      GradientPressure(slope=1e-3)])
@pytest.mark.parametrize("tier", list(ModelTier))
def test_run_derives_pressure_gradient_at_most_once_per_state(tier, pressure,
                                                              monkeypatch):
    """A run of N steps with reports evaluates the atmospheric-pressure
    gradient at most once per stage state, 2 N times, and never for a
    ``ZeroPressure``."""
    grid, bathy, state, params = _bump_run_setup()
    params = PhysicalParams(nu=params.nu, k_l=params.k_l, k_t=params.k_t,
                            p_atm=pressure)
    counts = {"grad_x": 0}
    cls = type(pressure)
    monkeypatch.setattr(cls, "grad_x", _counting(counts, "grad_x", cls.grad_x))
    n_steps = 10
    result = run_simulation(state, bathy, params, grid, tier,
                            StepControls(t_end=n_steps * 1e-3, fixed_dt=1e-3))
    assert result.stats["steps"] == n_steps
    if isinstance(pressure, ZeroPressure):
        assert counts["grad_x"] == 0
    else:
        assert 0 < counts["grad_x"] <= 2 * n_steps


@pytest.mark.parametrize("tier", list(ModelTier))
def test_static_bed_run_derives_grid_and_bed_once(tier, monkeypatch):
    """On a static bed, the cell centres and the bed are run constants: a
    run of 20 steps evaluates them as often as a run of 5."""
    grid, bathy, state, params = _bump_run_setup()
    counts = {"elevation": 0, "cell_centers": 0}
    monkeypatch.setattr(BathymetryField, "elevation",
                        _counting(counts, "elevation", BathymetryField.elevation))
    monkeypatch.setattr(Grid, "cell_centers", property(_counting(
        counts, "cell_centers", Grid.cell_centers.fget)))
    seen = []
    for n_steps in (5, 20):
        counts.update(elevation=0, cell_centers=0)
        result = run_simulation(state, bathy, params, grid, tier,
                                StepControls(t_end=n_steps * 1e-3,
                                             fixed_dt=1e-3))
        assert result.stats["steps"] == n_steps
        seen.append(dict(counts))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("tier", list(ModelTier))
def test_run_derives_velocity_at_most_four_times_per_step(tier, monkeypatch):
    """With reports on, a state's velocity is shared by its report, the
    time-step choice and the step that leaves it."""
    grid, bathy, state, params = _bump_run_setup()
    counts = {"velocity": 0}
    monkeypatch.setattr(FlowState, "velocity",
                        _counting(counts, "velocity", FlowState.velocity))
    seen = []
    for t_end in (0.02, 0.08):
        counts["velocity"] = 0
        result = run_simulation(state, bathy, params, grid, tier,
                                StepControls(t_end=t_end))
        seen.append((result.stats["steps"], counts["velocity"]))
    (steps_short, calls_short), (steps_long, calls_long) = seen
    assert steps_long > steps_short
    assert calls_long - calls_short <= 4 * (steps_long - steps_short)


@pytest.mark.parametrize("tier", [ModelTier.NONHYDRO1,
                                  ModelTier.PEREGRINE_INVISCID])
def test_moving_bed_run_builds_bed_operator_once_per_step(tier, monkeypatch):
    """The bed operator changes only with the scalar offset ``b(t)``, and a
    step's second stage is at the time of the next step's first: a run of
    N steps builds it at most N + 1 times, not twice per step."""
    import swdisp.models

    grid, bathy, state, params = _bump_run_setup()
    bathy = BathymetryField(bathy.profile, SinusoidMotion(
        amplitude=0.01, angular_frequency=2.0, phase=0.4))
    counts = {"bed_operator": 0}
    monkeypatch.setattr(swdisp.models, "_bed_operator", _counting(
        counts, "bed_operator", swdisp.models._bed_operator))
    n_steps = 10
    result = run_simulation(state, bathy, params, grid, tier,
                            StepControls(t_end=n_steps * 1e-3, fixed_dt=1e-3))
    assert result.stats["steps"] == n_steps
    assert counts["bed_operator"] <= n_steps + 1


@pytest.mark.parametrize("tier", [ModelTier.NONHYDRO1,
                                  ModelTier.PEREGRINE_INVISCID])
def test_wet_run_assembles_no_bands_and_friction_once_per_state(tier,
                                                                monkeypatch):
    """On a wet static bed the NonHydro1/PeregrineInviscid band rows are
    run constants, built by ``from_stencils`` once in the first step, and
    the friction coefficient is evaluated at most once per state: a run
    of N steps with reports makes at most 2 N + 1 evaluations."""
    import swdisp.models

    grid, bathy, state, params = _bump_run_setup()
    counts = {"from_stencils": 0, "effective_friction": 0}
    monkeypatch.setattr(BandedMatrix, "from_stencils", classmethod(_counting(
        counts, "from_stencils", BandedMatrix.from_stencils.__func__)))
    monkeypatch.setattr(swdisp.models, "effective_friction", _counting(
        counts, "effective_friction", swdisp.models.effective_friction))
    seen = []
    for n_steps in (1, 5, 20):
        counts.update(from_stencils=0, effective_friction=0)
        result = run_simulation(state, bathy, params, grid, tier,
                                StepControls(t_end=n_steps * 1e-3,
                                             fixed_dt=1e-3))
        assert result.stats["steps"] == n_steps
        assert len(result.reports) == n_steps + 1
        assert counts["effective_friction"] <= 2 * n_steps + 1
        assert ((counts["effective_friction"] > 0)
                == (tier is ModelTier.NONHYDRO1))
        seen.append(counts["from_stencils"])
    assert seen == [1, 1, 1]


@pytest.mark.parametrize("collect_reports", [True, False])
@pytest.mark.parametrize("tier", list(ModelTier))
def test_run_builds_one_field_bundle_per_state(tier, collect_reports,
                                               monkeypatch):
    """A state's energy report, time step and first stage share its field
    bundle, and each step's intermediate state has one of its own: at
    n = 1024 a run of N fixed-dt steps builds 2 N + 1 bundles with reports
    and 2 N without."""
    grid, bathy, state, params = _bump_run_setup(1024)
    counts = {"fields": 0}
    monkeypatch.setattr(models._Fields, "__init__", _counting(
        counts, "fields", models._Fields.__init__))
    n_steps = 10
    result = run_simulation(state, bathy, params, grid, tier,
                            StepControls(t_end=n_steps * 1e-3, fixed_dt=1e-3),
                            collect_reports=collect_reports)
    assert result.stats["steps"] == n_steps
    assert len(result.reports) == (n_steps + 1 if collect_reports else 0)
    assert counts["fields"] == 2 * n_steps + collect_reports


REPORT_FIELDS = ("t", "mass", "momentum", "E_h", "E_ext", "modeled_rate",
                 "dissipation_rate", "budget_residual")


@pytest.mark.parametrize("bed", ["bump", "sampled", "moving"])
@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("tier", list(ModelTier))
def test_run_matches_hand_loop_of_public_functions(tier, boundary, bed):
    """What a run computes once and shares between calls must not go stale:
    ``run_simulation`` gives the final state and every report of a loop over
    the public ``stable_dt``, ``step`` and energy functions, which derive
    everything afresh on each call: 4 reports with a pressure slope and
    turbulent friction, 5 with no atmospheric pressure and laminar
    friction."""
    from swdisp.core import GradientPressure, SampledBed
    from swdisp.diagnostics import (attach_measured_rates, energy_extended,
                                    energy_hydro)

    grid = Grid(0.0, 10.0, 1024, boundary)
    x = grid.cell_centers
    bump = GaussianBump(center=5.0, width=1.0, amplitude=0.3, level=-1.0)
    bathy = {"bump": BathymetryField(bump),
             "sampled": BathymetryField(SampledBed(bump.value(x))),
             "moving": BathymetryField(bump, SinusoidMotion(
                 amplitude=0.01, angular_frequency=2.0, phase=0.4))}[bed]
    H = lake_at_rest(grid, bathy, eta0=0.05 * np.exp(-0.5 * (x - 3.0)**2)).H
    u = 0.0 if boundary is Boundary.WALL else 0.05 * np.sin(0.2 * np.pi * x)
    s0 = FlowState(t=0.0, H=H, q=H * u)

    for params, n_reports in (
            (PhysicalParams(nu=1e-3, k_l=1e-2, k_t=0.05,
                            p_atm=GradientPressure(0.01)), 4),
            (PhysicalParams(nu=1e-3, k_l=1e-2), 5)):
        # end the run after the steps that give n_reports reports
        s, controls = s0, StepControls(t_end=1.0, cfl=0.45)
        for _ in range(n_reports - 1):
            s = step(s, bathy, params, grid, tier,
                     stable_dt(s, params, grid, controls))
        controls = StepControls(t_end=s.t, cfl=0.45)

        def report(s):
            if tier is ModelTier.HYDROSTATIC:
                return energy_hydro(s, bathy, params, grid)
            return energy_extended(s, bathy, params, grid, tier)

        s, reports = s0, [report(s0)]
        while s.t < controls.t_end - 1e-12:
            dt = min(stable_dt(s, params, grid, controls),
                     controls.t_end - s.t)
            s = step(s, bathy, params, grid, tier, dt, stats={})
            reports.append(report(s))
        attach_measured_rates(reports)
        assert len(reports) == n_reports

        result = run_simulation(s0, bathy, params, grid, tier, controls)
        got = np.array([[getattr(r, k) for k in REPORT_FIELDS]
                        for r in result.reports])
        want = np.array([[getattr(r, k) for k in REPORT_FIELDS]
                         for r in reports])
        final = result.states[-1]
        np.testing.assert_array_equal(final.H, s.H)
        np.testing.assert_array_equal(final.q, s.q)
        np.testing.assert_array_equal(got, want)


def test_context_from_other_objects_is_refused():
    """A run context stands in for the bed, boundary and parameters it was
    built from, so a public function handed one built from other objects
    raises instead of computing with stale fields."""
    from swdisp.diagnostics import energy_report
    from swdisp.models import _RunContext, assemble_dispersive

    grid = Grid(0.0, 10.0, 16, Boundary.PERIODIC)
    bathy = BathymetryField(GaussianBump(center=5.0, width=1.0,
                                         amplitude=0.3, level=-1.0))
    params = PhysicalParams(nu=1e-3, k_l=1e-2)
    s = lake_at_rest(grid, bathy, eta0=0.01)
    tier = ModelTier.NONHYDRO1
    context = _RunContext(bathy, params, grid)
    others = (dict(bathy=BathymetryField(GaussianBump(
                  center=5.0, width=1.0, amplitude=0.3, level=-1.0))),
              dict(params=PhysicalParams(nu=1e-3, k_l=1e-2)),
              dict(grid=Grid(0.0, 10.0, 16, Boundary.PERIODIC)))
    for other in others:
        b, p, g = (other.get(k, v) for k, v in
                   (("bathy", bathy), ("params", params), ("grid", grid)))
        calls = [lambda: step(s, b, p, g, tier, 1e-3, context=context),
                 lambda: assemble_dispersive(s, b, p, g, tier,
                                             context=context),
                 lambda: energy_report(s, b, p, g, tier, context=context)]
        if "bathy" not in other:
            calls.append(lambda: stable_dt(s, p, g, StepControls(t_end=1.0),
                                           context=context))
        for call in calls:
            with pytest.raises(ValueError, match="context was built from"):
                call()
    # the objects it was built from are accepted
    step(s, bathy, params, grid, tier, 1e-3, context=context)
    stable_dt(s, params, grid, StepControls(t_end=1.0), context=context)


def test_peregrine_reports_price_no_friction_or_viscosity():
    """The inviscid tier's dynamics carry neither wall-law friction nor
    viscosity, so its energy reports must not price them: wall-law
    coefficients with nu = 0 no longer stop the run at its first report,
    and the modeled rates equal those of the frictionless, inviscid run."""
    grid = Grid(0.0, 10.0, 64, Boundary.PERIODIC)
    bathy = BathymetryField(GaussianBump(center=5.0, width=1.0,
                                         amplitude=0.3, level=-1.0),
                            SinusoidMotion(amplitude=0.01,
                                           angular_frequency=2.0))
    x = grid.cell_centers
    s0 = lake_at_rest(grid, bathy)
    s0 = FlowState(t=0.0, H=s0.H + 0.05 * np.exp(-0.5 * ((x - 3.0) / 0.8)**2),
                   q=np.zeros_like(s0.H))

    def run(**physics):
        return run_simulation(s0, bathy, PhysicalParams(**physics), grid,
                              ModelTier.PEREGRINE_INVISCID,
                              StepControls(t_end=0.05))

    smooth = run(nu=0.0, k_l=0.0, k_t=0.0)
    assert any(rep.modeled_rate != 0.0 for rep in smooth.reports)
    for physics in (dict(nu=0.0, k_l=0.01, k_t=0.05),
                    dict(nu=1e-3, k_l=0.01, k_t=0.05)):
        rough = run(**physics)
        np.testing.assert_array_equal(rough.states[-1].q, smooth.states[-1].q)
        assert ([rep.modeled_rate for rep in rough.reports]
                == [rep.modeled_rate for rep in smooth.reports])


@pytest.mark.parametrize("bed", ["static", "moving"])
@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("tier", list(ModelTier))
def test_step_writes_into_no_array_of_the_state_bundle_or_context(
        tier, boundary, bed):
    """A stage accumulates into arrays it allocated: a step leaves every
    array of the state, of its field bundle (each cached field evaluated
    first) and of the run context (with the cached bed operator) as it
    found them."""
    from swdisp.core import StaticBed
    from swdisp.models import _RunContext

    grid = Grid(0.0, 10.0, 64, boundary)
    x = grid.cell_centers
    bathy = BathymetryField(
        GaussianBump(center=5.0, width=1.0, amplitude=0.3, level=-1.0),
        StaticBed() if bed == "static" else SinusoidMotion(
            amplitude=0.01, angular_frequency=2.0, phase=0.4))
    params = PhysicalParams(nu=1e-3, k_l=0.01, k_t=0.05,
                            p_atm=GradientPressure(0.01))
    H = lake_at_rest(grid, bathy, eta0=0.05 * np.exp(-0.5 * (x - 3.0)**2)).H
    state = FlowState(t=0.1, H=H, q=0.05 * np.sin(0.2 * np.pi * x) * H)
    context = _RunContext(bathy, params, grid)
    f = context.fields(state)
    for name in ("eta", "ux_ring", "Hx_ring", "etax_ring", "divq_ring",
                 "m_ring", "kappa_ring", "kappa_eff", "grad_pa"):
        assert getattr(f, name) is not None
    held = {f"state.{k}": v for k, v in vars(state).items()}
    held.update((f"fields.{k}", v) for k, v in vars(f).items())
    held.update((f"context.{k}", v) for k, v in vars(context).items())
    if tier in (ModelTier.NONHYDRO1, ModelTier.PEREGRINE_INVISCID):
        context.bed_operator(f)
        X, Y, off = context._operator[1]
        held.update({"operator.X": X, "operator.Y": Y,
                     "operator.bands": off.bands})
    held = {k: v for k, v in held.items() if isinstance(v, np.ndarray)}
    assert len(held) >= 25
    copies = {k: v.copy() for k, v in held.items()}

    step(state, bathy, params, grid, tier, 1e-3, context=context)
    for name, value in held.items():
        np.testing.assert_array_equal(value, copies[name], err_msg=name)


@pytest.mark.parametrize("tier", list(ModelTier))
def test_step_sets_no_attribute_of_the_bundle(tier):
    """A step leaves the field bundle's attribute names and non-array
    values as it found them (each cached field evaluated first), also when
    the reconstruction clamps face depths: the count leaves the core as a
    result, not as a bundle field.  A one-cell bed spike through a lake at
    rest clamps faces in every stage."""
    from swdisp.core import SampledBed
    from swdisp.models import _RunContext

    zb = np.full(16, -1.0)
    zb[8] = 0.5
    grid = Grid(0.0, 1.0, 16, Boundary.WALL)
    bathy = BathymetryField(SampledBed(zb))
    params = PhysicalParams(nu=1e-3, k_l=0.01)
    state = lake_at_rest(grid, bathy)
    context = _RunContext(bathy, params, grid)
    f = context.fields(state)
    for name in ("eta", "ux_ring", "Hx_ring", "etax_ring", "divq_ring",
                 "m_ring", "kappa_ring", "kappa_eff", "grad_pa"):
        getattr(f, name)
    before = {k: v for k, v in vars(f).items()
              if not isinstance(v, np.ndarray)}
    names = set(vars(f))

    stats = {}
    step(state, bathy, params, grid, tier, 1e-3, stats=stats, context=context)
    assert stats.get("positivity_clamps", 0) > 0
    assert set(vars(f)) == names
    assert {k: v for k, v in vars(f).items()
            if not isinstance(v, np.ndarray)} == before


def test_blow_up_ends_with_the_solver_error_and_no_numpy_warning():
    """A NonHydro2 run whose state overflows stops with the SolverError of
    its solve; the overflows on the way raise no RuntimeWarning."""
    grid = Grid(0.0, 10.0, 256, Boundary.WALL)
    x = grid.cell_centers
    bathy = BathymetryField(GaussianBump(center=5.0, width=1.0,
                                         amplitude=0.5, level=-1.0))
    eta = 0.05 * np.exp(-0.5 * ((x - 3.0) / 0.5)**2)
    H = lake_at_rest(grid, bathy, eta0=eta).H
    s0 = FlowState(t=0.0, H=H, q=0.1 * H)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverError, match="banded solve failed: array "
                           "must not contain infs or NaNs"):
            run_simulation(s0, bathy, PhysicalParams(nu=1e-3, k_l=0.01),
                           grid, ModelTier.NONHYDRO2,
                           StepControls(t_end=0.5, cfl=0.45))
    assert [str(w.message) for w in caught] == []


def test_a_step_error_names_its_step_and_time(monkeypatch):
    """A solve that fails in a step stops the run with the solve's text and
    the number of that step and the time it started from; the solve's
    error is the cause.  The fourth step's first solve fails here."""
    grid = Grid(0.0, 10.0, 32, Boundary.WALL)
    bathy = BathymetryField(GaussianBump(center=5.0, width=1.0,
                                         amplitude=0.3, level=-1.0))
    x = grid.cell_centers
    H = lake_at_rest(grid, bathy, eta0=0.05 * np.exp(-(x - 3.0)**2)).H
    error = SolverError("banded solve failed: singular matrix")
    starts, solves = [], []

    def recorded(state, *args, **kwargs):
        starts.append(state.t)
        return step(state, *args, **kwargs)

    def failing(A, b):
        solves.append(b)
        if len(solves) == 7:  # two solves per step
            raise error
        return solve(A, b)

    solve = BandedMatrix.solve
    monkeypatch.setattr(solver, "step", recorded)
    monkeypatch.setattr(BandedMatrix, "solve", failing)
    with pytest.raises(SolverError) as err:
        run_simulation(FlowState(t=0.0, H=H, q=np.zeros_like(H)), bathy,
                       PhysicalParams(nu=1e-3, k_l=0.01), grid,
                       ModelTier.HYDROSTATIC, StepControls(t_end=1.0))
    assert len(starts) == 4 and 0.0 < starts[-1] < 1.0
    assert str(err.value) == ("banded solve failed: singular matrix at step "
                              f"4, t = {starts[-1]:.6g}")
    assert err.value.__cause__ is error
