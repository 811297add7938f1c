"""Grids, state containers, bathymetry/forcing fields, and scaling-regime
bookkeeping shared by the model, solver, and diagnostics layers.

Conventions
-----------
* The bottom elevation is separable, ``z_b(x, t) = Z_b(x) + b(t)``: a static
  spatial profile plus a spatially uniform vertical motion.  Mixed space-time
  derivatives of ``z_b`` are therefore identically zero.
* Evolved variables are the water height ``H`` and the discharge
  ``q = H * u_bar`` in conservation form; the depth-averaged velocity
  ``u_bar`` is derived.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DRY_THRESHOLD",
    "Boundary",
    "Grid",
    "FlowState",
    "FlatBed",
    "GaussianBump",
    "SampledBed",
    "StaticBed",
    "SinusoidMotion",
    "GaussianPulseMotion",
    "BathymetryField",
    "ZeroPressure",
    "GradientPressure",
    "AnalyticPressure",
    "PhysicalParams",
    "ScalingRegime",
    "RegimeClass",
    "classify_regime",
    "free_surface",
]

#: Cells with H below this height [m] are treated as dry: their velocity is
#: zero and they are excluded from friction and dispersive assembly.
DRY_THRESHOLD = 1e-8


class Boundary(enum.Enum):
    """Boundary treatment applied through ghost cells."""

    PERIODIC = "Periodic"
    WALL = "Wall"
    COPY = "Copy"


@dataclass(frozen=True)
class Grid:
    """Uniform one-dimensional finite-volume grid.

    Cell centers sit at ``x_i = x_min + (i + 1/2) dx``.  At least eight cells
    are required so that stencils up to width five always fit.
    """

    x_min: float
    x_max: float
    n_cells: int
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self) -> None:
        if self.n_cells < 8:
            raise ValueError(f"n_cells must be >= 8, got {self.n_cells}")
        if not self.x_max > self.x_min:
            raise ValueError(f"empty interval [{self.x_min}, {self.x_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def cell_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class FlowState:
    """Water height and discharge on a grid at one instant.

    Attributes
    ----------
    t : float
        Simulation time [s].
    H : ndarray
        Water heights [m], one per cell, all non-negative.
    q : ndarray
        Discharges ``H * u_bar`` [m^2/s], one per cell.
    """

    t: float
    H: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        self.H = np.asarray(self.H, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        if self.H.shape != self.q.shape or self.H.ndim != 1:
            raise ValueError(
                f"H and q must be 1-d arrays of equal length, got {self.H.shape} and {self.q.shape}")
        if (self.H < 0).any():
            raise ValueError("water height must be non-negative everywhere")

    def velocity(self) -> np.ndarray:
        """Depth-averaged velocity; zero on cells below ``DRY_THRESHOLD``."""
        wet = self.H >= DRY_THRESHOLD
        u = np.zeros_like(self.H)
        np.divide(self.q, self.H, out=u, where=wet)
        return u

    def copy(self) -> "FlowState":
        return FlowState(t=self.t, H=self.H.copy(), q=self.q.copy())


# ---------------------------------------------------------------------------
# Bathymetry: spatial profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatBed:
    """Constant bottom elevation ``Z_b(x) = level``."""

    level: float

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(x, dtype=float), self.level)

    def slope(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class GaussianBump:
    """Gaussian obstacle ``level + amplitude * exp(-(x-center)^2/(2 width^2))``."""

    center: float
    width: float
    amplitude: float
    level: float

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("bump width must be positive")

    def _arg(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.center) / self.width

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.level + self.amplitude * np.exp(-0.5 * self._arg(x) ** 2)

    def slope(self, x: np.ndarray) -> np.ndarray:
        s = self._arg(x)
        return -self.amplitude * s / self.width * np.exp(-0.5 * s**2)


@dataclass(frozen=True)
class SampledBed:
    """Tabulated bottom profile aligned with the grid cell centers.

    Its slope uses centered differences in the interior and one-sided
    differences at the ends (``np.gradient`` semantics).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.values.shape:
            raise ValueError(
                f"sampled bed has {self.values.shape[0]} values but was evaluated "
                f"on {x.shape[0]} points; samples must align with cell centers")
        return x

    def value(self, x: np.ndarray) -> np.ndarray:
        self._check(x)
        return self.values.copy()

    def slope(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        return np.gradient(self.values, x)


# ---------------------------------------------------------------------------
# Bathymetry: temporal motions b(t)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaticBed:
    """No bottom motion: ``b(t) = 0``."""

    def value(self, t: float) -> float:
        return 0.0

    def rate(self, t: float) -> float:
        return 0.0

    def accel(self, t: float) -> float:
        return 0.0


@dataclass(frozen=True)
class SinusoidMotion:
    """Harmonic vertical bottom motion ``b(t) = A sin(omega t + phase)``."""

    amplitude: float
    angular_frequency: float
    phase: float = 0.0

    def value(self, t: float) -> float:
        return self.amplitude * np.sin(self.angular_frequency * t + self.phase)

    def rate(self, t: float) -> float:
        return self.amplitude * self.angular_frequency * np.cos(
            self.angular_frequency * t + self.phase)

    def accel(self, t: float) -> float:
        return -self.amplitude * self.angular_frequency**2 * np.sin(
            self.angular_frequency * t + self.phase)


@dataclass(frozen=True)
class GaussianPulseMotion:
    """Single smooth bottom excursion ``b(t) = A exp(-(t-t0)^2/(2 sigma^2))``."""

    amplitude: float
    t0: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("pulse width sigma must be positive")

    def value(self, t: float) -> float:
        s = (t - self.t0) / self.sigma
        return self.amplitude * np.exp(-0.5 * s**2)

    def rate(self, t: float) -> float:
        s = (t - self.t0) / self.sigma
        return -self.amplitude * s / self.sigma * np.exp(-0.5 * s**2)

    def accel(self, t: float) -> float:
        s = (t - self.t0) / self.sigma
        return self.amplitude * (s**2 - 1.0) / self.sigma**2 * np.exp(-0.5 * s**2)


@dataclass(frozen=True)
class BathymetryField:
    """Separable bottom elevation ``z_b(x, t) = Z_b(x) + b(t)``.

    By separability the slope is the profile's ``profile.slope(x)`` at every
    time, the bed's rates are the motion's ``motion.rate(t)`` and
    ``motion.accel(t)`` in every cell, and the mixed derivatives vanish, so
    the models carry no mixed-derivative forcing.
    """

    profile: FlatBed | GaussianBump | SampledBed
    motion: StaticBed | SinusoidMotion | GaussianPulseMotion = field(
        default_factory=StaticBed)

    def elevation(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.profile.value(x) + self.motion.value(t)


# ---------------------------------------------------------------------------
# Atmospheric pressure fields p^a(x, t)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroPressure:
    """No atmospheric forcing."""

    def value(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def grad_x(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def rate_t(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class GradientPressure:
    """Stationary linear pressure ramp ``p^a = slope * x``."""

    slope: float

    def value(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.slope * np.asarray(x, dtype=float)

    def grad_x(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.full_like(np.asarray(x, dtype=float), self.slope)

    def rate_t(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class AnalyticPressure:
    """Atmospheric pressure given by user callables of (x, t)."""

    value_fn: Callable[[np.ndarray, float], np.ndarray]
    grad_x_fn: Callable[[np.ndarray, float], np.ndarray]
    rate_t_fn: Callable[[np.ndarray, float], np.ndarray]

    def value(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.asarray(self.value_fn(x, t), dtype=float)

    def grad_x(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.asarray(self.grad_x_fn(x, t), dtype=float)

    def rate_t(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.asarray(self.rate_t_fn(x, t), dtype=float)


@dataclass(frozen=True)
class PhysicalParams:
    """Gravity, viscosity, wall-law friction coefficients, and atmospheric
    pressure forcing.

    Attributes
    ----------
    g : float
        Gravitational acceleration [m/s^2].
    nu : float
        Kinematic viscosity [m^2/s].  Must be positive wherever the friction
        closure is active (it divides by ``nu``); the inviscid tier treats it
        as exactly zero.
    k_l, k_t : float
        Laminar [m/s] and turbulent [-] wall-law friction coefficients in
        ``kappa = k_l + k_t * H * |v_b|``.
    p_atm : pressure field
        Atmospheric pressure (divided by density) with x- and t-derivatives.
    """

    g: float = 9.81
    nu: float = 1e-6
    k_l: float = 0.0
    k_t: float = 0.0
    p_atm: ZeroPressure | GradientPressure | AnalyticPressure = field(
        default_factory=ZeroPressure)

    def __post_init__(self) -> None:
        if self.g <= 0:
            raise ValueError("gravity g must be positive")
        if self.nu < 0:
            raise ValueError("viscosity nu must be non-negative")
        if self.k_l < 0 or self.k_t < 0:
            raise ValueError("friction coefficients must be non-negative")


# ---------------------------------------------------------------------------
# Scaling regime
# ---------------------------------------------------------------------------

class RegimeClass(enum.Enum):
    """Asymptotic wave regime implied by the configured scales."""

    SAINT_VENANT = "SaintVenant"
    BOUSSINESQ = "Boussinesq"
    FINITE_AMPLITUDE = "FiniteAmplitude"
    OUT_OF_ASYMPTOTIC_RANGE = "OutOfAsymptoticRange"


@dataclass(frozen=True)
class ScalingRegime:
    """Characteristic scales of a scenario and derived dimensionless groups.

    ``epsilon = depth/wavelength`` (shallowness), ``delta = amplitude/depth``
    (nonlinearity), and the Ursell number ``delta/epsilon^2`` weighing
    dispersion against nonlinearity.
    """

    depth: float
    wavelength: float
    amplitude: float
    bed_amplitude: float = 0.0
    gravity: float = 9.81
    viscosity: float = 0.0
    laminar_friction: float = 0.0

    @property
    def epsilon(self) -> float:
        return self.depth / self.wavelength

    @property
    def delta(self) -> float:
        return self.amplitude / self.depth

    @property
    def ursell(self) -> float:
        return self.delta / self.epsilon**2

    @property
    def c_ref(self) -> float:
        return float(np.sqrt(self.gravity * self.depth))

    @property
    def nu0(self) -> float:
        return self.viscosity / (self.epsilon * self.wavelength * self.c_ref)

    @property
    def kappa0_l(self) -> float:
        return self.laminar_friction / (self.epsilon * self.c_ref)


def classify_regime(s: ScalingRegime) -> RegimeClass:
    """Classify the wave regime from the shallowness, amplitude, and Ursell
    numbers.

    The shallow-water expansions require ``epsilon <= 0.1``.  Within that,
    ``delta > 0.1`` is the finite-amplitude regime; otherwise the Ursell
    number separates friction-dominated long waves (``U_r < 0.2``) from the
    dispersive window (``0.2 <= U_r <= 5``).  Everything else is out of the
    asymptotic range.
    """
    if s.depth <= 0 or s.wavelength <= 0 or s.amplitude <= 0:
        raise ValueError("all scales (depth, wavelength, amplitude) must be positive")
    if s.epsilon > 0.1:
        return RegimeClass.OUT_OF_ASYMPTOTIC_RANGE
    if s.delta > 0.1:
        return RegimeClass.FINITE_AMPLITUDE
    if s.ursell < 0.2:
        return RegimeClass.SAINT_VENANT
    if s.ursell <= 5.0:
        return RegimeClass.BOUSSINESQ
    return RegimeClass.OUT_OF_ASYMPTOTIC_RANGE


def free_surface(state: FlowState, bathy: BathymetryField, grid: Grid) -> np.ndarray:
    """Free-surface elevation ``eta_i = z_b(x_i, t) + H_i``."""
    return bathy.elevation(grid.cell_centers, state.t) + state.H
