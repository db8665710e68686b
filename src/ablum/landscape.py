"""Static landscape: capital fields, management types, and per-cell state.

Cells live on a rectangular grid in row-major order (index = y * width + x).
Each cell carries two static capitals, a productive one and a natural one,
and the id of the management type currently applied to it.

The three management types are constants, and so are their attribute
tables INTENSITY, S_PROD and S_NAT: read-only arrays indexed by type id,
so ``S_PROD[grid.aft_id]`` is every cell's productive sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigurationError

if TYPE_CHECKING:  # profile arrays are attached by the simulation builder
    from .behaviour import BehaviouralProfile


@dataclass(frozen=True)
class AgentFunctionalType:
    """A management style: an intensity level plus capital sensitivities.

    Sensitivities weight how strongly production responds to each capital;
    they must sum to 1 so production stays within the capital range.
    """

    id: int
    name: str
    intensity: float
    s_prod: float
    s_nat: float

    def __post_init__(self):
        if not 0.0 <= self.intensity <= 1.0:
            raise ConfigurationError(f"intensity must lie in [0, 1], got {self.intensity}")
        if self.s_prod < 0 or self.s_nat < 0:
            raise ConfigurationError("capital sensitivities must be non-negative")
        if abs(self.s_prod + self.s_nat - 1.0) > 1e-9:
            raise ConfigurationError("capital sensitivities must sum to 1")


CONSERVATION = AgentFunctionalType(0, "conservation", 0.0, s_prod=0.0, s_nat=1.0)
MEDIUM_INTENSITY = AgentFunctionalType(1, "medium_intensity", 0.5, s_prod=0.5, s_nat=0.5)
HIGH_INTENSITY = AgentFunctionalType(2, "high_intensity", 1.0, s_prod=1.0, s_nat=0.0)

DEFAULT_AFTS: tuple[AgentFunctionalType, ...] = (
    CONSERVATION,
    MEDIUM_INTENSITY,
    HIGH_INTENSITY,
)


def _table(attribute: str) -> np.ndarray:
    table = np.array([getattr(a, attribute) for a in DEFAULT_AFTS])
    table.flags.writeable = False
    return table


INTENSITY = _table("intensity")
S_PROD = _table("s_prod")
S_NAT = _table("s_nat")


@dataclass
class Cell:
    """View of a single cell; handy for inspection and scalar evaluations."""

    x: int
    y: int
    c_prod: float
    c_nat: float
    aft_id: int


@dataclass
class LandscapeGrid:
    """Row-major grid of cells stored as parallel arrays."""

    width: int
    height: int
    c_prod: np.ndarray
    c_nat: np.ndarray
    aft_id: np.ndarray
    profiles: "BehaviouralProfile | None" = field(default=None, repr=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigurationError("grid dimensions must be positive")
        n = self.width * self.height
        for name in ("c_prod", "c_nat", "aft_id"):
            arr = np.asarray(getattr(self, name))
            setattr(self, name, arr)
            if arr.shape != (n,):
                raise ConfigurationError(f"{name} must have shape ({n},)")
        for name in ("c_prod", "c_nat"):
            arr = getattr(self, name)
            if not np.all((arr >= 0.0) & (arr <= 1.0)):
                raise ConfigurationError(f"{name} values must lie in [0, 1]")
        if not np.issubdtype(self.aft_id.dtype, np.integer):
            raise ConfigurationError(f"aft_id must hold integer type ids, not {self.aft_id.dtype}")
        if np.any(self.aft_id < 0) or np.any(self.aft_id >= len(DEFAULT_AFTS)):
            raise ConfigurationError("aft_id must reference a configured type")
        for f in fields(self.profiles) if self.profiles is not None else ():
            value = getattr(self.profiles, f.name)
            if np.ndim(value) and np.shape(value) != (n,):
                raise ConfigurationError(f"profile field {f.name} must be a scalar or have shape ({n},)")

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def cell(self, i: int) -> Cell:
        return Cell(
            x=int(i % self.width),
            y=int(i // self.width),
            c_prod=float(self.c_prod[i]),
            c_nat=float(self.c_nat[i]),
            aft_id=int(self.aft_id[i]),
        )


def default_peaks(width: int, height: int) -> tuple[tuple[float, float, float], ...]:
    """Two natural-capital peaks at fixed grid fractions, sigma 12% of height."""
    return (
        (0.3 * (width - 1), 0.5 * (height - 1), 0.12 * (height - 1)),
        (0.7 * (width - 1), 0.5 * (height - 1), 0.12 * (height - 1)),
    )


def generate_capitals(
    width: int,
    height: int,
    peaks: Sequence[tuple[float, float, float]],
    noise_amp: float = 0.0,
    seed: int | np.random.SeedSequence = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the two capital fields as flat row-major arrays.

    Natural capital is the maximum over Gaussian bumps exp(-d^2 / (2 sigma^2)),
    one per (cx, cy, sigma) peak; productive capital mirrors it as 1 - base.
    Independent uniform noise on [-noise_amp, +noise_amp] is added to each
    field before clamping to [0, 1].

    Returns:
        (c_prod, c_nat) arrays of shape (width * height,).
    """
    if width < 3 or height < 3:
        raise ConfigurationError("capital generation needs width and height >= 3")
    if not peaks:
        raise ConfigurationError("at least one capital peak is required")
    for cx, cy, sigma in peaks:
        if sigma <= 0:
            raise ConfigurationError("peak sigma must be positive")
    if not 0.0 <= noise_amp <= 0.2:
        raise ConfigurationError("noise_amp must lie in [0, 0.2]")

    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    gx, gy = np.meshgrid(xs, ys)  # row-major: y varies over rows
    nat_base = np.zeros((height, width))
    for cx, cy, sigma in peaks:
        d2 = (gx - cx) ** 2 + (gy - cy) ** 2
        np.maximum(nat_base, np.exp(-d2 / (2.0 * sigma * sigma)), out=nat_base)
    nat_base = nat_base.ravel()

    rng = np.random.default_rng(seed)
    noise_nat = rng.uniform(-noise_amp, noise_amp, nat_base.size)
    noise_prod = rng.uniform(-noise_amp, noise_amp, nat_base.size)
    c_nat = np.clip(nat_base + noise_nat, 0.0, 1.0)
    c_prod = np.clip(1.0 - nat_base + noise_prod, 0.0, 1.0)
    return c_prod, c_nat


def init_land_use(
    n_cells: int,
    shares: Sequence[float],
    seed: int | np.random.SeedSequence = 0,
) -> np.ndarray:
    """Draw an initial management-type id per cell, i.i.d. with given shares."""
    shares = np.asarray(shares, dtype=np.float64)
    if shares.shape != (len(DEFAULT_AFTS),):
        raise ConfigurationError(f"expected {len(DEFAULT_AFTS)} initial shares")
    if np.any(shares < 0):
        raise ConfigurationError("initial shares must be non-negative")
    if abs(shares.sum() - 1.0) > 1e-9:
        raise ConfigurationError("initial shares must sum to 1")
    rng = np.random.default_rng(seed)
    return rng.choice(len(DEFAULT_AFTS), size=n_cells, p=shares / shares.sum()).astype(np.int64)
