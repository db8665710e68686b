"""Social network over grid cells: Moore lattice plus long-range links.

The lattice connects every pair of cells within a Chebyshev radius, with hard
boundaries (no wrap-around). It is held as its shape, the value (width,
height, radius): degrees and the edge count are closed forms, neighbours come
from a stencil of offsets, and neighbour class counts are box sums over a
prefix sum of the land use, all O(cells) in memory at any radius.
Long-range links (teleconnections) are extra undirected edges between
uniformly sampled non-adjacent cell pairs, held as an overlay: each run keeps
only its own pairs beside its lattice. Networks are immutable once built;
augmentation returns a new one. A scalar neighbour query (``neighbours``)
reads the same two parts: the stencil, then the run's pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, UndefinedFractionError

_NO_PAIRS = np.empty((0, 2), dtype=np.int64)
_NO_PAIRS.flags.writeable = False


@dataclass(frozen=True)
class MooreLattice:
    """The Moore lattice of a width x height grid, held as its shape.

    Cell i sits at (x, y) = (i % width, i // width). A lattice is its own
    network, with no teleconnections on top; two lattices of one shape are
    equal.
    """

    width: int
    height: int
    radius: int

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    @property
    def lattice(self) -> MooreLattice:
        return self

    @property
    def tele(self) -> np.ndarray:
        return _NO_PAIRS

    def _window(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Along an axis of ``size`` cells, each cell's neighbourhood [lo, hi),
        itself included, clipped to the grid."""
        at = np.arange(size)
        return np.maximum(at - self.radius, 0), np.minimum(at + self.radius + 1, size)

    def degrees(self) -> np.ndarray:
        """Every cell's neighbour count: the product of its clipped extents, minus 1."""
        (y0, y1), (x0, x1) = self._window(self.height), self._window(self.width)
        return (np.outer(y1 - y0, x1 - x0) - 1).reshape(-1)

    @property
    def num_edges(self) -> int:
        return int(self.degrees().sum()) // 2

    def has_edges(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether each (i, j) is an edge: distinct cells within the radius."""
        (yi, xi), (yj, xj) = np.divmod(i, self.width), np.divmod(j, self.width)
        return (i != j) & (np.maximum(np.abs(yi - yj), np.abs(xi - xj)) <= self.radius)

    def class_counts(self, aft_id: np.ndarray, n_classes: int) -> np.ndarray:
        """(n_cells, n_classes) int32, C-contiguous: each class among every
        cell's neighbours, as box sums over a 2-D prefix sum of the one-hot
        land use, minus the cell itself."""
        h, w = self.height, self.width
        onehot = (aft_id.reshape(h, w, 1) == np.arange(n_classes)).astype(np.int32)
        table = np.zeros((h + 1, w + 1, n_classes), dtype=np.int32)
        table[1:, 1:] = onehot.cumsum(axis=0, dtype=np.int32).cumsum(axis=1, dtype=np.int32)
        (y0, y1), (x0, x1) = self._window(h), self._window(w)
        y0, y1 = y0[:, None], y1[:, None]
        counts = table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0] - onehot
        return counts.reshape(self.n_cells, n_classes)

    @cached_property
    def _stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell ids on the grid padded by the radius, -1 off the grid, flat;
        and the flat offsets from a cell to its neighbours there, ascending."""
        r, h, w = self.radius, self.height, self.width
        ids = np.full((h + 2 * r, w + 2 * r), -1, dtype=np.int64)
        ids[r : r + h, r : r + w] = np.arange(self.n_cells).reshape(h, w)
        d = np.arange(-r, r + 1)
        offsets = (d[:, None] * (w + 2 * r) + d).reshape(-1)
        return ids.reshape(-1), np.delete(offsets, offsets.size // 2)

    def gather(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbours of the given cells, concatenated, each cell's ascending,
        and for each neighbour the position in ``cells`` of the cell it
        neighbours."""
        ids, offsets = self._stencil
        r = self.radius
        y, x = np.divmod(cells, self.width)
        nb = ids[((y + r) * (self.width + 2 * r) + x + r)[:, None] + offsets]
        inside = nb >= 0
        return nb[inside], np.nonzero(inside)[0]

    def neighbours(self, i: int) -> np.ndarray:
        """Cell i's neighbours, ascending."""
        return self.gather(np.array([i]))[0]


@dataclass(frozen=True, eq=False)
class TeleconnectedNetwork:
    """A lattice plus one run's teleconnections.

    ``tele`` holds the added undirected edges as (i, j) rows with i < j, in
    ascending order. Networks compare by identity: each run's is its own.
    """

    lattice: MooreLattice
    tele: np.ndarray

    def __post_init__(self):
        self.tele.flags.writeable = False

    @property
    def n_cells(self) -> int:
        return self.lattice.n_cells

    @property
    def num_edges(self) -> int:
        return self.lattice.num_edges + len(self.tele)

    def neighbours(self, i: int) -> np.ndarray:
        """Cell i's lattice neighbours and teleconnection partners, ascending."""
        lo, hi = self.tele.T
        return np.sort(np.concatenate([self.lattice.neighbours(i), hi[lo == i], lo[hi == i]]))


Network = MooreLattice | TeleconnectedNetwork


def build_lattice(width: int, height: int, moore_radius: int) -> MooreLattice:
    """Moore lattice of the given Chebyshev radius with hard boundaries."""
    if width < 1 or height < 1:
        raise ConfigurationError("grid dimensions must be positive")
    if moore_radius < 1:
        raise ConfigurationError("moore_radius must be >= 1")
    if moore_radius >= min(width, height):
        raise ConfigurationError(
            f"moore_radius {moore_radius} must be smaller than min(width, height)"
        )
    return MooreLattice(width, height, moore_radius)


def add_teleconnections(net: Network, n_tele: int, seed: int | np.random.SeedSequence = 0) -> Network:
    """Add exactly n_tele new undirected edges between uniform random pairs.

    Candidate pairs (i, j) are drawn from a generator private to this call,
    so ``seed`` is a seed, not a shared Generator. Self-pairs, existing edges
    and repeats of an earlier candidate are rejected; the first n_tele
    survivors in draw order are added. Deterministic for a given seed. The
    result has ``net``'s lattice and holds the new pairs beside net's own.
    """
    if n_tele < 0:
        raise ConfigurationError("n_tele must be >= 0")
    n = net.n_cells
    pairs = n * (n - 1) // 2
    available = pairs - net.num_edges
    if n_tele > available:
        raise ConfigurationError(
            f"n_tele {n_tele} exceeds the {available} available non-adjacent pairs"
        )
    if n_tele == 0:
        return net

    # Undirected keys i * n + j, i < j; ascending because the pairs are sorted.
    old = net.tele[:, 0] * n + net.tele[:, 1]
    rng = np.random.default_rng(seed)
    candidates = first = np.empty(0, dtype=np.int64)
    while first.size < n_tele:
        # Draw enough (i, j) candidates that one block usually suffices;
        # rng.integers(n, size=(m, 2)) continues the stream of m scalar
        # (i, j) draws, and unused draws change nothing, the generator being
        # private.
        m = (n_tele - first.size) * pairs // (available - first.size) * 11 // 10 + 16
        i, j = rng.integers(n, size=(m, 2)).T
        lo, hi = np.minimum(i, j)[i != j], np.maximum(i, j)[i != j]
        keys = lo * n + hi
        exists = net.lattice.has_edges(lo, hi) | np.isin(keys, old)
        candidates = np.concatenate([candidates, keys[~exists]])
        _, first = np.unique(candidates, return_index=True)
    new = candidates[np.sort(first)[:n_tele]]
    keys = np.sort(np.concatenate([old, new]))
    return TeleconnectedNetwork(net.lattice, np.column_stack(np.divmod(keys, n)))


def neighbour_intensity_fraction(
    net: Network,
    intensities: np.ndarray,
    i: int,
    level: float,
    mode: str,
) -> float:
    """Fraction of i's neighbours whose intensity is at or beyond a level.

    Args:
        intensities: per-cell intensity of the currently applied management.
        level: reference intensity, compared inclusively.
        mode: "at_or_above" or "at_or_below".
    """
    nb = net.neighbours(i)
    if nb.size == 0:
        raise UndefinedFractionError(f"cell {i} has no neighbours")
    values = intensities[nb]
    if mode == "at_or_above":
        return float(np.mean(values >= level))
    if mode == "at_or_below":
        return float(np.mean(values <= level))
    raise ConfigurationError(f"unknown fraction mode {mode!r}")
