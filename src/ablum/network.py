"""Social network over grid cells: Moore lattice plus long-range links.

The lattice connects every pair of cells within a Chebyshev radius, with hard
boundaries (no wrap-around). Long-range links (teleconnections) are extra
undirected edges between uniformly sampled non-adjacent cell pairs, held as an
overlay: runs of one grid and radius share one read-only lattice, and each
keeps only its own pairs. Networks are immutable once built; augmentation
returns a new one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, UndefinedFractionError

_NO_PAIRS = np.empty((0, 2), dtype=np.int64)
_NO_PAIRS.flags.writeable = False


@dataclass(frozen=True)
class SocialNetwork:
    """Undirected graph in CSR form; neighbour lists are sorted.

    A plain CSR is its own lattice, with no teleconnections on top.
    """

    n_cells: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        # Runs in a campaign batch share one lattice, so its arrays are frozen.
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @property
    def lattice(self) -> SocialNetwork:
        return self

    @property
    def tele(self) -> np.ndarray:
        return _NO_PAIRS

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def neighbours(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        row = self.neighbours(i)
        k = np.searchsorted(row, j)
        return k < row.size and row[k] == j

    def edge_pairs(self) -> np.ndarray:
        """All undirected edges as an (m, 2) array with i < j, sorted."""
        src = np.repeat(np.arange(self.n_cells), np.diff(self.indptr))
        keep = src < self.indices
        return np.column_stack([src[keep], self.indices[keep]])

    def has_edges(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether each edge (i, j) exists, by bisection within the sorted rows."""
        lo, end = self.indptr[i], self.indptr[i + 1]
        if self.indices.size == 0:
            return np.zeros(lo.shape, dtype=bool)
        hi, last = end, self.indices.size - 1
        # Each step halves every row's open interval [lo, hi).
        for _ in range(int(np.diff(self.indptr).max()).bit_length()):
            mid = (lo + hi) // 2
            less = self.indices[np.minimum(mid, last)] < j
            lo, hi = np.where((lo < hi) & less, mid + 1, lo), np.where((lo < hi) & ~less, mid, hi)
        return (lo < end) & (self.indices[np.minimum(lo, last)] == j)


@dataclass(frozen=True)
class TeleconnectedNetwork:
    """A lattice, shared read-only by many runs, plus one run's teleconnections.

    ``tele`` holds the added undirected edges as (i, j) rows with i < j, in
    ascending order. The engine reads the two parts apart; the merged CSR
    (``indptr``, ``indices``, ``neighbours``) is built on first use, for the
    scalar decision functions.
    """

    lattice: SocialNetwork
    tele: np.ndarray

    def __post_init__(self):
        self.tele.flags.writeable = False

    @property
    def n_cells(self) -> int:
        return self.lattice.n_cells

    @property
    def num_edges(self) -> int:
        return self.lattice.num_edges + len(self.tele)

    @cached_property
    def merged(self) -> SocialNetwork:
        """Lattice and teleconnections as one CSR, each row sorted."""
        n, lattice, (lo, hi) = self.n_cells, self.lattice, self.tele.T
        src = np.concatenate([np.repeat(np.arange(n), np.diff(lattice.indptr)), lo, hi])
        dst = np.concatenate([lattice.indices, hi, lo])
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return SocialNetwork(n_cells=n, indptr=indptr, indices=dst[np.lexsort((dst, src))])

    @property
    def indptr(self) -> np.ndarray:
        return self.merged.indptr

    @property
    def indices(self) -> np.ndarray:
        return self.merged.indices

    def neighbours(self, i: int) -> np.ndarray:
        return self.merged.neighbours(i)

    def has_edge(self, i: int, j: int) -> bool:
        return self.merged.has_edge(i, j)

    def edge_pairs(self) -> np.ndarray:
        return self.merged.edge_pairs()


Network = SocialNetwork | TeleconnectedNetwork


def build_lattice(width: int, height: int, moore_radius: int) -> SocialNetwork:
    """Moore lattice of the given Chebyshev radius with hard boundaries."""
    if width < 1 or height < 1:
        raise ConfigurationError("grid dimensions must be positive")
    if moore_radius < 1:
        raise ConfigurationError("moore_radius must be >= 1")
    if moore_radius >= min(width, height):
        raise ConfigurationError(
            f"moore_radius {moore_radius} must be smaller than min(width, height)"
        )

    # Stencil offsets dy outer, dx inner: since |dx| < width, cell + offset
    # ascends with them, so every row comes out sorted.
    n = width * height
    d = np.arange(-moore_radius, moore_radius + 1)
    dy, dx = np.repeat(d, d.size), np.tile(d, d.size)
    off = (dy != 0) | (dx != 0)
    dy, dx = dy[off], dx[off]
    # inside[cell, k]: offset k from cell stays on the grid
    x = np.arange(width)[:, None] + dx
    y = np.arange(height)[:, None] + dy
    inside = (((0 <= y) & (y < height))[:, None] & ((0 <= x) & (x < width))).reshape(n, -1)
    # Built in 32 bits, then widened: half the peak memory of the largest lattices.
    indices = (np.arange(n, dtype=np.int32)[:, None] + (dy * width + dx).astype(np.int32))[inside]
    indices = indices.astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    return SocialNetwork(n_cells=n, indptr=indptr, indices=indices)


def add_teleconnections(net: Network, n_tele: int, seed: int | np.random.SeedSequence = 0) -> Network:
    """Add exactly n_tele new undirected edges between uniform random pairs.

    Candidate pairs (i, j) are drawn from a generator private to this call,
    so ``seed`` is a seed, not a shared Generator. Self-pairs, existing edges
    and repeats of an earlier candidate are rejected; the first n_tele
    survivors in draw order are added. Deterministic for a given seed. The
    result shares ``net``'s lattice and holds the new pairs beside net's own.
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
