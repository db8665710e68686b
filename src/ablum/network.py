"""Social network over grid cells: Moore lattice plus long-range links.

The lattice connects every pair of cells within a Chebyshev radius, with hard
boundaries (no wrap-around). Long-range links are extra undirected edges
between uniformly sampled non-adjacent cell pairs, layered on top of the
lattice. Networks are immutable once built; augmentation returns a new one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UndefinedFractionError


@dataclass(frozen=True)
class SocialNetwork:
    """Undirected graph in CSR form; neighbour lists are sorted."""

    n_cells: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        # Runs in a campaign batch share one lattice, so its arrays are frozen.
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

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
    indices = (np.arange(n, dtype=np.int64)[:, None] + (dy * width + dx))[inside]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    return SocialNetwork(n_cells=n, indptr=indptr, indices=indices)


def add_teleconnections(
    net: SocialNetwork, n_tele: int, seed: int | np.random.SeedSequence = 0
) -> SocialNetwork:
    """Add exactly n_tele new undirected edges between uniform random pairs.

    Candidate pairs (i, j) are drawn from a generator private to this call,
    so ``seed`` is a seed, not a shared Generator. Self-pairs, existing edges
    and repeats of an earlier candidate are rejected; the first n_tele
    survivors in draw order are added. Deterministic for a given seed.
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

    # Directed keys row * n + col; ascending because the rows are sorted.
    old_keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(net.indptr)) * n + net.indices
    rng = np.random.default_rng(seed)
    candidates = first = np.empty(0, dtype=np.int64)
    while first.size < n_tele:
        # Draw enough (i, j) candidates that one block usually suffices;
        # rng.integers(n, size=(m, 2)) continues the stream of m scalar
        # (i, j) draws, and unused draws change nothing, the generator being
        # private.
        m = (n_tele - first.size) * pairs // (available - first.size) * 11 // 10 + 16
        i, j = rng.integers(n, size=(m, 2)).T
        keys = (np.minimum(i, j) * n + np.maximum(i, j))[i != j]
        exists = np.searchsorted(old_keys, keys) < np.searchsorted(old_keys, keys, "right")
        candidates = np.concatenate([candidates, keys[~exists]])
        _, first = np.unique(candidates, return_index=True)
    new = candidates[np.sort(first)[:n_tele]]

    # Merge both directions of the new edges into the already-sorted rows:
    # the same CSR as a full re-sort, since the new pairs are distinct and
    # absent from net.
    lo, hi = np.divmod(new, n)
    added = np.sort(np.concatenate([new, hi * n + lo]))
    src, dst = np.divmod(added, n)
    indices = np.insert(net.indices, np.searchsorted(old_keys, added), dst)
    indptr = net.indptr.astype(np.int64)
    indptr[1:] += np.cumsum(np.bincount(src, minlength=n))
    return SocialNetwork(n_cells=n, indptr=indptr, indices=indices)


def neighbour_intensity_fraction(
    net: SocialNetwork,
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
