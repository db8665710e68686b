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
class NetworkConfig:
    moore_radius: int = 1
    n_teleconnections: int = 0
    seed: int = 0


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

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

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


def _csr_from_pairs(n_cells: int, src: np.ndarray, dst: np.ndarray) -> SocialNetwork:
    # src/dst hold both directions of every edge
    order = np.lexsort((dst, src))
    indices = dst[order].astype(np.int64)
    counts = np.bincount(src, minlength=n_cells)
    indptr = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SocialNetwork(n_cells=n_cells, indptr=indptr, indices=indices)


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

    r = moore_radius
    src_parts, dst_parts = [], []
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dx == 0 and dy == 0:
                continue
            x0, x1 = max(0, -dx), min(width, width - dx)
            y0, y1 = max(0, -dy), min(height, height - dy)
            if x0 >= x1 or y0 >= y1:
                continue
            gx, gy = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
            src_parts.append((gy * width + gx).ravel())
            dst_parts.append(((gy + dy) * width + (gx + dx)).ravel())
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    return _csr_from_pairs(width * height, src, dst)


def add_teleconnections(
    net: SocialNetwork, n_tele: int, seed: int | np.random.SeedSequence = 0
) -> SocialNetwork:
    """Add exactly n_tele new undirected edges between uniform random pairs.

    Pairs are sampled with rejection: self-pairs, existing edges, and pairs
    already added in this call are redrawn. Deterministic for a given seed.
    """
    if n_tele < 0:
        raise ConfigurationError("n_tele must be >= 0")
    n = net.n_cells
    available = n * (n - 1) // 2 - net.num_edges
    if n_tele > available:
        raise ConfigurationError(
            f"n_tele {n_tele} exceeds the {available} available non-adjacent pairs"
        )
    if n_tele == 0:
        return net

    rng = np.random.default_rng(seed)
    added: set[tuple[int, int]] = set()
    new_src = np.empty(2 * n_tele, dtype=np.int64)
    new_dst = np.empty(2 * n_tele, dtype=np.int64)
    k = 0
    while k < n_tele:
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i == j:
            continue
        pair = (i, j) if i < j else (j, i)
        if pair in added or net.has_edge(i, j):
            continue
        added.add(pair)
        new_src[2 * k], new_dst[2 * k] = i, j
        new_src[2 * k + 1], new_dst[2 * k + 1] = j, i
        k += 1

    # Merge the new entries into the already-sorted rows: same CSR as a full
    # re-sort, since the added pairs are distinct and absent from net.
    order = np.lexsort((new_dst, new_src))
    new_src, new_dst = new_src[order], new_dst[order]
    old_keys = np.repeat(np.arange(n), np.diff(net.indptr)) * n + net.indices
    at = np.searchsorted(old_keys, new_src * n + new_dst)
    indices = np.insert(net.indices.astype(np.int64), at, new_dst)
    indptr = net.indptr.astype(np.int64)
    indptr[1:] += np.cumsum(np.bincount(new_src, minlength=n))
    return SocialNetwork(n_cells=n, indptr=indptr, indices=indices)


def build_network(width: int, height: int, config: NetworkConfig) -> SocialNetwork:
    net = build_lattice(width, height, config.moore_radius)
    return add_teleconnections(net, config.n_teleconnections, config.seed)


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
