"""Moore lattice construction, teleconnection augmentation, and the
neighbour-conformity fraction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ablum import (
    ConfigurationError,
    ExperimentConfig,
    MooreLattice,
    TeleconnectedNetwork,
    UndefinedFractionError,
    add_teleconnections,
    build_lattice,
    build_state,
    neighbour_intensity_fraction,
    tick,
)
from ablum.dynamics import Lockstep


@dataclasses.dataclass(frozen=True)
class Csr:
    """A network as sorted neighbour rows in CSR form: what the reference
    builds below return, and what a network's ``neighbours`` rows are
    compared against."""

    n_cells: int
    indptr: np.ndarray
    indices: np.ndarray

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


def rows_of(net) -> Csr:
    """A network's neighbour rows, read by one ``neighbours`` call per cell."""
    rows = [net.neighbours(i) for i in range(net.n_cells)]
    indptr = np.zeros(net.n_cells + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows], out=indptr[1:])
    return Csr(net.n_cells, indptr, np.concatenate(rows))


def csr_from_pairs(n_cells: int, src: np.ndarray, dst: np.ndarray) -> Csr:
    """CSR by a full sort of (src, dst), which hold both directions of every
    edge: the reference for the lattice and teleconnection builds."""
    order = np.lexsort((dst, src))
    indices = dst[order].astype(np.int64)
    counts = np.bincount(src, minlength=n_cells)
    indptr = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Csr(n_cells=n_cells, indptr=indptr, indices=indices)


def lattice_csr(width: int, height: int, radius: int) -> Csr:
    """The stored CSR the stencil replaced: the stencil offsets, dy outer and
    dx inner, self excluded, added to every cell, keeping the entries inside
    the grid; since |dx| < width, every row comes out sorted."""
    n = width * height
    d = np.arange(-radius, radius + 1)
    dy, dx = np.repeat(d, d.size), np.tile(d, d.size)
    off = (dy != 0) | (dx != 0)
    dy, dx = dy[off], dx[off]
    # inside[cell, k]: offset k from cell stays on the grid
    x = np.arange(width)[:, None] + dx
    y = np.arange(height)[:, None] + dy
    inside = (((0 <= y) & (y < height))[:, None] & ((0 <= x) & (x < width))).reshape(n, -1)
    indices = (np.arange(n)[:, None] + dy * width + dx)[inside]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    return Csr(n_cells=n, indptr=indptr, indices=indices)


def lattice_by_offsets(width, height, radius):
    """Lattice as the pairs of each stencil offset in turn, fully sorted."""
    src_parts, dst_parts = [], []
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            x0, x1 = max(0, -dx), min(width, width - dx)
            y0, y1 = max(0, -dy), min(height, height - dy)
            if x0 >= x1 or y0 >= y1:
                continue
            gx, gy = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
            src_parts.append((gy * width + gx).ravel())
            dst_parts.append(((gy + dy) * width + (gx + dx)).ravel())
    return csr_from_pairs(width * height, np.concatenate(src_parts), np.concatenate(dst_parts))


def teleconnections_by_rejection(net: Csr, n_tele: int, seed) -> Csr:
    """Scalar rejection sampler: one (i, j) draw at a time, redrawing
    self-pairs, existing edges and pairs already added."""
    n = net.n_cells
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
    src = np.concatenate([np.repeat(np.arange(n), np.diff(net.indptr)), new_src])
    dst = np.concatenate([net.indices, new_dst])
    return csr_from_pairs(n, src.astype(np.int64), dst.astype(np.int64))


def teleconnections_by_insert(net: Csr, n_tele: int, seed) -> Csr:
    """The merged build the overlay replaced: every directed key of the whole
    network, block draws against them, then both directions of the new edges
    inserted into the sorted rows with np.insert."""
    n = net.n_cells
    pairs = n * (n - 1) // 2
    available = pairs - net.num_edges
    if n_tele == 0:
        return net
    old_keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(net.indptr)) * n + net.indices
    rng = np.random.default_rng(seed)
    candidates = first = np.empty(0, dtype=np.int64)
    while first.size < n_tele:
        m = (n_tele - first.size) * pairs // (available - first.size) * 11 // 10 + 16
        i, j = rng.integers(n, size=(m, 2)).T
        keys = (np.minimum(i, j) * n + np.maximum(i, j))[i != j]
        exists = np.searchsorted(old_keys, keys) < np.searchsorted(old_keys, keys, "right")
        candidates = np.concatenate([candidates, keys[~exists]])
        _, first = np.unique(candidates, return_index=True)
    new = candidates[np.sort(first)[:n_tele]]
    lo, hi = np.divmod(new, n)
    added = np.sort(np.concatenate([new, hi * n + lo]))
    src, dst = np.divmod(added, n)
    indices = np.insert(net.indices, np.searchsorted(old_keys, added), dst)
    indptr = net.indptr.astype(np.int64)
    indptr[1:] += np.cumsum(np.bincount(src, minlength=n))
    return Csr(n_cells=n, indptr=indptr, indices=indices)


def class_counts_of(net: Csr, aft_id: np.ndarray) -> np.ndarray:
    """Each cell's neighbours per class, counted afresh from a merged CSR."""
    rows = np.repeat(np.arange(net.n_cells), np.diff(net.indptr))
    return np.bincount(rows * 3 + aft_id[net.indices], minlength=3 * net.n_cells).reshape(-1, 3)


def assert_same_csr(got: Csr, want: Csr):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert (got.indptr.dtype, got.indices.dtype) == (want.indptr.dtype, want.indices.dtype)


def degrees(net) -> np.ndarray:
    return np.diff(rows_of(net).indptr)


class TestBuildLattice:
    def test_interior_degree_radius_1(self):
        net = build_lattice(5, 5, 1)
        assert degrees(net)[2 * 5 + 2] == 8

    def test_corner_degree_radius_1(self):
        net = build_lattice(5, 5, 1)
        assert degrees(net)[0] == 3

    def test_interior_degree_radius_2(self):
        net = build_lattice(7, 7, 2)
        assert degrees(net)[3 * 7 + 3] == 24  # (2*2+1)^2 - 1

    def test_neighbours_by_chebyshev_distance(self):
        net = build_lattice(5, 5, 1)
        got = sorted(net.neighbours(0))
        assert got == [1, 5, 6]

    def test_no_wraparound(self):
        net = build_lattice(4, 4, 1)
        # cell 3 is the top-right corner; cell 4 starts the next row
        assert 4 not in net.neighbours(3)

    def test_radius_too_large_rejected(self):
        with pytest.raises(ConfigurationError):
            build_lattice(5, 5, 5)

    def test_radius_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            build_lattice(5, 5, 0)

    @given(st.integers(3, 8), st.integers(3, 8), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_no_self_loops(self, w, h, r):
        if r >= min(w, h):
            return
        net = build_lattice(w, h, r)
        for i in range(net.n_cells):
            for j in net.neighbours(i):
                assert j != i
                assert i in net.neighbours(j)

    @given(st.integers(3, 8), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_interior_degree_formula(self, side, r):
        if r >= (side - 1) // 2 + 1:
            return
        net = build_lattice(side, side, r)
        centre = (side // 2) * side + side // 2
        assert degrees(net)[centre] == (2 * r + 1) ** 2 - 1

    def test_edge_pairs_sorted_undirected(self):
        net = build_lattice(3, 3, moore_radius=1)
        pairs = [tuple(p) for p in rows_of(net).edge_pairs().tolist()]
        assert all(i < j for i, j in pairs)
        assert pairs == sorted(pairs)
        assert len(pairs) == net.num_edges


def chebyshev_oracle(width, height, radius):
    """CSR of every ordered pair of distinct cells within Chebyshev distance
    radius, found by checking all n^2 pairs."""
    n = width * height
    indptr, indices = [0], []
    for i in range(n):
        for j in range(n):
            dx, dy = abs(i % width - j % width), abs(i // width - j // width)
            if i != j and max(dx, dy) <= radius:
                indices.append(j)
        indptr.append(len(indices))
    return np.array(indptr), np.array(indices)


class TestLatticeOracle:
    def test_all_grids_up_to_7x7(self):
        for w in range(1, 8):
            for h in range(1, 8):
                for r in range(1, min(w, h)):
                    net = build_lattice(w, h, r)
                    indptr, indices = chebyshev_oracle(w, h, r)
                    rows = rows_of(net)
                    assert np.array_equal(rows.indptr, indptr), (w, h, r)
                    assert np.array_equal(rows.indices, indices), (w, h, r)

    def test_runs_of_one_shape_share_a_lattice_value(self):
        cfg = ExperimentConfig(grid_width=9, grid_height=7, moore_radius=2)
        tele = dataclasses.replace(cfg, n_tele=6)
        other = dataclasses.replace(cfg, moore_radius=1)
        states = [build_state(c, (1, k, 0)) for k, c in enumerate([cfg, cfg, tele, other])]
        a, b, c, d = (s.network for s in states)
        assert a == b == c.lattice == build_lattice(9, 7, 2) == MooreLattice(9, 7, 2)
        assert hash(a) == hash(c.lattice) and d == MooreLattice(9, 7, 1) != a
        assert_same_csr(rows_of(a), lattice_csr(9, 7, 2))
        # a batch groups its runs by lattice value, not by object
        batch = Lockstep(states)
        assert batch.lattices == [a, d] and batch.lattice_of.tolist() == [0, 0, 0, 1]
        alone = build_state(tele, (1, 2, 0)).network
        assert c.lattice == alone.lattice and np.array_equal(c.tele, alone.tele)

    @pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
    def test_full_grid_equals_sorted_pairs(self, radius):
        want = lattice_by_offsets(101, 101, radius)
        assert_same_csr(rows_of(build_lattice(101, 101, radius)), want)

    def test_csr_arrays_are_read_only(self):
        net = build_lattice(5, 5, 1)
        aug = add_teleconnections(net, 4, 0)
        assert not aug.tele.flags.writeable and not net.tele.flags.writeable
        with pytest.raises(ValueError):
            aug.tele[0, 0] = 0


def assert_stencil_equals_csr(lattice: MooreLattice, aft_id: np.ndarray, rng) -> None:
    """Every stencil query of the lattice equals its answer from the stored
    CSR build: degrees, edge count, class counts, gathers, edge tests and
    neighbour lists."""
    oracle = lattice_csr(lattice.width, lattice.height, lattice.radius)
    n = lattice.n_cells
    assert np.array_equal(lattice.degrees(), np.diff(oracle.indptr))
    assert lattice.num_edges == oracle.num_edges
    counts = lattice.class_counts(aft_id, 3)
    assert counts.dtype == np.int32 and counts.flags.c_contiguous
    assert np.array_equal(counts, class_counts_of(oracle, aft_id))
    # one row per grid: each row's counts, as one call
    stacked = lattice.class_counts(np.stack([aft_id, aft_id[::-1]]), 3)
    assert stacked.flags.c_contiguous
    assert np.array_equal(stacked, np.stack([counts, class_counts_of(oracle, aft_id[::-1])]))
    cells = rng.integers(n, size=min(n, 50))
    nb, at = lattice.gather(cells)
    assert np.array_equal(nb, np.concatenate([oracle.neighbours(c) for c in cells]))
    assert np.array_equal(at, np.repeat(np.arange(cells.size), np.diff(oracle.indptr)[cells]))
    # pairs a few rows apart: edges, self-pairs, and pairs across the side walls
    i = rng.integers(n, size=400)
    j = np.clip(i + rng.integers(-3 * lattice.width, 3 * lattice.width + 1, size=400), 0, n - 1)
    assert lattice.has_edges(i, j).tolist() == [bool(oracle.has_edge(a, b)) for a, b in zip(i, j)]


class TestStencilEqualsCsr:
    @given(st.integers(3, 12), st.integers(3, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_radius_of_a_grid(self, w, h, seed):
        rng = np.random.default_rng(seed)
        aft_id = rng.integers(3, size=w * h)
        for r in range(1, min(w, h)):
            lattice = build_lattice(w, h, r)
            assert_stencil_equals_csr(lattice, aft_id, rng)
            oracle = lattice_csr(w, h, r)
            for cell in range(lattice.n_cells):
                assert np.array_equal(lattice.gather(np.array([cell]))[0], oracle.neighbours(cell))
                assert np.array_equal(lattice.neighbours(cell), oracle.neighbours(cell))

    @pytest.mark.parametrize(
        "radius, edges", [(1, 40_200), (2, 119_400), (3, 236_412), (4, 390_060), (5, 579_180)]
    )
    def test_full_grid(self, radius, edges):
        lattice = build_lattice(101, 101, radius)
        assert lattice.num_edges == edges
        rng = np.random.default_rng(radius)
        assert_stencil_equals_csr(lattice, rng.integers(3, size=lattice.n_cells), rng)


class TestTeleconnections:
    @given(
        st.integers(2, 7), st.integers(2, 7), st.integers(1, 3),
        st.integers(0, 2**31 - 1), st.integers(0, 25),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_full_resort(self, w, h, r, seed, n_tele):
        # the augmented network's neighbour rows are exactly the CSR a full
        # re-sort of lattice plus new edges gives
        r = min(r, min(w, h) - 1)
        net = build_lattice(w, h, r)
        n = w * h
        n_tele = min(n_tele, n * (n - 1) // 2 - net.num_edges)
        aug = rows_of(add_teleconnections(net, n_tele, seed))
        lattice = lattice_csr(w, h, r)
        new = sorted(set(map(tuple, aug.edge_pairs())) - set(map(tuple, lattice.edge_pairs())))
        assert len(new) == n_tele
        new_src = [i for i, _ in new] + [j for _, j in new]
        new_dst = [j for _, j in new] + [i for i, _ in new]
        src = np.concatenate([np.repeat(np.arange(n), np.diff(lattice.indptr)), new_src]).astype(np.int64)
        dst = np.concatenate([lattice.indices, new_dst]).astype(np.int64)
        assert_same_csr(aug, csr_from_pairs(n, src, dst))

    @given(
        st.integers(2, 9), st.integers(2, 9), st.integers(1, 3),
        st.integers(0, 2**31 - 1), st.floats(0, 1), st.floats(0, 1),
    )
    @example(2, 2, 1, 0, 1.0, 0.0)
    @example(9, 9, 3, 7, 1.0, 0.0)
    @example(8, 8, 1, 3, 0.01, 0.02)
    @settings(max_examples=40, deadline=None)
    def test_equals_scalar_rejection(self, w, h, r, seed, fill, refill):
        # block draws pick exactly the pairs the one-at-a-time sampler picks,
        # up to saturation and on an already-augmented network
        r = min(r, min(w, h) - 1)
        net = build_lattice(w, h, r)
        n = w * h
        free = n * (n - 1) // 2 - net.num_edges
        n_tele = round(fill * free)
        once = add_teleconnections(net, n_tele, seed)
        want = teleconnections_by_rejection(lattice_by_offsets(w, h, r), n_tele, seed)
        assert_same_csr(rows_of(once), want)
        n_more = round(refill * (free - n_tele))
        twice = add_teleconnections(once, n_more, seed + 1)
        assert_same_csr(rows_of(twice), teleconnections_by_rejection(want, n_more, seed + 1))

    @pytest.mark.parametrize("n", [625, 10201])
    def test_block_draws_continue_scalar_stream(self, n):
        k = 5000
        block = np.random.default_rng(n).integers(n, size=k)
        rng = np.random.default_rng(n)
        scalar = [int(rng.integers(n)) for _ in range(k)]
        assert block.tolist() == scalar, (
            "rng.integers(n, size=k) no longer yields the k values of k scalar "
            "rng.integers(n) draws with this numpy; add_teleconnections relies on "
            "it, so its edges (and every run with n_tele > 0) would change"
        )

    def test_zero_is_identity(self):
        net = build_lattice(6, 6, 1)
        assert add_teleconnections(net, 0, 5) == net
        once = add_teleconnections(net, 4, 5)
        assert np.array_equal(add_teleconnections(once, 0, 6).tele, once.tele)

    def test_exact_edge_count(self):
        net = build_lattice(10, 10, 1)
        aug = add_teleconnections(net, 40, 5)
        assert aug.num_edges == net.num_edges + 40

    def test_paper_scale_mean_degree(self):
        net = build_lattice(101, 101, 2)
        aug = add_teleconnections(net, 4000, 0)
        before = degrees(net).mean()
        after = degrees(aug).mean()
        assert after - before == pytest.approx(2 * 4000 / 10201, abs=1e-9)

    def test_second_round_still_adds_exactly_n(self):
        net = build_lattice(8, 8, 1)
        once = add_teleconnections(net, 20, 3)
        twice = add_teleconnections(once, 20, 3)
        assert twice.num_edges == once.num_edges + 20

    def test_deterministic_per_seed(self):
        net = build_lattice(9, 9, 1)
        a = add_teleconnections(net, 30, 11)
        b = add_teleconnections(net, 30, 11)
        assert np.array_equal(a.tele, b.tele)

    def test_new_edges_not_in_lattice(self):
        net = build_lattice(8, 8, 1)
        aug = add_teleconnections(net, 25, 7)
        lattice = lattice_csr(8, 8, 1)
        new = set(map(tuple, rows_of(aug).edge_pairs().tolist()))
        new -= set(map(tuple, lattice.edge_pairs().tolist()))
        assert len(new) == 25 and new == set(map(tuple, aug.tele.tolist()))
        for i, j in new:
            assert not lattice.has_edge(i, j) and i != j

    def test_too_many_rejected(self):
        net = build_lattice(3, 3, 1)
        # 9 cells: 36 unordered pairs, 20 lattice edges, 16 free slots
        with pytest.raises(ConfigurationError):
            add_teleconnections(net, 17, 0)
        aug = add_teleconnections(net, 16, 0)
        assert aug.num_edges == 36

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_augmented_network_invariants(self, seed):
        net = add_teleconnections(build_lattice(7, 7, 1), 15, seed)
        for i in range(net.n_cells):
            row = net.neighbours(i)
            assert len(set(row)) == len(row)  # no duplicate edges
            for j in row:
                assert j != i and i in net.neighbours(j)


class TestNeighbourIntensityFraction:
    def lattice_and_intensity(self, neigh_levels):
        # centre of a 3x3, 8 neighbours in index order 0,1,2,3,5,6,7,8
        net = build_lattice(3, 3, 1)
        intens = np.empty(9)
        order = [0, 1, 2, 3, 5, 6, 7, 8]
        for idx, level in zip(order, neigh_levels):
            intens[idx] = level
        intens[4] = 0.5
        return net, intens

    def test_unanimous(self):
        net, intens = self.lattice_and_intensity([1.0] * 8)
        got = neighbour_intensity_fraction(net, intens, 4, 0.5, "at_or_above")
        assert got == 1.0

    def test_at_or_below_hand_count(self):
        net, intens = self.lattice_and_intensity([1, 1, 0.5, 0.5, 0.5, 0, 0, 0])
        got = neighbour_intensity_fraction(net, intens, 4, 0.5, "at_or_below")
        assert got == pytest.approx(0.75, abs=1e-9)

    def test_at_or_above_hand_count(self):
        net, intens = self.lattice_and_intensity([1, 1, 0.5, 0.5, 0.5, 0, 0, 0])
        got = neighbour_intensity_fraction(net, intens, 4, 0.5, "at_or_above")
        assert got == pytest.approx(0.625, abs=1e-9)

    def test_isolated_cell_errors(self):
        # no lattice has an isolated cell, so the network is a test-side CSR
        empty = np.empty(0, dtype=np.int64)
        net = csr_from_pairs(2, empty, empty)
        with pytest.raises(UndefinedFractionError):
            neighbour_intensity_fraction(net, np.zeros(2), 0, 0.5, "at_or_above")

    def test_self_excluded_from_count(self):
        net, intens = self.lattice_and_intensity([0.0] * 8)
        # centre itself is at 0.5 but must not count
        got = neighbour_intensity_fraction(net, intens, 4, 0.5, "at_or_above")
        assert got == 0.0


# One run of a batch: grid width and height, radius (clamped below the grid),
# the share of free pairs the first round of teleconnections fills, the share
# of what is left a second round fills, and a seed. Runs of one shape share a
# batch.
_RUN = st.tuples(
    st.integers(3, 9), st.integers(3, 9), st.integers(1, 5),
    st.floats(0, 1), st.floats(0, 1), st.integers(0, 2**31 - 1),
)


class TestOverlayEqualsMergedBuild:
    @given(st.lists(_RUN, min_size=1, max_size=4))
    @example([(9, 9, 5, 1.0, 0.0, 3), (9, 9, 5, 0.01, 0.5, 4), (4, 7, 2, 0.2, 1.0, 5)])
    @example([(6, 5, 1, 0.1, 0.0, 7), (6, 5, 3, 0.0, 0.0, 8), (6, 5, 2, 0.5, 0.5, 9), (3, 3, 1, 0.0, 0.0, 1)])
    @example([(3, 3, 1, 1.0, 0.0, 0)])
    @settings(max_examples=40, deadline=None)
    def test_degrees_counts_and_merged_view(self, runs):
        # Two rounds of teleconnections over lattices, in one batch per grid
        # shape: every cell's neighbours and neighbour fractions, the batch
        # degrees (the initial neighbour counts' row sums) and the neighbour
        # counts after 20 ticks of commits all equal the np.insert-merged
        # networks'.
        states, merged = [], []
        for point, (w, h, r, fill, refill, seed) in enumerate(runs):
            r = min(r, min(w, h) - 1)
            lattice = build_lattice(w, h, r)
            free = w * h * (w * h - 1) // 2 - lattice.num_edges
            n_tele = round(fill * free)
            n_more = round(refill * (free - n_tele))
            once = add_teleconnections(lattice, n_tele, seed)
            twice = add_teleconnections(once, n_more, seed + 1)
            assert twice.lattice is lattice
            assert twice.num_edges == lattice.num_edges + n_tele + n_more
            want = teleconnections_by_insert(
                teleconnections_by_insert(lattice_csr(w, h, r), n_tele, seed), n_more, seed + 1
            )
            # levels 0, 0.5 and 1 against 0.5: ties count, as the modes say
            intensities = np.random.default_rng(seed).integers(3, size=w * h) / 2
            for i in range(w * h):
                row = want.neighbours(i)
                assert np.array_equal(twice.neighbours(i), row)
                above, below = intensities[row] >= 0.5, intensities[row] <= 0.5
                for mode, hit in (("at_or_above", above), ("at_or_below", below)):
                    got = neighbour_intensity_fraction(twice, intensities, i, 0.5, mode)
                    assert got == float(np.mean(hit))
            cfg = ExperimentConfig(grid_width=w, grid_height=h, moore_radius=r, seed=seed)
            states.append(dataclasses.replace(build_state(cfg, (seed, point, 0)), network=twice))
            merged.append(want)

        by_shape = {}
        for state, want in zip(states, merged):
            by_shape.setdefault((state.grid.width, state.grid.height), []).append((state, want))
        for runs in by_shape.values():
            batch = Lockstep([state for state, _ in runs])
            degrees = np.concatenate([np.diff(m.indptr) for _, m in runs])
            assert np.array_equal(batch.neighbour_counts.sum(axis=1), degrees)
            for _ in range(20):
                tick(batch)
            want_counts = [class_counts_of(m, s.grid.aft_id) for s, m in runs]
            assert np.array_equal(batch.neighbour_counts, np.concatenate(want_counts))

    def test_networks_compare_by_identity(self):
        # a run's network is its own: == and hash() never compare pair arrays
        a, b = (add_teleconnections(build_lattice(9, 9, 1), 3, 0) for _ in range(2))
        assert a == a and a != b and a.lattice == b.lattice
        assert hash(a) == hash(a) and {a, b, a} == {a, b} and len({a, b}) == 2

    def test_overlay_shares_the_lattice(self):
        lattice = build_lattice(9, 9, 2)
        aug = add_teleconnections(add_teleconnections(lattice, 10, 1), 5, 2)
        assert isinstance(aug, TeleconnectedNetwork) and aug.lattice is lattice
        assert aug.tele.shape == (15, 2) and not aug.tele.flags.writeable
        assert np.all(aug.tele[:, 0] < aug.tele[:, 1])
        keys = aug.tele[:, 0] * 81 + aug.tele[:, 1]
        assert np.all(np.diff(keys) > 0)
        assert not lattice.has_edges(aug.tele[:, 0], aug.tele[:, 1]).any()

    @given(st.integers(2, 9), st.integers(2, 9), st.integers(1, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_vectorised_has_edges(self, w, h, r, seed):
        r = min(r, min(w, h) - 1)
        net, oracle = build_lattice(w, h, r), lattice_csr(w, h, r)
        i, j = np.random.default_rng(seed).integers(w * h, size=(2, 200))
        assert net.has_edges(i, j).tolist() == [bool(oracle.has_edge(a, b)) for a, b in zip(i, j)]
