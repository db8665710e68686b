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
    SocialNetwork,
    UndefinedFractionError,
    add_teleconnections,
    build_lattice,
    build_state,
    neighbour_intensity_fraction,
)


def csr_from_pairs(n_cells: int, src: np.ndarray, dst: np.ndarray) -> SocialNetwork:
    """CSR by a full sort of (src, dst), which hold both directions of every
    edge: the reference for the lattice and teleconnection builds."""
    order = np.lexsort((dst, src))
    indices = dst[order].astype(np.int64)
    counts = np.bincount(src, minlength=n_cells)
    indptr = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SocialNetwork(n_cells=n_cells, indptr=indptr, indices=indices)


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


def teleconnections_by_rejection(net, n_tele, seed):
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


def assert_same_csr(got: SocialNetwork, want: SocialNetwork):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert (got.indptr.dtype, got.indices.dtype) == (want.indptr.dtype, want.indices.dtype)


def degrees(net: SocialNetwork) -> np.ndarray:
    return np.diff(net.indptr)


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
                assert net.has_edge(j, i)

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
        pairs = [tuple(p) for p in net.edge_pairs().tolist()]
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
                    assert np.array_equal(net.indptr, indptr), (w, h, r)
                    assert np.array_equal(net.indices, indices), (w, h, r)

    def test_batch_shared_lattice_equals_fresh_build(self):
        cfg = ExperimentConfig(grid_width=9, grid_height=7, moore_radius=2)
        lattices = {}
        a = build_state(cfg, (1, 0, 0), lattices)
        b = build_state(cfg, (1, 1, 0), lattices)
        assert a.network is b.network is lattices[(9, 7, 2)]
        fresh = build_lattice(9, 7, 2)
        assert np.array_equal(a.network.indptr, fresh.indptr)
        assert np.array_equal(a.network.indices, fresh.indices)
        tele = dataclasses.replace(cfg, n_tele=6)
        shared = build_state(tele, (1, 2, 0), lattices).network
        alone = build_state(tele, (1, 2, 0)).network
        assert np.array_equal(shared.indptr, alone.indptr)
        assert np.array_equal(shared.indices, alone.indices)

    @pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
    def test_full_grid_equals_sorted_pairs(self, radius):
        assert_same_csr(build_lattice(101, 101, radius), lattice_by_offsets(101, 101, radius))

    def test_csr_arrays_are_read_only(self):
        net = build_lattice(5, 5, 1)
        aug = add_teleconnections(net, 4, 0)
        for arr in (net.indptr, net.indices, aug.indptr, aug.indices):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            net.indices[0] = 0


class TestTeleconnections:
    @given(
        st.integers(2, 7), st.integers(2, 7), st.integers(1, 3),
        st.integers(0, 2**31 - 1), st.integers(0, 25),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_full_resort(self, w, h, r, seed, n_tele):
        # inserting the new entries into the sorted rows gives exactly the
        # CSR a full re-sort of lattice plus new edges gives
        r = min(r, min(w, h) - 1)
        net = build_lattice(w, h, r)
        n = w * h
        n_tele = min(n_tele, n * (n - 1) // 2 - net.num_edges)
        aug = add_teleconnections(net, n_tele, seed)
        new = sorted(set(map(tuple, aug.edge_pairs())) - set(map(tuple, net.edge_pairs())))
        assert len(new) == n_tele
        new_src = [i for i, _ in new] + [j for _, j in new]
        new_dst = [j for _, j in new] + [i for i, _ in new]
        src = np.concatenate([np.repeat(np.arange(n), np.diff(net.indptr)), new_src]).astype(np.int64)
        dst = np.concatenate([net.indices, new_dst]).astype(np.int64)
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
        assert_same_csr(once, teleconnections_by_rejection(net, n_tele, seed))
        n_more = round(refill * (free - n_tele))
        twice = add_teleconnections(once, n_more, seed + 1)
        assert_same_csr(twice, teleconnections_by_rejection(once, n_more, seed + 1))

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
        aug = add_teleconnections(net, 0, 5)
        assert np.array_equal(net.indptr, aug.indptr)
        assert np.array_equal(net.indices, aug.indices)

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
        assert np.array_equal(a.indices, b.indices)

    def test_new_edges_not_in_lattice(self):
        net = build_lattice(8, 8, 1)
        aug = add_teleconnections(net, 25, 7)
        new = set(map(tuple, aug.edge_pairs())) - set(map(tuple, net.edge_pairs()))
        assert len(new) == 25
        for i, j in new:
            assert not net.has_edge(i, j) and i != j

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
                assert j != i and net.has_edge(j, i)


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
        empty = np.empty(0, dtype=np.int64)
        net = csr_from_pairs(2, empty, empty)
        with pytest.raises(UndefinedFractionError):
            neighbour_intensity_fraction(net, np.zeros(2), 0, 0.5, "at_or_above")

    def test_self_excluded_from_count(self):
        net, intens = self.lattice_and_intensity([0.0] * 8)
        # centre itself is at 0.5 but must not count
        got = neighbour_intensity_fraction(net, intens, 4, 0.5, "at_or_above")
        assert got == 0.0
