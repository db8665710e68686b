"""Shares, supplies, patch decomposition, and effective mesh size.

Patch areas are cross-checked against an independent breadth-first-search
labelling so the library implementation never validates itself.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ablum import (
    LandscapeGrid,
    Trajectory,
    default_peaks,
    generate_capitals,
    intensity_shares,
    mesh_connectivity,
    patch_decomposition,
    share_trajectory_summary,
    total_supply,
)


def make_grid(ids, width, height):
    n = width * height
    return LandscapeGrid(
        width, height, np.full(n, 0.5), np.full(n, 0.5), np.asarray(ids, dtype=np.int64)
    )


def bfs_patch_areas_in_order(ids, width, height, connectivity=4):
    """Reference patch decomposition by flood fill; each class's areas in
    row-major order of the patch's first cell."""
    if connectivity == 4:
        steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    else:
        steps = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)]
    seen = [False] * (width * height)
    areas = {}
    for start in range(width * height):
        if seen[start]:
            continue
        cls = ids[start]
        area = 0
        queue = deque([start])
        seen[start] = True
        while queue:
            i = queue.popleft()
            area += 1
            x, y = i % width, i // width
            for dx, dy in steps:
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    j = ny * width + nx
                    if not seen[j] and ids[j] == cls:
                        seen[j] = True
                        queue.append(j)
        areas.setdefault(int(cls), []).append(area)
    return areas


def bfs_patch_areas(ids, width, height, connectivity=4):
    """Reference patch decomposition by flood fill, each class's areas sorted."""
    ordered = bfs_patch_areas_in_order(ids, width, height, connectivity)
    return {c: sorted(a) for c, a in ordered.items()}


def spiral(n):
    """n x n field (n odd) of a one-cell-wide class-1 wall winding inwards
    from the top-left corner, with a one-cell-wide class-0 corridor between
    its turns."""
    field = np.zeros((n, n), dtype=np.int64)
    r = c = 0
    field[0, 0] = 1
    lengths = [n - 1] + [n - 1 - 2 * (k // 2) for k in range(n - 1)]
    for turn, length in enumerate(lengths):
        dr, dc = [(0, 1), (1, 0), (0, -1), (-1, 0)][turn % 4]
        for _ in range(length):
            r, c = r + dr, c + dc
            field[r, c] = 1
    return field


def serpentine(n):
    """n x n field (n odd): class-1 rows joined at alternating ends, so one
    class-1 patch winds through class-0 bars."""
    field = np.zeros((n, n), dtype=np.int64)
    field[::2] = 1
    field[1::4, -1] = 1
    field[3::4, 0] = 1
    return field


class TestIntensityShares:
    def test_uniform(self):
        grid = make_grid([0] * 16, 4, 4)
        assert intensity_shares(grid) == {0: 1.0, 1: 0.0, 2: 0.0}

    def test_direct_count(self):
        grid = make_grid([0, 1, 2, 2], 2, 2)
        assert intensity_shares(grid) == {0: 0.25, 1: 0.25, 2: 0.5}

    @given(st.lists(st.integers(0, 2), min_size=12, max_size=12))
    def test_partition(self, ids):
        shares = intensity_shares(make_grid(ids, 4, 3))
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)


class TestTotalSupply:
    def test_all_conservation_no_material(self):
        grid = make_grid([0] * 9, 3, 3)
        s_mat, _ = total_supply(grid)
        assert s_mat == 0.0

    def test_all_high_intensity_no_natural(self):
        grid = make_grid([2] * 9, 3, 3)
        _, s_nm = total_supply(grid)
        assert s_nm == 0.0

    def test_all_medium_on_default_landscape(self):
        c_prod, c_nat = generate_capitals(101, 101, default_peaks(101, 101), 0.0, 0)
        grid = LandscapeGrid(101, 101, c_prod, c_nat, np.full(101 * 101, 1, dtype=np.int64))
        s_mat, s_nm = total_supply(grid)
        assert s_mat == pytest.approx(0.5 * c_prod.sum(), rel=1e-12)
        assert s_nm == pytest.approx(0.5 * c_nat.sum(), rel=1e-12)

    def test_respects_custom_aft_table(self):
        grid = make_grid([1] * 4, 2, 2)
        s_mat, s_nm = total_supply(grid)
        assert s_mat == pytest.approx(4 * 0.5 * 0.5, abs=1e-12)


class TestMesh:
    def test_single_patch(self):
        assert mesh_connectivity(make_grid([1] * 16, 4, 4)) == pytest.approx(16.0, abs=1e-12)

    def test_two_equal_patches(self):
        # left half conservation, right half high intensity on 4x4
        ids = [0, 0, 2, 2] * 4
        assert mesh_connectivity(make_grid(ids, 4, 4)) == pytest.approx(8.0, abs=1e-12)

    def test_checkerboard_is_fully_fragmented(self):
        ids = [(x + y) % 2 for y in range(4) for x in range(4)]
        assert mesh_connectivity(make_grid(ids, 4, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_checkerboard_8_connectivity_joins_diagonals(self):
        ids = [(x + y) % 2 for y in range(4) for x in range(4)]
        got = mesh_connectivity(make_grid(ids, 4, 4), connectivity=8)
        assert got == pytest.approx(8.0, abs=1e-12)  # two interleaved 8-cell patches

    def test_relabelling_invariance(self):
        ids = [0, 0, 1, 1, 0, 2, 1, 2, 0] * 2 + [1, 0]
        swapped = [{0: 2, 1: 0, 2: 1}[i] for i in ids]
        a = mesh_connectivity(make_grid(ids, 5, 4))
        b = mesh_connectivity(make_grid(swapped, 5, 4))
        assert a == pytest.approx(b, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 3, size=30)
        rotated = np.rot90(ids.reshape(5, 6)).ravel()
        a = mesh_connectivity(make_grid(ids, 6, 5))
        b = mesh_connectivity(make_grid(rotated, 5, 6))
        assert a == pytest.approx(b, abs=1e-12)

    def test_bridging_gap_increases_mesh(self):
        # two 3-cell bars of class 1 separated by a class-0 cell
        split = [1, 1, 1, 0, 1, 1, 1]
        joined = [1, 1, 1, 1, 1, 1, 1]
        assert mesh_connectivity(make_grid(joined, 7, 1)) > mesh_connectivity(
            make_grid(split, 7, 1)
        )

    @given(st.lists(st.integers(0, 2), min_size=20, max_size=20), st.sampled_from([4, 8]))
    @settings(max_examples=50, deadline=None)
    def test_matches_bfs_oracle(self, ids, conn):
        grid = make_grid(ids, 5, 4)
        got = patch_decomposition(grid, connectivity=conn)
        expected = bfs_patch_areas(ids, 5, 4, connectivity=conn)
        assert {c: sorted(a) for c, a in got.items() if a} == expected
        mesh = mesh_connectivity(grid, connectivity=conn)
        ref = sum(a * a for areas in expected.values() for a in areas) / 20
        assert mesh == pytest.approx(ref, abs=1e-12)

    @given(st.lists(st.integers(0, 2), min_size=16, max_size=16))
    def test_bounds(self, ids):
        mesh = mesh_connectivity(make_grid(ids, 4, 4))
        assert 1.0 - 1e-12 <= mesh <= 16.0 + 1e-12

    def test_maximal_iff_single_connected_class(self):
        assert mesh_connectivity(make_grid([2] * 12, 4, 3)) == pytest.approx(12.0)
        almost = [2] * 11 + [0]
        assert mesh_connectivity(make_grid(almost, 4, 3)) < 12.0


class TestPatchLabelling:
    """Exact areas and patch order against the ordered flood fill."""

    @staticmethod
    def decompose(field, connectivity):
        height, width = field.shape
        got = patch_decomposition(make_grid(field.ravel(), width, height), connectivity)
        assert set(got) == {0, 1, 2}
        return {c: list(a) for c, a in got.items() if a}

    @given(
        arrays(
            np.int64,
            array_shapes(min_dims=2, max_dims=2, max_side=30),
            elements=st.integers(0, 2),
            fill=st.nothing(),  # draw every cell, not mostly one fill value
        ),
        st.sampled_from([4, 8]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_ordered_bfs(self, field, conn):
        height, width = field.shape
        expected = bfs_patch_areas_in_order(field.ravel().tolist(), width, height, conn)
        assert self.decompose(field, conn) == expected

    @pytest.mark.parametrize("conn", [4, 8])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_serpentine_is_one_patch(self, conn, transpose):
        field = serpentine(101)
        field = field.T.copy() if transpose else field
        assert self.decompose(field, conn) == {0: [100] * 50, 1: [101 * 51 + 50]}

    @pytest.mark.parametrize("conn", [4, 8])
    def test_spiral(self, conn):
        field = spiral(41)
        got = self.decompose(field, conn)
        assert got == bfs_patch_areas_in_order(field.ravel().tolist(), 41, 41, conn)
        assert len(got[0]) == len(got[1]) == 1

    @pytest.mark.parametrize("conn", [4, 8])
    def test_single_row_and_column(self, conn):
        ids = np.array([0, 0, 1, 1, 1, 0, 2, 2, 0, 1])
        expected = {0: [2, 1, 1], 1: [3, 1], 2: [2]}
        assert self.decompose(ids.reshape(1, -1), conn) == expected
        assert self.decompose(ids.reshape(-1, 1), conn) == expected

    @pytest.mark.parametrize("conn", [4, 8])
    def test_patch_order_follows_first_cell(self, conn):
        # the first class-0 patch starts at cell 0 but ends after the second
        field = np.array([[0, 1, 0], [0, 1, 1], [0, 0, 0]])
        assert self.decompose(field, conn) == {0: [5, 1], 1: [3]}

    @pytest.mark.parametrize("shape", [(5, 6), (2, 12)])
    def test_checkerboard(self, shape):
        # two rows make each colour one diagonal chain, whose roots need several jumps a round
        field = np.indices(shape).sum(axis=0) % 2
        half = field.size // 2
        assert self.decompose(field, 4) == {0: [1] * half, 1: [1] * half}
        assert self.decompose(field, 8) == {0: [half], 1: [half]}


class TestTrajectorySummary:
    def test_single_row(self):
        t = Trajectory.from_rows([(0, 0.2, 0.3, 0.5, 10.0, 5.0, 0.1)])
        s = share_trajectory_summary(t, 4.5)
        assert (s.final_share_c, s.final_share_mi, s.final_share_hi) == (0.2, 0.3, 0.5)
        assert (s.s_mat, s.s_nm, s.mesh, s.stabilised_at) == (10.0, 5.0, 4.5, 0)

    def test_last_row_wins(self):
        t = Trajectory.from_rows(
            [(0, 0.2, 0.3, 0.5, 10.0, 5.0, 0.0), (1, 0.25, 0.3, 0.45, 11.0, 6.0, 0.0)]
        )
        s = share_trajectory_summary(t, 1.0)
        assert s.final_share_c == 0.25
        assert s.stabilised_at == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            share_trajectory_summary(Trajectory.from_rows([]), 1.0)
