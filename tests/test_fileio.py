"""CSV/JSON writers: stable schemas, 6-decimal reals, exact round-trips."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from ablum import (
    ConfigurationError,
    LandscapeGrid,
    ParameterDim,
    ParameterSpace,
    RunSummary,
    Trajectory,
    fmt,
    generate_capitals,
    read_map_csv,
    saltelli_sample,
    sobol_indices,
    write_capitals_csv,
    write_design_csv,
    write_indices_json,
    write_map_csv,
    write_metrics_csv,
    write_outputs_csv,
    write_sweep_csv,
    write_trajectory_csv,
)


def small_grid(width=4, height=3, seed=0):
    c_prod, c_nat = generate_capitals(width, height, ((1.0, 1.0, 2.0),), 0.0, seed)
    aft = np.arange(width * height) % 3
    return LandscapeGrid(width, height, c_prod, c_nat, aft.astype(np.int64))


def small_trajectory(scheduled=()):
    rows = [
        (0, 0.5, 0.25, 0.25, 10.0, 12.0, 0.1),
        (1, 0.4, 0.35, 0.25, 11.0, 11.5, 0.1),
    ]
    if scheduled:
        rows = [(*row, s) for row, s in zip(rows, scheduled)]
    return Trajectory.from_rows(rows)


class TestFmt:
    def test_six_decimals(self):
        assert fmt(0.5) == "0.500000"
        assert fmt(1 / 3) == "0.333333"
        assert fmt(2) == "2.000000"
        assert fmt(-0.1234567) == "-0.123457"

    def test_accepts_numpy_scalars(self):
        assert fmt(np.float64(0.25)) == "0.250000"


class TestMapRoundTrip:
    def test_write_then_read(self, tmp_path):
        grid = small_grid()
        path = tmp_path / "map.csv"
        write_map_csv(path, grid)
        width, height, aft = read_map_csv(path)
        assert (width, height) == (4, 3)
        assert np.array_equal(aft, grid.aft_id)

    def test_layout(self, tmp_path):
        grid = small_grid(width=3, height=3)
        path = tmp_path / "map.csv"
        write_map_csv(path, grid)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,aft_id"
        assert len(lines) == 1 + 9
        assert lines[1] == "0,0,0"
        assert lines[4] == "0,1,0"  # row-major: second grid row starts at index 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_map_csv(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("x,y,type\n0,0,1\n")
        with pytest.raises(ConfigurationError):
            read_map_csv(path)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("x,y,aft_id\n0,0,1\n1,1,2\n")
        with pytest.raises(ConfigurationError):
            read_map_csv(path)

    def test_out_of_order_rows(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("x,y,aft_id\n1,0,1\n0,0,2\n")
        with pytest.raises(ConfigurationError):
            read_map_csv(path)


class TestCapitalsCsv:
    def test_layout_and_determinism(self, tmp_path):
        grid = small_grid()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_capitals_csv(a, grid)
        write_capitals_csv(b, grid)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "x,y,c_prod,c_nat"
        assert len(lines) == 1 + grid.n_cells
        x, y, cp, cn = lines[1].split(",")
        assert (x, y) == ("0", "0")
        assert cp == fmt(grid.c_prod[0])
        assert cn == fmt(grid.c_nat[0])


class TestCellWritersMatchScalarFormatting:
    """The map and capitals writers format whole columns at once; every line
    must equal the per-cell formatting of its cell."""

    @pytest.mark.parametrize("width, height", [(5, 3), (3, 7)])
    def test_every_line(self, tmp_path, width, height):
        grid = small_grid(width, height)
        cells = [(i % width, i // width) for i in range(grid.n_cells)]
        write_map_csv(tmp_path / "map.csv", grid)
        write_capitals_csv(tmp_path / "capitals.csv", grid)
        expected_map = [f"{x},{y},{int(grid.aft_id[i])}" for i, (x, y) in enumerate(cells)]
        expected_capitals = [
            f"{x},{y},{fmt(grid.c_prod[i])},{fmt(grid.c_nat[i])}" for i, (x, y) in enumerate(cells)
        ]
        assert (tmp_path / "map.csv").read_text() == "\n".join(["x,y,aft_id", *expected_map]) + "\n"
        assert (tmp_path / "capitals.csv").read_text() == (
            "\n".join(["x,y,c_prod,c_nat", *expected_capitals]) + "\n"
        )


class TestTrajectoryCsv:
    def test_header_without_schedule(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, small_trajectory())
        lines = path.read_text().splitlines()
        assert lines[0] == "tick,share_c,share_mi,share_hi,s_mat,s_nm,mean_attitude"
        assert lines[1] == "0,0.500000,0.250000,0.250000,10.000000,12.000000,0.100000"
        assert len(lines) == 3

    def test_header_with_schedule(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, small_trajectory(scheduled=[-0.5, 0.5]))
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",scheduled_attitude")
        assert lines[1].endswith(",-0.500000")
        assert lines[2].endswith(",0.500000")


class TestMetricsCsv:
    def test_line_and_file(self, tmp_path):
        summary = RunSummary(0.5, 0.3, 0.2, 100.0, 120.5, 6.25, 42)
        path = tmp_path / "m.csv"
        write_metrics_csv(path, [("run_s3_r0", 3, summary), ("run_s3_r1", 3, summary)])
        assert path.read_text().splitlines() == [
            "run_id,seed,final_share_c,final_share_mi,final_share_hi,s_mat,s_nm,mesh,stabilised_at",
            "run_s3_r0,3,0.500000,0.300000,0.200000,100.000000,120.500000,6.250000,42",
            "run_s3_r1,3,0.500000,0.300000,0.200000,100.000000,120.500000,6.250000,42",
        ]


class TestSweepCsv:
    def test_layout(self, tmp_path):
        rows = [
            {
                "attitude_mean": -0.5,
                "rep": 0,
                "seed": 3,
                "final_share_c": 0.4,
                "final_share_mi": 0.35,
                "final_share_hi": 0.25,
                "s_mat": 3000.0,
                "s_nm": 3500.0,
                "mesh": 12.5,
                "stabilised_at": 77,
            }
        ]
        path = tmp_path / "s.csv"
        write_sweep_csv(path, ["attitude_mean"], rows)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "attitude_mean,rep,seed,final_share_c,final_share_mi,final_share_hi,"
            "s_mat,s_nm,mesh,stabilised_at"
        )
        assert lines[1] == (
            "-0.500000,0,3,0.400000,0.350000,0.250000,3000.000000,3500.000000,12.500000,77"
        )

    def test_integer_parameter_written_as_real(self, tmp_path):
        row = {"moore_radius": 3, "rep": 1, "seed": 2, **asdict(RunSummary(1, 0, 0, 5, 6, 7, 8))}
        path = tmp_path / "s.csv"
        write_sweep_csv(path, ["moore_radius"], [row])
        assert path.read_text().splitlines()[1] == (
            "3.000000,1,2,1.000000,0.000000,0.000000,5.000000,6.000000,7.000000,8"
        )


class TestOutputsCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "o.csv"
        write_outputs_csv(path, np.array([[0.5, 0.25, 0.25, 3000.0, 1 / 3], [1, 0, 0, 2, 3]]))
        assert path.read_text() == (
            "share_c,share_mi,share_hi,s_mat,s_nm\n"
            "0.500000,0.250000,0.250000,3000.000000,0.333333\n"
            "1.000000,0.000000,0.000000,2.000000,3.000000\n"
        )


class TestDesignAndIndices:
    def _space(self):
        return ParameterSpace(
            (ParameterDim("x1", -math.pi, math.pi), ParameterDim("x2", -math.pi, math.pi))
        )

    def test_design_csv(self, tmp_path):
        design = saltelli_sample(self._space(), 4, seed=0, second_order=False)
        path = tmp_path / "d.csv"
        write_design_csv(path, design)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 1 + design.n_rows
        assert lines[1] == ",".join(fmt(v) for v in design.matrix[0])

    def test_indices_json(self, tmp_path):
        design = saltelli_sample(self._space(), 64, seed=0, second_order=True)
        outputs = np.sin(design.matrix[:, 0]) + 0.5 * design.matrix[:, 1]
        idx = sobol_indices(design, outputs)
        path = tmp_path / "i.json"
        write_indices_json(path, {"share_c": idx})
        payload = json.loads(path.read_text())
        assert set(payload) == {"share_c"}
        assert set(payload["share_c"]) == {"S1", "ST", "S2", "conf"}
        assert payload["share_c"]["S1"]["x1"] == pytest.approx(float(idx.s1[0]))
        assert set(payload["share_c"]["S2"]) == {"x1|x2"}

    def test_indices_json_deterministic(self, tmp_path):
        design = saltelli_sample(self._space(), 32, seed=1, second_order=False)
        outputs = design.matrix.sum(axis=1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_indices_json(a, {"m": sobol_indices(design, outputs)})
        write_indices_json(b, {"m": sobol_indices(design, outputs)})
        assert a.read_bytes() == b.read_bytes()
