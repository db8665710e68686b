"""End-to-end CLI checks: exit codes, artefact layout, byte determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ablum import cli
from ablum.metrics import OUTPUT_METRICS

SMALL = """
[grid]
width = 9
height = 9

[stopping]
max_ticks = 40
window = 5

[run]
seed = 3
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


def entry(*argv):
    return cli.cli_entry([str(a) for a in argv])


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert entry() == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert entry("simulate") == 2

    def test_unknown_flag(self, capsys):
        assert entry("run", "--fast") == 2

    def test_metrics_requires_map(self, capsys):
        assert entry("metrics") == 2

    def test_help_exits_zero(self, capsys):
        assert entry("--help") == 0
        assert entry("run", "--help") == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["landscape", "--reps", "2"],
            ["landscape", "--threads", "2"],
            ["metrics", "--map", "m.csv", "--out", "x"],
            ["metrics", "--map", "m.csv", "--reps", "2"],
            ["metrics", "--map", "m.csv", "--threads", "2"],
            ["hysteresis", "--threads", "2"],
        ],
        ids=" ".join,
    )
    def test_flag_the_command_does_not_read(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert entry(*argv) == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        assert entry("run", "--config", tmp_path / "absent.cfg", "--out", tmp_path) == 1

    def test_invalid_config_value(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[behaviour]\nnorm_weight_w = 1.5\n")
        assert entry("run", "--config", bad, "--out", tmp_path / "out") == 1

    def test_bad_reps(self, small_cfg, tmp_path):
        assert entry("run", "--config", small_cfg, "--reps", "0", "--out", tmp_path / "o") == 1

    def test_unwritable_out_dir(self, small_cfg, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = entry("run", "--config", small_cfg, "--out", blocker / "out")
        assert code == 1


class TestRun:
    def test_writes_three_files(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        assert entry("run", "--config", small_cfg, "--out", out) == 0
        run_dir = out / "run_s3_r0"
        assert (run_dir / "trajectory.csv").exists()
        assert (run_dir / "map.csv").exists()
        assert (run_dir / "metrics.csv").exists()
        assert not (out / "metrics.csv").exists()  # only written for multi-rep runs

    def test_map_has_grid_rows(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        entry("run", "--config", small_cfg, "--out", out)
        lines = (out / "run_s3_r0" / "map.csv").read_text().splitlines()
        assert lines[0] == "x,y,aft_id"
        assert len(lines) == 1 + 81

    def test_trajectory_rows_match_stabilisation(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        entry("run", "--config", small_cfg, "--out", out)
        traj = (out / "run_s3_r0" / "trajectory.csv").read_text().splitlines()
        metrics = (out / "run_s3_r0" / "metrics.csv").read_text().splitlines()
        stabilised_at = int(metrics[1].split(",")[-1])
        assert len(traj) == 1 + stabilised_at + 1  # header + one row per tick incl. t=0

    def test_reruns_byte_identical(self, small_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert entry("run", "--config", small_cfg, "--out", a) == 0
        assert entry("run", "--config", small_cfg, "--out", b) == 0
        for name in ("trajectory.csv", "map.csv", "metrics.csv"):
            assert (a / "run_s3_r0" / name).read_bytes() == (b / "run_s3_r0" / name).read_bytes()

    def test_seed_override(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        assert entry("run", "--config", small_cfg, "--seed", "7", "--out", out) == 0
        assert (out / "run_s7_r0").exists()

    def test_replicates_get_own_dirs_and_summary(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        assert entry("run", "--config", small_cfg, "--reps", "2", "--out", out) == 0
        assert (out / "run_s3_r0").exists()
        assert (out / "run_s3_r1").exists()
        combined = (out / "metrics.csv").read_text().splitlines()
        assert len(combined) == 3
        assert combined[1].startswith("run_s3_r0,")
        assert combined[2].startswith("run_s3_r1,")

    def test_defaults_without_config(self, tmp_path):
        # no --config uses the built-in default experiment on the 101x101 grid
        out = tmp_path / "out"
        assert entry("run", "--out", out) == 0
        assert (out / "run_s0_r0" / "map.csv").exists()

    def test_threads_env_default(self, small_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("ABLUM_THREADS", "2")
        out = tmp_path / "out"
        assert entry("run", "--config", small_cfg, "--reps", "2", "--out", out) == 0
        assert (out / "run_s3_r1").exists()

    def test_non_integer_threads_env_is_an_error(self, small_cfg, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ABLUM_THREADS", "two")
        assert entry("run", "--config", small_cfg, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ABLUM_THREADS" in err and "'two'" in err
        assert not (tmp_path / "out").exists()

    def test_threads_flag_overrides_bad_env(self, small_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("ABLUM_THREADS", "two")
        assert entry("run", "--config", small_cfg, "--threads", "1", "--out", tmp_path) == 0

    def test_threads_env_read_only_by_commands_with_threads(self, small_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("ABLUM_THREADS", "two")
        assert entry("landscape", "--config", small_cfg, "--out", tmp_path / "out") == 0


class TestSweep:
    def test_needs_sweep_section(self, small_cfg, tmp_path):
        assert entry("sweep", "--config", small_cfg, "--out", tmp_path / "o") == 1

    def test_writes_sweep_csv(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            SMALL + "\n[sweep]\nparams = attitude_mean, -0.5, 0.5, 3\nreplications = 2\n"
        )
        out = tmp_path / "out"
        assert entry("sweep", "--config", cfg, "--out", out) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("attitude_mean,rep,seed,")
        assert len(lines) == 1 + 3 * 2

    def test_reps_flag_overrides(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SMALL + "\n[sweep]\nparams = cm, 0.2, 0.8, 2\n")
        out = tmp_path / "out"
        assert entry("sweep", "--config", cfg, "--reps", "3", "--out", out) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 2 * 3

    def test_byte_identical(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SMALL + "\n[sweep]\nparams = cm, 0.2, 0.8, 2\n")
        a, b = tmp_path / "a", tmp_path / "b"
        entry("sweep", "--config", cfg, "--out", a)
        entry("sweep", "--config", cfg, "--out", b)
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


class TestHysteresis:
    def test_needs_schedule(self, small_cfg, tmp_path, capsys):
        assert entry("hysteresis", "--config", small_cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            "error: hysteresis command needs a [schedule] section in the config\n"
        )

    def test_prints_drift_summary(self, tmp_path, capsys):
        cfg = tmp_path / "ramp.cfg"
        cfg.write_text(
            SMALL.replace("max_ticks = 40", "max_ticks = 30")
            + "\n[schedule]\nbreakpoints = 0,-0.5; 8,0.5; 16,-0.5\n"
        )
        out = tmp_path / "out"
        assert entry("hysteresis", "--config", cfg, "--out", out) == 0
        assert capsys.readouterr().out.splitlines() == [
            "shares start -> end: 0.333/0.370/0.296 -> 0.222/0.272/0.506",
            "L1 drift 0.420; scheduled attitude returns: True",
        ]
        assert len((out / "run_s3_r0" / "trajectory.csv").read_text().splitlines()) == 1 + 17

    def test_reps_write_the_files_of_run(self, tmp_path, capsys):
        cfg = tmp_path / "h.cfg"
        cfg.write_text(TestGoldenBytes.CONFIGS["hysteresis"])
        ramp, run = tmp_path / "ramp", tmp_path / "run"
        assert entry("hysteresis", "--config", cfg, "--reps", "2", "--out", ramp) == 0
        printed = capsys.readouterr().out.splitlines()
        assert entry("run", "--config", cfg, "--reps", "2", "--out", run) == 0
        digests = TestGoldenBytes._digests(ramp)
        assert digests == TestGoldenBytes._digests(run)
        assert sorted(digests) == sorted(TestGoldenBytes.DIGESTS["run"])
        assert [line.split()[0] for line in printed] == ["shares", "L1"] * 2
        assert printed[:2] != printed[2:]

    def test_config_replications(self, tmp_path):
        cfg = tmp_path / "h.cfg"
        cfg.write_text(
            TestGoldenBytes.CONFIGS["hysteresis"].replace("seed = 3", "seed = 3\nreplications = 2")
        )
        out = tmp_path / "out"
        assert entry("hysteresis", "--config", cfg, "--out", out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["metrics.csv", "run_s3_r0", "run_s3_r1"]

    def test_trajectory_has_schedule_column(self, tmp_path):
        cfg = tmp_path / "h.cfg"
        cfg.write_text(SMALL + "\n[schedule]\nbreakpoints = 0,-0.5; 10,0.5; 20,-0.5\n")
        out = tmp_path / "out"
        assert entry("hysteresis", "--config", cfg, "--out", out) == 0
        lines = (out / "run_s3_r0" / "trajectory.csv").read_text().splitlines()
        assert lines[0].endswith(",scheduled_attitude")
        assert len(lines) == 1 + 21
        assert lines[1].endswith(",-0.500000")
        assert lines[11].endswith(",0.500000")
        assert lines[21].endswith(",-0.500000")


class TestSobol:
    def _cfg(self, tmp_path, extra=""):
        cfg = tmp_path / "sa.cfg"
        cfg.write_text(
            "[grid]\nwidth = 25\nheight = 25\n"
            "[stopping]\nmax_ticks = 10\nwindow = 5\nepsilon = 1.0\n"
            "[run]\nseed = 3\n" + extra
        )
        return cfg

    def test_needs_settings(self, tmp_path):
        assert entry("sobol", "--config", self._cfg(tmp_path), "--out", tmp_path / "o") == 1

    def test_unparseable_setting(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, "[sobol]\nn_base = lots\n")
        assert entry("sobol", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            "error: config key 'n_base': invalid literal for int() with base 10: 'lots'\n"
        )

    def test_writes_design_outputs_indices(self, tmp_path):
        out = tmp_path / "out"
        code = entry(
            "sobol", "--config", self._cfg(tmp_path), "--n-base", "2", "--out", out
        )
        assert code == 0
        design = (out / "design.csv").read_text().splitlines()
        assert design[0].startswith("attitude_mean,norm_weight_w,")
        assert len(design) == 1 + 2 * 11  # n(d+2) rows, d=9
        outputs = (out / "outputs.csv").read_text().splitlines()
        assert outputs[0] == "share_c,share_mi,share_hi,s_mat,s_nm"
        assert len(outputs) == len(design)
        payload = json.loads((out / "indices.json").read_text())
        assert set(payload) == {"share_c", "share_mi", "share_hi", "s_mat", "s_nm"}
        assert set(payload["share_c"]["S1"]) == {
            "attitude_mean",
            "norm_weight_w",
            "inertia_lambda",
            "cm_int",
            "cm_ext",
            "demand_mat",
            "demand_nm",
            "moore_radius",
            "n_tele",
        }
        assert "S2" not in payload["share_c"]

    def test_prints_ranked_total_effects(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert entry("sobol", "--config", self._cfg(tmp_path), "--n-base", "2", "--out", out) == 0
        lines = capsys.readouterr().out.splitlines()
        payload = json.loads((out / "indices.json").read_text())
        assert [line.split()[0] for line in lines] == list(OUTPUT_METRICS)
        for line, metric in zip(lines, OUTPUT_METRICS):
            assert line.startswith(f"{metric:8s} total effect: ")
            ranked = [item.split("=") for item in line.split(": ", 1)[1].split("  ")]
            st = payload[metric]["ST"]
            assert len(ranked) == 4 and len({name for name, _ in ranked}) == 4
            assert [value for _, value in ranked] == [f"{st[name]:.3f}" for name, _ in ranked]
            top = [st[name] for name, _ in ranked]
            assert top == sorted(top, reverse=True)
            assert all(v <= top[-1] for name, v in st.items() if name not in dict(ranked))

    def test_config_section_and_second_order(self, tmp_path):
        cfg = self._cfg(tmp_path, "[sobol]\nn_base = 2\nsecond_order = true\n")
        out = tmp_path / "out"
        assert entry("sobol", "--config", cfg, "--out", out) == 0
        design = (out / "design.csv").read_text().splitlines()
        assert len(design) == 1 + 2 * 20  # n(2d+2) rows, d=9
        payload = json.loads((out / "indices.json").read_text())
        assert "S2" in payload["share_c"]


class TestLandscape:
    def test_writes_capitals(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        assert entry("landscape", "--config", small_cfg, "--out", out) == 0
        lines = (out / "capitals.csv").read_text().splitlines()
        assert lines[0] == "x,y,c_prod,c_nat"
        assert len(lines) == 1 + 81

    def test_matches_run_capitals(self, small_cfg, tmp_path):
        # the landscape command and a run draw the same capital fields
        out = tmp_path / "out"
        entry("landscape", "--config", small_cfg, "--out", out)
        from ablum import load_config, run_single

        cfg = load_config(small_cfg)
        state = run_single(cfg).state
        first = (out / "capitals.csv").read_text().splitlines()[1]
        assert first == f"0,0,{state.grid.c_prod[0]:.6f},{state.grid.c_nat[0]:.6f}"

    def test_every_capital_matches_run_single(self, tmp_path):
        # with noise on, both must draw the same capital stream of the run
        noisy = tmp_path / "noisy.cfg"
        noisy.write_text(SMALL + "\n[capitals]\nnoise_amp = 0.1\n")
        out = tmp_path / "out"
        assert entry("landscape", "--config", noisy, "--seed", "17", "--out", out) == 0
        from ablum import load_config, run_single

        cfg = load_config(noisy)
        cfg.seed = 17
        grid = run_single(cfg).state.grid
        expected = [
            f"{i % 9},{i // 9},{grid.c_prod[i]:.6f},{grid.c_nat[i]:.6f}" for i in range(81)
        ]
        assert (out / "capitals.csv").read_text().splitlines()[1:] == expected


class TestMetrics:
    def test_recomputes_run_metrics(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        entry("run", "--config", small_cfg, "--out", out)
        run_metrics = (out / "run_s3_r0" / "metrics.csv").read_text().splitlines()[1]
        code = entry(
            "metrics", "--config", small_cfg, "--map", out / "run_s3_r0" / "map.csv"
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith("run_id,seed,")
        got = printed[1].split(",")
        want = run_metrics.split(",")
        assert got[0] == "map"
        assert got[1:8] == want[1:8]  # seed, shares, supplies, mesh all match
        assert got[8] == "-1"  # stabilisation tick unknown from a map alone

    def test_connectivity_choice(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        entry("run", "--config", small_cfg, "--out", out)
        map_path = out / "run_s3_r0" / "map.csv"
        assert entry("metrics", "--config", small_cfg, "--map", map_path, "--connectivity", "8") == 0
        mesh8 = float(capsys.readouterr().out.splitlines()[1].split(",")[7])
        assert entry("metrics", "--config", small_cfg, "--map", map_path) == 0
        mesh4 = float(capsys.readouterr().out.splitlines()[1].split(",")[7])
        assert mesh8 >= mesh4  # 8-connectivity can only merge patches

    def test_missing_map(self, small_cfg, tmp_path):
        assert entry("metrics", "--config", small_cfg, "--map", tmp_path / "no.csv") == 1

    @pytest.mark.parametrize("bad_row", ["0,1", "0,1,2,3", "0,1,x", "0,1,1.5"])
    def test_malformed_map_row(self, small_cfg, tmp_path, capsys, bad_row):
        map_path = tmp_path / "map.csv"
        map_path.write_text(f"x,y,aft_id\n0,0,1\n{bad_row}\n1,1,0\n")
        assert entry("metrics", "--config", small_cfg, "--map", map_path) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {map_path}, line 3: expected three integers x,y,aft_id, got {bad_row!r}\n"
        )


    def test_map_without_rows(self, small_cfg, tmp_path, capsys):
        map_path = tmp_path / "hdr.csv"
        map_path.write_text("x,y,aft_id\n")
        assert entry("metrics", "--config", small_cfg, "--map", map_path) == 1
        assert capsys.readouterr().err == f"error: {map_path}: the map has no rows\n"


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(["ablum", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "run" in proc.stdout and "sobol" in proc.stdout

    @staticmethod
    def _module(*argv, cwd):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run(
            [sys.executable, "-m", *map(str, argv)], capture_output=True, text=True, cwd=cwd, env=env
        )

    def test_python_m_ablum(self, small_cfg, tmp_path):
        proc = self._module("ablum", "run", "--config", small_cfg, "--out", "d", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "d" / "run_s3_r0" / "map.csv").is_file()

    def test_python_m_ablum_cli_help(self, tmp_path):
        proc = self._module("ablum.cli", "--help", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: ablum ")


class TestGoldenBytes:
    """SHA-256 of every artefact each command writes on tiny configs.

    The digests pin today's bytes, so a refactor of the writers or of the
    run harness that changes any output byte fails here, file by file.
    """

    SOBOL = (
        "[grid]\nwidth = 25\nheight = 25\n"
        "[stopping]\nmax_ticks = 10\nwindow = 5\nepsilon = 1.0\n"
        "[run]\nseed = 3\n"
    )
    CONFIGS = {
        "run": SMALL,
        "sweep": SMALL + "\n[sweep]\nparams = moore_radius, 1, 2, 2; n_tele, 0, 10, 2\n",
        "hysteresis": SMALL + "\n[schedule]\nbreakpoints = 0,-0.5; 10,0.5; 20,-0.5\n",
        "sobol": SOBOL,
        "landscape": SMALL + "\n[capitals]\nnoise_amp = 0.1\n",
    }
    EXTRA = {"run": ["--reps", "2"], "sobol": ["--n-base", "2"]}
    DIGESTS = {
        "run": {
            "metrics.csv": "570f847385f67e668935a5896cc9b85bb0e7988a68295ba5e59e759d9f77046a",
            "run_s3_r0/map.csv": "9d901727c35e74443f498f6894488be745083a939813a4cca7ccf05ff5113f07",
            "run_s3_r0/metrics.csv": "a263e97386c973da12873f891617713f4704975acf8f6b0d6ac573953f2ea595",
            "run_s3_r0/trajectory.csv": "efda9490aa4a1d4b7076a3e2810773e84684a153dd7644c00a22d1417f9ff329",
            "run_s3_r1/map.csv": "e11487086cac571a5c695ccfaff15f2ee2bc9bd71100876ad8f6ba866cb99432",
            "run_s3_r1/metrics.csv": "c0cc9a90d39f0a11a8a4d83eafb97653353e8bf8ddf9dc2f88085f9db7e4c97a",
            "run_s3_r1/trajectory.csv": "d2c7b21f1d9b311d98c8a8f3c8eaaff30e0a379b70ec5be9529eb4b3db9e66cd",
        },
        "sweep": {
            "sweep.csv": "b66827b38003a2a893282f108370e9a06ec8d84f544c7128e7b499721a60db71",
        },
        "hysteresis": {
            "run_s3_r0/map.csv": "b748b71969705574d6eb90d78bc9d0bd011124522cd21e146569cc2dca093fc7",
            "run_s3_r0/metrics.csv": "aa309a956f6f59157bb6dbf6b6b2eff8a40605bed754dc692694dc019417bd24",
            "run_s3_r0/trajectory.csv": "f68588aac3a790bfe8634647a031842ee65e1c935f6a5bb98860805811f9dc83",
        },
        "sobol": {
            "design.csv": "c7a1e16e63d01d5d87f10f8c88aecaec9ea4e2586366db43a689944ee5dc6ba4",
            "indices.json": "a3e558ffaca4fac0a3eb0799fbb8a80fdbe7d856f4cc4b28a7db37ce090ae03b",
            "outputs.csv": "edc28aaa183550c914fdc3d482a34c95e4cb8f04bb4ea37cfbee1f0d028c2878",
        },
        "landscape": {
            "capitals.csv": "cd5dbf7ed2a2d73955dd79d027447341b0ab24faf82ce788dc2fc5e1d9dc781a",
        },
    }
    METRICS_STDOUT = "fe02f53cdade50ea249b26f84e33553d37700ce36ced2f608e24dfb18c5fc9b3"

    @staticmethod
    def _digests(out):
        return {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_artefacts(self, tmp_path, command):
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(self.CONFIGS[command])
        out = tmp_path / "out"
        assert entry(command, "--config", cfg, "--out", out, *self.EXTRA.get(command, [])) == 0
        assert self._digests(out) == self.DIGESTS[command]

    def test_metrics_stdout(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert entry("run", "--config", small_cfg, "--out", out) == 0
        assert entry("metrics", "--config", small_cfg, "--map", out / "run_s3_r0" / "map.csv") == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == self.METRICS_STDOUT
