"""Each script in scripts/ runs end to end on a tiny config and writes its files."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from ablum import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

TINY = """
[grid]
width = 9
height = 9

[stopping]
max_ticks = 30
window = 5

[run]
seed = 3
"""


def run_script(name, monkeypatch, *argv):
    """Run scripts/<name>'s main() with the given arguments."""
    monkeypatch.setattr(sys, "argv", [name, *map(str, argv)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_regime_map(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "regime.cfg"
    cfg.write_text(TINY + "\n[sweep]\nparams = attitude_mean, -1, 1, 3; norm_weight_w, 0, 1, 2\n")
    run_script("regime_map.py", monkeypatch, "--config", cfg, "--out", tmp_path / "out")
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("attitude_mean,norm_weight_w,rep,seed,")
    assert len(lines) == 1 + 3 * 2
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"wrote {tmp_path / 'out' / 'sweep.csv'} (6 rows)"
    assert [ln.split()[0] for ln in printed[3:]] == ["w=", "w="]


def test_attitude_cycle(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "ramp.cfg"
    cfg.write_text(TINY + "\n[schedule]\nbreakpoints = 0,-0.5; 8,0.5; 16,-0.5\n")
    run_script("attitude_cycle.py", monkeypatch, "--config", cfg, "--out", tmp_path / "out")
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0].endswith(",scheduled_attitude")
    assert len(lines) == 1 + 17
    printed = capsys.readouterr().out
    assert "(17 ticks)" in printed and "scheduled attitude returns: True" in printed


def test_attitude_cycle_needs_schedule(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "plain.cfg"
    cfg.write_text(TINY)
    with pytest.raises(SystemExit) as exc:
        run_script("attitude_cycle.py", monkeypatch, "--config", cfg, "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert "has no [schedule] section" in capsys.readouterr().err


def test_sensitivity_campaign_matches_cli(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "sa.cfg"
    cfg.write_text(
        "[grid]\nwidth = 25\nheight = 25\n"
        "[stopping]\nmax_ticks = 10\nwindow = 5\nepsilon = 1.0\n"
        "[run]\nseed = 3\n"
    )
    script_out, cli_out = tmp_path / "script", tmp_path / "cli"
    run_script(
        "sensitivity_campaign.py", monkeypatch, "--config", cfg, "--n-base", 2, "--out", script_out
    )
    assert "(22 runs)" in capsys.readouterr().out
    assert cli.cli_entry(["sobol", "--config", str(cfg), "--n-base", "2", "--out", str(cli_out)]) == 0
    for name in ("design.csv", "outputs.csv", "indices.json"):
        assert (script_out / name).read_bytes() == (cli_out / name).read_bytes(), name
    outputs = np.loadtxt(script_out / "outputs.csv", delimiter=",", skiprows=1)
    assert outputs.shape == (22, 5)
