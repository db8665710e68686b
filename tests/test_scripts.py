"""scripts/regime_map.py draws the regime map of a sweep.csv from `ablum sweep`."""

import runpy
import sys
from pathlib import Path

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

[sweep]
params = attitude_mean, -1, 1, 3; norm_weight_w, 0, 1, 2
"""
MEDIUM_RICH = "\n[init]\nshare_c = 0.1\nshare_mi = 0.8\nshare_hi = 0.1\n"


def run_script(name, monkeypatch, *argv):
    """Run scripts/<name>'s main() with the given arguments."""
    monkeypatch.setattr(sys, "argv", [name, *map(str, argv)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def regime_map(tmp_path, monkeypatch, capsys, config):
    """`ablum sweep` on config, then the script on its sweep.csv; the printed lines."""
    cfg = tmp_path / "regime.cfg"
    cfg.write_text(config)
    assert cli.cli_entry(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    run_script("regime_map.py", monkeypatch, tmp_path / "out" / "sweep.csv")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "regime.cfg", "sweep.csv"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == [
        "rows: norm weight (1 at top), columns: attitude (-1 to 1)",
        "glyphs: . conservation, o medium, # high, = mixed",
    ]
    return printed[2:]


def test_regime_map(tmp_path, monkeypatch, capsys):
    glyphs = regime_map(tmp_path, monkeypatch, capsys, TINY)
    assert glyphs == ["  w= 1.00  # # o", "  w= 0.00  # # ="]


def test_regime_map_medium_rich_recipe(tmp_path, monkeypatch, capsys):
    glyphs = regime_map(tmp_path, monkeypatch, capsys, TINY + MEDIUM_RICH)
    assert glyphs == ["  w= 1.00  o o o", "  w= 0.00  # o o"]


def test_regime_map_averages_replicates(tmp_path, monkeypatch, capsys):
    header = "attitude_mean,norm_weight_w,rep,seed,final_share_c,final_share_mi,final_share_hi"
    sweep = tmp_path / "sweep.csv"
    sweep.write_text(f"{header}\n0,0,0,3,0.8,0.2,0.0\n0,0,1,3,0.0,0.2,0.8\n")
    run_script("regime_map.py", monkeypatch, sweep)
    assert capsys.readouterr().out.splitlines()[2:] == ["  w= 0.00  ="]


def test_regime_map_rejects_other_sweeps(tmp_path, monkeypatch, capsys):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("cm,rep,seed,final_share_c,final_share_mi,final_share_hi\n")
    with pytest.raises(SystemExit) as exc:
        run_script("regime_map.py", monkeypatch, sweep)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: {sweep} is not a sweep over attitude_mean and norm_weight_w\n"
    )
