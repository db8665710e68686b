"""scripts/regime_map.py runs end to end on a tiny config and writes its files."""

import runpy
import sys
from pathlib import Path

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
