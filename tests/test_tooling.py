"""Tooling guards: the benchmark's tracer and the README stay in step with the code.

perfbench/tracing.py lists the module attributes it wraps by name; one the
package no longer defines is skipped and its layer reads zero. The first test
fails instead, so a rename is caught with the code that made it; the second
fails if a tick stops calling the wrapped threshold kernels, or calls them
on other pairs than the ones whose surplus is positive. The README
tests catch a quick-start command or a named file that no longer exists, a
flag table that no longer lists exactly the flags each command takes, a
sweepable-key list, a list of config sections or an example section
header, a batch budget or a draw-ahead span that no longer matches the
code's, or a package layout that does not list exactly the
package's modules. The import guard fails if importing ablum, running
`ablum run`, building a Saltelli design or running a Sobol campaign loads
scipy, which ablum does not depend on; the dependency guard fails if the
package imports a third-party module that pyproject.toml does not declare
as a runtime dependency, or declares one it does not import.
"""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ablum import (
    DEFAULT_AFTS,
    DemandState,
    ExperimentConfig,
    build_state,
    cli,
    config,
    dynamics,
    experiments,
    load_config,
    utility,
)

REPO = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO / "perfbench"
README = (REPO / "README.md").read_text()
QUICK_START = README.split("## Quick start", 1)[1].split("\n## ", 1)[0]
PERFORMANCE = README.split("## Performance", 1)[1].split("\n## ", 1)[0]
LAYOUT = README.split("## Package layout", 1)[1].split("\n## ", 1)[0]
CONFIGURATION = README.split("## Configuration", 1)[1].split("\n## ", 1)[0]


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    assert tracing.Tracer().missing == []


def test_a_tick_evaluates_thresholds_for_the_positive_surplus_pairs(monkeypatch):
    cfg = ExperimentConfig(grid_width=12, grid_height=12, demand_mat=60.0, demand_nm=60.0, moore_radius=2)
    states = [build_state(cfg, (cfg.seed, k, 0)) for k in range(3)]
    batch = dynamics.Lockstep(states)
    before, supply = batch.aft_id.copy(), batch.supply.copy()
    sizes = {}
    for name in ("_giving_in", "_influence_score", "clip_social"):
        kernel = getattr(dynamics, name)

        def counted(*args, kernel=kernel, name=name):
            sizes.setdefault(name, []).append(np.size(args[-1]))
            return kernel(*args)

        monkeypatch.setattr(dynamics, name, counted)
    report = dynamics.tick(batch)
    positive = 0
    for c in report.selected.tolist():
        b, i = divmod(c, batch.n_cells)
        demand = DemandState(*batch.demand[b], *supply[b])
        cell = states[b].grid.cell(i)
        u = [utility(aft, cell, demand) for aft in DEFAULT_AFTS]
        positive += sum(x - u[before[c]] > 0 for x in u)
    assert 0 < positive < 2 * report.selected.size
    assert sizes == {"_giving_in": [positive], "_influence_score": [positive], "clip_social": [positive]}


def test_readme_quick_start_commands_parse():
    commands = [line.split()[1:] for line in QUICK_START.splitlines() if line.startswith("ablum ")]
    assert len(commands) >= 6
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README quick start: 'ablum {' '.join(argv)}' does not parse")


def test_readme_flag_table_matches_parser():
    table = {
        command: re.findall(r"`(--[\w-]+)`", flags)
        for command, flags in re.findall(r"^\| `(\w+)` \| (.*) \|$", QUICK_START, re.M)
    }
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    help_flags = ("-h", "--help")
    assert table == {
        name: [s for action in sub._actions for s in action.option_strings if s not in help_flags]
        for name, sub in commands.choices.items()
    }


def test_readme_names_only_existing_presets_and_scripts():
    named = set(re.findall(r"(?:presets/[\w.-]+\.cfg|scripts/[\w.-]+\.py)", README))
    assert any(name.startswith("presets/") for name in named)
    missing = sorted(name for name in named if not (REPO / name).is_file())
    assert missing == []
    for name in sorted(named):
        if name.endswith(".cfg"):
            load_config(REPO / name)


def test_readme_sweepable_keys_match_the_code():
    (keys,) = re.findall(r"sweepable\s+keys\s+are (.*?) \(`NUMERIC_KEYS`", README, re.S)
    assert tuple(re.findall(r"`(\w+)`", keys)) == config.NUMERIC_KEYS
    (alias,) = re.findall(r"plus the alias `(\w+)`", README)
    assert alias == config.CM_ALIAS


def test_readme_config_sections_match_the_code():
    (listed,) = re.findall(r"INI text with sections (.*?)\. ", CONFIGURATION, re.S)
    assert tuple(re.findall(r"`\[(\w+)\]`", listed)) == tuple(config._SECTIONS)
    (example,) = re.findall(r"```\n(.*?)```", CONFIGURATION, re.S)
    headers = re.findall(r"^\[(\w+)\]$", example, re.M)
    assert headers and set(headers) <= set(config._SECTIONS)


def test_readme_cell_budget_matches_the_code():
    (budget,) = re.findall(r"budget of ([\d,]+) cells", PERFORMANCE)
    assert int(budget.replace(",", "")) == experiments.CELL_BUDGET


def test_readme_draw_ahead_matches_the_code():
    (ticks,) = re.findall(r"for\s+up\s+to\s+(\d+)\s+ticks", PERFORMANCE)
    assert int(ticks) == dynamics.DRAW_AHEAD


def test_readme_package_layout_lists_every_module():
    (block,) = re.findall(r"```\nsrc/ablum/\n(.*?)```", LAYOUT, re.S)
    listed = sorted(re.findall(r"^  (\w+\.py) ", block, re.M))
    modules = sorted(
        p.name for p in (REPO / "src" / "ablum").glob("*.py") if p.stem not in ("__init__", "__main__")
    )
    assert listed == modules


IMPORT_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
import ablum, ablum.cli
seen = {"import": scipy_modules()}
code = ablum.cli.cli_entry(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
seen["run"] = scipy_modules() if code == 0 else [f"exit {code}"]
space = ablum.ParameterSpace((ablum.ParameterDim("attitude_mean", -1.0, 1.0),))
ablum.saltelli_sample(space, 4)
seen["saltelli"] = scipy_modules()
ablum.run_sobol(ablum.load_config(sys.argv[1]), 4, space=space)
seen["run_sobol"] = scipy_modules()
print(json.dumps(seen))
"""


def test_no_ablum_path_loads_scipy(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("[grid]\nwidth = 9\nheight = 9\n[stopping]\nmax_ticks = 40\nwindow = 5\n")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "run": [], "saltelli": [], "run_sobol": []}


def test_runtime_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", dep).group()
        for dep in tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["dependencies"]
    }
    imported = set()
    for path in (REPO / "src" / "ablum").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"ablum"} == declared
