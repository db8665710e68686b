"""Tooling guards: the benchmark's tracer and the README stay in step with the code.

perfbench/tracing.py lists the module attributes it wraps by name; one the
package no longer defines is skipped and its layer reads zero. The first test
fails instead, so a rename is caught with the code that made it. The README
tests catch a quick-start command or a named file that no longer exists, and
a flag table that no longer lists exactly the flags each command takes.
"""

import argparse
import re
import sys
from pathlib import Path

import pytest

from ablum import cli, load_config

REPO = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO / "perfbench"
README = (REPO / "README.md").read_text()
QUICK_START = README.split("## Quick start", 1)[1].split("\n## ", 1)[0]


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    assert tracing.Tracer().missing == []


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
    assert any(name.startswith("scripts/") for name in named)
    missing = sorted(name for name in named if not (REPO / name).is_file())
    assert missing == []
    for name in sorted(named):
        if name.endswith(".cfg"):
            load_config(REPO / name)
