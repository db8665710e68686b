"""The benchmark's tracer still finds every package attribute it wraps.

perfbench/tracing.py lists the module attributes it wraps by name; one the
package no longer defines is skipped and its layer reads zero. This test
fails instead, so a rename is caught with the code that made it.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    assert tracing.Tracer().missing == []
