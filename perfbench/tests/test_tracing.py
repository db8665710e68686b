"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
from ablum import experiments  # noqa: E402
from ablum.config import ExperimentConfig  # noqa: E402


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    durations = [10.0, 3.0, 1.0, 4.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(durations, parents) == [3.0, 2.0, 1.0, 4.0]


@pytest.fixture
def toy_module():
    """A module whose outer() calls inner() through its own globals."""
    module = types.ModuleType("perfbench_toy")
    exec(
        "def inner(x):\n    return [x] * 3\n\ndef outer(x):\n    return inner(x) + inner(x)\n",
        module.__dict__,
    )
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_nested_call_spans_and_self_time(toy_module):
    ticks = iter(range(100))
    targets = (
        ("perfbench_toy", "outer", "toy.outer", None),
        ("perfbench_toy", "inner", "toy.inner", lambda args, result: {"toy.items": len(result)}),
    )
    tracer = tracing.Tracer(targets, clock=lambda: float(next(ticks)))
    originals = (toy_module.outer, toy_module.inner)
    with tracer.installed(), tracer.invocation(7):
        assert toy_module.outer(1) == [1] * 6
    assert (toy_module.outer, toy_module.inner) == originals

    assert tracer.names == [tracing.ROOT, "toy.outer", "toy.inner", "toy.inner"]
    assert tracer.parents == [-1, 0, 1, 1]
    assert tracer.runs == [7, 7, 7, 7]
    # clock reads: root 0, outer 1, inner 2-3, inner 4-5, outer ends 6, root 7
    assert tracer.starts == [0.0, 1.0, 2.0, 4.0]
    assert tracer.ends == [7.0, 6.0, 3.0, 5.0]
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    assert tracing.self_times(durations, tracer.parents) == [2.0, 3.0, 1.0, 1.0]
    assert tracer.run_counts(7) == {"toy.items": 6, "toy.outer.calls": 1, "toy.inner.calls": 2}


def test_wrappers_restored_when_the_call_raises(toy_module):
    targets = (
        ("perfbench_toy", "inner", "toy.inner", None),
        ("perfbench_toy", "renamed_away", "toy.gone", None),
    )
    original = toy_module.inner
    tracer = tracing.Tracer(targets)
    with pytest.raises(TypeError):
        with tracer.installed():
            toy_module.outer(None)
            raise TypeError("boom")
    assert toy_module.inner is original
    assert not hasattr(toy_module, "renamed_away")
    assert tracer.missing == ["perfbench_toy.renamed_away"]


def _resolved_targets():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.TARGETS
    }


def test_no_wrapper_left_after_a_traced_run():
    before = _resolved_targets()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(
            getattr(importlib.import_module(m), a) is not before[(m, a)]
            for m, a, _, _ in tracing.TARGETS
        )
        with tracer.invocation(0):
            experiments.run_single(ExperimentConfig(grid_width=12, grid_height=12, n_tele=5))
    after = _resolved_targets()
    assert all(after[key] is before[key] for key in before)
    assert tracer.missing == []

    values = tracer.layer_metrics()
    assert values["dynamics.tick.calls"] > 0
    assert values["network.tele_edges"] == 5
    assert values["dynamics.rows"] == values["dynamics.tick.calls"] + 1
    layers = sum(values[f"{n}.s"] for n in tracing.BUSY)
    layers += sum(values[f"{n}.self_s"] for n in tracing.SELF)
    assert layers + values["trace.residual_s"] == pytest.approx(values["trace.wall_s"])


def test_every_span_name_is_reported():
    names = {name for _, _, name, _ in tracing.TARGETS}
    assert names == set(tracing.BUSY) | set(tracing.SELF)
    assert not set(tracing.BUSY) & set(tracing.SELF)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    end_to_end = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    per_layer = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert end_to_end == set(run.END_TO_END)
    assert per_layer == set(tracing.LAYER_METRICS + run.TRACE_RUN_METRICS)


@pytest.mark.parametrize(
    ("n", "index", "percentile"), [(5, 4, 100.0), (10, 9, 100.0), (11, 0, 100 / 11), (50, 39, 80.0)]
)
def test_tail_keeps_ten_samples_beyond(n, index, percentile):
    values = [float(v) for v in range(n)]
    assert run.tail(values[::-1]) == (values[index], pytest.approx(percentile))
