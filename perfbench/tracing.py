"""Outside-in tracing of the ablum package.

Wrappers are installed from here, at the module attributes that callers
resolve at call time (``ablum.experiments.build_lattice``,
``ablum.dynamics.tick``, ...), so nothing under ``src/`` is edited. Each
wrapped call records a span (name, start, end, parent span, run id) in
memory; counters read exact work counts from arguments and return values.
Self time of a span is its duration minus the durations of its direct
children. ``Tracer.installed`` restores every original on exit. A target
the package no longer has is listed in ``Tracer.missing`` instead of wrapped,
so a refactor that renames one leaves that layer reading zero, not a crash.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = "bench.invocation"

_FILEIO_WRITERS = (
    "write_trajectory_csv",
    "write_map_csv",
    "write_metrics_csv",
    "write_sweep_csv",
    "write_design_csv",
    "write_indices_json",
)


def _tick_counts(args, result):
    return {
        "dynamics.tick.cells_selected": int(result.selected.size),
        "dynamics.tick.cells_changed": int(result.cells.size),
    }


def _lattice_counts(args, result):
    return {"network.edges": result.num_edges}


def _tele_counts(args, result):
    added = result.num_edges - args[0].num_edges
    return {"network.edges": added, "network.tele_edges": added}


def _loop_counts(args, result):
    return {"dynamics.rows": result[1].n_rows}


def _threshold_counts(args, result):
    return {"behaviour.evaluations": int(np.size(result))}


def _bytes_written(args, result):
    return {"fileio.write.bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counter). The attribute is the name the
# caller resolves: dynamics looks up tick and the behaviour kernels in its
# own globals, experiments looks up the builders and the run loops in its
# own, and the CLI and this benchmark call fileio writers as attributes of
# the fileio module.
TARGETS = (
    ("ablum.cli", "cli_entry", "cli", None),
    ("ablum.cli", "load_config", "config.load_config", None),
    ("ablum.cli", "run_replicates", "experiments.run", None),
    ("ablum.cli", "run_single", "experiments.run", None),
    ("ablum.cli", "run_sweep", "experiments.campaign", None),
    ("ablum.experiments", "run_single", "experiments.run", None),
    ("ablum.experiments", "run_sobol", "experiments.campaign", None),
    ("ablum.experiments", "evaluate_design", "experiments.campaign", None),
    ("ablum.experiments", "apply_values", "config.apply_values", None),
    ("ablum.experiments", "map_sample_to_config", "sensitivity.map_sample_to_config", None),
    ("ablum.experiments", "build_state", "experiments.build_state", None),
    ("ablum.experiments", "generate_capitals", "landscape.generate_capitals", None),
    ("ablum.experiments", "init_land_use", "landscape.init_land_use", None),
    ("ablum.experiments", "build_lattice", "network.build_lattice", _lattice_counts),
    ("ablum.experiments", "add_teleconnections", "network.add_teleconnections", _tele_counts),
    ("ablum.experiments", "run_until_stable", "dynamics.loop", _loop_counts),
    ("ablum.experiments", "run_schedule", "dynamics.loop", _loop_counts),
    ("ablum.dynamics", "tick", "dynamics.tick", _tick_counts),
    ("ablum.dynamics", "_influence_score", "behaviour.influence_score", None),
    ("ablum.dynamics", "clip_social", "behaviour.clip_social", None),
    ("ablum.dynamics", "_giving_in", "behaviour.giving_in", _threshold_counts),
    ("ablum.experiments", "share_trajectory_summary", "metrics.share_trajectory_summary", None),
    ("ablum.experiments", "mesh_connectivity", "metrics.mesh_connectivity", None),
    ("ablum.experiments", "saltelli_sample", "sensitivity.saltelli_sample", None),
    ("ablum.experiments", "sobol_indices", "sensitivity.sobol_indices", None),
) + tuple(("ablum.fileio", w, f"fileio.{w}", _bytes_written) for w in _FILEIO_WRITERS)

# Span names whose busy time (".s") is reported. None of them can nest in a
# span of the same name, so their durations add without double counting.
BUSY = (
    "config.load_config",
    "config.apply_values",
    "landscape.generate_capitals",
    "landscape.init_land_use",
    "network.build_lattice",
    "network.add_teleconnections",
    "behaviour.giving_in",
    "behaviour.influence_score",
    "behaviour.clip_social",
    "metrics.mesh_connectivity",
    "metrics.share_trajectory_summary",
    "sensitivity.saltelli_sample",
    "sensitivity.sobol_indices",
    "sensitivity.map_sample_to_config",
) + tuple(f"fileio.{w}" for w in _FILEIO_WRITERS)

# Spans that have wrapped children; their self time (".self_s") is reported.
SELF = ("cli", "experiments.run", "experiments.campaign", "experiments.build_state", "dynamics.loop", "dynamics.tick")

CALLS = ("network.build_lattice", "network.add_teleconnections", "dynamics.tick", "metrics.mesh_connectivity")

# Counter names that must repeat exactly for one commit and seed.
COUNTS = (
    "network.edges",
    "network.tele_edges",
    "dynamics.rows",
    "dynamics.tick.cells_selected",
    "dynamics.tick.cells_changed",
    "behaviour.evaluations",
    "fileio.write.bytes",
)

# Per-layer metrics computed from one traced pass, in report order, with units.
LAYER_METRICS = (
    tuple((f"{n}.s", "s") for n in BUSY)
    + tuple((f"{n}.self_s", "s") for n in SELF)
    + tuple((f"{n}.calls", "count") for n in CALLS)
    + tuple((c, "count") for c in COUNTS)
    + (
        ("dynamics.tick.accept_ratio", "ratio"),
        ("behaviour.calls", "count"),
        ("fileio.write.s", "s"),
        ("fileio.write.calls", "count"),
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.residual_s", "s"),
    )
)


def self_times(durations, parents):
    """Duration of each span minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    own = list(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= durations[i]
    return own


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.counts: dict[int, Counter] = {}
        self._stack = [-1]
        self._run = -1
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.runs.append(self._run)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1

    def _count(self, counts: dict) -> None:
        self.counts.setdefault(self._run, Counter()).update(counts)

    def _wrap(self, fn, name, counter):
        open_, close, clock = self._open, self._close, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, t0, clock())
            if counter is not None:
                self._count(counter(args, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, attr, name, counter in self.targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    @property
    def missing(self) -> list[str]:
        """Targets the package does not define, so they are not wrapped."""
        return [
            f"{m}.{a}" for m, a, _, _ in self.targets if not hasattr(importlib.import_module(m), a)
        ]

    @contextmanager
    def invocation(self, run_id: int):
        """Root span for one benchmark invocation; spans inside carry run_id."""
        self._run = run_id
        idx = self._open(ROOT)
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(idx, t0, self.clock())
            self._run = -1

    def run_counts(self, run_id: int) -> dict[str, int]:
        """Exact counts of one invocation: counters plus calls per span name."""
        counts = dict(self.counts.get(run_id, {}))
        for name, run in zip(self.names, self.runs):
            if run == run_id and name != ROOT:
                key = f"{name}.calls"
                counts[key] = counts.get(key, 0) + 1
        return counts

    def write(self, path: Path) -> None:
        """Write every span as CSV: span index, run, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "run", "name", "start", "end", "parent"])
            for i, row in enumerate(zip(self.runs, self.names, self.starts, self.ends, self.parents)):
                out.writerow([i, *row])

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate every span and counter into the LAYER_METRICS values."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = self_times(durations, self.parents)
        busy, self_s, calls = Counter(), Counter(), Counter()
        for name, d, o in zip(self.names, durations, own):
            busy[name] += d
            self_s[name] += o
            calls[name] += 1
        counts = Counter()
        for c in self.counts.values():
            counts.update(c)

        values: dict[str, float] = {}
        for n in BUSY:
            values[f"{n}.s"] = busy[n]
        for n in SELF:
            values[f"{n}.self_s"] = self_s[n]
        for n in CALLS:
            values[f"{n}.calls"] = calls[n]
        for c in COUNTS:
            values[c] = counts[c]
        selected = counts["dynamics.tick.cells_selected"]
        values["dynamics.tick.accept_ratio"] = (
            counts["dynamics.tick.cells_changed"] / selected if selected else 0.0
        )
        values["behaviour.calls"] = sum(calls[n] for n in calls if n.startswith("behaviour."))
        writers = [f"fileio.{w}" for w in _FILEIO_WRITERS]
        values["fileio.write.s"] = sum(busy[n] for n in writers)
        values["fileio.write.calls"] = sum(calls[n] for n in writers)
        values["trace.spans"] = len(self.names)
        values["trace.wall_s"] = busy[ROOT]
        # Root self time: the part of each invocation no wrapped layer covers.
        values["trace.residual_s"] = self_s[ROOT]
        return values
