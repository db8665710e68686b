"""Campaign-throughput benchmark for ablum.

Run from the repository root:

    python3 perfbench/run.py --workload default_run --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` runs a fixed prefix of the same inputs with every layer wrapped
(see tracing.py), each invocation followed by the same one plain, and reports
per-layer metrics and the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

# Only the standard library at import time: numpy must load after main()
# has set BLAS_THREADS, and setup_s times the package import.
import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
DIGESTS = BENCH_DIR / "digests.json"

END_TO_END = (
    ("runs_per_s", "runs/s"),
    ("run_s.p50", "s"),
    ("run_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
TRACE_RUN_METRICS = (
    ("trace.runs", "count"),
    ("trace.plain_wall_s", "s"),
    ("trace.overhead_s", "s"),
)
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 3
RECORDED_SEED = 0
# Invocations whose artefact digests are stored for the recorded seed: about
# twice what a 30-second run reaches on a 2-core x86-64 machine.
RECORD_COUNTS = {"default_run": 600, "network_maps": 8, "sobol_screen": 12}
NOT_MEASURED = (
    "the ProcessPoolExecutor path (threads > 1) is deliberately unmeasured: "
    "wall-clock scaling on 2 shared cores is not steady"
)
# Serial means one BLAS thread too: OpenBLAS splits the 10,201-element supply
# dot products over both cores, which on 2 shared cores costs more than it
# saves and makes the timings unsteady.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse(argv):
    p = argparse.ArgumentParser(description="ablum campaign-throughput benchmark")
    p.add_argument("--workload", default="default_run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument(
        "--record-digests",
        action="store_true",
        help=f"rewrite digests.json from seed {RECORDED_SEED} and exit",
    )
    return p.parse_args(argv)


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _environment():
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


def _provenance(args, digest_note):
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "ablum").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **_environment(),
        "threads": 1,
        "ABLUM_THREADS": "unset",
        "blas_threads": BLAS_THREADS,
        "digest_check": digest_note,
        "not_measured": NOT_MEASURED,
    }


def _expected_digests(workload, seed):
    """Recorded digests for this workload, or None with the reason."""
    if seed != RECORDED_SEED:
        return None, f"invariants only: digests are recorded for seed {RECORDED_SEED}"
    recorded = json.loads(DIGESTS.read_text())
    if recorded["environment"] != _environment():
        return None, f"invariants only: digests were recorded under {recorded['environment']}"
    expected = recorded["workloads"][workload]
    return expected, f"byte digests for the first {len(expected)} invocations, invariants for all"


class Runner:
    """Runs invocations of one workload and tallies runs and failures."""

    def __init__(self, workload, out_root, expected=None):
        self.workload = workload
        self.out_root = out_root
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run(self, index, context=None):
        """One invocation: (seconds, digest or None). Failures are counted
        and reported on stderr, never raised."""
        wl = self.workload
        out = self.out_root / f"inv{index}"
        problems, digest = [], None
        t0 = time.perf_counter()
        try:
            with context or nullcontext():
                extra = wl.invoke(index, out)
        except Exception:
            problems.append(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if not problems:
            try:
                problems = wl.check(index, out, extra)
                digest = wl.digest(out, extra)
            except Exception:
                problems.append(traceback.format_exc())
        if self.expected is not None and index < len(self.expected) and digest != self.expected[index]:
            problems.append(f"artefact digest {digest} differs from the recorded one")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += wl.runs_per_invocation
        if problems:
            self.failed += wl.runs_per_invocation
            print(f"invocation {index} failed:\n" + "\n".join(problems), file=sys.stderr)
        return seconds, digest


def _setup_probe(args) -> int:
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    out = WORK / f"probe-{os.getpid()}"
    try:
        wl.warm_up(out)
        seconds = time.perf_counter() - t0
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"setup_s": seconds}))
    return 0


def _setup_samples(args):
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
        cmd += ["--workload", args.workload, "--seed", str(args.seed)]
        probe = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if probe.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{probe.stderr}")
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return samples


def _plain(runner, args):
    setup = _setup_samples(args)
    durations = []
    start = time.perf_counter()
    # Start another invocation only if it should end less than half an
    # invocation past the deadline, so a run lasts about --seconds.
    while not durations or time.perf_counter() - start + durations[-1] / 2 < args.seconds:
        seconds, _ = runner.run(len(durations))
        durations.append(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_value, tail_pct = tail(durations)
    metrics = {
        "runs_per_s": runner.attempted / sum(durations),
        "run_s.p50": statistics.median(durations),
        "run_s.tail": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "run_s": f"per invocation ({runner.workload.runs_per_invocation} runs each), "
        f"{len(durations)} invocations; tail is p{tail_pct:.1f}",
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters: {setup}",
    }
    return metrics, notes, True


def _traced(runner, args):
    import tracing

    wl = runner.workload
    n = max(1, round(args.seconds / (3 * wl.nominal_s)))
    tracer = tracing.Tracer()
    traced, plain = [], []
    # Each traced invocation is followed by the same invocation plain, so
    # drift in the machine's speed falls on both sides of the overhead.
    for i in range(n):
        with tracer.installed():
            traced.append(runner.run(i, tracer.invocation(i))[1])
        plain.append(runner.run(i)[0])
    repeat = tracing.Tracer()
    with repeat.installed():
        _, repeat_digest = runner.run(0, repeat.invocation(0))

    counts_repeat = repeat.run_counts(0) == tracer.run_counts(0)
    bytes_repeat = repeat_digest is not None and repeat_digest == traced[0]
    metrics = tracer.layer_metrics()
    wall = metrics["trace.wall_s"]
    metrics.update(
        {
            "trace.runs": n * wl.runs_per_invocation,
            "trace.plain_wall_s": sum(plain),
            "trace.overhead_s": wall - sum(plain),
        }
    )
    layers = sum(metrics[f"{name}.s"] for name in tracing.BUSY) + sum(
        metrics[f"{name}.self_s"] for name in tracing.SELF
    )
    tracer.write(WORK / f"spans-{wl.name}-s{args.seed}.csv")
    notes = {
        "invocations": f"{n} traced, each followed by the same plain; invocation 0 traced again",
        "accounting": f"layer self times {layers:.6f} s + residual {metrics['trace.residual_s']:.6f} s "
        f"= traced wall {wall:.6f} s (rounding {wall - layers - metrics['trace.residual_s']:.1e} s)",
        "counts_repeat": "exact" if counts_repeat else f"differ: {tracer.run_counts(0)} vs {repeat.run_counts(0)}",
        "bytes_repeat": "identical" if bytes_repeat else "differ",
        "not_wrapped": tracer.missing or "none",
    }
    return metrics, notes, counts_repeat and bytes_repeat


def _record_digests() -> int:
    import workloads

    recorded = {"seed": RECORDED_SEED, "environment": _environment(), "workloads": {}}
    for name, count in RECORD_COUNTS.items():
        out_root = WORK / f"record-{name}"
        runner = Runner(workloads.WORKLOADS[name](ROOT, RECORDED_SEED), out_root)
        digests = [runner.run(i)[1] for i in range(count)]
        shutil.rmtree(out_root, ignore_errors=True)
        if runner.failed:
            print(f"{name}: {runner.failed} runs failed; digests not written", file=sys.stderr)
            return 1
        recorded["workloads"][name] = digests
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ablum" / "__init__.py").is_file():
        print(f"error: the ablum sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ABLUM_THREADS", None)
    os.environ.update(BLAS_THREADS)
    if args.setup_probe:
        return _setup_probe(args)
    if args.record_digests:
        return _record_digests()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    expected, digest_note = _expected_digests(args.workload, args.seed)
    out_root = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        wl.warm_up(out_root / "warm-up")
        runner = Runner(wl, out_root, expected)
        if args.trace:
            import tracing

            metrics, notes, repeat_ok = _traced(runner, args)
            units = dict(tracing.LAYER_METRICS + TRACE_RUN_METRICS)
        else:
            metrics, notes, repeat_ok = _plain(runner, args)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    provenance = _provenance(args, digest_note)
    report = {
        "provenance": provenance,
        "notes": notes,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    print("provenance " + json.dumps(provenance))
    for key, note in notes.items():
        print(f"{key}: {note}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(f"runs_failed {runner.failed} count (of {runner.attempted} runs attempted)")
    result = {
        "correct": runner.failed == 0 and repeat_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
