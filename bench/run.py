#!/usr/bin/env python3
"""Measure one workload in this process and print one JSON result line.

    python3 bench/run.py --workload paper-grid --seed 0 --seconds 20 --trace 0

Order of a run: set up (``SETUP_REPEATS`` times; ``setup_s`` is the
median), repeat the workload's operation set for ``--seconds`` (at
least ``MIN_REPETITIONS`` times; each operation's time is the median of
its repetitions), then, untimed, check every outcome: repetitions must agree
and the workload's oracle checks must pass.  With ``--trace 1`` the set
is replayed once more with every layer wrapped (``bench/tracing.py``);
the traced outcomes must equal the untraced ones, and the result
reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``; progress goes to standard error.  The full
result (host stamp, sample counts, per-operation times, record digest)
is written to ``<out>/<workload>.json`` and, traced, the spans and the
per-(layer, parent) table to ``<out>/trace-<workload>.json``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import OUT, ROOT, use_source_tree  # noqa: E402
from bench.stats import host_speed, normalised  # noqa: E402

MIN_REPETITIONS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; the result is not comparable")
    parser.add_argument("--out", default=None,
                        help="directory for the result files "
                             "(default: bench/out/latest)")
    return parser.parse_args(argv)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def host_stamp() -> dict:
    from repro.core import code_fingerprint

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # allocate() then runs the scalar water-fill
        numpy_version = None
    affinity = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": affinity,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "code_fingerprint": code_fingerprint(),
    }


def run_op(op, op_id, tracer=None):
    from bench.workloads import OpResult

    before = host_speed()
    start = perf_counter()
    try:
        if tracer is None:
            wall, sim, outcome, setup = op.call()
        else:
            with tracer.op(op_id, op.label):
                wall, sim, outcome, setup = op.call()
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        return OpResult(op, op_id, perf_counter() - start, 0.0, None,
                        failed=op.attempted, error=error.splitlines()[-1],
                        speed_s=(before, before))
    return OpResult(op, op_id, wall, sim, outcome, setup_s=setup,
                    speed_s=(before, host_speed()))


@dataclass
class Measurement:
    """The first repetition's results (outcomes kept for the checks),
    every repetition's wall time, host-speed samples and reported time
    per operation, and failure counts."""

    first: list = field(default_factory=list)
    walls: list[list[float]] = field(default_factory=list)
    speeds: list[list[float]] = field(default_factory=list)
    reported: list[list[float]] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0

    def add(self, workload, results) -> None:
        if not self.first:
            self.first = results
            self.walls = [[] for _ in results]
            self.speeds = [[] for _ in results]
            self.reported = [[] for _ in results]
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            for base, result in zip(self.first, results):
                self.failed += _disagreements(workload, base, result)
        for index, result in enumerate(results):
            self.attempted += result.op.attempted
            self.failed += result.failed
            self.walls[index].append(result.wall_s)
            self.speeds[index].append(result.speed_s)
            self.reported[index].append(result.time_s)
            if result.setup_s is not None:
                self.setups.append(normalised(result.setup_s,
                                              *result.speed_s))

    @property
    def times(self) -> list[float]:
        """Per operation, the median of its repetitions' times."""
        return [statistics.median(times) for times in self.reported]


def _disagreements(workload, base, result) -> int:
    """Results of ``result`` that differ from the same operation's
    ``base`` run (failed runs are counted where they happen)."""
    if base.outcome is None or result.outcome is None:
        return 0
    return workload.mismatches(base.outcome, result.outcome)


def measure(workload, seconds: float) -> Measurement:
    """The closed loop: repeat the set until ``seconds`` have passed.

    Peak RSS is read after the first repetition, a fixed amount of
    work, so more repetitions on a faster build do not move it.
    """
    measurement = Measurement()
    start = perf_counter()
    repetitions = 0
    while (repetitions < MIN_REPETITIONS
           or perf_counter() - start < seconds):
        measurement.add(workload, [
            run_op(op, index) for index, op in enumerate(workload.ops())
        ])
        repetitions += 1
    return measurement


def record_digest(workload, results) -> str:
    from bench.workloads import record_tuples

    digest = hashlib.sha256()
    for result in results:
        if result.outcome is not None:
            digest.update(repr(record_tuples(workload, result.outcome))
                          .encode("utf-8"))
    return digest.hexdigest()


def traced_pass(workload, measurement):
    """Replay the set once with every layer wrapped."""
    from repro.media import asset_cache
    from repro.obs.metrics import process_registry

    from bench import metrics
    from bench.tracing import LayerTracer, calibrate_wrapper_ns

    wrapper_ns = calibrate_wrapper_ns()
    registry = process_registry()
    cache = asset_cache()
    before = {name: registry.counter(counter).value
              for name, counter in metrics.REGISTRY_COUNTERS.items()}
    encodes = (cache.misses, cache.hits)
    ops = workload.ops()
    tracer = LayerTracer()
    with tracer.active():
        traced = [run_op(op, index, tracer) for index, op in enumerate(ops)]
    counts = workload.layer_counts(traced)
    for name, counter in metrics.REGISTRY_COUNTERS.items():
        counts[name] = registry.counter(counter).value - before[name]
    counts["media.encode.misses"] = cache.misses - encodes[0]
    counts["media.encode.hits"] = cache.hits - encodes[1]
    in_process = [(replay.time_s, time)
                  for replay, time in zip(traced, measurement.times)
                  if not replay.op.fans_out]
    values = metrics.per_layer(
        tracer,
        counts,
        overhead=sum(t for t, _ in in_process)
        / sum(t for _, t in in_process) - 1.0,
        wrapper_ns=wrapper_ns,
    )
    trace = tracer.to_json()
    trace["calibration_wrapper_ns"] = wrapper_ns
    return traced, values, trace


def main(argv=None) -> int:
    args = parse_args(argv)
    use_source_tree()
    # SIGTERM unwinds through the finally below, which stops the pool
    # and the worker daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    from bench import metrics
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else OUT / "latest"
    scratch = OUT / f"scratch-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "repro-cache")
    host = host_stamp()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, scratch)
    trace = None
    try:
        setups = workload.setup_samples()
        measurement = measure(workload, args.seconds)
        setups += measurement.setups
        e2e, samples = metrics.end_to_end(measurement, setups)
        if args.trace:
            traced, layer_values, trace = traced_pass(workload, measurement)
            for base, replay in zip(measurement.first, traced):
                measurement.attempted += replay.op.attempted
                measurement.failed += replay.failed + _disagreements(
                    workload, base, replay)
        measurement.failed += workload.check(measurement.first)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    host["loadavg_end"] = list(os.getloadavg())

    failed = min(measurement.failed, measurement.attempted)
    names = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = layer_values if args.trace else e2e
    reported = {name: {"value": values[name], "unit": unit}
                for name, unit in names}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "comparable": not args.smoke,
        "host": host,
        "correct": failed == 0,
        "attempted": measurement.attempted,
        "failed": failed,
        "metrics": reported,
        "end_to_end": {name: {"value": e2e[name], "unit": unit,
                              "n": samples[name]}
                       for name, unit in metrics.END_TO_END},
        "repetitions": len(measurement.walls[0]),
        "setup_samples_s": setups,
        "record_digest": record_digest(workload, measurement.first),
        "ops": [
            {"op": r.op_id, "label": r.op.label, "sim_s": r.sim_s,
             "fans_out": r.op.fans_out, "times_s": times,
             "walls_s": walls, "speeds_s": speeds, "error": r.error}
            for r, times, walls, speeds in zip(
                measurement.first, measurement.reported, measurement.walls,
                measurement.speeds)
        ],
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if trace is not None:
        trace.update(workload=args.workload, seed=args.seed,
                     metrics=reported)
        (out / f"trace-{args.workload}.json").write_text(
            json.dumps(trace, indent=1) + "\n", encoding="utf-8")

    for name, unit in metrics.END_TO_END:
        print(f"{args.workload:13s} {name:12s} {e2e[name]:12.4f} {unit:5s}"
              f" n={samples[name]}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0,
                      "attempted": measurement.attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
