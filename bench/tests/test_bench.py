"""Self-tests of the benchmark: ``python -m pytest bench/tests``."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from bench import ROOT, load_spec
from bench.metrics import END_TO_END, PER_LAYER
from bench.stats import tail_percentile, verdict
from bench.tracing import LAYERS, LayerTracer


def _originals():
    tracer = LayerTracer()
    return [
        (owner, attr, original)
        for layer in LAYERS
        for target in layer.targets
        for owner, attr, original in tracer._targets(target)
    ]


def _assert_restored(originals):
    for owner, attr, original in originals:
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original, f"{owner!r}.{attr} left wrapped"


def test_smoke_run_of_every_workload(tmp_path):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60
    names = [name for name, _ in END_TO_END]
    for workload in load_spec()["workloads"]:
        detail = json.loads(
            (tmp_path / f"{workload['name']}.json").read_text())
        assert detail["correct"] and detail["failed"] == 0
        assert detail["comparable"] is False
        assert list(detail["metrics"]) == names


def test_traced_run_reports_every_layer_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-grid",
         "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [name for name, _ in PER_LAYER]
    assert line["metrics"]["engine.calls"]["value"] == 12
    trace = json.loads((tmp_path / "trace-paper-grid.json").read_text())
    assert {span["name"] for span in trace["spans"]} >= {
        "run", "build", "finish"}


def test_wrappers_are_restored_after_a_traced_run():
    from repro import RunSpec, run_one

    originals = _originals()
    tracer = LayerTracer()
    with tracer.active():
        with tracer.op(0, "run"):
            run_one(RunSpec(service="H1", profile_id=3, duration_s=20.0,
                            engine="event"))
    _assert_restored(originals)
    totals = tracer.totals()
    assert totals["engine"][0] == 1 and totals["player.advance"][0] > 0


def test_wrappers_are_restored_when_the_workload_raises():
    from repro import RunSpec, run_one

    originals = _originals()
    tracer = LayerTracer()
    with pytest.raises(ValueError):
        with tracer.active():
            with tracer.op(0, "run"):
                run_one(RunSpec(service="H1", profile_id=99,
                                engine="event"))
    _assert_restored(originals)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1, 101)))[::2] == (90.0, 100)
    assert tail_percentile(list(range(1, 1001)))[0] == 99.0
    assert tail_percentile(list(range(40)))[0] == 75.0
    assert tail_percentile(list(range(15))) == (None, None, 15)


def test_verdict_against_bound():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, base, better="lower", bound=0.1) == "within bound"
    slower = [v * 1.2 for v in base]
    assert verdict(base, slower, better="lower", bound=0.1) == "worse"
    assert verdict(base, slower, better="higher", bound=0.1) == (
        "within bound")
    noisy = [50.0, 100.0, 150.0, 100.0, 60.0]
    assert verdict(base, noisy, better="lower", bound=0.1) == "unresolved"


def test_metric_names_match_benchmark_json():
    spec = load_spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER)
