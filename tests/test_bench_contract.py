"""The benchmark's tracer still finds every call site it hooks.

perfbench/tracer.py wraps library functions by module attribute.  A renamed or
deleted name makes its layer "absent" and the traced benchmark run reports
fewer per-layer metrics than BENCHMARK.json declares, so the names it hooks
are checked here, against the tracer as it stands.
"""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_classify_reports_every_per_layer_metric():
    tracer = load_tracer()
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, TRACER, "--op", "0", "classify", "--level", "-1/2", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        check=True,
    )
    line = [l for l in proc.stdout.splitlines() if l.startswith(tracer.TRACE_PREFIX)][-1]
    record = json.loads(line[len(tracer.TRACE_PREFIX) :])
    assert record["absent"] == []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]} - {"tracing.overhead_s"}
    metrics, absent = tracer.layer_metrics([record])
    assert absent == []
    assert declared <= set(metrics), sorted(declared - set(metrics))
