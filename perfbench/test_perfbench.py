"""Self-checks of the benchmark's tracing and guards.

Run from the repository root:  python3 -m pytest perfbench -q   (about 20 s)

A refactor that renames a wrapped function or stops calling it through the
name the benchmark wraps must fail here, not report a layer time of 0 s.
"""

import importlib
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
# One BLAS thread, as the simulation workloads pin it, before numpy loads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, load_reference, simulate, verify  # noqa: E402

# The layer metric that must be nonzero on each workload's traced operation.
DOMINANT = {"cdml_k40": "detectors.cdml_s", "amp_msweep": "detectors.amp_s",
            "verify_full": "analysis.coherence_s", "pool2_amp": "experiments.self_s"}


def traced_operation(name, tmp_path):
    w = WORKLOADS[name]
    tracer = spans.Tracer()
    with tracer.installed():
        if w.is_verify:
            outcome = verify(0, tmp_path / "verify.csv", load_reference(w, 0))
        else:
            outcome = simulate(w, 0, w.workers, load_reference(w, 0))
    return tracer, outcome


def test_every_wrapped_name_exists():
    for module, attr, _ in spans.WRAPS:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr} is gone"


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_operation_records_every_expected_layer(name, tmp_path):
    tracer, outcome = traced_operation(name, tmp_path)
    assert outcome.failed == 0
    calls, self_times = tracer.calls(), tracer.self_times()
    for layer in WORKLOADS[name].layers:
        assert calls[layer] > 0, f"no call into {layer}"
        assert self_times[layer] > 0, f"no time in {layer}"
    assert tracer.metrics()[DOMINANT[name]] > 0
    if name == "pool2_amp":
        assert tracer.metrics()["experiments.pools"] == 3


def test_wrappers_are_removed_after_a_traced_operation():
    originals = [getattr(importlib.import_module(m), a) for m, a, _ in spans.WRAPS]
    with spans.Tracer().installed():
        pass
    assert originals == [getattr(importlib.import_module(m), a) for m, a, _ in spans.WRAPS]


def test_layer_routed_around_fails_loudly(monkeypatch):
    # Unwrapping the detector stands in for a refactor that stops calling it
    # through gfsig.experiments.mmv_amp_estimate.
    monkeypatch.setattr(spans, "WRAPS",
                        tuple(x for x in spans.WRAPS if x[2] != "detectors.amp"))
    w = WORKLOADS["amp_msweep"]
    m = run.Measurement(w, 0, load_reference(w, 0))
    m.op("traced", 1, spans.Tracer())
    with pytest.raises(SystemExit):
        m.per_layer()


def test_refuses_more_threads_than_cpus():
    with pytest.raises(SystemExit):
        run.pin_threads(WORKLOADS["pool2_amp"], nproc=1)
