"""Tests of the benchmark itself, on its tiny scale.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("qp.pair_updates", "qp.solves", "matnorm.flipflop_sweeps",
         "smm.winning_sweeps", "matnorm.loglik_final")


def bench(workload, trace, cwd=ROOT, seed=3):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return done


def parsed(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counters_repeat_exactly(workload):
    runs = [parsed(workload, 1) for _ in range(2)]
    for details, result in runs:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    (d1, r1), (d2, r2) = runs
    for name in EXACT:
        assert r1["metrics"][name]["value"] == r2["metrics"][name]["value"], name
    assert d1["end_to_end"]["est_err"] == d2["end_to_end"]["est_err"]
    qp_updates = r1["metrics"]["qp.pair_updates"]["value"]
    if workload == "cov-reduce":
        assert qp_updates == 0 and r1["metrics"]["matnorm.flipflop_sweeps"]["value"] > 0
        assert r1["metrics"]["fileio.read_mds1_s"]["value"] > 0
    else:
        assert qp_updates > 0 and r1["metrics"]["qp.solves"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    details, result = parsed("cov-reduce", 0)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["environment"]["blas_threads"] == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("sim-grid", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_missing_wrapped_attribute_fails_loudly():
    tracer = tracing.Tracer()
    module = types.SimpleNamespace(__name__="fake", present=lambda: 1)
    tracer.wrap(module, "present", "fake.present")
    with pytest.raises(tracing.TraceError, match="missing"):
        tracer.wrap(module, "absent", "fake.absent")
    tracer.restore()
    assert module.present() == 1 and tracer.calls["fake.present"] == 0


def test_predicted_call_never_made_fails_loudly():
    tracer = tracing.Tracer()
    module = types.SimpleNamespace(__name__="fake", f=lambda: 1)
    tracer.wrap(module, "f", "fake.f")
    module.f()
    tracing.require_calls(tracer, "w", ["fake.f"])
    with pytest.raises(tracing.TraceError, match="never did"):
        tracing.require_calls(tracer, "w", ["fake.f", "fake.g"])
    tracer.restore()
