"""Self-tests of the benchmark at a tiny scale.

    python3 -m pytest stepbench/selftest.py -q

Every workload runs traced and untraced; the emitted metric names and units
must equal BENCHMARK.json's, and a deliberately corrupted output must make a
run report itself incorrect.  The file is named so that the repository's own
test run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from attribution import LAYER, ROOT as STEP, Attribution, kernel_flops  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _clean_env():
    return {k: v for k, v in os.environ.items() if not run.refused_settings({k: v})}


def _run(workload, trace, *extra, cwd=ROOT, env=None):
    script = Path(cwd) / "stepbench" / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, env=env or _clean_env(), capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_the_declared_metrics(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("how", ["shift", "nan"])
def test_corrupted_output_is_reported_incorrect(workload, how):
    result = _result(_run(workload, 0, "--corrupt-output", how))
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_row_check_fails_on_nan_inf_and_wide_errors():
    want = np.ones((400, 8), dtype=np.float32)
    assert workloads._row_check(want.copy(), want, "x") is None
    flipped = want.copy()
    flipped[0] += 0.5  # one row in 400 may differ: a near-tie flip
    assert workloads._row_check(flipped, want, "x") is None
    for bad in (np.nan, np.inf):
        got = want.copy()
        got[3, 2] = bad
        assert workloads._row_check(got, want, "x") is not None
    assert workloads._row_check(np.full_like(want, np.nan), want, "x") is not None
    assert workloads._row_check(want + 0.5, want, "x") is not None
    nan_ref = want.copy()
    nan_ref[:10] = np.nan
    assert workloads._row_check(want.copy(), nan_ref, "x") is not None


def test_grad_check_fails_on_nan_inf_and_wide_errors():
    want = {"loss": np.array(0.69), "grad:0": np.full(6, 0.5), "grad:1": np.zeros(3)}
    same = {k: v.copy() for k, v in want.items()}
    assert workloads._grad_check(same, want) is None
    # zero-in-exact-arithmetic gradients get a floor of 1% of the largest
    noisy = dict(same, **{"grad:1": np.full(3, 1e-5)})
    assert workloads._grad_check(noisy, want) is None
    for name in want:
        for bad in (np.nan, np.inf, 1.0):
            got = {k: v.copy() for k, v in want.items()}
            got[name].flat[0] += bad
            assert workloads._grad_check(got, want) is not None, (name, bad)


def test_serve_layer_figures_cover_the_window_only(monkeypatch):
    from repro.engine import AttentionEngine

    # instrument() patches these; monkeypatch restores them afterwards
    monkeypatch.setattr(workloads.serve_engine, "run_ragged_batch",
                        workloads.serve_engine.run_ragged_batch)
    monkeypatch.setattr(AttentionEngine, "attention_mask", AttentionEngine.attention_mask)
    cfg = workloads.SCALES["tiny"]["serve-mixed"]
    serve = workloads.ServeMixed(cfg, seed=3, worker=0)
    serve.setup_op()
    serve.instrument()
    stats = serve.run(trace=True)["trace"]["serve"]
    recorded = (len(stats["batch_exec_ms"]), len(stats["mask_ms"]))
    assert recorded[0] == stats["batches"] >= 1
    dynamic = sum(serve._dynamic(r) for r in serve.requests)
    assert dynamic >= 1 and recorded[1] >= dynamic
    assert all(problem is None for _, problem in serve.check(None))
    assert (len(stats["batch_exec_ms"]), len(stats["mask_ms"])) == recorded


def test_refuses_settings_that_change_program_defaults():
    for name in ("REPRO_BACKEND", "REPRO_MULTICORE_WORKERS"):
        proc = _run("finetune", 0, env={**_clean_env(), name: "1"})
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "stepbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("finetune", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(x > value for x in range(100)) == 10


def _span(name, cat, ts, dur, **args):
    return {"ph": "X", "name": name, "cat": cat, "ts": ts, "dur": dur, "tid": 0, "args": args}


def test_self_time_subtracts_direct_children():
    events = [
        _span("op", STEP, 0.0, 1000.0),
        _span("nn.attn.core", LAYER, 100.0, 500.0),
        _span("nn.attn.proj", LAYER, 120.0, 80.0),
        _span("sddmm_nm", "kernel", 300.0, 200.0,
              shape="1x2x8x4", shape_class="8x8x4"),
        _span("nn.ffn", LAYER, 700.0, 100.0),
        {"ph": "i", "name": "plan_cache_hit", "cat": "cache", "ts": 5.0, "tid": 0},
    ]
    att = Attribution()
    att.add_events(events)
    assert att.op_ms == 1.0
    assert att.layer_ms["nn.attn.core"] == pytest.approx(0.22)
    assert att.layer_ms["nn.attn.proj"] == pytest.approx(0.08)
    assert att.layer_ms["nn.ffn"] == pytest.approx(0.1)
    assert att.kernel_ms["sddmm_nm"] == pytest.approx(0.2)
    assert att.unattributed_ms == pytest.approx(0.4)
    assert att.kernel_flops["sddmm_nm"] == 2.0 * 2 * 8 * 8 * 4


def test_flops_come_from_shapes():
    args = {"shape": "2x4x16x8", "shape_class": "16x16x8"}
    assert kernel_flops("spmm", args) == 2.0 * 8 * 16 * 8 * 8
    assert kernel_flops("attention_bwd", args) == 4 * kernel_flops("spmm", args)
    assert kernel_flops("masked_softmax", {"shape": "2x4x16x8"}) == 0.0
