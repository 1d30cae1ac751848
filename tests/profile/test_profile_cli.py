"""Smoke tests for ``python -m repro.profile`` — the commands CI runs."""

import json

import pytest

from repro.profile.__main__ import main

# Pin the fast backend: these tests assert replay-accuracy and event-sequence
# properties of the fused plan, which a $REPRO_BACKEND=reference run would
# replace with the staged loop-oracle plan.
TINY = ["--shape", "1", "2", "64", "32", "--warmup", "1", "--backend", "fast"]


class TestTrain:
    def test_train_check_passes(self, capsys):
        assert main(["train", *TINY, "--check"]) == 0
        out = capsys.readouterr().out
        assert "replay self-check OK" in out
        assert "Per-kernel attribution" in out

    def test_train_writes_valid_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "train.trace.json"
        assert main(["train", *TINY, "--trace", str(path), "--check"]) == 0
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert {"kernel", "step"} <= cats
        assert "plan_cache" in payload["metadata"]

    def test_train_what_ifs(self, capsys):
        assert main(
            ["train", *TINY, "--gpusim", "--scale-phase", "bwd=0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "What-if" in out
        assert "Gpusim replay" in out

    def test_bad_scale_pair_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", *TINY, "--scale-phase", "bwd"])


class TestServe:
    def test_serve_check_passes(self, capsys):
        assert main(
            ["serve", "--requests", "6", "--batch-size", "4", "--check"]
        ) == 0
        assert "replay self-check OK" in capsys.readouterr().out


class TestReport:
    def test_report_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "step.trace.json"
        assert main(["train", *TINY, "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "Step 'train_step'" in out
        assert "replay self-check OK" in out

    def test_report_unknown_step_fails(self, tmp_path):
        path = tmp_path / "step.trace.json"
        assert main(["train", *TINY, "--trace", str(path)]) == 0
        with pytest.raises(ValueError, match="recorded steps"):
            main(["report", str(path), "--step", "nope"])


class TestOverhead:
    def test_overhead_runs(self, capsys):
        assert main(["overhead", *TINY, "--repeats", "2"]) == 0
        assert "tracing overhead" in capsys.readouterr().out
