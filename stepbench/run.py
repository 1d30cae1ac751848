"""Whole-step benchmark of the DFSS stack.

    python3 stepbench/run.py --workload finetune --seed 1 --seconds 20 --trace 0

One run measures one workload.  It spawns fresh worker processes one after
another (``worker.py``), each of which imports the program, runs one set-up
operation, then a fixed number of measured operations, until the workers'
measured windows add up to ``--seconds``.  Every worker is a whole, identical
unit, so no run is cut mid-way through a collector or allocator cycle, and
pooling several processes damps the speed swing between processes on a
shared host.  The first worker also checks its outputs against an independent
path of the program, after its measured window.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workers with layer spans and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run refuses to start when an environment
variable would change the program's defaults.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("finetune", "encode-long", "serve-mixed")
#: Settings that would make the run measure something other than the defaults.
REFUSED = ("REPRO_BACKEND", "REPRO_PIPELINE", "REPRO_SANITIZE", "REPRO_TRACE")
REFUSED_PREFIX = "REPRO_MULTICORE_"
#: Workers per run: at least three set-ups feed the set-up time median.
MIN_WORKERS = {"full": 3, "tiny": 1}
MAX_WORKERS = {"full": 12, "tiny": 2}
WORKER_TIMEOUT_S = 120.0
#: No new worker starts after this much wall time, so a run ends within 180 s.
SPAWN_BUDGET_S = 100.0
CORE_KERNELS = ("sddmm_nm", "masked_softmax", "spmm", "attention_bwd")
NN_LAYERS = (
    "nn.embedding", "nn.attn.proj", "nn.attn.core", "nn.ffn", "nn.layernorm",
    "nn.residual", "nn.head_loss", "nn.autograd.bwd", "nn.optim.step", "nn.optim.clip",
)


def refused_settings(environ=os.environ) -> List[str]:
    return sorted(k for k in environ if k in REFUSED or k.startswith(REFUSED_PREFIX))


def _blas() -> Dict[str, object]:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the structured config
        info = {}
    threads = "unknown"
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "numpy": np.__version__,
        "blas": info.get("name", "unknown"),
        "blas_version": info.get("version", "unknown"),
        "blas_threads": threads,
    }


def environment_stamp() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **_blas(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "worker_PYTHONHASHSEED": "worker index + 1",
    }


def run_worker(spec: Dict) -> Dict:
    """Spawn one worker, wait for it, return its result with its set-up time.

    String hashing orders some of the program's sets and dicts.  Worker
    ``i`` runs under the fixed hash seed ``i + 1``, so every run samples the
    same hash seeds and whatever depends on them lands inside a run, not
    between runs.
    """
    env = dict(os.environ, PYTHONHASHSEED=str(spec["index"] + 1))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {spec['index']} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_op_done"] - spawned
    result["index"] = spec["index"]
    return result


def tail(latencies: List[float]):
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workers: List[Dict]) -> Dict[str, tuple]:
    """Per-worker figures, then the median over workers.

    A burst of load from other tenants that slows one or two workers moves
    a pooled figure but not the median of the workers' own figures.
    """
    rows = []
    for w in workers:
        tail_ms, pct, n = tail(w["latencies_ms"])
        rows.append((w["work"] / w["busy_s"], statistics.median(w["latencies_ms"]), tail_ms))
        print(f"worker {w['index']}: setup {w['setup_s']:.3f} s, {n} ops, "
              f"throughput {rows[-1][0]:.2f}/s, p50 {rows[-1][1]:.2f} ms, "
              f"p{pct:.1f} {tail_ms:.2f} ms, peak RSS {w['peak_rss_mb']:.0f} MB")
    ops = sum(w["attempted"] for w in workers)
    return {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
        "throughput_per_s": (statistics.median(r[0] for r in rows), "1/s"),
        "latency_p50_ms": (statistics.median(r[1] for r in rows), "ms"),
        "latency_tail_ms": (statistics.median(r[2] for r in rows), "ms"),
        "goodput_frac": (sum(w["good"] for w in workers) / ops, "frac"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(workers: List[Dict]) -> Dict[str, tuple]:
    traces = [w["trace"] for w in workers]
    ops = sum(t["ops"] for t in traces)

    def total(field: str, name: str) -> float:
        return sum(t["attribution"][field].get(name, 0.0) for t in traces)

    metrics: Dict[str, tuple] = {}
    for name in NN_LAYERS:
        metrics[f"{name}_ms"] = (total("layer_ms", name) / ops, "ms")
    kernel_ms = sum(sum(t["attribution"]["kernel_ms"].values()) for t in traces)
    for k in CORE_KERNELS:
        self_ms = total("kernel_ms", k)
        metrics[f"core.kernel.{k}.self_ms"] = (self_ms / ops, "ms")
        metrics[f"core.kernel.{k}.calls"] = (total("kernel_calls", k) / ops, "count")
        metrics[f"core.kernel.{k}.gflop_per_s"] = (
            _ratio(total("kernel_flops", k) / 1e9, self_ms / 1e3), "GFLOP/s"
        )
    op_ms = sum(t["attribution"]["op_ms"] for t in traces)
    hits = sum(t["plan_hits"] for t in traces)
    misses = sum(t["plan_misses"] for t in traces)
    metrics["core.kernel_share"] = (_ratio(kernel_ms, op_ms), "frac")
    metrics["core.plan_cache.hit_ratio"] = (_ratio(hits, hits + misses), "frac")
    metrics["core.attn.speedup_vs_full"] = (
        statistics.median(t["speedup_vs_full"] for t in traces), "x"
    )

    serve = [t["serve"] for t in traces if "serve" in t]
    cat = lambda key: [x for s in serve for x in s[key]]  # noqa: E731
    enqueue = lambda kind: [x for s in serve for x in s["enqueue_ms"][kind]]  # noqa: E731
    hits = sum(s["cache_hits"] for s in serve)
    lookups = hits + sum(s["cache_misses"] for s in serve)
    metrics.update({
        "engine.attention_mask_ms": (_mean(cat("mask_ms")), "ms"),
        "serve.enqueue_ms.dynamic": (_mean(enqueue("dynamic")), "ms"),
        "serve.enqueue_ms.static": (_mean(enqueue("static")), "ms"),
        "serve.batch_exec_ms": (_mean(cat("batch_exec_ms")), "ms"),
        "serve.batch_size_mean": (
            _ratio(sum(s["requests"] for s in serve), sum(s["batches"] for s in serve)),
            "count",
        ),
        "serve.queue_wait_ms": (_mean(cat("queue_wait_ms")), "ms"),
        "serve.structure_cache.hit_ratio": (_ratio(hits, lookups), "frac"),
        "serve.busy_frac": (
            _ratio(sum(s["busy_s"] for s in serve), sum(s["wall_s"] for s in serve)), "frac"
        ),
        "serve.generator_lag_ms": (_mean([s["lag_ms"] for s in serve]), "ms"),
        "serve.requests_sent": (sum(s["sent"] for s in serve), "count"),
        "serve.requests_succeeded": (sum(s["succeeded"] for s in serve), "count"),
        "serve.requests_failed": (sum(s["failed"] for s in serve), "count"),
    })

    metrics.update({
        "gc.pause_ms": (sum(t["gc_pause_ms"] for t in traces) / ops, "ms"),
        "gc.gen2_collections": (_mean([t["gc_gen2"] for t in traces]), "count"),
        "mem.minor_faults_per_op": (sum(t["minor_faults"] for t in traces) / ops, "count"),
        "setup.import_s": (statistics.median(w["import_s"] for w in workers), "s"),
        "unattributed_ms": (
            sum(t["attribution"]["unattributed_ms"] for t in traces) / ops, "ms"
        ),
        "tracing_overhead_frac": (statistics.median(t["overhead"] for t in traces), "frac"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-tests")
    parser.add_argument("--corrupt-output", choices=("shift", "nan"),
                        help="shift one checked value by 1 or make it NaN "
                             "(self-test of the checks)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    refused = refused_settings()
    if refused:
        print(f"refusing to run: {', '.join(refused)} set; the benchmark measures "
              f"the program's defaults", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)  # set-up time never includes compiling
    print("environment " + json.dumps(environment_stamp()), flush=True)

    started = time.monotonic()
    workers: List[Dict] = []
    measured = 0.0
    while len(workers) < MAX_WORKERS[args.scale] and (
        len(workers) < MIN_WORKERS[args.scale]
        or (measured < args.seconds and time.monotonic() - started < SPAWN_BUDGET_S)
    ):
        spec = {
            "workload": args.workload, "scale": args.scale, "seed": args.seed,
            "index": len(workers), "trace": bool(args.trace),
            "check": not workers, "corrupt": args.corrupt_output,
        }
        try:
            result = run_worker(spec)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        workers.append(result)
        measured += result["window_s"]

    checks = [c for w in workers for c in w["checks"]]
    for name, problem in checks:
        if problem:
            print(f"check failed: {name}: {problem}", file=sys.stderr)
    failed = sum(w["failed"] for w in workers) + sum(bool(p) for _, p in checks)
    attempted = sum(w["attempted"] for w in workers) + len(checks)
    print(f"{len(workers)} workers, {measured:.1f} s measured, "
          f"{len(checks)} checks, {failed} failed of {attempted}")
    if args.trace:
        metrics = per_layer(workers)
    else:
        metrics = end_to_end(workers)
    print(json.dumps({
        "correct": bool(checks) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
