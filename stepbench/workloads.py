"""The three benchmark workloads, as run inside one worker process.

Each workload builds its model or server and its inputs from the seed, runs
one set-up operation, then a measured window of a fixed number of
operations, and finally checks a sample of its outputs against an
independent path of the program.  See README.md for why each exists.

* ``finetune``    closed loop of ``SequenceClassifier`` train steps;
* ``encode-long`` closed loop of eval-mode ``TransformerEncoder`` forwards;
* ``serve-mixed`` open loop of Poisson arrivals into one ``AttentionServer``.
"""

from __future__ import annotations

import gc
import resource
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.core.backend import use_backend
from repro.core.plan import plan_cache_stats
from repro.engine import AttentionEngine
from repro.nn import Adam, SequenceClassifier, Tensor, TransformerEncoder, clip_grad_norm
from repro.nn import functional as F
from repro.profile import start_trace, stop_trace
from repro.registry import make_core
from repro.serve import AttentionServer, ServeRequest
from repro.serve import engine as serve_engine

from attribution import Attribution, layer, op_span, timed, wrap

#: Shapes and op counts per scale.  ``tiny`` exists for the self-tests only.
SCALES: Dict[str, Dict[str, Dict]] = {
    "full": {
        "finetune": dict(
            batch=2, seq=256, dim=128, heads=2, layers=2, ffn=512,
            mechanism="dfss_2:4", ops=50, warmup=2, limit_ms=1500.0,
        ),
        "encode-long": dict(
            batch=1, seq=1024, dim=128, heads=2, layers=1, ffn=512,
            mechanism="dfss_1:2", ops=60, warmup=2, limit_ms=1500.0,
        ),
        "serve-mixed": dict(
            heads=4, head_dim=64, lengths=(64, 128, 256), rate_rps=25.0,
            ops=125, limit_ms=250.0,
        ),
    },
    "tiny": {
        "finetune": dict(
            batch=1, seq=32, dim=32, heads=2, layers=1, ffn=64,
            mechanism="dfss_2:4", ops=4, warmup=1, limit_ms=1500.0,
        ),
        "encode-long": dict(
            batch=1, seq=64, dim=32, heads=2, layers=1, ffn=64,
            mechanism="dfss_1:2", ops=4, warmup=1, limit_ms=1500.0,
        ),
        "serve-mixed": dict(
            heads=2, head_dim=16, lengths=(32, 64), rate_rps=200.0,
            ops=12, limit_ms=250.0,  # the first 12 arrivals include a dfss one
        ),
    },
}

#: Equal mix of the dynamic DFSS mask and three cached static masks.
SERVE_MIX = (
    ("dfss_2:4", {}),
    ("local", {"window": 16}),
    ("longformer", {"window": 8, "num_global": 2}),
    ("bigbird", {"block_size": 32}),
)
#: The arrival schedule is one fixed realisation; ``--seed`` draws contents only.
SCHEDULE_SEED = 20230225
VOCAB = 512
#: Largest max|a-b| / max|b| accepted where two paths round differently.
REL_TOL = 1e-3
#: Two backends that round scores differently may break a near-tie of the
#: N:M selection differently, which changes that one output row (seen: one
#: row of 1024 in two of ten seeds).  Up to this share of rows may differ.
FLIP_ROWS = 0.005
#: Such a flip moves a few gradient entries by up to ~3e-4 of their scale.
GRAD_TOL = 1e-2


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _row_check(got: np.ndarray, want: np.ndarray, what: str) -> Optional[str]:
    """``None`` when every value is finite and all but FLIP_ROWS of the rows
    agree within REL_TOL."""
    bad = int(np.size(got) - np.count_nonzero(np.isfinite(got)))
    if bad:
        return f"{bad} values are NaN or inf"
    err = np.max(np.abs(got - want), axis=-1) / (float(np.max(np.abs(want))) or 1.0)
    # written so that a NaN error (from the reference) counts as a mismatch
    share = float(np.mean(~(err <= REL_TOL)))
    if share <= FLIP_ROWS:
        return None
    return f"{share:.1%} of rows off by up to {err.max():.2e} vs {what}"


def _grad_check(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]) -> Optional[str]:
    """``None`` when the loss and every gradient are within GRAD_TOL of ``want``.

    Some gradients are zero in exact arithmetic (a key bias shifts every
    score of a row alike), so gradient errors are scaled by at least 1% of
    the largest reference gradient and their rounding noise is not read as a
    mismatch.  The loss is scaled by its own magnitude.
    """
    floor = 1e-2 * max(float(np.max(np.abs(g))) for name, g in want.items() if name != "loss")
    errors = {
        name: _rel_err(got[name], ref, 0.0 if name == "loss" else floor)
        for name, ref in want.items()
    }
    # ``not e <= tol`` so that NaN, from a NaN or inf anywhere, is a mismatch
    bad = [name for name, e in errors.items() if not e <= GRAD_TOL]
    if not bad:
        return None
    shown = ", ".join(f"{name} {errors[name]:.2e}" for name in bad[:3])
    return f"{len(bad)} of {len(errors)} off vs reference backend (relative error: {shown})"


def _rel_err(a: np.ndarray, b: np.ndarray, floor: float = 0.0) -> float:
    """max|a - b| over max(max|b|, floor)."""
    scale = max(float(np.max(np.abs(b))), floor) or 1.0
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


def _corrupted(x: np.ndarray, how: str) -> np.ndarray:
    """A copy of ``x`` with its first entry shifted by 1 or set to NaN."""
    x = np.array(x, copy=True)
    x.flat[0] = np.nan if how == "nan" else x.flat[0] + 1.0
    return x


class _GcMeter:
    """Collector pause time and full collections while installed."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            self.gen2 += info["generation"] == 2
        else:
            self.pause_s += time.perf_counter() - self._start


class _Traced:
    """One trace session over a measured window, plus runtime meters."""

    def __enter__(self) -> "_Traced":
        self.faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self.gc = _GcMeter()
        gc.callbacks.append(self.gc)
        self.tracer = start_trace()
        return self

    def __exit__(self, *exc) -> None:
        self.plan_cache = plan_cache_stats()  # counts since the session began
        stop_trace()
        gc.callbacks.remove(self.gc)
        self.faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - self.faults0
        self.attribution = Attribution()
        self.attribution.add_events(self.tracer.events)

    def to_json(self, ops: int) -> Dict:
        return {
            "attribution": self.attribution.to_json(),
            "plan_hits": self.plan_cache["hits"],
            "plan_misses": self.plan_cache["misses"],
            "gc_pause_ms": self.gc.pause_s * 1e3,
            "gc_gen2": self.gc.gen2,
            "minor_faults": self.faults,
            "ops": ops,
        }


def _tracing_overhead(fn, pairs: int = 6) -> float:
    """Median traced over median untraced time of ``fn``, minus one.

    Traced and untraced calls alternate, in ABBA order, each traced call in
    a session of its own, so slow drift of the host cancels out.
    """
    plain: List[float] = []
    traced: List[float] = []
    for i in range(2 * pairs):
        tracing = i % 4 in (1, 2)
        if tracing:
            start_trace()
        t = time.perf_counter()
        try:
            fn()
        finally:
            (traced if tracing else plain).append(time.perf_counter() - t)
            if tracing:
                stop_trace()
    return float(np.median(traced) / np.median(plain) - 1.0)


def _median_ms(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times)) * 1e3


# ------------------------------------------------------------- closed loops
class _ClosedLoop:
    """Shared window/trace handling of the two closed-loop workloads."""

    work_per_op = 1
    #: whether an op runs the backward pass (sets what speedup_vs_full times)
    trains = False

    def __init__(self, cfg: Dict, seed: int, worker: int) -> None:
        self.cfg = cfg
        self.rng = np.random.default_rng([seed, worker])
        self.first_output: Optional[Dict[str, np.ndarray]] = None

    def op(self, capture: bool = False):  # pragma: no cover - abstract
        raise NotImplementedError

    def setup_op(self) -> None:
        self.first_output = self.op(capture=True)

    def _loop(self, n: int) -> Dict:
        latencies: List[float] = []
        failed = 0
        for _ in range(n):
            t = time.perf_counter()
            try:
                with op_span():
                    self.op()
            except Exception:  # a failed op counts as a miss, the run goes on
                failed += 1
                continue
            latencies.append((time.perf_counter() - t) * 1e3)
        return {"latencies_ms": latencies, "attempted": n, "failed": failed}

    def run(self, trace: bool) -> Dict:
        for _ in range(self.cfg["warmup"]):
            self.op()
        n = self.cfg["ops"]
        start = time.perf_counter()
        with _Traced() if trace else nullcontext() as traced:
            out = self._loop(n)
        out["window_s"] = time.perf_counter() - start
        out["work"] = self.work_per_op * len(out["latencies_ms"])
        out["busy_s"] = sum(out["latencies_ms"]) / 1e3
        out["good"] = int(sum(x <= self.cfg["limit_ms"] for x in out["latencies_ms"]))
        if not trace:
            out["peak_rss_mb"] = _peak_rss_mb()
            return out
        out["trace"] = traced.to_json(n)
        out["trace"].update(
            speedup_vs_full=self.speedup_vs_full(),
            overhead=_tracing_overhead(self.op),
        )
        return out

    def speedup_vs_full(self) -> float:
        """Time of the same q/k/v through the ``full`` core over the workload's."""
        cfg = self.cfg
        head_dim = cfg["dim"] // cfg["heads"]
        shape = (cfg["batch"], cfg["heads"], cfg["seq"], head_dim)
        qkv = [self.rng.standard_normal(shape).astype(np.float32) for _ in range(3)]
        backward = self.trains

        def run(core):
            tensors = [Tensor(x, requires_grad=backward) for x in qkv]
            out = core(*tensors)
            if backward:
                out.sum().backward()

        cores = {
            name: make_core(name, seq_len_hint=cfg["seq"])
            for name in ("full", cfg["mechanism"])
        }
        for core in cores.values():
            run(core)
        full = _median_ms(lambda: run(cores["full"]))
        own = _median_ms(lambda: run(cores[cfg["mechanism"]]))
        return full / own

    def _encoder(self) -> TransformerEncoder:
        cfg = self.cfg
        return TransformerEncoder(
            VOCAB, cfg["seq"], model_dim=cfg["dim"], num_heads=cfg["heads"],
            num_layers=cfg["layers"], ffn_dim=cfg["ffn"], mechanism=cfg["mechanism"],
            seed=0,
        )

    @staticmethod
    def _instrument_encoder(encoder: TransformerEncoder) -> None:
        wrap(encoder, "forward", "nn.residual")
        wrap(encoder.embedding, "forward", "nn.embedding")
        wrap(encoder.final_norm, "forward", "nn.layernorm")
        for blk in encoder.layers:
            wrap(blk, "forward", "nn.residual")
            wrap(blk.norm1, "forward", "nn.layernorm")
            wrap(blk.norm2, "forward", "nn.layernorm")
            wrap(blk.ffn_in, "forward", "nn.ffn")
            wrap(blk.ffn_out, "forward", "nn.ffn")
            attn = blk.attention
            wrap(attn, "forward", "nn.attn.core")
            for proj in (attn.q_proj, attn.k_proj, attn.v_proj, attn.out_proj):
                wrap(proj, "forward", "nn.attn.proj")
        wrap(F, "gelu", "nn.ffn")


class Finetune(_ClosedLoop):
    """Train steps: loss → backward → clip_grad_norm → Adam.step."""

    trains = True

    def __init__(self, cfg: Dict, seed: int, worker: int) -> None:
        super().__init__(cfg, seed, worker)
        self.work_per_op = cfg["batch"]
        self.model = SequenceClassifier(self._encoder(), num_classes=2, seed=1)
        self.params = self.model.parameters()
        self.opt = Adam(self.params, lr=1e-4)
        shape = (cfg["batch"], cfg["seq"])
        self.batches = [
            (self.rng.integers(0, VOCAB, shape), self.rng.integers(0, 2, cfg["batch"]))
            for _ in range(4)
        ]
        self.step = 0

    def instrument(self) -> None:
        self._instrument_encoder(self.model.encoder)

    def op(self, capture: bool = False):
        ids, labels = self.batches[self.step % len(self.batches)]
        self.step += 1
        self.opt.zero_grad()
        with layer("nn.head_loss"):
            loss = self.model.loss(ids, labels)
        with layer("nn.autograd.bwd"):
            loss.backward()
        captured = None
        if capture:
            captured = {"loss": loss.data.copy()}
            captured.update((f"grad:{i}", p.grad.copy()) for i, p in enumerate(self.params))
        with layer("nn.optim.clip"):
            clip_grad_norm(self.params, 1.0)
        with layer("nn.optim.step"):
            self.opt.step()
        return captured

    def check(self, corrupt: Optional[str]) -> List[Tuple[str, Optional[str]]]:
        """The first step's loss and gradients against the reference backend."""
        got = dict(self.first_output)
        if corrupt:  # one entry of the first layer's query-projection gradient
            q_weight = self.model.encoder.layers[0].attention.q_proj.weight
            name = next(f"grad:{i}" for i, p in enumerate(self.params) if p is q_weight)
            got[name] = _corrupted(got[name], corrupt)
        model = SequenceClassifier(self._encoder(), num_classes=2, seed=1)
        ids, labels = self.batches[0]
        with use_backend("reference"):
            loss = model.loss(ids, labels)
            loss.backward()
        want = {"loss": loss.data}
        want.update((f"grad:{i}", p.grad) for i, p in enumerate(model.parameters()))
        return [("finetune first step", _grad_check(got, want))]


class EncodeLong(_ClosedLoop):
    """Eval-mode encoder forwards over one long sequence."""

    def __init__(self, cfg: Dict, seed: int, worker: int) -> None:
        super().__init__(cfg, seed, worker)
        self.work_per_op = cfg["batch"] * cfg["seq"]
        self.encoder = self._encoder().eval()
        shape = (cfg["batch"], cfg["seq"])
        self.inputs = [self.rng.integers(0, VOCAB, shape) for _ in range(4)]
        self.step = 0

    def instrument(self) -> None:
        self._instrument_encoder(self.encoder)

    def op(self, capture: bool = False):
        ids = self.inputs[self.step % len(self.inputs)]
        self.step += 1
        out = self.encoder(ids)
        return {"output": out.data.copy()} if capture else None

    def check(self, corrupt: Optional[str]) -> List[Tuple[str, Optional[str]]]:
        """The first forward's output against the reference backend."""
        got = self.first_output["output"]
        if corrupt:
            got = _corrupted(got, corrupt)
        with use_backend("reference"):
            want = self.encoder(self.inputs[0]).data
        return [("encode-long first output", _row_check(got, want, "reference backend"))]


# ---------------------------------------------------------------- open loop
class ServeMixed:
    """Seeded Poisson arrivals of mixed mechanisms into one AttentionServer."""

    def __init__(self, cfg: Dict, seed: int, worker: int) -> None:
        self.cfg = cfg
        schedule = np.random.default_rng(SCHEDULE_SEED)
        n = cfg["ops"]
        self.due_s = np.cumsum(schedule.exponential(1.0 / cfg["rate_rps"], n))
        kinds = schedule.integers(len(SERVE_MIX), size=n)
        lengths = schedule.choice(cfg["lengths"], size=n)
        rng = np.random.default_rng([seed, worker])
        self.requests = []
        for i in range(n):
            mechanism, options = SERVE_MIX[kinds[i]]
            shape = (cfg["heads"], int(lengths[i]), cfg["head_dim"])
            q, k, v = (rng.standard_normal(shape).astype(np.float32) for _ in range(3))
            self.requests.append(
                ServeRequest(q=q, k=k, v=v, mechanism=mechanism,
                             options=dict(options), request_id=f"r{i}")
            )
        self.server = AttentionServer()
        self.samples: Dict[str, np.ndarray] = {}
        self.exec_start: Dict[str, float] = {}
        self.exec_ms: List[float] = []
        self.mask_ms: List[float] = []
        #: the instrumented calls record only while the schedule is replayed,
        #: not during the overhead pairs, speedup probes or checks after it
        self.recording = False

    def setup_op(self) -> None:
        # one request served at once: imports, engines and plans are warm
        # before the schedule starts, the structure cache is not
        warm = self.requests[0]
        request = ServeRequest(q=warm.q, k=warm.k, v=warm.v, mechanism=warm.mechanism,
                               options=dict(warm.options), request_id="setup")
        self.server.enqueue(request)
        self.server.drain()
        self.server.cache.clear()

    @staticmethod
    def _dynamic(request: ServeRequest) -> bool:
        return request.mechanism.startswith("dfss")

    def instrument(self) -> None:
        run_batch = serve_engine.run_ragged_batch

        def run_ragged_batch(prepared):
            now = time.monotonic()
            if self.recording:
                for p in prepared:
                    self.exec_start[p.request.request_id] = now
            t = time.perf_counter()
            try:
                return timed("serve.batch_exec", run_batch)(prepared)
            finally:
                if self.recording:
                    self.exec_ms.append((time.perf_counter() - t) * 1e3)

        serve_engine.run_ragged_batch = run_ragged_batch
        mask = AttentionEngine.attention_mask

        def attention_mask(engine, q, k):
            t = time.perf_counter()
            try:
                return timed("engine.attention_mask", mask)(engine, q, k)
            finally:
                if self.recording and not engine.spec.static_mask:
                    self.mask_ms.append((time.perf_counter() - t) * 1e3)

        AttentionEngine.attention_mask = attention_mask

    def _open_loop(self) -> Dict:
        """Replay the schedule; every request is timed from when it was due."""
        server = self.server
        start = time.monotonic() + 0.01
        due = start + self.due_s - self.due_s[0]
        pending: Dict[str, tuple] = {}
        latencies: List[float] = []
        lag: List[float] = []
        enqueue_ms: Dict[str, List[float]] = {"dynamic": [], "static": []}
        busy = 0.0
        cache0 = dict(server.cache.stats())
        j, n = 0, len(self.requests)
        while j < n or server.pending_count:
            now = time.monotonic()
            if j < n and now >= due[j]:
                request = self.requests[j]
                lag.append(now - due[j])
                t = time.perf_counter()
                try:
                    with op_span():
                        pending[request.request_id] = (due[j], request, server.enqueue(request))
                except Exception:  # counted as failed below (never completes)
                    pass
                dt = time.perf_counter() - t
                busy += dt
                enqueue_ms["dynamic" if self._dynamic(request) else "static"].append(dt * 1e3)
                j += 1
                continue
            deadline = server.next_deadline()
            if deadline is not None and deadline <= now:
                t = time.perf_counter()
                try:
                    with op_span():
                        results = server.step()
                except Exception:  # the lost batch never completes: misses
                    break
                busy += time.perf_counter() - t
                for result in results:
                    due_at, request, handle = pending[result.request_id]
                    done = handle.arrival + result.latency_s
                    latencies.append((done - due_at) * 1e3)
                    if len(self.samples) < 8 and len(latencies) % 9 == 1:
                        self.samples[result.request_id] = result.output.copy()
                continue
            # Spin rather than sleep until the next arrival or deadline: an
            # idle vCPU on a shared host is handed to other tenants, and the
            # cold caches it comes back to swung service time ±12% between
            # processes (±7% when spinning); spinning also removes the
            # wake-up delay from every request's latency.
            wake = min(due[j] if j < n else np.inf, np.inf if deadline is None else deadline)
            while time.monotonic() < wake:
                pass
        cache = server.cache.stats()
        return {
            "latencies_ms": latencies,
            "attempted": n,
            "failed": n - len(latencies),
            "busy_s": busy,
            "wall_s": time.monotonic() - start,
            "lag_ms": float(np.mean(lag) * 1e3) if lag else 0.0,
            "enqueue_ms": enqueue_ms,
            "cache_hits": cache["hits"] - cache0["hits"],
            "cache_misses": cache["misses"] - cache0["misses"],
            "arrivals": {rid: h.arrival for rid, (_, _, h) in pending.items()},
        }

    def run(self, trace: bool) -> Dict:
        n = self.cfg["ops"]
        served0 = (self.server.served_requests, self.server.served_batches)
        self.recording = True
        try:
            with _Traced() if trace else nullcontext() as traced:
                out = self._open_loop()
        finally:
            self.recording = False
        out["work"] = len(out["latencies_ms"])
        out["good"] = int(sum(x <= self.cfg["limit_ms"] for x in out["latencies_ms"]))
        if not trace:
            out["peak_rss_mb"] = _peak_rss_mb()
        else:
            out["trace"] = traced.to_json(n)
            out["trace"].update(
                speedup_vs_full=self.speedup_vs_full(),
                serve=self._serve_stats(out, served0),
                overhead=_tracing_overhead(self._serve_alone),
            )
        out.pop("arrivals")
        out["window_s"] = out.pop("wall_s")
        return out

    def _serve_alone(self) -> None:
        """The schedule's first eight requests, enqueued at once and drained."""
        for request in self.requests[:8]:
            self.server.enqueue(request)
        self.server.drain()

    def _serve_stats(self, window: Dict, served0: tuple) -> Dict:
        arrivals = window["arrivals"]
        waits = [
            (self.exec_start[rid] - arrivals[rid]) * 1e3
            for rid in arrivals if rid in self.exec_start
        ]
        requests = self.server.served_requests - served0[0]
        batches = self.server.served_batches - served0[1]
        return {
            "enqueue_ms": window["enqueue_ms"],
            "batch_exec_ms": self.exec_ms,
            "mask_ms": self.mask_ms,
            "queue_wait_ms": waits,
            "requests": requests,
            "batches": batches,
            "cache_hits": window["cache_hits"],
            "cache_misses": window["cache_misses"],
            "busy_s": window["busy_s"],
            "wall_s": window["wall_s"],
            "lag_ms": window["lag_ms"],
            "sent": window["attempted"],
            "succeeded": len(window["latencies_ms"]),
            "failed": window["failed"],
        }

    def speedup_vs_full(self) -> float:
        """Same request tensors through ``full`` over through their own mechanism."""
        request = max(self.requests, key=lambda r: (self._dynamic(r), r.seq_len))
        own = AttentionEngine(request.mechanism, **request.options)
        full = AttentionEngine("full")
        args = (request.q, request.k, request.v)
        own(*args), full(*args)
        return _median_ms(lambda: full(*args)) / _median_ms(lambda: own(*args))

    def check(self, corrupt: Optional[str]) -> List[Tuple[str, Optional[str]]]:
        """Sampled responses: bitwise equal to serving alone, close to repro.attention."""
        if not self.samples:
            return [("serve samples", "no response was sampled")]
        results = []
        by_id = {r.request_id: r for r in self.requests}
        for rid, got in self.samples.items():
            if corrupt:
                got = _corrupted(got, corrupt)
            request = by_id[rid]
            want = repro.attention(request.q, request.k, request.v,
                                   mechanism=request.mechanism, **request.options)
            problem = _row_check(got, want, "repro.attention")
            if not np.array_equal(got, repro.serve([request])[0].output):
                problem = "differs from serving the request alone"
            results.append((f"serve {rid} ({request.mechanism}, L{request.seq_len})", problem))
        return results


WORKLOADS = {"finetune": Finetune, "encode-long": EncodeLong, "serve-mixed": ServeMixed}
