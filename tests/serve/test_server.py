"""Tests for the deadline-aware serving engine and the ``repro.serve`` facade."""

import asyncio

import numpy as np
import pytest

import repro
from repro.serve import AttentionServer, ServeRequest, StructureCache, serve


def _request(rng, mechanism="local", options=None, heads=1, seq=32, d=16, **kw):
    options = {"window": 4} if options is None else options
    shape = (heads, seq, d) if heads else (seq, d)
    return ServeRequest(
        q=rng.standard_normal(shape, dtype=np.float32),
        k=rng.standard_normal(shape, dtype=np.float32),
        v=rng.standard_normal(shape, dtype=np.float32),
        mechanism=mechanism,
        options=options,
        **kw,
    )


class TestServeRequest:
    def test_k_v_default_to_q(self):
        q = np.zeros((4, 8), dtype=np.float32)
        request = ServeRequest(q=q)
        assert request.k is request.q and request.v is request.k
        assert request.seq_len == 4 and request.head_dim == 8

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2-D"):
            ServeRequest(q=np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError, match="leading dimensions"):
            ServeRequest(
                q=np.zeros((2, 4, 8), dtype=np.float32),
                k=np.zeros((3, 4, 8), dtype=np.float32),
            )
        with pytest.raises(ValueError, match="head dimension"):
            ServeRequest(
                q=np.zeros((4, 8), dtype=np.float32),
                k=np.zeros((4, 16), dtype=np.float32),
            )
        with pytest.raises(ValueError, match="sequence length"):
            ServeRequest(
                q=np.zeros((4, 8), dtype=np.float32),
                k=np.zeros((6, 8), dtype=np.float32),
                v=np.zeros((5, 8), dtype=np.float32),
            )

    def test_empty_sequence_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-empty sequence: query length"):
            ServeRequest(q=np.zeros((2, 0, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="non-empty sequence: key length"):
            ServeRequest(
                q=np.zeros((4, 8), dtype=np.float32),
                k=np.zeros((0, 8), dtype=np.float32),
            )


class TestScheduler:
    def test_single_request_batch(self):
        rng = np.random.default_rng(0)
        results = serve([_request(rng, request_id="only")])
        assert len(results) == 1
        assert results[0].request_id == "only"
        assert results[0].batched is True
        assert results[0].batch_requests == 1
        assert results[0].latency_s >= 0.0

    def test_mixed_batch_bitwise_equals_sequential(self):
        """Acceptance shape: >= 3 mechanisms across >= 2 sequence lengths."""
        rng = np.random.default_rng(1)
        requests = [
            _request(rng, "local", {"window": 4}, seq=32, request_id="a"),
            _request(rng, "longformer", {"window": 4, "num_global": 2}, seq=64,
                     request_id="b"),
            _request(rng, "bigbird", {"block_size": 16}, seq=32, request_id="c"),
            _request(rng, "dfss_2:4", {}, seq=64, request_id="d"),
            _request(rng, "local", {"window": 4}, seq=32, request_id="e"),
        ]
        batched = serve(requests, max_batch_size=8)
        assert {r.request_id for r in batched} == {"a", "b", "c", "d", "e"}
        assert all(r.batched and r.batch_requests == len(requests) for r in batched)
        for request, result in zip(requests, batched):
            solo = serve([request], max_batch_size=1)[0]
            assert result.output.tobytes() == solo.output.tobytes()

    def test_fully_masked_request_in_batch(self):
        rng = np.random.default_rng(2)
        masked = _request(rng, mask=np.zeros((32, 32), dtype=bool), request_id="m")
        results = serve([_request(rng), masked, _request(rng)])
        out = results[1].output
        assert results[1].mechanism == "mask"
        assert np.all(out == 0.0)
        solo = serve([masked], max_batch_size=1)[0]
        assert out.tobytes() == solo.output.tobytes()

    def test_deadline_expiry_flushes_under_fake_clock(self):
        t = {"now": 100.0}
        server = AttentionServer(
            max_batch_size=8, max_wait_s=0.5, clock=lambda: t["now"]
        )
        rng = np.random.default_rng(3)
        server.enqueue(_request(rng))
        server.enqueue(_request(rng))
        assert server.step() == []  # deadline 100.5 not reached
        assert server.pending_count == 2
        t["now"] = 100.4
        assert server.step() == []
        t["now"] = 100.6
        results = server.step()
        assert len(results) == 2
        assert results[0].batch_requests == 2
        assert server.pending_count == 0

    def test_per_request_wait_overrides_server_deadline(self):
        t = {"now": 0.0}
        server = AttentionServer(max_batch_size=8, max_wait_s=10.0, clock=lambda: t["now"])
        rng = np.random.default_rng(4)
        server.enqueue(_request(rng, max_wait_s=0.1))
        t["now"] = 0.2
        assert len(server.step()) == 1

    def test_full_queue_executes_before_deadline(self):
        t = {"now": 0.0}
        server = AttentionServer(max_batch_size=2, max_wait_s=60.0, clock=lambda: t["now"])
        rng = np.random.default_rng(5)
        server.enqueue(_request(rng))
        assert server.step() == []
        server.enqueue(_request(rng))
        results = server.step()  # clock never advanced: size trigger, not deadline
        assert len(results) == 2 and results[0].batch_requests == 2

    def test_non_batchable_executes_immediately_as_solo(self):
        t = {"now": 0.0}
        server = AttentionServer(max_batch_size=8, max_wait_s=60.0, clock=lambda: t["now"])
        rng = np.random.default_rng(6)
        server.enqueue(_request(rng, mechanism="linformer", options={}, seq=64))
        results = server.step()  # solo queues never wait for batchmates
        assert len(results) == 1
        assert results[0].batched is False
        assert results[0].batch_requests == 1

    def test_stats_and_cache_accounting(self):
        server = AttentionServer()
        rng = np.random.default_rng(7)
        first = server.enqueue(_request(rng))
        second = server.enqueue(_request(rng))
        distinct = server.enqueue(_request(rng, seq=64))
        server.drain()
        assert first.result.cache_hit is False
        assert second.result.cache_hit is True
        assert distinct.result.cache_hit is False
        stats = server.stats()
        assert stats["served_requests"] == 3
        assert stats["served_batches"] == 1
        assert stats["coalesced_requests"] == 3
        assert stats["pending"] == 0
        assert stats["structure_cache"] == {
            "hits": 1, "misses": 2, "evictions": 0, "entries": 2, "size": 2,
        }

    def test_nonfinite_output_is_flagged_and_isolated(self, monkeypatch):
        # the sanitizer turns any non-finite output into an error; this pins
        # the unsanitized contract, where a bad request is served and flagged
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        rng = np.random.default_rng(12)
        bad = _request(rng, request_id="bad")
        bad.q[0, 3, 1] = np.nan
        clean = _request(rng, request_id="clean")  # shares bad's plan call
        bad_dynamic = _request(rng, "dfss_2:4", {}, request_id="bad_dynamic")
        bad_dynamic.q[0, 5, 0] = np.nan
        server = AttentionServer(max_batch_size=8)
        results = serve([bad, clean, bad_dynamic], server=server)
        assert [r.finite for r in results] == [False, True, False]
        assert results[0].batch_requests == 3
        assert server.stats()["nonfinite_requests"] == 2
        alone = serve([clean], max_batch_size=1)[0]
        assert alone.finite
        assert results[1].output.tobytes() == alone.output.tobytes()

    def test_reference_backend_is_honoured(self):
        rng = np.random.default_rng(13)
        requests = [_request(rng, request_id=f"r{i}", seq=32) for i in range(3)]
        fast = serve(requests, backend="fast")
        reference = serve(requests, backend="reference")
        for f, r in zip(fast, reference):
            np.testing.assert_allclose(r.output, f.output, rtol=1e-5, atol=1e-6)
        # the staged reference plan is a different computation, not a relabel
        assert any(f.output.tobytes() != r.output.tobytes()
                   for f, r in zip(fast, reference))

    def test_shared_structure_cache_across_servers(self):
        cache = StructureCache()
        rng = np.random.default_rng(8)
        serve([_request(rng)], structure_cache=cache)
        results = serve([_request(rng)], structure_cache=cache)
        assert results[0].cache_hit is True

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            AttentionServer(max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            AttentionServer(max_wait_s=-1.0)

    def test_serve_returns_results_in_request_order(self):
        rng = np.random.default_rng(9)
        requests = [
            _request(rng, request_id=f"r{i}", seq=32 if i % 2 else 64)
            for i in range(6)
        ]
        results = serve(requests, max_batch_size=4)
        assert [r.request_id for r in results] == [f"r{i}" for i in range(6)]


class TestAsyncServer:
    def test_submit_and_aclose(self):
        async def scenario():
            rng = np.random.default_rng(10)
            async with AttentionServer(max_batch_size=4, max_wait_s=1e-3) as server:
                results = await asyncio.gather(
                    *(server.submit(_request(rng, request_id=f"r{i}")) for i in range(3))
                )
                return server, results

        server, results = asyncio.run(scenario())
        assert {r.request_id for r in results} == {"r0", "r1", "r2"}
        assert server.served_requests == 3
        assert server.pending_count == 0

    def test_aclose_flushes_pending(self):
        async def scenario():
            server = AttentionServer(max_batch_size=8, max_wait_s=3600.0)
            rng = np.random.default_rng(11)
            pending = server.enqueue(_request(rng))
            await server.aclose()
            return pending

        pending = asyncio.run(scenario())
        assert pending.result is not None


class TestFacade:
    def test_module_is_callable(self):
        rng = np.random.default_rng(12)
        results = repro.serve([_request(rng, request_id="via-module")])
        assert results[0].request_id == "via-module"

    def test_top_level_exports(self):
        assert repro.AttentionServer is AttentionServer
        assert repro.ServeRequest is ServeRequest
        for name in ("serve", "AttentionServer", "ServeRequest", "ServeResult"):
            assert name in repro.__all__
