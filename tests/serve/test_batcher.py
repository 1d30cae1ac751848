"""Tests for request preparation, structure caching, and ragged coalescing."""

import numpy as np
import pytest

from repro.engine import AttentionEngine
from repro.serve import (
    ServeRequest,
    StructureCache,
    prepare_request,
    run_ragged_batch,
    structure_cache_key,
)


def _request(rng, mechanism="local", options=None, heads=2, seq=32, d=16, **kw):
    options = {"window": 4} if options is None else options
    shape = (heads, seq, d)
    return ServeRequest(
        q=rng.standard_normal(shape, dtype=np.float32),
        k=rng.standard_normal(shape, dtype=np.float32),
        v=rng.standard_normal(shape, dtype=np.float32),
        mechanism=mechanism,
        options=options,
        **kw,
    )


def _prepare(request, cache):
    engine = (
        None
        if request.mask is not None
        else AttentionEngine(request.mechanism, _options=dict(request.options))
    )
    return prepare_request(request, engine, cache)


class TestPrepareRequest:
    def test_static_mask_cache_miss_then_hit(self):
        rng = np.random.default_rng(0)
        cache = StructureCache()
        first = _prepare(_request(rng), cache)
        assert first.cache_hit is False
        assert cache.stats() == {
            "hits": 0, "misses": 1, "evictions": 0, "entries": 1, "size": 1,
        }
        second = _prepare(_request(rng), cache)
        assert second.cache_hit is True
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 1, "size": 1,
        }
        # every head of every request shares the one cached 2-D structure
        assert second.structure is first.structure
        assert first.structure.batch_shape == ()

    def test_different_lengths_use_different_cache_entries(self):
        rng = np.random.default_rng(1)
        cache = StructureCache()
        _prepare(_request(rng, seq=32), cache)
        prepared = _prepare(_request(rng, seq=64), cache)
        assert prepared.cache_hit is False
        assert len(cache) == 2

    def test_content_dependent_mechanism_skips_cache(self):
        rng = np.random.default_rng(2)
        cache = StructureCache()
        prepared = _prepare(_request(rng, mechanism="dfss_2:4", options={}), cache)
        assert prepared.batchable
        assert prepared.cache_hit is None
        assert len(cache) == 0
        # one structure stacking the request's own per-head masks
        assert prepared.structure.batch_shape == (2,)

    def test_non_batchable_mechanism_falls_back_to_engine(self):
        rng = np.random.default_rng(3)
        cache = StructureCache()
        prepared = _prepare(
            _request(rng, mechanism="linformer", options={}, seq=64), cache
        )
        assert not prepared.batchable
        assert prepared.structure is None
        assert prepared.engine is not None

    def test_custom_2d_mask_broadcasts_over_heads(self):
        rng = np.random.default_rng(4)
        cache = StructureCache()
        mask = np.tri(32, dtype=bool)
        prepared = _prepare(_request(rng, mask=mask), cache)
        assert prepared.mechanism == "mask"
        assert prepared.batchable
        assert prepared.structure.batch_shape == (2,)
        assert np.array_equal(prepared.structure.to_mask()[1], mask)
        assert len(cache) == 0

    def test_custom_mask_shape_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="mask trailing shape"):
            _prepare(_request(rng, mask=np.ones((8, 8), dtype=bool)), StructureCache())


class TestStructureCacheKey:
    def test_same_config_same_key(self):
        a = AttentionEngine("local", _options={"window": 4})
        b = AttentionEngine("local", _options={"window": 4})
        assert structure_cache_key("local", a.config, 32, 32) == structure_cache_key(
            "local", b.config, 32, 32
        )

    def test_config_and_length_distinguish_keys(self):
        a = AttentionEngine("local", _options={"window": 4})
        b = AttentionEngine("local", _options={"window": 8})
        base = structure_cache_key("local", a.config, 32, 32)
        assert base != structure_cache_key("local", b.config, 32, 32)
        assert base != structure_cache_key("local", a.config, 64, 64)
        assert base != structure_cache_key("longformer", a.config, 32, 32)


class TestRunRaggedBatch:
    def test_batch_output_bitwise_equals_solo(self):
        rng = np.random.default_rng(6)
        cache = StructureCache()
        requests = [
            _request(rng, "local", {"window": 4}, seq=32),
            _request(rng, "longformer", {"window": 4, "num_global": 2}, seq=64),
            _request(rng, "dfss_2:4", {}, seq=32),
            _request(rng, "local", {"window": 4}, seq=32),  # cache/group mate
        ]
        prepared = [_prepare(r, cache) for r in requests]
        batch_outputs = run_ragged_batch(prepared)
        for request, out in zip(requests, batch_outputs):
            solo = run_ragged_batch([_prepare(request, StructureCache())])[0]
            assert out.shape == request.q.shape[:-1] + (request.v.shape[-1],)
            assert out.tobytes() == solo.tobytes()

    def test_empty_batch(self):
        assert run_ragged_batch([]) == []

    def test_2d_request_keeps_2d_output(self):
        rng = np.random.default_rng(7)
        request = ServeRequest(
            q=rng.standard_normal((32, 16), dtype=np.float32),
            mechanism="local",
            options={"window": 4},
        )
        out = run_ragged_batch([_prepare(request, StructureCache())])[0]
        assert out.shape == (32, 16)
