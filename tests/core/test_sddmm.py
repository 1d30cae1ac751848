"""Tests for the SDDMM with fused N:M pruning epilogue."""

import numpy as np
import pytest

from repro.core.blocked_ell import sliding_window_mask
from repro.core.patterns import PATTERN_1_2, PATTERN_2_4
from repro.core.precision import simulate_tensor_core_matmul
from repro.core.pruning import nm_compress_fast, nm_prune_mask
from repro.core.sddmm import (
    MASKED_SCORE,
    SddmmTraffic,
    sddmm_dense,
    sddmm_nm,
    sddmm_nm_tiled,
)


def _qk(seq=64, d=32, batch=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (seq, d) if batch is None else tuple(batch) + (seq, d)
    return (
        rng.normal(size=shape).astype(np.float32),
        rng.normal(size=shape).astype(np.float32),
    )


class TestSddmmDense:
    def test_matches_reference(self):
        q, k = _qk()
        out = sddmm_dense(q, k)
        ref = q @ k.T / np.sqrt(32)
        assert np.abs(out - ref).max() < 1e-2

    def test_custom_scale(self):
        q, k = _qk()
        out = sddmm_dense(q, k, scale=1.0)
        ref = q @ k.T
        assert np.abs(out - ref).max() < 5e-2

    def test_batched_shape(self):
        q, k = _qk(batch=(2, 3))
        out = sddmm_dense(q, k)
        assert out.shape == (2, 3, 64, 64)

    def test_mismatched_batch_raises(self):
        q, _ = _qk(batch=(2,))
        _, k = _qk(batch=(3,))
        with pytest.raises(ValueError):
            sddmm_dense(q, k)


class TestSddmmNM:
    def test_equals_prune_of_dense(self):
        q, k = _qk()
        dense = sddmm_dense(q, k)
        sp = sddmm_nm(q, k, pattern=PATTERN_2_4)
        mask = nm_prune_mask(dense, PATTERN_2_4)
        np.testing.assert_allclose(sp.to_dense(), np.where(mask, dense, 0.0), atol=1e-6)

    def test_default_pattern_follows_dtype(self):
        q, k = _qk()
        assert sddmm_nm(q, k, dtype="float32").pattern == PATTERN_1_2
        assert sddmm_nm(q, k, dtype="bfloat16").pattern == PATTERN_2_4

    def test_batched(self):
        q, k = _qk(batch=(2, 4), seq=32, d=16)
        sp = sddmm_nm(q, k, pattern=PATTERN_2_4)
        assert sp.dense_shape == (2, 4, 32, 32)
        assert sp.values.shape == (2, 4, 32, 16)

    def test_rejects_feature_mismatch(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(16, 32)).astype(np.float32)
        k = rng.normal(size=(16, 48)).astype(np.float32)
        with pytest.raises(ValueError):
            sddmm_nm(q, k)

    def test_block_mask_zeroes_outside_blocks(self):
        q, k = _qk(seq=64, d=16)
        mask = sliding_window_mask(64, block_size=16, window_blocks=0)
        sp = sddmm_nm(q, k, pattern=PATTERN_2_4, block_mask=mask)
        dense = sp.to_dense()
        block_dense = mask.dense_mask(64, 64)
        # every surviving *finite, non-sentinel* score lies inside the block mask
        outside = dense[~block_dense]
        assert np.all((outside == 0.0) | (outside <= -1e29))


def _one_pass_sddmm_nm(q, k, pattern, scale=None, dtype="float32", block_mask=None,
                       criterion="value"):
    """Unblocked formulation: the whole score tensor, scaled, masked, pruned."""
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    scores = simulate_tensor_core_matmul(q, np.swapaxes(k, -1, -2), dtype) * scale
    if block_mask is not None:
        allowed = block_mask.dense_mask(scores.shape[-2], scores.shape[-1])
        scores = np.where(allowed, scores, MASKED_SCORE)
    return nm_compress_fast(scores, pattern, criterion)


def _assert_bitwise(sparse, values, indices):
    assert sparse.values.view(np.uint32).tobytes() == values.view(np.uint32).tobytes()
    np.testing.assert_array_equal(sparse.indices, indices)


class TestBlockedEpilogueIsBitwise:
    """The fast kernel's cache-blocked epilogue reproduces the one-pass
    formulation bit for bit on random normal inputs (where rounding order
    matters), across row blocks that do not divide the sequence, stacked
    small slices, and scales exact (d = 64) and inexact (d = 32) in float32."""

    # (batch, n_q, n_k): 2-D; row blocks of 65536 // 588 = 111 rows over 600
    # rows; slabs of 7 stacked slices over 12 slices
    SHAPES = [((), 130, 516), ((2,), 600, 588), ((3, 4), 90, 96)]

    @pytest.mark.parametrize("pattern", ["1:2", "2:4", "2:6"])
    @pytest.mark.parametrize("d", [32, 64])  # 1/sqrt(32) is not a float32
    @pytest.mark.parametrize("shape", SHAPES)
    def test_default_scale(self, pattern, d, shape):
        batch, n_q, n_k = shape
        rng = np.random.default_rng(d + n_q)
        q = rng.standard_normal(batch + (n_q, d), dtype=np.float32)
        k = rng.standard_normal(batch + (n_k, d), dtype=np.float32)
        _assert_bitwise(
            sddmm_nm(q, k, pattern=pattern, backend="fast"),
            *_one_pass_sddmm_nm(q, k, pattern),
        )

    @pytest.mark.parametrize(
        "scale",
        [0.3, np.float32(0.3), np.float64(0.3), np.float64(0.25), 3],
        ids=["py-float", "f32", "f64-inexact", "f64-exact", "int"],
    )
    @pytest.mark.parametrize("dtype", ["float32", "bfloat16"])
    def test_explicit_scale_and_dtype(self, scale, dtype):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((2, 300, 48), dtype=np.float32)
        k = rng.standard_normal((2, 260, 48), dtype=np.float32)
        _assert_bitwise(
            sddmm_nm(q, k, pattern="2:4", scale=scale, dtype=dtype, backend="fast"),
            *_one_pass_sddmm_nm(q, k, "2:4", scale=scale, dtype=dtype),
        )

    @pytest.mark.parametrize("pattern", ["1:2", "2:4"])
    def test_block_mask_and_magnitude_criterion(self, pattern):
        rng = np.random.default_rng(8)
        q, k = (rng.standard_normal((2, 320, 40), dtype=np.float32) for _ in range(2))
        mask = sliding_window_mask(320, block_size=32, window_blocks=1)
        for criterion in ("value", "magnitude"):
            _assert_bitwise(
                sddmm_nm(q, k, pattern=pattern, block_mask=mask,
                         criterion=criterion, backend="fast"),
                *_one_pass_sddmm_nm(q, k, pattern, block_mask=mask,
                                    criterion=criterion),
            )

    @pytest.mark.parametrize("n", [96, 600])
    def test_stacked_slices_equal_per_slice_calls(self, n):
        rng = np.random.default_rng(n)
        q, k = (rng.standard_normal((9, n, 32), dtype=np.float32) for _ in range(2))
        stacked = sddmm_nm(q, k, pattern="2:4", backend="fast")
        singles = [sddmm_nm(q[i], k[i], pattern="2:4", backend="fast") for i in range(9)]
        _assert_bitwise(
            stacked,
            np.stack([s.values for s in singles]),
            np.stack([s.indices for s in singles]),
        )


class TestSddmmTiled:
    @pytest.mark.parametrize("pattern", [PATTERN_1_2, PATTERN_2_4])
    def test_matches_untiled(self, pattern):
        q, k = _qk(seq=96, d=48, seed=3)
        ref = sddmm_nm(q, k, pattern=pattern)
        tiled = sddmm_nm_tiled(q, k, pattern=pattern, mtile=32, ntile=32, ktile=16)
        np.testing.assert_allclose(tiled.values, ref.values, atol=1e-4)
        np.testing.assert_array_equal(tiled.indices, ref.indices)

    def test_rejects_batched_input(self):
        q, k = _qk(batch=(2,))
        with pytest.raises(ValueError):
            sddmm_nm_tiled(q, k)

    def test_traffic_counts(self):
        q, k = _qk(seq=64, d=32)
        traffic = SddmmTraffic()
        sddmm_nm_tiled(
            q, k, pattern=PATTERN_2_4, mtile=32, ntile=32, ktile=32, traffic=traffic
        )
        # reads: for each of the (2x2) output tiles, Q tile (32x32) + K tile (32x32)
        # floats at 4 bytes each -> 4 tiles * 2 * 1024 * 4 bytes
        assert traffic.bytes_read == 4 * 2 * 32 * 32 * 4
        # writes: nonzeros (64*32 floats) + metadata (64*16 groups * 0.5 byte)
        assert traffic.bytes_written == 64 * 32 * 4 + 64 * 16 // 2
        assert traffic.total == traffic.bytes_read + traffic.bytes_written

    def test_write_traffic_half_of_dense(self):
        # the epilogue writes ~1/2 + 1/16 of what a dense GEMM would write
        q, k = _qk(seq=128, d=64)
        traffic = SddmmTraffic()
        sddmm_nm_tiled(q, k, pattern=PATTERN_1_2, traffic=traffic)
        dense_write = 128 * 128 * 4
        assert traffic.bytes_written < 0.6 * dense_write
        assert traffic.bytes_written > 0.5 * dense_write
