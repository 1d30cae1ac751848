"""Tests for dense, masked and sparse softmax."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.patterns import PATTERN_2_4
from repro.core.sddmm import sddmm_csr
from repro.core.softmax import (
    MASKED_LOGIT_THRESHOLD,
    _chunked_row_softmax,
    _segmented_row_softmax,
    dense_softmax,
    masked_dense_softmax,
    masked_softmax_values,
    sparse_softmax,
    sparse_softmax_streaming,
)
from repro.core.sparse import NMSparseMatrix


class TestDenseSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 32)).astype(np.float32)
        w = dense_softmax(x)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    def test_matches_scipy(self):
        from scipy.special import softmax as scipy_softmax

        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 16)).astype(np.float32)
        np.testing.assert_allclose(dense_softmax(x), scipy_softmax(x, axis=-1), atol=1e-6)

    def test_large_logits_stable(self):
        x = np.array([[1e4, 1e4 - 1.0, 0.0]], dtype=np.float32)
        w = dense_softmax(x)
        assert np.all(np.isfinite(w))
        assert w[0, 0] > w[0, 1] > w[0, 2]

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        np.testing.assert_allclose(dense_softmax(x), dense_softmax(x + 100.0), atol=1e-5)


class TestMaskedSoftmax:
    def test_masked_positions_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        mask = np.zeros((4, 8), dtype=bool)
        mask[:, :3] = True
        w = masked_dense_softmax(x, mask)
        assert np.all(w[:, 3:] == 0)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    def test_fully_masked_row_is_zero(self):
        x = np.ones((2, 4), dtype=np.float32)
        mask = np.zeros((2, 4), dtype=bool)
        w = masked_dense_softmax(x, mask)
        assert np.all(w == 0)
        assert np.all(np.isfinite(w))


class TestSparseSoftmax:
    def _sparse_scores(self, shape=(8, 32), seed=0):
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=shape).astype(np.float32)
        return dense, NMSparseMatrix.from_dense(dense, PATTERN_2_4)

    def test_rows_sum_to_one(self):
        _, sp = self._sparse_scores()
        w = sparse_softmax(sp)
        np.testing.assert_allclose(w.values.sum(axis=-1), 1.0, atol=1e-6)

    def test_equivalent_to_masked_dense(self):
        dense, sp = self._sparse_scores()
        w_sparse = sparse_softmax(sp).to_dense()
        w_dense = masked_dense_softmax(dense, sp.to_mask())
        np.testing.assert_allclose(w_sparse, w_dense, atol=1e-6)

    def test_structure_preserved(self):
        _, sp = self._sparse_scores()
        w = sparse_softmax(sp)
        np.testing.assert_array_equal(w.indices, sp.indices)
        assert w.pattern == sp.pattern and w.dense_cols == sp.dense_cols

    def test_masked_sentinel_entries_get_zero_weight(self):
        dense = np.full((4, 8), -1e30, dtype=np.float32)
        dense[:, :2] = 1.0
        sp = NMSparseMatrix.from_dense(dense, PATTERN_2_4)
        w = sparse_softmax(sp)
        recon = w.to_dense()
        assert np.all(recon[:, 4:] == 0)
        np.testing.assert_allclose(recon[:, :2].sum(axis=-1), 1.0, atol=1e-6)

    def test_streaming_matches_oneshot(self):
        _, sp = self._sparse_scores(shape=(64, 64), seed=7)
        a = sparse_softmax(sp)
        b = sparse_softmax_streaming(sp, chunk_rows=7)
        np.testing.assert_allclose(a.values, b.values, atol=1e-7)

    def test_batched(self):
        rng = np.random.default_rng(9)
        dense = rng.normal(size=(2, 3, 8, 16)).astype(np.float32)
        sp = NMSparseMatrix.from_dense(dense, PATTERN_2_4)
        w = sparse_softmax(sp)
        np.testing.assert_allclose(w.values.sum(axis=-1), 1.0, atol=1e-6)


def _layout_scores(kind, seed=0):
    """Compressed scores of one layout: ``nm``, ``full`` CSR or ``ragged`` CSR."""
    rng = np.random.default_rng(seed)
    q, k = (rng.normal(size=(2, 24, 8)).astype(np.float32) for _ in range(2))
    if kind == "nm":
        return NMSparseMatrix.from_dense(q @ np.swapaxes(k, -1, -2), PATTERN_2_4)
    mask = np.ones((24, 24), dtype=bool)
    if kind == "ragged":
        mask = np.triu(np.tril(mask, 2), -5)
        mask[9] = False  # one fully-masked row
    structure = PaddedCSRMatrix.from_mask(mask).broadcast_to((2,))
    return sddmm_csr(q, k, structure)


def _dispatch_args(scores):
    valid = scores.valid_lanes()
    lengths = None if valid is None else scores.row_lengths()
    return valid, lengths


def _one_block_softmax(values):
    """The masked row softmax as one block: every pass over the whole array."""
    flat = values.reshape(-1, values.shape[-1])
    out = np.empty_like(flat)
    masked = flat <= MASKED_LOGIT_THRESHOLD
    row_max = np.max(np.where(masked, -np.inf, flat), axis=-1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    np.subtract(flat, row_max, out=out)
    np.exp(out, out=out)
    out[masked] = 0.0
    denom = np.sum(out, axis=-1, keepdims=True)
    np.divide(out, np.where(denom == 0.0, 1.0, denom), out=out)
    return out.reshape(values.shape)


class TestBlockedSoftmaxIsBitwise:
    """The cache-blocked softmax (which skips the masking passes in blocks
    with no masked lane) writes the same bits as one pass over all rows."""

    @pytest.mark.parametrize("in_place", [False, True])
    def test_matches_one_block(self, in_place):
        rng = np.random.default_rng(4)
        # 2 x 300 rows of 512 lanes: row blocks of 128 rows, the last partial
        values = rng.standard_normal((2, 300, 512), dtype=np.float32) * 4
        values[0, 3, 7] = np.inf            # a block with no masked lane
        values[0, 200, :5] = -np.inf        # -inf counts as masked
        values[1, 10, ::3] = -1e30          # the masked-score sentinel
        values[1, 11] = -1e30               # a fully masked row
        values[1, 290, 0] = np.inf
        values[1, 290, 1] = -1e30
        with np.errstate(invalid="ignore", over="ignore"):
            want = _one_block_softmax(values)
            buf = values.copy()
            got = _chunked_row_softmax(buf, buf if in_place else np.empty_like(buf))
        assert got.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()
        assert np.all(got[1, 11] == 0.0)


class TestValueSpaceDispatch:
    """``masked_softmax_values`` picks its core per layout, bit for bit."""

    def test_nm_layout_takes_the_chunked_path(self):
        scores = _layout_scores("nm")
        assert _dispatch_args(scores) == (None, None)
        expected = _chunked_row_softmax(scores.values, np.empty_like(scores.values))
        np.testing.assert_array_equal(masked_softmax_values(scores.values), expected)

    def test_full_rows_take_the_chunked_path(self):
        scores = _layout_scores("full")
        valid, lengths = _dispatch_args(scores)
        assert valid is not None and int(lengths.min()) == scores.values.shape[-1]
        expected = _chunked_row_softmax(scores.values, np.empty_like(scores.values))
        np.testing.assert_array_equal(
            masked_softmax_values(scores.values, valid, lengths), expected
        )

    def test_ragged_rows_take_the_segmented_path(self):
        scores = _layout_scores("ragged")
        valid, lengths = _dispatch_args(scores)
        expected = _segmented_row_softmax(
            scores.values, valid, lengths, np.empty_like(scores.values)
        )
        np.testing.assert_array_equal(
            masked_softmax_values(scores.values, valid, lengths), expected
        )

    @pytest.mark.parametrize("kind", ["nm", "full", "ragged"])
    def test_in_place_matches_out_of_place(self, kind):
        scores = _layout_scores(kind, seed=3)
        valid, lengths = _dispatch_args(scores)
        expected = masked_softmax_values(scores.values, valid, lengths)
        buf = scores.values.copy()
        result = masked_softmax_values(buf, valid, lengths, out=buf)
        assert result is buf
        np.testing.assert_array_equal(buf, expected)

    def test_segmented_agrees_with_chunked_on_ragged_rows(self):
        # the chunked core masks padding lanes by their sentinel score, the
        # segmented one skips them: same probabilities, exact zeros on padding
        scores = _layout_scores("ragged", seed=5)
        valid, lengths = _dispatch_args(scores)
        seg = _segmented_row_softmax(
            scores.values, valid, lengths, np.empty_like(scores.values)
        )
        chunked = _chunked_row_softmax(scores.values, np.empty_like(scores.values))
        np.testing.assert_allclose(seg, chunked, rtol=1e-6, atol=1e-7)
        assert np.all(seg[~valid] == 0.0) and np.all(chunked[~valid] == 0.0)

    def test_fully_masked_row_is_exactly_zero_on_the_segmented_path(self):
        scores = _layout_scores("ragged", seed=7)
        valid, lengths = _dispatch_args(scores)
        assert int(lengths[..., 9].max()) == 0
        probs = masked_softmax_values(scores.values, valid, lengths)
        assert np.all(probs[..., 9, :] == 0.0)
        live = lengths > 0
        np.testing.assert_allclose(probs.sum(axis=-1)[live], 1.0, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        dtype=np.float32,
        shape=st.tuples(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=8).map(lambda g: g * 4),
        ),
        elements=st.floats(-50, 50, width=32),
    )
)
def test_property_sparse_softmax_rows_normalised(dense):
    sp = NMSparseMatrix.from_dense(dense, PATTERN_2_4)
    w = sparse_softmax(sp)
    np.testing.assert_allclose(w.values.sum(axis=-1), 1.0, atol=1e-5)
    assert np.all(w.values >= 0)
