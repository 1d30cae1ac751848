"""The left-fold serving oracle, and the fused plan serving runs against it."""

import numpy as np
import pytest

from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.plan import plan_for_structure
from repro.serve.executor import ragged_masked_softmax, ragged_sddmm, ragged_spmm


def _band_structure(n, half_width):
    mask = np.triu(np.tril(np.ones((n, n), dtype=bool), half_width), -half_width)
    return PaddedCSRMatrix.from_mask(mask)


def _qkv(rng, *shape):
    return tuple(rng.standard_normal(shape, dtype=np.float32) for _ in range(3))


def _dense_reference(q, k, v, structure, scale=None):
    """float64 masked softmax attention, the numerical ground truth."""
    scale = 1.0 / np.sqrt(q.shape[-1]) if scale is None else scale
    mask = structure.to_mask()
    scores = (q.astype(np.float64) @ k.astype(np.float64).T) * scale
    scores = np.where(mask, scores, -np.inf)
    peak = np.max(scores, axis=-1, keepdims=True)
    exp = np.where(mask, np.exp(scores - np.where(np.isfinite(peak), peak, 0.0)), 0.0)
    denom = exp.sum(-1, keepdims=True)
    probs = np.divide(exp, denom, out=np.zeros_like(exp), where=denom > 0)
    return probs @ v.astype(np.float64)


class TestStagedKernels:
    def test_pipeline_matches_dense_reference(self):
        rng = np.random.default_rng(0)
        st = _band_structure(48, 4)
        q, k, v = _qkv(rng, 48, 16)
        out = ragged_spmm(ragged_masked_softmax(ragged_sddmm(q, k, st), st), st, v)
        ref = _dense_reference(q, k, v, st)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-5)

    def test_fully_masked_rows_are_exact_zero(self):
        rng = np.random.default_rng(1)
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, :3] = True  # one live row, seven fully masked
        st = PaddedCSRMatrix.from_mask(mask)
        q, k, v = _qkv(rng, 8, 4)
        out = ragged_spmm(ragged_masked_softmax(ragged_sddmm(q, k, st), st), st, v)
        assert np.all(out[1:] == 0.0)
        assert np.any(out[0] != 0.0)

    def test_shape_validation(self):
        rng = np.random.default_rng(2)
        st = _band_structure(8, 1)
        q, k, _ = _qkv(rng, 8, 4)
        with pytest.raises(ValueError, match="do not match q rows"):
            ragged_sddmm(q[:4], k, st)
        with pytest.raises(ValueError, match="k shape"):
            ragged_sddmm(q, k[:4], st)


class TestFusedKernels:
    """The fused plan serving runs, checked against the left-fold oracle."""

    def test_fused_agrees_with_staged(self):
        rng = np.random.default_rng(3)
        st = _band_structure(64, 5)
        q, k, v = _qkv(rng, 64, 32)
        staged = ragged_spmm(
            ragged_masked_softmax(ragged_sddmm(q, k, st), st), st, v
        )
        fused = plan_for_structure(st).forward(q, k, v, structure=st)
        np.testing.assert_allclose(fused, staged, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_stacked_slices_equal_single_calls(self, backend):
        """A stacked plan call == one call per slice == a stack of one, bitwise."""
        rng = np.random.default_rng(4)
        st = _band_structure(48, 3)
        g = 5
        q3, k3, v3 = _qkv(rng, g, 48, 16)
        stacked = st.broadcast_to((g,))
        plan = plan_for_structure(stacked, backend=backend)
        out_g = plan.forward(q3, k3, v3, structure=stacked)
        one = st.broadcast_to((1,))
        for i in range(g):
            solo = plan.forward(q3[i], k3[i], v3[i], structure=st)
            g1 = plan.forward(
                q3[i : i + 1], k3[i : i + 1], v3[i : i + 1], structure=one
            )[0]
            assert out_g[i].tobytes() == solo.tobytes()
            assert out_g[i].tobytes() == g1.tobytes()

    def test_fused_fully_masked_rows_are_exact_zero(self):
        rng = np.random.default_rng(6)
        mask = np.zeros((16, 16), dtype=bool)
        mask[:4, :4] = True
        st = PaddedCSRMatrix.from_mask(mask)
        q, k, v = _qkv(rng, 16, 8)
        out = plan_for_structure(st).forward(q, k, v, structure=st)
        assert np.all(out[4:] == 0.0)
        empty = PaddedCSRMatrix.from_mask(np.zeros((16, 16), dtype=bool))
        out = plan_for_structure(empty).forward(q, k, v, structure=empty)
        assert np.all(out == 0.0)

    def test_explicit_scale(self):
        rng = np.random.default_rng(7)
        st = _band_structure(16, 2)
        q, k, v = _qkv(rng, 16, 8)
        plan = plan_for_structure(st)
        default = plan.forward(q, k, v, structure=st)
        explicit = plan.forward(q, k, v, structure=st, scale=1.0 / np.sqrt(8))
        assert default.tobytes() == explicit.tobytes()
        assert not np.array_equal(
            plan.forward(q, k, v, structure=st, scale=1.0), default
        )
