"""Bitwise parity of the compiled AttentionPlan against its staged composition.

The fused plan calls the *same* registered kernel functions and the same
softmax core as the registry kernels composed stage by stage; it differs
only in pre-resolved dispatch and in-place buffer reuse — both bit-exact
transformations.  Each test composes the staged side itself (``sddmm_nm`` or
``sddmm_csr`` → ``sparse_softmax`` → ``spmm`` forward, ``masked_attention_bwd``
backward) and holds the autograd ops, which run through the plan, to
``assert_array_equal`` (not allclose) on the output and on dq, dk and dv —
across N:M, ragged padded-CSR rows with fully-masked rows, dropout, and
precomputed Top-K score buffers.  Every mechanism with a compressed path is
also run once through a staged plan (``fused=False``: each stage dispatched
through the registry, no buffer reuse) for the same comparison.
"""

import numpy as np
import pytest

from repro.core.attention_grad import masked_attention_bwd
from repro.core.layout import dense_positions
from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.plan import AttentionPlan
from repro.core.sddmm import sddmm_csr, sddmm_nm
from repro.core.softmax import sparse_softmax
from repro.core.spmm import spmm
from repro.nn import sparse_attention
from repro.nn.autograd import Tensor
from repro.nn.sparse_attention import dfss_sparse_attention, masked_sparse_attention
from repro.registry import available_mechanisms, find_spec, make_core
from repro.utils.seeding import attention_dropout_keep, draw_dropout_seed

SCALE = 0.25

#: Every mechanism whose spec advertises a compressed execution path; the
#: fused plan must be invisible to all of them.
COMPRESSED_MECHANISMS = tuple(
    name for name in available_mechanisms() if find_spec(name).compressed
)
#: Compressed-spec mechanisms that never build a plan: Nyström + DFSS prunes
#: its dense landmark kernels with ``nm_prune_mask`` and a masked softmax.
PLANLESS_MECHANISMS = {"nystromformer_dfss"}


def _lattice(shape, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(-2, 3, size=shape) / 2).astype(np.float32)


def _arrays(batch=(2,), seq=32, d=16, seed=0):
    shape = tuple(batch) + (seq, d)
    return tuple(_lattice(shape, seed=seed + i) for i in range(3))


def _dropout_kwargs(dropout):
    if not dropout:
        return {}
    return dict(
        dropout_p=dropout, dropout_rng=np.random.default_rng(123), training=True
    )


def _run_op(op, arrays, d_out, **kwargs):
    """fwd+bwd through an autograd op (the plan); ``(out, dq, dk, dv), probs``."""
    q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
    out, probs = op(q, k, v, scale=SCALE, **kwargs)
    (out * Tensor(d_out)).sum().backward()
    return (out.data, q.grad, k.grad, v.grad), probs


def _run_staged(scores, arrays, d_out, dropout=0.0):
    """The same step composed from the registry kernels, stage by stage."""
    q, k, v = arrays
    probs = sparse_softmax(scores)
    drop_keep = None
    if dropout:
        seed = draw_dropout_seed(np.random.default_rng(123))
        drop_keep = attention_dropout_keep(seed, dropout, dense_positions(probs))
    applied = probs if drop_keep is None else probs.with_values(probs.values * drop_keep)
    out = spmm(applied, v)
    d_q, d_k, d_v = masked_attention_bwd(
        probs, q, k, v, d_out, SCALE, drop_keep=drop_keep, out=out
    )
    return out, d_q, d_k, d_v


def _assert_bitwise(staged, planned, label):
    for name, a, b in zip(("out", "dq", "dk", "dv"), staged, planned):
        assert a is not None and b is not None
        np.testing.assert_array_equal(a, b, err_msg=f"{label}:{name}")


def _run_core(mechanism, seed=1):
    """One fwd+bwd pass of the mechanism's trainable core."""
    q, k, v = (Tensor(a, requires_grad=True) for a in _arrays(seed=seed))
    try:
        core = make_core(mechanism, seq_len_hint=32, path="sparse")
    except TypeError:  # hybrid cores without a path switch are already sparse
        core = make_core(mechanism, seq_len_hint=32)
    out = core(q, k, v)
    (out * out).sum().backward()
    return out.data, q.grad, k.grad, v.grad


class TestMechanismMatrix:
    def test_the_matrix_is_not_empty(self):
        assert {"dfss", "topk", "longformer", "bigbird"} <= set(
            COMPRESSED_MECHANISMS
        )

    @pytest.mark.parametrize("mechanism", COMPRESSED_MECHANISMS)
    def test_fused_bitwise_equals_staged(self, mechanism, monkeypatch):
        fused = _run_core(mechanism)
        staged_plans = []

        def staged(constructor):
            def build(*args, **kwargs):
                plan = AttentionPlan(constructor(*args, **kwargs).key, fused=False)
                staged_plans.append(plan)
                return plan
            return build

        for name in ("plan_for_nm", "plan_for_structure"):
            monkeypatch.setattr(
                sparse_attention, name, staged(getattr(sparse_attention, name))
            )
        staged_run = _run_core(mechanism)
        assert bool(staged_plans) != (mechanism in PLANLESS_MECHANISMS)
        _assert_bitwise(staged_run, fused, mechanism)


class TestNMParity:
    @pytest.mark.parametrize("pattern", ["1:2", "2:4"])
    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    def test_plan_bitwise_equals_staged_kernels(self, pattern, dropout):
        arrays = _arrays(seed=7)
        d_out = _lattice(arrays[2].shape, seed=42)
        planned, _ = _run_op(
            dfss_sparse_attention, arrays, d_out,
            pattern=pattern, **_dropout_kwargs(dropout),
        )
        scores = sddmm_nm(arrays[0], arrays[1], pattern=pattern, scale=SCALE)
        staged = _run_staged(scores, arrays, d_out, dropout=dropout)
        _assert_bitwise(staged, planned, f"{pattern}/p={dropout}")

    @pytest.mark.parametrize("batch", [(), (2, 3)], ids=["unbatched", "BxH"])
    def test_batch_shapes_bitwise(self, batch):
        # one plan serves every batch shape over the same per-slice geometry
        arrays = _arrays(batch=batch, seq=32, d=16, seed=9)
        d_out = _lattice(arrays[2].shape, seed=45)
        planned, _ = _run_op(dfss_sparse_attention, arrays, d_out, pattern="2:4")
        scores = sddmm_nm(arrays[0], arrays[1], pattern="2:4", scale=SCALE)
        _assert_bitwise(_run_staged(scores, arrays, d_out), planned, f"batch={batch}")


class TestRaggedAndFullyMaskedRows:
    @staticmethod
    def _ragged_mask(seq=24):
        # ragged band + global columns, with two fully-masked rows
        mask = np.triu(np.tril(np.ones((seq, seq), dtype=bool), 3), -6)
        mask[:, :2] = True
        mask[5] = False
        mask[17] = False
        return mask

    def _planned(self, arrays, d_out, dropout=0.0):
        return _run_op(
            masked_sparse_attention, arrays, d_out,
            mask=self._ragged_mask(), **_dropout_kwargs(dropout),
        )

    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    def test_ragged_rows_bitwise(self, dropout):
        arrays = _arrays(batch=(2,), seq=24, d=16, seed=3)
        d_out = _lattice(arrays[2].shape, seed=43)
        planned, _ = self._planned(arrays, d_out, dropout=dropout)
        structure = PaddedCSRMatrix.from_mask(self._ragged_mask()).broadcast_to((2,))
        scores = sddmm_csr(arrays[0], arrays[1], structure, scale=SCALE)
        staged = _run_staged(scores, arrays, d_out, dropout=dropout)
        _assert_bitwise(staged, planned, f"csr/p={dropout}")

    def test_fully_masked_rows_get_exactly_zero_weight(self):
        arrays = _arrays(batch=(2,), seq=24, d=16, seed=3)
        (out, *_), probs = self._planned(arrays, np.ones_like(arrays[2]))
        dense = probs.to_dense(0.0)
        assert np.all(dense[:, 5] == 0.0) and np.all(dense[:, 17] == 0.0)
        assert np.all(out[:, 5] == 0.0) and np.all(out[:, 17] == 0.0)


class TestPrescoredTopK:
    def test_topk_caller_score_buffer_survives_the_fused_softmax(self):
        # Top-K hands its precomputed compressed scores to the op; the fused
        # in-place softmax must copy (owned=False), never overwrite them
        arrays = _arrays(batch=(), seq=16, d=16, seed=11)
        d_out = _lattice(arrays[2].shape, seed=44)
        mask = np.triu(np.ones((16, 16), dtype=bool), -4)
        structure = PaddedCSRMatrix.from_mask(mask)
        scores = sddmm_csr(arrays[0], arrays[1], structure, scale=SCALE)
        before = scores.values.copy()
        planned, _ = _run_op(
            masked_sparse_attention, arrays, d_out, mask=structure, scores=scores
        )
        np.testing.assert_array_equal(scores.values, before)
        _assert_bitwise(_run_staged(scores, arrays, d_out), planned, "prescored")

    def test_prescored_dropout_bitwise(self):
        arrays = _arrays(batch=(2,), seq=16, d=16, seed=12)
        d_out = _lattice(arrays[2].shape, seed=46)
        structure = PaddedCSRMatrix.from_mask(
            np.triu(np.ones((16, 16), dtype=bool), -4)
        ).broadcast_to((2,))
        scores = sddmm_csr(arrays[0], arrays[1], structure, scale=SCALE)
        planned, _ = _run_op(
            masked_sparse_attention, arrays, d_out,
            mask=structure, scores=scores, **_dropout_kwargs(0.25),
        )
        staged = _run_staged(scores, arrays, d_out, dropout=0.25)
        _assert_bitwise(staged, planned, "prescored/p=0.25")


class TestFusedGradcheck:
    def test_finite_difference_gradcheck_on_the_fused_backward(self):
        # central differences are valid only where the perturbation does not
        # flip the N:M selection; boundary coordinates are skipped explicitly
        rng = np.random.default_rng(7)
        shape = (1, 1, 16, 8)
        arrays = [rng.normal(size=shape).astype(np.float32) for _ in range(3)]
        w = rng.normal(size=shape).astype(np.float32)

        def loss(qa, ka, va):
            q, k, v = (Tensor(a, requires_grad=True) for a in (qa, ka, va))
            out, probs = dfss_sparse_attention(q, k, v, pattern="2:4")
            val = (out * Tensor(w)).sum()
            val.backward()
            return float(val.data), (q.grad, k.grad, v.grad), probs.indices

        _, grads, base_idx = loss(*arrays)
        eps = 5e-3
        checked = 0
        for which in range(3):
            for index in [(0, 0, 3, 2), (0, 0, 11, 5), (0, 0, 7, 1)]:
                plus = [a.copy() for a in arrays]
                minus = [a.copy() for a in arrays]
                plus[which][index] += eps
                minus[which][index] -= eps
                val_p, _, idx_p = loss(*plus)
                val_m, _, idx_m = loss(*minus)
                if not (
                    np.array_equal(idx_p, base_idx)
                    and np.array_equal(idx_m, base_idx)
                ):
                    continue  # perturbation crossed a selection boundary
                fd = (val_p - val_m) / (2 * eps)
                assert grads[which][index] == pytest.approx(fd, rel=5e-2, abs=2e-3)
                checked += 1
        assert checked >= 5  # most coordinates must be checkable
