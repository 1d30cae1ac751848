"""Property test: ``dfss_attention`` under ``reference`` matches ``fast``.

Both backends run through the compiled :class:`~repro.core.plan.AttentionPlan`
(``reference`` builds the staged oracle plan, ``fast`` the fused one), so this
checks the one execution path over drawn shapes and patterns rather than the
fixed grid of :mod:`tests.core.test_backend_parity`.  Inputs come from the
same coarse integer lattice as that suite: every product and partial sum is
exact in float32, so both backends score bit-identically and no near-tie can
flip an N:M selection between them.  The gradient and ragged padded-CSR
properties run the autograd ops (forward and fused backward) the same way.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attention import dfss_attention
from repro.core.backend import FAST, REFERENCE
from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.patterns import resolve_pattern
from repro.nn.autograd import Tensor
from repro.nn.sparse_attention import dfss_sparse_attention, masked_sparse_attention


def _lattice(shape, seed, denom=8, span=16):
    rng = np.random.default_rng(seed)
    return (rng.integers(-span, span + 1, size=shape) / denom).astype(np.float32)


@st.composite
def problems(draw):
    pattern = draw(st.sampled_from(["1:2", "2:4"]))
    m = resolve_pattern(pattern).m
    shape = (
        draw(st.integers(1, 2)),
        draw(st.integers(1, 3)),
        m * draw(st.integers(1, 48 // m)),
        draw(st.sampled_from([8, 16, 24, 32])),
    )
    seed = draw(st.integers(0, 2**16))
    return pattern, tuple(_lattice(shape, seed + i) for i in range(3))


@settings(max_examples=30, deadline=None)
@given(problems())
def test_reference_matches_fast_through_the_plan(problem):
    pattern, (q, k, v) = problem
    out_ref, w_ref = dfss_attention(
        q, k, v, pattern=pattern, return_weights=True, backend=REFERENCE
    )
    out_fast, w_fast = dfss_attention(
        q, k, v, pattern=pattern, return_weights=True, backend=FAST
    )
    np.testing.assert_array_equal(w_ref.indices, w_fast.indices)
    np.testing.assert_allclose(w_ref.values, w_fast.values, atol=1e-7)
    np.testing.assert_allclose(out_fast, out_ref, rtol=1e-5, atol=1e-6)


def _fwd_bwd(op, arrays, d_out, backend, **kwargs):
    q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
    out, _ = op(q, k, v, backend=backend, **kwargs)
    (out * Tensor(d_out)).sum().backward()
    return out.data, q.grad, k.grad, v.grad


@settings(max_examples=20, deadline=None)
@given(problems(), st.integers(0, 2**16))
def test_reference_matches_fast_gradients_through_the_plan(problem, seed):
    pattern, arrays = problem
    d_out = _lattice(arrays[2].shape, seed)
    ref = _fwd_bwd(dfss_sparse_attention, arrays, d_out, REFERENCE, pattern=pattern)
    fast = _fwd_bwd(dfss_sparse_attention, arrays, d_out, FAST, pattern=pattern)
    for r, f in zip(ref, fast):
        np.testing.assert_allclose(f, r, rtol=1e-5, atol=1e-6)


@st.composite
def ragged_problems(draw):
    seq = draw(st.integers(2, 40))
    d = draw(st.sampled_from([8, 16]))
    batch = draw(st.integers(1, 2))
    below = draw(st.integers(0, seq - 1))
    above = draw(st.integers(0, seq - 1))
    mask = np.triu(np.tril(np.ones((seq, seq), dtype=bool), above), -below)
    for row in draw(st.lists(st.integers(0, seq - 1), max_size=3)):
        mask[row] = False  # fully-masked rows
    seed = draw(st.integers(0, 2**16))
    arrays = tuple(_lattice((batch, seq, d), seed + i) for i in range(3))
    return mask, arrays, _lattice((batch, seq, d), seed + 3)


@settings(max_examples=20, deadline=None)
@given(ragged_problems())
def test_reference_matches_fast_on_ragged_csr_through_the_plan(problem):
    mask, arrays, d_out = problem
    structure = PaddedCSRMatrix.from_mask(mask)
    ref = _fwd_bwd(masked_sparse_attention, arrays, d_out, REFERENCE, mask=structure)
    fast = _fwd_bwd(masked_sparse_attention, arrays, d_out, FAST, mask=structure)
    for r, f in zip(ref, fast):
        np.testing.assert_allclose(f, r, rtol=1e-5, atol=1e-6)
