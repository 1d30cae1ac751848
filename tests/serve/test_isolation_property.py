"""Property test: a served request's output depends only on the request.

Random mixes of static-mask mechanisms, content-dependent mechanisms and
explicit masks, across lengths, head counts and batch limits, must give
every request the bits it gets when served alone, and values that match the
left-fold oracle on its own mask under either backend.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.padded_csr import PaddedCSRMatrix
from repro.engine import AttentionEngine
from repro.serve import (
    DEFAULT_MIX,
    ServeRequest,
    ragged_masked_softmax,
    ragged_sddmm,
    ragged_spmm,
    serve,
)

MECHANISMS = tuple(DEFAULT_MIX) + (("dfss_2:4", {}), ("topk", {"k": 8}), ("mask", {}))
RTOL, ATOL = 1e-5, 1e-6


@st.composite
def request_mixes(draw):
    specs = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(MECHANISMS) - 1),
                st.sampled_from([16, 32, 48]),
                st.integers(1, 3),
                st.booleans(),  # explicit masks: per-head (3-D) or shared (2-D)
            ),
            min_size=1,
            max_size=6,
        )
    )
    return specs, draw(st.sampled_from([1, 4, 16])), draw(st.integers(0, 2**16))


def _build(specs, seed):
    rng = np.random.default_rng(seed)
    requests = []
    for index, (mech, length, heads, per_head) in enumerate(specs):
        name, options = MECHANISMS[mech]
        q, k, v = (
            rng.standard_normal((heads, length, 8), dtype=np.float32) for _ in range(3)
        )
        mask = None
        if name == "mask":
            shape = (heads, length, length) if per_head else (length, length)
            mask = rng.random(shape) < 0.3
        requests.append(
            ServeRequest(
                q=q, k=k, v=v, mechanism="dfss_2:4" if mask is not None else name,
                options=dict(options), mask=mask, request_id=f"r{index}",
            )
        )
    return requests


def _own_masks(request):
    """The request's per-head boolean masks, computed without the server."""
    heads, length = request.q.shape[0], request.q.shape[1]
    if request.mask is not None:
        return np.broadcast_to(request.mask, (heads, length, length))
    engine = AttentionEngine(request.mechanism, _options=dict(request.options))
    if engine.spec.static_mask:
        mask = engine.attention_mask(request.q[0], request.k[0])
    else:
        mask = engine.attention_mask(request.q, request.k)
    return np.broadcast_to(np.asarray(mask, dtype=bool), (heads, length, length))


def _oracle(request):
    out = []
    for head, mask in enumerate(_own_masks(request)):
        structure = PaddedCSRMatrix.from_mask(mask)
        q, k, v = request.q[head], request.k[head], request.v[head]
        probs = ragged_masked_softmax(ragged_sddmm(q, k, structure), structure)
        out.append(ragged_spmm(probs, structure, v))
    return np.stack(out)


@settings(max_examples=25, deadline=None)
@given(request_mixes())
def test_batched_output_is_the_request_alone(mix):
    specs, max_batch_size, seed = mix
    requests = _build(specs, seed)
    batched = serve(requests, max_batch_size=max_batch_size)
    reference = serve(requests, max_batch_size=max_batch_size, backend="reference")
    for request, result, ref in zip(requests, batched, reference):
        alone = serve([request], max_batch_size=1)[0]
        assert result.output.tobytes() == alone.output.tobytes(), request.request_id
        assert result.finite
        np.testing.assert_allclose(result.output, _oracle(request), rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(ref.output, result.output, rtol=RTOL, atol=ATOL)
