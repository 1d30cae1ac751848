"""Request preparation and batch execution for the serving engine.

A :class:`~repro.serve.engine.ServeRequest` carries ``(..., seq, d)`` tensors
with arbitrary leading dimensions (heads, beams).  Preparation resolves the
request's compressed attention structure at enqueue time:

* static-mask mechanisms build one 2-D structure from a representative slice
  and share it — through the :class:`~repro.serve.cache.StructureCache` —
  with every head of every request of the same (mechanism, config, lengths);
* content-dependent mechanisms (DFSS, Top-K, Routing, …) and explicit
  ``mask=`` requests compress the request's own stacked masks into one
  ``(n_segments, rows, width)`` structure.

Execution runs every structure through the compiled
:class:`~repro.core.plan.AttentionPlan` — the same fused sddmm → softmax →
spmm path autograd and :class:`~repro.engine.AttentionEngine` use — with one
stacked plan call per structure.  The plan's kernels compute every slice of a
stack with the shapes that slice alone fixes, so a request's output is
bitwise-identical whether it was served alone or inside any batch.

Requests whose mechanism is not ``batchable`` never reach this path; the
server executes them one by one through their
:class:`~repro.engine.AttentionEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.plan import plan_for_structure
from repro.serve.cache import StructureCache

__all__ = [
    "PreparedRequest",
    "structure_cache_key",
    "prepare_request",
    "run_ragged_batch",
]


@dataclass
class PreparedRequest:
    """A request resolved for execution: route, structure, cache accounting."""

    request: "object"  # ServeRequest; untyped to avoid the circular import
    mechanism: str
    batchable: bool
    #: compressed mask structure: a 2-D structure every segment shares
    #: (static-mask mechanisms), or a ``(n_segments, rows, width)`` stack of
    #: the request's own masks.  None on the engine fallback route, and
    #: released by the server once the request has been executed.
    structure: Optional[PaddedCSRMatrix]
    #: True/False for static-mask mechanisms (did the structure cache hit),
    #: None when no cache lookup happened (content-dependent or custom mask).
    cache_hit: Optional[bool]
    #: fallback engine for non-batchable requests (None on the batched path).
    engine: Optional[object] = None


def structure_cache_key(
    mechanism: str, config, n_q: int, n_k: int
) -> Tuple[Hashable, ...]:
    """Cache key of a static mask: mechanism, full config, sequence lengths.

    Config values are keyed by ``repr`` so unhashable members (e.g. a blocked
    mask object) cannot poison the key; two configs with equal reprs build
    identical masks for static mechanisms.
    """
    described = config.describe()
    return (
        mechanism,
        tuple(sorted((name, repr(value)) for name, value in described.items())),
        n_q,
        n_k,
    )


def _flatten(request) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reshape the request tensors to ``(n_segments, seq, d)``."""
    q, k, v = request.q, request.k, request.v
    n_seg = int(np.prod(q.shape[:-2], dtype=np.int64))
    return (
        q.reshape(n_seg, q.shape[-2], q.shape[-1]),
        k.reshape(n_seg, k.shape[-2], k.shape[-1]),
        v.reshape(n_seg, v.shape[-2], v.shape[-1]),
    )


def prepare_request(request, engine, cache: StructureCache) -> PreparedRequest:
    """Resolve one request's route and structure, static masks via ``cache``.

    ``engine`` is the request's :class:`~repro.engine.AttentionEngine` (or
    ``None`` when the request carries an explicit ``mask``, which bypasses the
    mechanism registry entirely).  Structure resolution happens here — at
    enqueue time — so the deadline scheduler's flush is pure kernel work.
    """
    q3, k3, _ = _flatten(request)
    n_seg, n_q, n_k = q3.shape[0], q3.shape[1], k3.shape[1]
    if request.mask is not None:
        mask = np.asarray(request.mask, dtype=bool)
        if mask.shape[-2:] != (n_q, n_k):
            raise ValueError(
                f"mask trailing shape {mask.shape[-2:]} != ({n_q}, {n_k})"
            )
        masks = np.broadcast_to(mask, request.q.shape[:-2] + (n_q, n_k))
        structure = PaddedCSRMatrix.from_mask(masks.reshape(n_seg, n_q, n_k))
        return PreparedRequest(request, "mask", True, structure, None)

    spec = engine.spec
    if not spec.batchable:
        return PreparedRequest(request, spec.name, False, None, None, engine=engine)

    if spec.static_mask:
        key = structure_cache_key(spec.name, engine.config, n_q, n_k)
        cache_hit = key in cache
        # the mask depends only on (config, lengths): one representative 2-D
        # slice builds the structure every segment of every request shares
        shared = cache.get(
            key,
            lambda: PaddedCSRMatrix.from_mask(
                np.asarray(engine.attention_mask(q3[0], k3[0]), dtype=bool)
            ),
        )
        return PreparedRequest(request, spec.name, True, shared, cache_hit)

    mask = engine.attention_mask(q3, k3)
    if mask is None:
        raise ValueError(
            f"mechanism {spec.name!r} is flagged batchable but produced no "
            f"attention mask"
        )
    masks = np.broadcast_to(np.asarray(mask, dtype=bool), (n_seg, n_q, n_k))
    return PreparedRequest(
        request, spec.name, True, PaddedCSRMatrix.from_mask(masks), None
    )


def _attend(
    structure: PaddedCSRMatrix,
    mechanism: str,
    q3: np.ndarray,
    k3: np.ndarray,
    v3: np.ndarray,
) -> np.ndarray:
    """One stacked plan call over a ``(g, rows, width)`` structure."""
    plan = plan_for_structure(structure, mechanism=mechanism)
    return plan.forward(q3, k3, v3, structure=structure)


def run_ragged_batch(prepared: Sequence[PreparedRequest]) -> List[np.ndarray]:
    """Execute batchable prepared requests; one output per request.

    Every structure runs through the compiled
    :class:`~repro.core.plan.AttentionPlan` of the current backend (the
    server scopes its own).  Requests sharing one cached 2-D structure —
    the same (mechanism, config, lengths) — are stacked into a single plan
    call over ``structure.broadcast_to((g,))``, all their heads together; a
    request with its own stacked structure makes one plan call for all its
    heads.  Each output is reshaped back to its request's leading
    dimensions and is bitwise-identical to a batch of one.
    """
    outputs: List[Optional[np.ndarray]] = [None] * len(prepared)
    shared: Dict[int, List[int]] = {}
    for index, p in enumerate(prepared):
        if p.structure.batch_shape:
            outputs[index] = _attend(p.structure, p.mechanism, *_flatten(p.request))
        else:
            shared.setdefault(id(p.structure), []).append(index)

    for members in shared.values():
        parts = [_flatten(prepared[i].request) for i in members]
        q3, k3, v3 = (np.concatenate(stage, axis=0) for stage in zip(*parts))
        first = prepared[members[0]]
        out3 = _attend(
            first.structure.broadcast_to((q3.shape[0],)), first.mechanism, q3, k3, v3
        )
        cursor = 0
        for i, (q_i, _, _) in zip(members, parts):
            outputs[i] = out3[cursor:cursor + q_i.shape[0]]
            cursor += q_i.shape[0]

    return [
        out.reshape(p.request.q.shape[:-1] + (out.shape[-1],))
        for p, out in zip(prepared, outputs)
    ]
