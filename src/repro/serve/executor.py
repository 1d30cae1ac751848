"""Left-fold reference kernels for the serving engine: the isolation oracle.

Serving executes every request through the compiled
:class:`~repro.core.plan.AttentionPlan`; nothing here is on that path.  The
three stage kernels below (:func:`ragged_sddmm` / :func:`ragged_masked_softmax`
/ :func:`ragged_spmm`) spell out the semantics of the pipeline on one 2-D
padded-CSR structure as a Python left fold over lanes in ascending order.
Trailing padding lanes contribute an exact additive identity (``+0.0``; the
accumulator can never be ``-0.0`` because it starts at ``+0.0`` and
``+0.0 + ±0.0 = +0.0``), so even re-padding a structure to a wider lane count
leaves their output bit-for-bit unchanged.  The serving tests compare every
served output against this oracle on the request's own mask.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.padded_csr import PaddedCSRMatrix
from repro.core.sddmm import MASKED_SCORE

__all__ = ["ragged_sddmm", "ragged_masked_softmax", "ragged_spmm"]


def ragged_sddmm(
    q: np.ndarray,
    k: np.ndarray,
    structure: PaddedCSRMatrix,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Sampled dense-dense scores ``(q kᵀ) * scale`` on the stored lanes.

    ``q`` is ``(rows, d)``, ``k`` is ``(dense_cols, d)`` — one sequence's
    query/key rows — and ``structure`` a 2-D padded-CSR structure whose
    columns index into ``k``.  Padding lanes are stamped with
    the ``MASKED_SCORE`` sentinel.  One einsum per lane keeps the ``d``
    reduction tree independent of the batch extents.
    """
    rows, d = q.shape
    if structure.batch_shape != () or structure.rows != rows:
        raise ValueError(
            f"structure rows {structure.dense_shape} do not match q rows {rows}"
        )
    if k.shape != (structure.dense_cols, d):
        raise ValueError(
            f"k shape {k.shape} != ({structure.dense_cols}, {d})"
        )
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    qs = q * np.float32(scale)
    cols = structure.cols
    scores = np.empty((rows, structure.width), dtype=np.float32)
    for lane in range(structure.width):
        scores[:, lane] = np.einsum("rd,rd->r", k[cols[:, lane]], qs)
    return np.where(structure.valid_lanes(), scores, MASKED_SCORE)


def ragged_masked_softmax(
    scores: np.ndarray, structure: PaddedCSRMatrix
) -> np.ndarray:
    """Row softmax over the valid lanes; fully masked rows get exactly zero.

    The max is width-invariant by construction (padding lanes carry the
    sentinel, and ``max`` is exactly associative); the denominator is a left
    fold over lanes so appending padding lanes appends exact ``+0.0`` terms.
    """
    valid = structure.valid_lanes()
    peak = scores.max(axis=-1, keepdims=True)
    exp = np.where(valid, np.exp(scores - peak), np.float32(0.0))
    denom = np.zeros(exp.shape[:-1], dtype=np.float32)
    for lane in range(exp.shape[-1]):
        denom = denom + exp[:, lane]
    safe = np.where(denom > np.float32(0.0), denom, np.float32(1.0))
    return exp / safe[:, None]


def ragged_spmm(
    probs: np.ndarray, structure: PaddedCSRMatrix, v: np.ndarray
) -> np.ndarray:
    """``probs @ v`` on the compressed lanes, accumulated as a left lane fold."""
    rows, width = probs.shape
    out = np.zeros((rows, v.shape[-1]), dtype=np.float32)
    cols = structure.cols
    for lane in range(width):
        out = out + probs[:, lane, None] * v[cols[:, lane]]
    return out
