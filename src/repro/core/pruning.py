"""Dynamic N:M selection of attention scores.

The pruning rule is the one implemented by the CUDA epilogue in the paper:
for every group of M consecutive entries along the last axis keep the N
largest ones.  For attention scores "largest" means largest *value* (softmax
is monotonically increasing, so the largest scores carry the largest attention
weights); for static weight pruning the conventional criterion is largest
*absolute* value.  Both are supported via ``criterion``.

All functions are fully vectorised over arbitrary leading batch dimensions.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.backend import FAST, REFERENCE, register_kernel
from repro.core.patterns import NMPattern, resolve_pattern
from repro.utils.shapes import row_blocks

#: Selection criteria supported by :func:`nm_group_topn_indices`.
CRITERIA = ("value", "magnitude")


def _group_view(x: np.ndarray, pattern: NMPattern) -> np.ndarray:
    """Reshape the last axis of ``x`` into ``(groups, M)`` groups."""
    x = np.asarray(x, dtype=np.float32)
    pattern.validate_length(x.shape[-1])
    new_shape = x.shape[:-1] + (x.shape[-1] // pattern.m, pattern.m)
    return x.reshape(new_shape)


def _selection_key(groups: np.ndarray, criterion: str) -> np.ndarray:
    if criterion == "value":
        return groups
    if criterion == "magnitude":
        return np.abs(groups)
    raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")


def nm_group_topn_indices(
    x: np.ndarray, pattern, criterion: str = "value"
) -> np.ndarray:
    """Indices (within each M-group) of the N kept entries.

    Returns an integer array of shape ``x.shape[:-1] + (groups, N)`` whose
    entries are in ``[0, M)`` and sorted ascending within each group, matching
    the hardware metadata convention (lower index stored first).  Ties are
    broken towards the lower index, which is what a left-to-right register
    comparison produces.
    """
    pattern = resolve_pattern(pattern)
    groups = _group_view(x, pattern)
    key = _selection_key(groups, criterion)
    # stable argsort of the negated key keeps the lower index on ties
    order = np.argsort(-key, axis=-1, kind="stable")
    kept = order[..., : pattern.n]
    kept.sort(axis=-1)
    return kept


def nm_prune_mask(x: np.ndarray, pattern, criterion: str = "value") -> np.ndarray:
    """Boolean mask of the same shape as ``x``: ``True`` where the entry survives."""
    pattern = resolve_pattern(pattern)
    x = np.asarray(x, dtype=np.float32)
    kept = nm_group_topn_indices(x, pattern, criterion)
    groups_shape = x.shape[:-1] + (x.shape[-1] // pattern.m, pattern.m)
    mask = np.zeros(groups_shape, dtype=bool)
    np.put_along_axis(mask, kept, True, axis=-1)
    return mask.reshape(x.shape)


def nm_prune_dense(
    x: np.ndarray,
    pattern,
    criterion: str = "value",
    fill_value: float = 0.0,
) -> np.ndarray:
    """Dense copy of ``x`` with pruned entries replaced by ``fill_value``.

    ``fill_value=-inf`` is the right choice when the result feeds a dense
    softmax (pruned logits must not contribute); ``0.0`` matches the dense
    representation of the compressed matrix after softmax.
    """
    mask = nm_prune_mask(x, pattern, criterion)
    out = np.array(x, dtype=np.float32, copy=True)
    out[~mask] = fill_value
    return out


def nm_compress(
    x: np.ndarray, pattern, criterion: str = "value"
) -> Tuple[np.ndarray, np.ndarray]:
    """Compress ``x`` to ``(values, indices)`` under an N:M pattern.

    ``values`` has shape ``x.shape[:-1] + (kept,)`` with ``kept = cols // M * N``
    and holds the surviving entries in row order.  ``indices`` (same shape,
    ``int8``) holds each surviving entry's offset within its M-group, i.e. the
    information carried by the hardware metadata.
    """
    pattern = resolve_pattern(pattern)
    groups = _group_view(x, pattern)
    kept_idx = nm_group_topn_indices(x, pattern, criterion)
    values = np.take_along_axis(groups, kept_idx, axis=-1)
    flat_shape = x.shape[:-1] + (pattern.kept(x.shape[-1]),)
    return (
        values.reshape(flat_shape).astype(np.float32),
        kept_idx.reshape(flat_shape).astype(np.int8),
    )


# --------------------------------------------------------------- fast kernels
#
# The hardware patterns (1:2 and 2:4) admit branch-free selection networks
# that replace the generic per-group argsort with a handful of vectorised
# comparisons.  Tie-breaking matches :func:`nm_group_topn_indices` exactly
# (equal keys keep the lower index), so the fast path is bit-identical to the
# reference on any input with a defined ordering (ties, blocked-ELL
# sentinels, and infinities included; only NaN scores are unspecified, as
# they already are for the argsort reference).
#
# Values are re-assembled by multiplying the *bit patterns* (viewed as
# uint32) with the boolean selection masks instead of ``np.where``, which
# avoids both np.where's slow multi-operand buffering and any float
# arithmetic on the selected values (``0 * inf`` would poison a float
# formulation).


def _group_columns(groups: np.ndarray):
    """Contiguous copies of the M columns of ``(..., G, M)`` groups."""
    return tuple(np.ascontiguousarray(groups[..., i]) for i in range(groups.shape[-1]))


def _keep_bools_24(key_cols):
    """Per-column survival masks for a 2:4 pattern from the 4 key columns.

    Element ``i`` "beats" element ``j`` when it wins the reference tie-break:
    ``key_i >= key_j`` for ``i < j`` and ``key_i > key_j`` for ``i > j``.  The
    beats relation is a total order, so counting wins ranks the group and the
    top-2 are exactly the entries with at least two wins.
    """
    a, b, c, d = key_cols
    ab = a >= b
    ac = a >= c
    ad = a >= d
    bc = b >= c
    bd = b >= d
    cd = c >= d
    one = np.uint8(1)
    keep_a = (ab.view(np.uint8) + ac + ad) >= 2
    keep_b = ((one - ab) + bc + bd) >= 2
    keep_c = ((one - ac) + (one - bc) + cd) >= 2
    keep_d = ((one - ad) + (one - bd) + (one - cd)) >= 2
    return keep_a, keep_b, keep_c, keep_d


def _compress_fast_12(groups: np.ndarray, key: np.ndarray):
    a, b = _group_columns(groups)
    # compare the contiguous column copies: a stride-2 comparison costs about
    # ten times a contiguous one
    key_a, key_b = (a, b) if key is groups else _group_columns(key)
    take_second = key_b > key_a
    bits = b.view(np.uint32) * take_second + a.view(np.uint32) * ~take_second
    return bits.view(np.float32)[..., None], take_second.view(np.int8)[..., None]


def _compress_fast_24(groups: np.ndarray, key: np.ndarray):
    group_cols = _group_columns(groups)
    # the "value" criterion keys on the group entries themselves — reuse the
    # contiguous column copies instead of materialising them twice
    key_cols = group_cols if key is groups else _group_columns(key)
    keep_a, keep_b, keep_c, keep_d = _keep_bools_24(key_cols)
    # kept indices in ascending order: the first kept entry is a if a
    # survives, else b if b survives, else it must be c; symmetrically for
    # the second kept entry from the high end.
    first_b = keep_b & ~keep_a
    first_c = ~(keep_a | keep_b)
    last_c = keep_c & ~keep_d
    last_b = ~(keep_c | keep_d)
    a, b, c, d = (col.view(np.uint32) for col in group_cols)
    v0 = (a * keep_a + b * first_b + c * first_c).view(np.float32)
    v1 = (d * keep_d + c * last_c + b * last_b).view(np.float32)
    i0 = (~keep_a).view(np.uint8) + first_c
    i1 = np.uint8(1) + (keep_d.view(np.uint8) << 1) + last_c
    values = np.stack([v0, v1], axis=-1)
    indices = np.stack([i0, i1], axis=-1).view(np.int8)
    return values, indices


def nm_compress_fast(
    x: np.ndarray, pattern, criterion: str = "value"
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop-in replacement for :func:`nm_compress` using selection networks.

    Specialised for the hardware 1:2 and 2:4 patterns; any other pattern
    falls back to the generic argsort-based :func:`nm_compress`.
    """
    pattern = resolve_pattern(pattern)
    if (pattern.n, pattern.m) not in ((1, 2), (2, 4)):
        return nm_compress(x, pattern, criterion)
    groups = _group_view(x, pattern)
    key = _selection_key(groups, criterion)
    if pattern.m == 2:
        values, indices = _compress_fast_12(groups, key)
    else:
        values, indices = _compress_fast_24(groups, key)
    flat_shape = x.shape[:-1] + (pattern.kept(x.shape[-1]),)
    return values.reshape(flat_shape), indices.reshape(flat_shape)


@register_kernel("nm_prune_mask", FAST)
def nm_prune_mask_fast(x: np.ndarray, pattern, criterion: str = "value") -> np.ndarray:
    """Drop-in replacement for :func:`nm_prune_mask` using selection networks."""
    pattern = resolve_pattern(pattern)
    if (pattern.n, pattern.m) not in ((1, 2), (2, 4)):
        return nm_prune_mask(x, pattern, criterion)
    x = np.asarray(x, dtype=np.float32)
    groups = _group_view(x, pattern)
    key = _selection_key(groups, criterion)
    mask = np.empty(groups.shape, dtype=bool)
    if pattern.m == 2:
        take_second = key[..., 1] > key[..., 0]
        mask[..., 0] = ~take_second
        mask[..., 1] = take_second
    else:
        keep_a, keep_b, keep_c, keep_d = _keep_bools_24(_group_columns(key))
        mask[..., 0] = keep_a
        mask[..., 1] = keep_b
        mask[..., 2] = keep_c
        mask[..., 3] = keep_d
    return mask.reshape(x.shape)


register_kernel("nm_prune_mask", REFERENCE)(nm_prune_mask)


def check_group_offsets(indices: np.ndarray, pattern) -> None:
    """Raise ``ValueError`` unless every kept offset lies in ``[0, M)`` and the
    N offsets of each group are distinct, as every compress writes them."""
    pattern = resolve_pattern(pattern)
    indices = np.asarray(indices)
    if np.any(indices < 0) or np.any(indices >= pattern.m):
        raise ValueError("indices must lie in [0, M)")
    n = pattern.n
    groups = indices.reshape(indices.shape[:-1] + (indices.shape[-1] // n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if np.any(groups[..., i] == groups[..., j]):
                raise ValueError("the kept offsets of a group must be distinct")


def scatter_groups(
    values: np.ndarray, indices: np.ndarray, pattern: NMPattern, cols: int,
    fill_value: float = 0.0,
) -> np.ndarray:
    """Scatter compressed values into a dense ``(..., cols)`` array, unchecked.

    Each of the M lanes of a group is assembled from the N kept values and
    their in-group offsets by multiplying the values' bit patterns (as uint32)
    with the offset match, then the lanes are interleaved; rows are processed
    in cache-sized blocks.  Kept lanes carry their value's exact bits
    (``-0.0``, infinities and NaN included), the others ``fill_value``.  The
    offsets must pass :func:`check_group_offsets`: a repeated offset would add
    two bit patterns.
    """
    n, m = pattern.n, pattern.m
    values = np.asarray(values, dtype=np.float32)
    fill = np.float32(fill_value).view(np.uint32)
    bits = values.view(np.uint32).reshape(math.prod(values.shape[:-1]), cols // m, n)
    offsets = np.asarray(indices).reshape(bits.shape)
    dense = np.empty(bits.shape[:-1] + (m,), dtype=np.uint32)
    for r0, r1 in row_blocks(bits.shape[0], cols):
        kept = [
            (np.ascontiguousarray(bits[r0:r1, :, j]),
             np.ascontiguousarray(offsets[r0:r1, :, j]))
            for j in range(n)
        ]
        for lane in range(m):
            matches = [kept_offsets == lane for _, kept_offsets in kept]
            lane_bits = kept[0][0] * matches[0]
            for (kept_bits, _), match in zip(kept[1:], matches[1:]):
                lane_bits += kept_bits * match
            if fill:
                lane_bits += fill * ~np.logical_or.reduce(matches)
            dense[r0:r1, :, lane] = lane_bits
    return dense.view(np.float32).reshape(values.shape[:-1] + (cols,))


def nm_decompress(
    values: np.ndarray, indices: np.ndarray, pattern, cols: int, fill_value: float = 0.0
) -> np.ndarray:
    """Inverse of :func:`nm_compress`: scatter compressed values back to dense."""
    pattern = resolve_pattern(pattern)
    pattern.validate_length(cols)
    values = np.asarray(values, dtype=np.float32)
    indices = np.asarray(indices)
    if values.shape != indices.shape:
        raise ValueError(
            f"values shape {values.shape} and indices shape {indices.shape} differ"
        )
    expected_kept = pattern.kept(cols)
    if values.shape[-1] != expected_kept:
        raise ValueError(
            f"compressed width {values.shape[-1]} does not match kept({cols})={expected_kept}"
        )
    check_group_offsets(indices, pattern)
    return scatter_groups(values, indices, pattern, cols, fill_value)


def global_column_indices(indices: np.ndarray, pattern, cols: int) -> np.ndarray:
    """Convert within-group offsets to absolute column indices in the dense matrix."""
    pattern = resolve_pattern(pattern)
    pattern.validate_length(cols)
    indices = np.asarray(indices)
    groups = cols // pattern.m
    kept = groups * pattern.n
    if indices.shape[-1] != kept:
        raise ValueError(
            f"indices width {indices.shape[-1]} does not match kept({cols})={kept}"
        )
    # int32 offsets: half the expansion cost of int64, and sequence lengths
    # are far below 2**31 columns
    group_base = np.repeat(np.arange(groups, dtype=np.int32) * pattern.m, pattern.n)
    return indices.astype(np.int32) + group_base


def density_of_mask(mask: np.ndarray) -> float:
    """Fraction of ``True`` entries in a boolean mask (the paper's density ``s``)."""
    mask = np.asarray(mask, dtype=bool)
    return float(mask.mean()) if mask.size else 0.0
