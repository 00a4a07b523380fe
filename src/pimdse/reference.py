"""Pure-integer reference semantics for a quantized design point.

Implements the same dataflow conventions as the crossbar-backed execution
with plain numpy integer arithmetic only; no crossbar machinery is used
(only its ``OutOfRange`` error), so this is the independent oracle for
end-to-end equivalence checks.
"""

from __future__ import annotations

import numpy as np

from .crossbar import OutOfRange
from .design_space import STEM, ModelConfig, OperatorKind

ACTIVATION_BITS = 8  # set here, not imported from mapping, so the oracle stays independent
_LIMIT = (1 << (ACTIVATION_BITS - 1)) - 1
# Weight values ``_product`` multiplies at a time (512 KiB as int64), so a
# product never holds an int64 copy of a whole weight.
_PRODUCT_BLOCK_VALUES = 1 << 16


def _clamp(values):
    """Saturate to the activation range, as int64. A float entry must be
    finite and integral (else ``OutOfRange``) and is clipped before the
    cast; the same rule as the crossbar path's, written out here."""
    v = np.asarray(values)
    if v.dtype.kind == "f":
        if not (np.isfinite(v) & (v == np.trunc(v))).all():
            raise OutOfRange("activations must be finite integers")
        v = np.clip(v, -_LIMIT, _LIMIT)
    return np.clip(np.asarray(v, dtype=np.int64), -_LIMIT, _LIMIT)


def _align(mat, width):
    if mat.shape[1] == width:
        return mat
    if mat.shape[1] > width:
        return mat[:, :width]
    out = np.zeros((mat.shape[0], width), dtype=mat.dtype)
    out[:, : mat.shape[1]] = mat
    return out


def _product(weight, x: np.ndarray) -> np.ndarray:
    """``weight @ x``, a block of whole weight rows (at most
    ``_PRODUCT_BLOCK_VALUES`` values, at least one row) at a time. numpy
    promotes only the block to the product's dtype (int64 for an integer
    weight), and each output row is its weight row's own product, so the
    result is the whole matrix's, exactly, whatever the block size."""
    w = np.asarray(weight)
    out = np.empty((w.shape[0],) + x.shape[1:], dtype=np.result_type(w, x))
    step = max(1, _PRODUCT_BLOCK_VALUES // max(1, w.shape[1]))
    for r in range(0, w.shape[0], step):
        np.matmul(w[r : r + step], x, out=out[r : r + step])
    return out


def strict_upper_pairs(x: np.ndarray) -> np.ndarray:
    """Row-major flattening of the strict upper triangle of X X^T."""
    g = x @ x.T
    m = g.shape[0]
    return np.asarray([g[i, j] for i in range(m) for j in range(i + 1, m)], dtype=np.int64)


def fm_interaction(vectors: np.ndarray) -> np.ndarray:
    """Square of the per-coordinate sum minus the per-coordinate sum of squares."""
    s = vectors.sum(axis=0)
    return s * s - (vectors * vectors).sum(axis=0)


def fm_interaction_pairwise(vectors: np.ndarray) -> np.ndarray:
    """Second oracle for the same quantity: 2 * sum over pairs of elementwise products."""
    n = vectors.shape[0]
    acc = np.zeros(vectors.shape[1], dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            acc += vectors[i] * vectors[j]
    return 2 * acc


def reference_forward(
    model: ModelConfig,
    dense_in,
    sparse_in,
    weights: dict[str, np.ndarray],
) -> np.ndarray:
    """Forward pass of the quantized network in exact integer arithmetic.

    Every weight product runs through :func:`_product`, a row block at a
    time, so the pass takes no int64 copy of a weight, whatever its dtype
    (:func:`pimdse.mapping.random_weights` gives int8)."""
    n_s = model.num_sparse_features
    dense_out = {STEM: _clamp(dense_in)}
    sparse_out = {STEM: _clamp(sparse_in)}

    def gather_dense(sources):
        return np.concatenate([dense_out[s] for s in sources])

    def gather_sparse(sources, dim_s):
        return np.vstack([_align(sparse_out[s], dim_s) for s in sources])

    for blk in model.blocks:
        d_acc = np.zeros(blk.dim_d, dtype=np.int64)
        for op in blk.dense_ops:
            op_id = f"b{blk.index}.dense.{op.kind.value}"
            if op.kind == OperatorKind.FC:
                y = _product(weights[op_id], gather_dense(op.inputs))
            elif op.kind == OperatorKind.DP:
                h = _clamp(_product(weights[f"{op_id}.fc_front"], gather_dense(op.inputs)))
                e = _clamp(_product(weights[f"{op_id}.efc"], gather_sparse(op.inputs, blk.dim_s)))
                x = np.vstack([h[None, :], e])
                pairs = _clamp(strict_upper_pairs(x))
                y = _product(weights[f"{op_id}.fc_out"], pairs)
            else:  # FM
                ix = _clamp(fm_interaction(gather_sparse(op.inputs, blk.dim_s)))
                y = _product(weights[f"{op_id}.fc_out"], ix)
            d_acc += _clamp(y)
        d_acc = _clamp(np.maximum(d_acc, 0))

        s_acc = np.zeros((n_s, blk.dim_s), dtype=np.int64)
        for op in blk.sparse_ops:
            op_id = f"b{blk.index}.sparse.{op.kind.value}"
            if op.kind == OperatorKind.EFC:
                ys = _product(weights[op_id], gather_sparse(op.inputs, blk.dim_s))
            else:  # DSI
                ys = _product(weights[op_id], gather_dense(op.inputs)).reshape(n_s, blk.dim_s)
            s_acc += _clamp(ys)
        s_acc = _clamp(s_acc)

        dense_out[blk.index] = d_acc
        sparse_out[blk.index] = s_acc

    return _product(weights["final_fc"], dense_out[model.blocks[-1].index])
