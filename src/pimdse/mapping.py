"""Operator-to-crossbar mapping and the functional forward pass.

Each operator of a design point becomes a ``MappedOperator``: tile counts,
bit planes, engine assignment, and (for runtime-programmed engines) the
number of vectors written during inference. ``functional_forward`` then
executes the whole mapped model through the bit-accurate crossbar kernel so
that equivalence against a pure-integer reference can be checked exactly.

Dataflow conventions (shared with :mod:`pimdse.reference`):

* The stem exposes a dense vector of width ``embedding_dim`` and a sparse
  matrix of shape ``(num_sparse_features, embedding_dim)``.
* Every block's sparse output has ``num_sparse_features`` rows and the
  block's ``dim_s`` columns; sparse inputs from sources with a different
  width are zero-padded or truncated to the consuming block's ``dim_s``
  before stacking on the feature-count axis.
* Multiple operators in one branch are summed elementwise. Dense branch
  outputs pass through ReLU; sparse outputs pass through unchanged.
* Every operator output is clamped to the symmetric signed activation
  range before it feeds anything downstream; batch size is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .crossbar import (
    ConverterSpec,
    CrossbarSpec,
    SaturationLog,
    ShapeMismatch,
    mbsa_square,
    mvm,
    program_signed,
)
from .design_space import (
    STEM,
    DesignPoint,
    ModelConfig,
    OperatorKind,
    ReRAMConfig,
)

DEFAULT_ACTIVATION_BITS = 8
DEFAULT_EMBEDDING_ROWS = 1024  # assumed rows per embedding table for sizing


class Engine(str, Enum):
    MVM = "MVM"
    DP = "DP"
    FM = "FM"


@dataclass(frozen=True)
class DPGeometry:
    """Reduced geometry of the dot-product interaction stage."""

    k_sparse: int      # sparse features after the front EFC reduction
    merged_rows: int   # k_sparse + 1 (one row contributed by the dense FC)
    pair_count: int    # strict-upper-triangle size

    @staticmethod
    def for_dense_dim(dim_d: int) -> "DPGeometry":
        k = int(round(math.sqrt(2 * dim_d)))
        m = k + 1
        return DPGeometry(k_sparse=k, merged_rows=m, pair_count=m * (m - 1) // 2)


@dataclass(frozen=True)
class MappedOperator:
    """One mapped operator: a leaf with its own tiles, or a composite.

    A composite (``engine`` DP or FM) has ``parts == (*front, engine,
    fc_out)``: the MVM leaves producing the engine's operands (DP: the front
    FC and EFC; FM: none, its operands are source sparse vectors), the
    runtime-programmed engine leaf, and the trailing MVM FC. Every other
    operator is a leaf with ``parts == ()``.
    """

    op_id: str
    kind: OperatorKind
    engine: Engine
    in_dim: int
    out_dim: int
    w_bits: int
    planes: int
    row_tiles: int
    col_tiles: int
    passes: int = 1                # full bit-serial read sweeps per inference
    programming_vectors: int = 0   # runtime-programmed vectors (DP/FM engines)
    mbsa_passes: int = 0
    emits_transposed: bool = False
    parts: tuple["MappedOperator", ...] = ()
    geometry: DPGeometry | None = None
    block_index: int = 0
    branch: str = ""
    consumes: tuple[tuple[int, str], ...] = ()  # (source block, stream)

    @property
    def tiles(self) -> int:
        if self.parts:
            return sum(p.tiles for p in self.parts)
        return self.row_tiles * self.col_tiles

    def leaves(self):
        if self.parts:
            for p in self.parts:
                yield from p.leaves()
        else:
            yield self

    def to_dict(self) -> dict:
        d = {
            "op_id": self.op_id,
            "kind": self.kind.value,
            "engine": self.engine.value,
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "w_bits": self.w_bits,
            "planes": self.planes,
            "row_tiles": self.row_tiles,
            "col_tiles": self.col_tiles,
            "passes": self.passes,
            "programming_vectors": self.programming_vectors,
            "mbsa_passes": self.mbsa_passes,
            "emits_transposed": self.emits_transposed,
            "block_index": self.block_index,
            "branch": self.branch,
            "consumes": [list(c) for c in self.consumes],
        }
        if self.geometry is not None:
            d["geometry"] = {
                "k_sparse": self.geometry.k_sparse,
                "merged_rows": self.geometry.merged_rows,
                "pair_count": self.geometry.pair_count,
            }
        if self.parts:
            d["parts"] = [p.to_dict() for p in self.parts]
        return d


@dataclass(frozen=True)
class MappedModel:
    model: ModelConfig
    reram: ReRAMConfig
    operators: tuple[MappedOperator, ...]  # block operators plus the final FC
    tile_plan: dict
    edges: tuple[tuple[str, str], ...]

    def operator(self, op_id: str) -> MappedOperator:
        for op in self.operators:
            if op.op_id == op_id:
                return op
        raise KeyError(op_id)

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "reram": self.reram.to_dict(),
            "operators": [op.to_dict() for op in self.operators],
            "tile_plan": dict(self.tile_plan),
            "edges": [list(e) for e in self.edges],
        }


def _tile_counts(in_dim: int, out_dim: int, w_bits: int, reram: ReRAMConfig):
    planes = math.ceil(w_bits / reram.cell_bits)
    row_tiles = math.ceil(in_dim / reram.xbar_size)
    col_tiles = math.ceil(out_dim * planes * 2 / reram.xbar_size)  # differential x2
    return planes, row_tiles, col_tiles


# ---------------------------------------------------------------------------
# per-operator mappers
# ---------------------------------------------------------------------------
# Each mapper passes its ``placement`` keywords (``block_index``, ``branch``,
# ``consumes``) to the top-level ``MappedOperator``; ``map_model`` sets them.

def map_fc(
    in_dim: int,
    out_dim: int,
    w_bits: int,
    reram: ReRAMConfig,
    op_id: str = "fc",
    kind: OperatorKind = OperatorKind.FC,
    **placement,
) -> MappedOperator:
    if in_dim < 1 or out_dim < 1:
        raise ValueError("dims must be >= 1")
    planes, rt, ct = _tile_counts(in_dim, out_dim, w_bits, reram)
    return MappedOperator(
        op_id=op_id,
        kind=kind,
        engine=Engine.MVM,
        in_dim=in_dim,
        out_dim=out_dim,
        w_bits=w_bits,
        planes=planes,
        row_tiles=rt,
        col_tiles=ct,
        **placement,
    )


def map_efc(
    n_in: int,
    n_out: int,
    dim_s: int,
    w_bits: int,
    reram: ReRAMConfig,
    op_id: str = "efc",
    **placement,
) -> MappedOperator:
    """Sparse-axis matmul: the weight acts on the feature-count axis and the
    programmed array is swept once per feature column, emitting the output
    column-major (one dim_s-wide vector per output feature)."""
    if n_in < 1 or n_out < 1 or dim_s < 1:
        raise ValueError("dims must be >= 1")
    planes, rt, ct = _tile_counts(n_in, n_out, w_bits, reram)
    return MappedOperator(
        op_id=op_id,
        kind=OperatorKind.EFC,
        engine=Engine.MVM,
        in_dim=n_in,
        out_dim=n_out,
        w_bits=w_bits,
        planes=planes,
        row_tiles=rt,
        col_tiles=ct,
        passes=dim_s,
        emits_transposed=True,
        **placement,
    )


def map_dp(
    dim_d: int,
    dim_s: int,
    n_s: int,
    w_bits: int,
    reram: ReRAMConfig,
    dense_in_dim: int | None = None,
    out_dim: int | None = None,
    op_id: str = "dp",
    **placement,
) -> MappedOperator:
    """Dot-product interaction: front FC (dense -> dim_s), front EFC
    (n_s -> k_sparse), a runtime-programmed pairwise engine, and a trailing
    FC from the flattened pair vector to the dense output width."""
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    dense_in_dim = dim_d if dense_in_dim is None else dense_in_dim
    out_dim = dim_d if out_dim is None else out_dim
    geo = DPGeometry.for_dense_dim(dim_d)
    a_bits = DEFAULT_ACTIVATION_BITS  # runtime operands carry activation width
    fc_front = map_fc(dense_in_dim, dim_s, w_bits, reram, op_id=f"{op_id}.fc_front")
    efc = map_efc(n_s, geo.k_sparse, dim_s, w_bits, reram, op_id=f"{op_id}.efc")
    planes, rt, ct = _tile_counts(dim_s, geo.merged_rows, a_bits, reram)
    engine = MappedOperator(
        op_id=f"{op_id}.engine",
        kind=OperatorKind.DP,
        engine=Engine.DP,
        in_dim=dim_s,
        out_dim=geo.merged_rows,
        w_bits=a_bits,
        planes=planes,
        row_tiles=rt,
        col_tiles=ct,
        passes=geo.merged_rows,
        programming_vectors=geo.merged_rows,
        geometry=geo,
    )
    fc_out = map_fc(geo.pair_count, out_dim, w_bits, reram, op_id=f"{op_id}.fc_out")
    return MappedOperator(
        op_id=op_id,
        kind=OperatorKind.DP,
        engine=Engine.DP,
        in_dim=dense_in_dim,
        out_dim=out_dim,
        w_bits=w_bits,
        planes=planes,
        row_tiles=0,
        col_tiles=0,
        programming_vectors=geo.merged_rows,
        parts=(fc_front, efc, engine, fc_out),
        geometry=geo,
        **placement,
    )


def map_fm(
    n_s: int,
    dim_s: int,
    w_bits: int,
    reram: ReRAMConfig,
    out_dim: int | None = None,
    op_id: str = "fm",
    **placement,
) -> MappedOperator:
    """Factorization machine: a transposed-write crossbar group holding the
    n_s producer vectors plus an MBSA squaring unit, then a trailing FC."""
    if n_s < 2:
        raise ValueError("n_s must be >= 2")
    out_dim = dim_s if out_dim is None else out_dim
    a_bits = DEFAULT_ACTIVATION_BITS
    planes, rt, ct = _tile_counts(n_s, dim_s, a_bits, reram)
    engine = MappedOperator(
        op_id=f"{op_id}.engine",
        kind=OperatorKind.FM,
        engine=Engine.FM,
        in_dim=n_s,
        out_dim=dim_s,
        w_bits=a_bits,
        planes=planes,
        row_tiles=rt,
        col_tiles=ct,
        passes=1,
        programming_vectors=n_s,
        mbsa_passes=n_s + 1,  # each arriving vector squared, plus the sum vector
        emits_transposed=True,
    )
    fc_out = map_fc(dim_s, out_dim, w_bits, reram, op_id=f"{op_id}.fc_out")
    return MappedOperator(
        op_id=op_id,
        kind=OperatorKind.FM,
        engine=Engine.FM,
        in_dim=n_s,
        out_dim=out_dim,
        w_bits=w_bits,
        planes=planes,
        row_tiles=0,
        col_tiles=0,
        programming_vectors=n_s,
        mbsa_passes=n_s + 1,
        parts=(engine, fc_out),
        **placement,
    )


# ---------------------------------------------------------------------------
# whole-model mapping
# ---------------------------------------------------------------------------

# Streams a block operator reads from each of its sources, in edge order.
_CONSUMED_STREAMS = {
    OperatorKind.FC: ("dense",),
    OperatorKind.DP: ("dense", "sparse"),
    OperatorKind.FM: ("sparse",),
    OperatorKind.EFC: ("sparse",),
    OperatorKind.DSI: ("dense",),
}


def _dense_width(model: ModelConfig, source: int) -> int:
    if source == STEM:
        return model.embedding_dim
    return model.blocks[source - 1].dim_d


def map_model(
    point: DesignPoint,
    embedding_rows_per_table: int = DEFAULT_EMBEDDING_ROWS,
) -> MappedModel:
    """Map every operator of a valid design point onto engines and tiles."""
    model, reram = point.model, point.reram
    n_s = model.num_sparse_features
    operators: list[MappedOperator] = []
    edges: list[tuple[str, str]] = []

    for blk in model.blocks:
        for branch, ops in (("dense", blk.dense_ops), ("sparse", blk.sparse_ops)):
            for op in ops:
                op_id = f"b{blk.index}.{branch}.{op.kind.value}"
                consumes = tuple((s, st) for st in _CONSUMED_STREAMS[op.kind] for s in op.inputs)
                at = dict(op_id=op_id, block_index=blk.index, branch=branch, consumes=consumes)
                dense_w = sum(_dense_width(model, s) for s in op.inputs)
                sparse_count = n_s * len(op.inputs)
                if op.kind == OperatorKind.FC:
                    mo = map_fc(dense_w, blk.dim_d, op.weight_bits, reram, **at)
                elif op.kind == OperatorKind.DP:
                    mo = map_dp(
                        blk.dim_d, blk.dim_s, sparse_count, op.weight_bits, reram,
                        dense_in_dim=dense_w, out_dim=blk.dim_d, **at,
                    )
                elif op.kind == OperatorKind.FM:
                    mo = map_fm(
                        sparse_count, blk.dim_s, op.weight_bits, reram, out_dim=blk.dim_d, **at
                    )
                elif op.kind == OperatorKind.EFC:
                    mo = map_efc(sparse_count, n_s, blk.dim_s, op.weight_bits, reram, **at)
                else:  # DSI: an FC producing n_s * dim_s values, then a reshape
                    mo = map_fc(
                        dense_w, n_s * blk.dim_s, op.weight_bits, reram,
                        kind=OperatorKind.DSI, **at,
                    )
                operators.append(mo)
                edges.extend((_stream_ref(s, st), op_id) for s, st in consumes)

    last = model.blocks[-1].index
    final = map_fc(
        model.blocks[-1].dim_d, 1, model.final_fc_bits, reram, op_id="final_fc",
        block_index=last + 1, branch="dense", consumes=((last, "dense"),),
    )
    operators.append(final)
    edges.append((_stream_ref(last, "dense"), "final_fc"))

    tile_plan = _tile_plan(operators, model, reram, embedding_rows_per_table)
    return MappedModel(
        model=model,
        reram=reram,
        operators=tuple(operators),
        tile_plan=tile_plan,
        edges=tuple(edges),
    )


def _stream_ref(source: int, stream: str) -> str:
    return "stem" if source == STEM else f"b{source}.{stream}"


def _tile_plan(operators, model, reram, rows_per_table) -> dict:
    plan = {"mvm_tiles": 0, "dp_tiles": 0, "fm_tiles": 0}
    for op in operators:
        for leaf in op.leaves():
            key = {"MVM": "mvm_tiles", "DP": "dp_tiles", "FM": "fm_tiles"}[leaf.engine.value]
            plan[key] += leaf.row_tiles * leaf.col_tiles
    cells_per_value = math.ceil(DEFAULT_ACTIVATION_BITS / reram.cell_bits)
    total_cells = model.num_sparse_features * rows_per_table * model.embedding_dim * cells_per_value
    plan["memory_tiles"] = math.ceil(total_cells / (reram.xbar_size**2))
    return plan


# ---------------------------------------------------------------------------
# functional execution through the crossbar kernel
# ---------------------------------------------------------------------------

def clamp_activations(values, a_bits: int = DEFAULT_ACTIVATION_BITS) -> np.ndarray:
    """Symmetric saturating quantization to the activation range."""
    lim = (1 << (a_bits - 1)) - 1
    return np.clip(np.asarray(values, dtype=np.int64), -lim, lim)


def _xbar_spec(reram: ReRAMConfig) -> CrossbarSpec:
    return CrossbarSpec(reram.xbar_size, reram.xbar_size, reram.cell_bits)


def _conv(reram: ReRAMConfig) -> ConverterSpec:
    return ConverterSpec(dac_bits=reram.dac_bits, adc_bits=reram.adc_bits)


def run_fc(weight, x, w_bits, reram, a_bits=DEFAULT_ACTIVATION_BITS):
    """One FC through the crossbar: weight is (out, in), programmed transposed."""
    w = np.asarray(weight, dtype=np.int64)
    pt = program_signed(w.T, w_bits, _xbar_spec(reram))
    return mvm(pt, x, a_bits, _conv(reram))


def run_efc(weight, xs, w_bits, reram, a_bits=DEFAULT_ACTIVATION_BITS):
    """Sparse-axis matmul: one programmed array swept per feature column."""
    w = np.asarray(weight, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    if xs.shape[0] != w.shape[1]:
        raise ShapeMismatch(f"EFC expects {w.shape[1]} input features, got {xs.shape[0]}")
    pt = program_signed(w.T, w_bits, _xbar_spec(reram))
    return mvm(pt, xs, a_bits, _conv(reram))


def dp_engine_forward(x_matrix, reram, a_bits=DEFAULT_ACTIVATION_BITS):
    """Pairwise inner products of the merged rows via runtime programming.

    The row matrix is programmed column-wise (its transpose lands on the
    array directly); feeding row i back on the word lines yields its inner
    products with every stored row. Rows 0..m-2 are fed as one batched
    read sharing one saturation log. Returns the strict upper triangle of
    X X^T flattened row-major.
    """
    x = np.asarray(x_matrix, dtype=np.int64)
    m = x.shape[0]
    pt = program_signed(x.T, a_bits, _xbar_spec(reram), orientation="transposed-write")
    products, log = mvm(pt, x[: m - 1].T, a_bits, _conv(reram))  # [j, i] = <x_j, x_i>
    return products.T[np.triu_indices(m - 1, 1, m)], log


def fm_engine_forward(vectors, reram, a_bits=DEFAULT_ACTIVATION_BITS):
    """Square-of-sum minus sum-of-squares over the programmed vectors.

    The per-coordinate sum comes from an all-ones word-line read of the
    transposed-write group (tiled by the crossbar size); the MBSA unit
    squares that sum and each arriving vector, and the difference is exact
    whenever the read reports no saturation.
    """
    vecs = np.asarray(vectors, dtype=np.int64)
    if vecs.ndim != 2 or vecs.shape[0] < 2:
        raise ShapeMismatch("FM needs at least two vectors")
    pt = program_signed(vecs, a_bits, _xbar_spec(reram), orientation="transposed-write")
    ones = np.ones(vecs.shape[0], dtype=np.int64)
    s, log = mvm(pt, ones, 2, _conv(reram))  # ones need only a 2-bit drive

    sq_bits = max(1, int(np.abs(s).max()).bit_length())
    square_of_sum = mbsa_square(np.abs(s), sq_bits)
    v_bits = max(1, int(np.abs(vecs).max()).bit_length()) if vecs.size else 1
    sum_of_squares = np.zeros(vecs.shape[1], dtype=np.int64)
    for v in vecs:  # squared by the MBSA as each producer vector arrives
        sum_of_squares += mbsa_square(np.abs(v), v_bits)
    return square_of_sum - sum_of_squares, log


def random_weights(mm: MappedModel, seed: int) -> dict[str, np.ndarray]:
    """Integer weights in range for every weight-carrying leaf, drawn in
    leaf order."""
    rng = np.random.default_rng(seed)
    out = {}
    for op in mm.operators:
        for leaf in op.leaves():
            if leaf.engine is Engine.MVM:
                lim = (1 << (leaf.w_bits - 1)) - 1
                out[leaf.op_id] = rng.integers(
                    -lim, lim + 1, size=(leaf.out_dim, leaf.in_dim), dtype=np.int64
                )
    return out


def functional_forward(
    mm: MappedModel,
    dense_in,
    sparse_in,
    weights: dict[str, np.ndarray],
    a_bits: int = DEFAULT_ACTIVATION_BITS,
) -> tuple[np.ndarray, dict[str, SaturationLog]]:
    """Execute the mapped model through the crossbar kernel, batch size one.

    Returns the final dense output and one saturation log per leaf
    operator. With lossless converter settings the output matches the
    pure-integer reference exactly.
    """
    model, reram = mm.model, mm.reram
    n_s = model.num_sparse_features
    dense_in = np.asarray(dense_in, dtype=np.int64)
    sparse_in = np.asarray(sparse_in, dtype=np.int64)
    if dense_in.shape != (model.embedding_dim,):
        raise ShapeMismatch(f"dense input must have shape ({model.embedding_dim},)")
    if sparse_in.shape != (n_s, model.embedding_dim):
        raise ShapeMismatch(f"sparse input must have shape ({n_s}, {model.embedding_dim})")

    dense_out = {STEM: clamp_activations(dense_in, a_bits)}
    sparse_out = {STEM: clamp_activations(sparse_in, a_bits)}
    logs: dict[str, SaturationLog] = {}

    def gather_dense(sources):
        return np.concatenate([dense_out[s] for s in sources])

    def gather_sparse(sources, dim_s):
        mats = [_align_width(sparse_out[s], dim_s) for s in sources]
        return np.vstack(mats)

    for blk in model.blocks:
        d_acc = np.zeros(blk.dim_d, dtype=np.int64)
        for op in blk.dense_ops:
            op_id = f"b{blk.index}.dense.{op.kind.value}"
            if op.kind == OperatorKind.FC:
                y, lg = run_fc(weights[op_id], gather_dense(op.inputs), op.weight_bits, reram, a_bits)
                logs[op_id] = lg
            elif op.kind == OperatorKind.DP:
                y = _dp_forward(op, op_id, blk, gather_dense, gather_sparse, weights, reram, a_bits, logs)
            else:  # FM
                xs = gather_sparse(op.inputs, blk.dim_s)
                ix, lg = fm_engine_forward(xs, reram, a_bits)
                logs[f"{op_id}.engine"] = lg
                y, lg2 = run_fc(
                    weights[f"{op_id}.fc_out"], clamp_activations(ix, a_bits),
                    op.weight_bits, reram, a_bits,
                )
                logs[f"{op_id}.fc_out"] = lg2
            d_acc += clamp_activations(y, a_bits)
        d_acc = clamp_activations(np.maximum(d_acc, 0), a_bits)  # ReLU on dense

        s_acc = np.zeros((n_s, blk.dim_s), dtype=np.int64)
        for op in blk.sparse_ops:
            op_id = f"b{blk.index}.sparse.{op.kind.value}"
            if op.kind == OperatorKind.EFC:
                ys, lg = run_efc(
                    weights[op_id], gather_sparse(op.inputs, blk.dim_s),
                    op.weight_bits, reram, a_bits,
                )
            else:  # DSI
                flat, lg = run_fc(weights[op_id], gather_dense(op.inputs), op.weight_bits, reram, a_bits)
                ys = flat.reshape(n_s, blk.dim_s)
            logs[op_id] = lg
            s_acc += clamp_activations(ys, a_bits)
        s_acc = clamp_activations(s_acc, a_bits)  # identity activation

        dense_out[blk.index] = d_acc
        sparse_out[blk.index] = s_acc

    logit, lg = run_fc(
        weights["final_fc"], dense_out[model.blocks[-1].index],
        model.final_fc_bits, reram, a_bits,
    )
    logs["final_fc"] = lg
    return logit, logs


def _dp_forward(op, op_id, blk, gather_dense, gather_sparse, weights, reram, a_bits, logs):
    h, lg = run_fc(weights[f"{op_id}.fc_front"], gather_dense(op.inputs), op.weight_bits, reram, a_bits)
    logs[f"{op_id}.fc_front"] = lg
    h = clamp_activations(h, a_bits)
    e, lg = run_efc(
        weights[f"{op_id}.efc"], gather_sparse(op.inputs, blk.dim_s),
        op.weight_bits, reram, a_bits,
    )
    logs[f"{op_id}.efc"] = lg
    e = clamp_activations(e, a_bits)
    x = np.vstack([h[None, :], e])
    pairs, lg = dp_engine_forward(x, reram, a_bits)
    logs[f"{op_id}.engine"] = lg
    y, lg = run_fc(
        weights[f"{op_id}.fc_out"], clamp_activations(pairs, a_bits),
        op.weight_bits, reram, a_bits,
    )
    logs[f"{op_id}.fc_out"] = lg
    return y


def _align_width(mat: np.ndarray, width: int) -> np.ndarray:
    if mat.shape[1] == width:
        return mat
    if mat.shape[1] > width:
        return mat[:, :width]
    out = np.zeros((mat.shape[0], width), dtype=mat.dtype)
    out[:, : mat.shape[1]] = mat
    return out
