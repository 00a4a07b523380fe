"""Operator-to-crossbar mapping and the functional forward pass.

Each operator of a design point becomes a ``MappedOperator``: tile counts,
bit planes, engine assignment, and (for runtime-programmed engines) the
number of vectors written during inference. ``functional_forward`` then
runs those records, the ones the cost model prices, through the bit-accurate
crossbar kernel so that equivalence against a pure-integer reference can be
checked exactly.

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
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .crossbar import (
    GATHER_ENTRIES,
    ConverterSpec,
    CrossbarSpec,
    SaturationLog,
    ShapeMismatch,
    check_integral,
    checked_weights,
    mbsa_square,
    mvm,
    pair_format,
    program_signed,
)
from .design_space import (
    DENSE_KINDS,
    SPARSE_KINDS,
    STEM,
    DesignPoint,
    ModelConfig,
    OperatorKind,
    ReRAMConfig,
    _KIND_VALUES,
    _field_state,
)

DEFAULT_ACTIVATION_BITS = 8
DEFAULT_EMBEDDING_ROWS = 1024  # assumed rows per embedding table for sizing


class Engine(str, Enum):
    MVM = "MVM"
    DP = "DP"
    FM = "FM"


class DPGeometry(NamedTuple):
    """Reduced geometry of the dot-product interaction stage."""

    k_sparse: int      # sparse features after the front EFC reduction
    merged_rows: int   # k_sparse + 1 (one row contributed by the dense FC)
    pair_count: int    # strict-upper-triangle size

    @staticmethod
    def for_dense_dim(dim_d: int) -> "DPGeometry":
        k = int(round(math.sqrt(2 * dim_d)))
        m = k + 1
        return DPGeometry(k_sparse=k, merged_rows=m, pair_count=m * (m - 1) // 2)


class MappedOperator(NamedTuple):
    """One mapped operator's shape: a leaf with its own tiles, or a composite.

    A composite (``engine`` DP or FM) has ``parts == (*front, engine,
    fc_out)``: the MVM leaves producing the engine's operands (DP: the front
    FC and EFC; FM: none, its operands are source sparse vectors), the
    runtime-programmed engine leaf, and the trailing MVM FC. Parts are
    leaves; every other operator is a leaf with ``parts == ()``.

    A record says nothing of where its operator sits: placement is kept in
    :attr:`MappedModel.layout` alone. The mappers leave ``op_id`` empty
    (``""``) and name a composite's parts by their role (``fc_front``,
    ``efc``, ``engine``, ``fc_out``); :attr:`MappedModel.operators` puts the
    operator's id on the record and prefixes its parts' roles with it.

    Mapped records (``MappedOperator``, ``DPGeometry``) are immutable
    ``NamedTuple``s: cheap to build once per candidate, compared and hashed
    by value, and any field assignment raises ``AttributeError``.
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

    def leaves(self) -> tuple["MappedOperator", ...]:
        return self.parts or (self,)

    def to_dict(self) -> dict:
        """The record's fields, with the unplaced defaults ``block_index``
        0, ``branch`` "" and ``consumes`` [] that ``pimdse map`` has always
        printed; :meth:`MappedModel.to_dict` writes an operator's own."""
        d = self._asdict()
        geometry, parts = d.pop("geometry"), d.pop("parts")
        d.update(kind=self.kind.value, engine=self.engine.value, block_index=0, branch="", consumes=[])
        if geometry is not None:
            d["geometry"] = geometry._asdict()
        if parts:
            d["parts"] = [p.to_dict() for p in parts]
        return d


@dataclass(frozen=True)
class MappedModel:
    """A mapped design point: the shape key and placement of each operator,
    recorded by :func:`map_model`; ``shapes``, ``operators``, ``edges`` and
    ``tile_plan`` derive from them on first read. ``layout`` is the only
    record of placement: every reader takes an operator's block, branch and
    inputs from it, beside the operator's key, shape or record.

    :func:`pimdse.cost_model.priced_operators` reads each key's prices
    from the technology's operator table, and keeps the model's prices and
    stage occupancy under one technology beside the fields; like the
    derived values, they are never compared, pickled or copied.
    """

    model: ModelConfig
    reram: ReRAMConfig
    keys: tuple[tuple, ...]  # block operators plus the final FC
    layout: tuple[tuple[str, int, str, tuple[int, ...]], ...]  # (op_id, block_index, branch, inputs) per key

    __getstate__ = _field_state

    @cached_property
    def shapes(self) -> tuple[MappedOperator, ...]:
        """The unplaced shape record of every key."""
        return tuple([map_shape(key, self.reram) for key in self.keys])

    @cached_property
    def operators(self) -> tuple[MappedOperator, ...]:
        """Every shape with its operator's id, which prefixes its parts' ids."""
        return tuple(
            shape._replace(op_id=op_id, parts=tuple(p._replace(op_id=f"{op_id}.{p.op_id}") for p in shape.parts))
            for shape, (op_id, *_) in zip(self.shapes, self.layout)
        )

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """(source stream, consumer op_id) per consumed stream, in operator order."""
        return tuple(
            (_stream_ref(s, stream), op_id)
            for key, (op_id, _, _, inputs) in zip(self.keys, self.layout)
            for s, stream in consumed_streams(key[0], inputs)
        )

    @cached_property
    def memory_tiles(self) -> int:
        """Crossbar tiles holding the embedding tables."""
        cells_per_value = math.ceil(DEFAULT_ACTIVATION_BITS / self.reram.cell_bits)
        model = self.model
        total_cells = (
            model.num_sparse_features * DEFAULT_EMBEDDING_ROWS
            * model.embedding_dim * cells_per_value
        )
        return math.ceil(total_cells / (self.reram.xbar_size**2))

    @cached_property
    def tile_plan(self) -> dict:
        """Tiles per engine kind, plus the embedding memory tiles."""
        plan = dict.fromkeys(_PLAN_KEYS.values(), 0)
        for op in self.shapes:
            for leaf in op.leaves():
                plan[_PLAN_KEYS[leaf.engine]] += leaf.row_tiles * leaf.col_tiles
        plan["memory_tiles"] = self.memory_tiles
        return plan

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "reram": self.reram.to_dict(),
            "operators": [
                {**op.to_dict(), "block_index": index, "branch": branch,
                 "consumes": [list(c) for c in consumed_streams(op.kind, inputs)]}
                for op, (_, index, branch, inputs) in zip(self.operators, self.layout)
            ],
            "tile_plan": dict(self.tile_plan),
            "edges": [list(e) for e in self.edges],
        }


def _tile_counts(in_dim: int, out_dim: int, w_bits: int, cell_bits: int, xbar_size: int):
    planes = math.ceil(w_bits / cell_bits)
    row_tiles = math.ceil(in_dim / xbar_size)
    col_tiles = math.ceil(out_dim * planes * 2 / xbar_size)  # differential x2
    return planes, row_tiles, col_tiles


# ---------------------------------------------------------------------------
# shapes: one leaf plan per key, and the records built from it
# ---------------------------------------------------------------------------

_FC, _EFC, _DP = OperatorKind.FC, OperatorKind.EFC, OperatorKind.DP
_DSI, _FM = OperatorKind.DSI, OperatorKind.FM
_MVM = Engine.MVM
# Per key kind, each leaf's (role, kind, engine, emits_transposed), in part order.
_LEAF_ROLES = {
    _FC: (("", _FC, _MVM, False),),
    _DSI: (("", _DSI, _MVM, False),),
    _EFC: (("", _EFC, _MVM, True),),
    _DP: (
        ("fc_front", _FC, _MVM, False), ("efc", _EFC, _MVM, True), ("engine", _DP, Engine.DP, False),
        ("fc_out", _FC, _MVM, False),
    ),
    _FM: (("engine", _FM, Engine.FM, True), ("fc_out", _FC, _MVM, False)),
}
# The engine an operator of each key kind runs on; a composite's is its engine leaf's.
ENGINE_OF = {_FC: _MVM, _DSI: _MVM, _EFC: _MVM, _DP: Engine.DP, _FM: Engine.FM}


def leaf_plan(key: tuple) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """Every leaf of the shape one :func:`map_model` key names, in part
    order: ``(in_dim, out_dim, w_bits, passes, programming_vectors,
    mbsa_passes)``.

    The one derivation of a shape from its key: :func:`map_shape` tiles it
    into records, and a table miss
    (:attr:`pimdse.cost_model.TechParams.operator_table`) prices it
    without building one. A composite's leaves are ``(*front, engine,
    fc_out)`` (see :class:`MappedOperator`). DP: front FC (dense ->
    dim_s), front EFC (the source sparse rows -> k_sparse), a
    runtime-programmed pairwise engine, and a trailing FC from the
    flattened pair vector to dim_d. FM: a transposed-write engine holding
    the source sparse vectors, with an MBSA pass per arriving vector plus
    the sum vector, then a trailing FC. Runtime operands carry the
    activation width.
    """
    kind, w_bits = key[0], key[1]
    if kind is _DP:
        dense_w, dim_d, dim_s, sparse_count = key[2:6]
        if sparse_count < 1:
            raise ValueError("n_s must be >= 1")
    elif kind is _FM and key[2] < 2:
        raise ValueError("n_s must be >= 2")
    if min(key[2:-4]) < 1:
        raise ValueError("dims must be >= 1")
    a_bits = DEFAULT_ACTIVATION_BITS
    if kind is _DP:
        k, m, pairs = DPGeometry.for_dense_dim(dim_d)
        return (
            (dense_w, dim_s, w_bits, 1, 0, 0),
            (sparse_count, k, w_bits, dim_s, 0, 0),
            (dim_s, m, a_bits, m, m, 0),
            (pairs, dim_d, w_bits, 1, 0, 0),
        )
    if kind is _FM:
        sparse_count, dim_s, dim_d = key[2:5]
        return (
            (sparse_count, dim_s, a_bits, 1, sparse_count, sparse_count + 1),
            (dim_s, dim_d, w_bits, 1, 0, 0),
        )
    if kind is _EFC:  # swept once per feature column
        n_in, n_out, dim_s = key[2:5]
        return ((n_in, n_out, w_bits, dim_s, 0, 0),)
    return ((key[2], key[3], w_bits, 1, 0, 0),)  # FC or DSI: (in_dim, out_dim)


def map_shape(key: tuple, reram: ReRAMConfig) -> MappedOperator:
    """The shape record of one :func:`map_model` key: its
    :func:`leaf_plan` tiled for ``reram``, the configuration the key's last
    four values name. A composite's parts are named by their role."""
    kind = key[0]
    plan = leaf_plan(key)
    cell_bits, xbar_size = reram.cell_bits, reram.xbar_size
    geometry = DPGeometry(plan[1][1], plan[2][1], plan[3][0]) if kind is _DP else None
    leaves = tuple([
        MappedOperator(
            role, leaf_kind, engine, in_dim, out_dim, w_bits,
            *_tile_counts(in_dim, out_dim, w_bits, cell_bits, xbar_size),
            passes, vectors, mbsa, emits, (), geometry if engine is Engine.DP else None,
        )
        for (role, leaf_kind, engine, emits), (in_dim, out_dim, w_bits, passes, vectors, mbsa)
        in zip(_LEAF_ROLES[kind], plan)
    ])
    if len(leaves) == 1:
        return leaves[0]
    engine = leaves[-2]  # the composite reads and programs as its engine does
    return MappedOperator(
        "", kind, engine.engine, leaves[0].in_dim, leaves[-1].out_dim, key[1], engine.planes, 0, 0, 1,
        engine.programming_vectors, engine.mbsa_passes, False, leaves, geometry,
    )


def _reram_key(reram: ReRAMConfig) -> tuple[int, int, int, int]:
    """The last four values of every key: ``(dac_bits, cell_bits, xbar_size, adc_bits)``."""
    return (reram.dac_bits, reram.cell_bits, reram.xbar_size, reram.adc_bits)


# Each mapper is map_shape of the key it names; ``op_id`` names the record.

def map_fc(
    in_dim: int,
    out_dim: int,
    w_bits: int,
    reram: ReRAMConfig,
    op_id: str = "",
    kind: OperatorKind = OperatorKind.FC,
) -> MappedOperator:
    """A dense matmul (FC), or an FC whose output fills a sparse matrix (DSI)."""
    if kind is not _FC and kind is not _DSI:  # every other kind's key holds other dims
        raise ValueError(f"map_fc maps an FC or a DSI, not {kind!r}")
    return map_shape((kind, w_bits, in_dim, out_dim, *_reram_key(reram)), reram)._replace(op_id=op_id)


def map_efc(
    n_in: int,
    n_out: int,
    dim_s: int,
    w_bits: int,
    reram: ReRAMConfig,
    op_id: str = "",
) -> MappedOperator:
    """Sparse-axis matmul: the weight acts on the feature-count axis and the
    programmed array is swept once per feature column, emitting the output
    column-major (one dim_s-wide vector per output feature)."""
    key = (OperatorKind.EFC, w_bits, n_in, n_out, dim_s, *_reram_key(reram))
    return map_shape(key, reram)._replace(op_id=op_id)


def map_dp(
    dim_d: int,
    dim_s: int,
    n_s: int,
    w_bits: int,
    reram: ReRAMConfig,
    dense_in_dim: int,
) -> MappedOperator:
    """Dot-product interaction of ``n_s`` sparse rows (see :func:`leaf_plan`)."""
    return map_shape((OperatorKind.DP, w_bits, dense_in_dim, dim_d, dim_s, n_s, *_reram_key(reram)), reram)


def map_fm(
    n_s: int,
    dim_s: int,
    w_bits: int,
    reram: ReRAMConfig,
    out_dim: int,
) -> MappedOperator:
    """Factorization machine over ``n_s`` sparse vectors (see :func:`leaf_plan`)."""
    return map_shape((OperatorKind.FM, w_bits, n_s, dim_s, out_dim, *_reram_key(reram)), reram)


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
_BRANCH_KINDS = {"dense": DENSE_KINDS, "sparse": SPARSE_KINDS}
_PLAN_KEYS = {Engine.MVM: "mvm_tiles", Engine.DP: "dp_tiles", Engine.FM: "fm_tiles"}


def map_model(point: DesignPoint) -> MappedModel:
    """Map every operator of a valid design point onto engines and tiles.

    One walk records, in operator order (each block's dense then sparse
    operators, then the final FC), each operator's shape key, ``(kind,
    weight_bits, *dims, dac_bits, cell_bits, xbar_size, adc_bits)``, the
    values its :func:`leaf_plan` reads, and its placement in ``layout``.
    Placement is not in the key, so one shape placed twice, in one model or
    in two, shares one entry of a technology's operator table
    (:attr:`pimdse.cost_model.TechParams.operator_table`). A shape record is
    built only when :attr:`MappedModel.shapes` is first read.
    """
    model = point.model
    n_s = model.num_sparse_features
    dac, cell, xbar, adc = _reram_key(point.reram)
    # Dense output width of each source: the stem, then block 1, 2, ...
    width = (model.embedding_dim, *(blk.dim_d for blk in model.blocks)).__getitem__
    keys, layout = [], []
    for blk in model.blocks:
        index, dim_d, dim_s = blk.index, blk.dim_d, blk.dim_s
        for branch, ops in (("dense", blk.dense_ops), ("sparse", blk.sparse_ops)):
            for op in ops:
                kind, w_bits, inputs = op.kind, op.weight_bits, op.inputs
                if kind is _FM:
                    key = (kind, w_bits, n_s * len(inputs), dim_s, dim_d, dac, cell, xbar, adc)
                elif kind is _EFC:
                    key = (kind, w_bits, n_s * len(inputs), n_s, dim_s, dac, cell, xbar, adc)
                elif kind is _FC:
                    key = (kind, w_bits, sum(map(width, inputs)), dim_d, dac, cell, xbar, adc)
                elif kind is _DP:
                    key = (
                        kind, w_bits, sum(map(width, inputs)), dim_d, dim_s, n_s * len(inputs),
                        dac, cell, xbar, adc,
                    )
                else:  # DSI: an FC producing n_s * dim_s values, then a reshape
                    key = (kind, w_bits, sum(map(width, inputs)), n_s * dim_s, dac, cell, xbar, adc)
                keys.append(key)
                layout.append((f"b{index}.{branch}.{_KIND_VALUES[kind]}", index, branch, inputs))
    # The final FC: one logit from the last block's dense output, keyed as a block FC of width 1.
    last = model.blocks[-1].index
    keys.append((_FC, model.final_fc_bits, width(last), 1, dac, cell, xbar, adc))
    layout.append(("final_fc", last + 1, "dense", (last,)))
    return MappedModel(model, point.reram, tuple(keys), tuple(layout))


def consumed_streams(kind: OperatorKind, inputs: tuple[int, ...]) -> tuple[tuple[int, str], ...]:
    """The ``(source block, stream)`` pairs an operator of ``kind`` reading
    ``inputs`` consumes, in edge order."""
    return tuple([(s, stream) for stream in _CONSUMED_STREAMS[kind] for s in inputs])


def _stream_ref(source: int, stream: str) -> str:
    return "stem" if source == STEM else f"b{source}.{stream}"


# ---------------------------------------------------------------------------
# functional execution through the crossbar kernel
# ---------------------------------------------------------------------------

def clamp_activations(values) -> np.ndarray:
    """Symmetric saturating quantization to the activation range, as int64.
    Every integer saturates to +-127. A float entry must be finite and
    integral, as a weight must (else ``OutOfRange``); floats are clipped
    before the cast, so 1e30 saturates as 300 does."""
    lim = (1 << (DEFAULT_ACTIVATION_BITS - 1)) - 1
    v = np.asarray(values)
    if v.dtype.kind == "f":
        check_integral(v, "activations")
        v = np.clip(v, -lim, lim)
    return np.clip(np.asarray(v, dtype=np.int64), -lim, lim)


def _xbar_spec(reram: ReRAMConfig) -> CrossbarSpec:
    return CrossbarSpec(reram.xbar_size, reram.xbar_size, reram.cell_bits)


def _conv(reram: ReRAMConfig) -> ConverterSpec:
    return ConverterSpec(dac_bits=reram.dac_bits, adc_bits=reram.adc_bits)


# Bytes of arrays ``run_fc`` holds at a time for one block's program and
# read (``_block_bytes``): a block this size stays in a core's cache
# between the gather that programs it and the matmul that reads it. 4 MiB
# ran fastest in two sweeps of 1, 2, 4, 8 and 16 MiB (counting cells only)
# over the benchmark's forward panel on a 2-core x86-64 host with 2 MiB of
# L2 per core: each block costs ~60 us of calls, so smaller blocks gain
# less, and larger ones spill to memory. Counting every array of a block,
# 2 and 8 MiB read no faster on that host.
_BLOCK_CELL_BYTES = 4 << 20


def _block_bytes(tiles: int, k: int, cols: int, planes: int, sum_rows: int, itemsize: int) -> int:
    """Bytes one block's program and read hold at most: ``tiles`` row tiles
    of height ``k`` and ``cols`` outputs of ``planes`` cell pairs each, of
    ``itemsize`` bytes, read with ``sum_rows`` drive rows (slices times
    input vectors, so at most ``sum_rows`` vectors)."""
    pair_cols = cols * planes
    per_tile = (
        k * pair_cols * itemsize  # the pairs
        + k * cols  # their uint8 pair-table index
        + sum_rows * k * itemsize  # the drives
        + sum_rows * pair_cols * 2 * (itemsize + 1)  # packed and unpacked sums, and a clip mask
    )
    return (
        tiles * per_tile
        + min(tiles * k * cols, GATHER_ENTRIES) * np.dtype(np.intp).itemsize  # one gather chunk's intp index
        + sum_rows * pair_cols * (itemsize + 8)  # the plane totals, and their float64 copy
        + sum_rows * cols * 16  # the float64 and the int64 outputs
    )


def run_fc(weight, x, w_bits, reram):
    """One FC through the crossbar: ``weight`` is (out, in), programmed
    transposed. Every entry is checked as :func:`~pimdse.crossbar.
    program_signed` checks it (a fractional, NaN or out-of-range entry
    raises ``OutOfRange``), and integer weights are programmed in their own
    dtype. ``x`` is one input vector, or a matrix whose columns are swept
    through the one programmed array (an EFC sweeps one column per
    embedding coordinate).

    Only live rows are simulated. A row whose input is 0 in every column
    is dead: it drives 0 on every slice, so it adds nothing to any analog
    sum. Row tiles without a live row are skipped; the others are sorted
    by live-row count and programmed and read in blocks, each at tile
    height ``k``, its largest live count. A programmed tile holds the live
    rows of exactly one row tile of the matrix, filled up with that tile's
    own dead rows; the matrix's last row tile goes last, so that where it
    is short of ``k`` rows ``program_signed``'s zero padding fills it. So
    every analog sum, ADC clamp and clip is the one the full tile makes,
    and the read is exact: each block's output is the exact integer sum
    over its rows, the int64 sum over blocks is the whole read's output,
    clip counts add across blocks and ``max_overflow`` is their maximum. A
    weight of ``MAX_ROW_TILES`` row tiles or more, which ``program_signed``
    refuses as one matrix, is computed block by block, exactly.

    A block holds at most ``_BLOCK_CELL_BYTES`` at once, as
    ``_block_bytes`` counts it: per tile its cell pairs (``k * out_dim *
    planes`` numbers, float32 in the default space) and their uint8 table
    index, its drives, its packed and its unpacked analog sums (``slices *
    n`` rows of ``out_dim * planes`` numbers each, for ``n`` input vectors
    and at most ``slices = ceil(8 / dac_bits) + 1``) with a clip mask, and
    once the intp copy of one gather chunk of the index, the plane totals
    and the outputs. A single tile over the budget is
    read in ranges of outputs that fit. That is exact too: each output's
    analog sums lie in its own columns, so every range reads its outputs'
    sums, clamps and clips as the whole tile does, the ranges' outputs are
    disjoint, their clip counts add and ``max_overflow`` is their maximum.
    So the memory a call takes is bounded by the block, not by the weight,
    unless one output of one tile is over the budget. Every block is
    programmed and read into one buffer of pairs and sums, allocated once
    per call. With a buffer per block the allocator mapped fresh pages for
    many of them: a fresh process looping over the benchmark's forward
    panel for 10 s on a 2-core x86-64 host took ~4,200 minor page faults
    per forward, against ~12 with one buffer per call.
    """
    w, x = np.asarray(weight), np.asarray(x)
    if w.ndim != 2 or 0 in w.shape:
        raise ShapeMismatch(f"weight must be 2-D and nonempty, got shape {w.shape}")
    out_dim, in_dim = w.shape
    if x.ndim not in (1, 2) or x.shape[0] != in_dim:  # once, before the rows are split
        raise ShapeMismatch(f"expected {in_dim} input rows, got shape {x.shape}")
    w = checked_weights(w, w_bits)  # every entry, a dead row's too
    spec, conv = _xbar_spec(reram), _conv(reram)
    rows, a_bits = spec.rows, DEFAULT_ACTIVATION_BITS
    planes = math.ceil(w_bits / spec.cell_bits)
    # Drive rows of a read, at most: every slice of every input vector.
    sum_rows = (math.ceil(a_bits / conv.dac_bits) + 1) * (x.shape[1] if x.ndim == 2 else 1)
    itemsize = pair_format(rows, spec.cell_bits)[1].itemsize  # the widest of any height <= rows

    def size(tiles, k, cols):
        return _block_bytes(tiles, k, cols, planes, sum_rows, itemsize)

    # Per row tile: its live-row count, and its rows, live ones first.
    tiles = -(-in_dim // rows)
    live = np.zeros(tiles * rows, dtype=bool)
    live[:in_dim] = x.reshape(in_dim, -1).any(axis=1)
    live = live.reshape(tiles, rows)
    counts = live.sum(axis=1)
    order = np.argsort(~live, axis=1, kind="stable") + np.arange(0, tiles * rows, rows)[:, None]
    # Tiles with a live row, fewest first. The last tile ranks as full, so
    # it sorts last of all and any padding rows come at the very end.
    rank = counts.copy()
    rank[-1] = rows
    picked = np.flatnonzero(counts)
    picked = picked[np.argsort(rank[picked], kind="stable")]

    # Blocks: (tiles, rows, height, outputs per range). A run of tiles is
    # extended while it fits with every output; a tile alone takes as many
    # outputs per range as fit (its size is affine in them), at least one.
    live_counts = counts[picked].tolist()
    blocks = []
    first = 0
    while first < len(picked):
        end, k = first + 1, live_counts[first]
        while end < len(picked) and size(end + 1 - first, max(k, live_counts[end]), out_dim) <= _BLOCK_CELL_BYTES:
            k = max(k, live_counts[end])
            end += 1
        fixed = size(1, k, 0)
        cols = max(1, min(out_dim, (_BLOCK_CELL_BYTES - fixed) // (size(1, k, 1) - fixed)))
        block = order[picked[first:end], :k].ravel()
        blocks.append((end - first, block[block < in_dim], k, cols))
        first = end

    y, log = np.zeros((out_dim,) + x.shape[1:], dtype=np.int64), SaturationLog()
    if not blocks:  # no live row
        return y, log
    # One buffer for every block's pairs and, after them, its sums.
    scratch = np.empty(
        max(t * cols * planes * (k + 2 * sum_rows) for t, _, k, cols in blocks) * itemsize, dtype=np.uint8
    )
    for _, block, k, cols in blocks:
        block_spec, block_x = CrossbarSpec(k, k, spec.cell_bits), x[block]
        for o0 in range(0, out_dim, cols):
            pt = program_signed(w[o0 : o0 + cols, block].T, w_bits, block_spec, scratch)
            part, part_log = mvm(pt, block_x, a_bits, conv, scratch[pt.pairs.nbytes :])
            y[o0 : o0 + cols] += part
            log.clip_count += part_log.clip_count
            log.max_overflow = max(log.max_overflow, part_log.max_overflow)
    return y, log


def dp_engine_forward(x_matrix, reram):
    """Pairwise inner products of the merged rows via runtime programming.

    The row matrix is programmed column-wise (its transpose lands on the
    array directly); feeding row i back on the word lines yields its inner
    products with every stored row. Rows 0..m-2 are fed as one batched
    read sharing one saturation log. Returns the strict upper triangle of
    X X^T flattened row-major.
    """
    x = np.asarray(x_matrix, dtype=np.int64)
    m = x.shape[0]
    a_bits = DEFAULT_ACTIVATION_BITS  # runtime operands carry activation width
    pt = program_signed(x.T, a_bits, _xbar_spec(reram))
    products, log = mvm(pt, x[: m - 1].T, a_bits, _conv(reram))  # [j, i] = <x_j, x_i>
    return products.T[np.triu_indices(m - 1, 1, m)], log


def fm_engine_forward(vectors, reram):
    """Square-of-sum minus sum-of-squares over the programmed vectors.

    The per-coordinate sum comes from an all-ones word-line read of the
    transposed-write group (tiled by the crossbar size); the MBSA unit
    squares that sum and each arriving vector, and the difference is exact
    whenever the read reports no saturation.
    """
    vecs = np.asarray(vectors, dtype=np.int64)
    if vecs.ndim != 2 or vecs.shape[0] < 2:
        raise ShapeMismatch("FM needs at least two vectors")
    pt = program_signed(vecs, DEFAULT_ACTIVATION_BITS, _xbar_spec(reram))
    ones = np.ones(vecs.shape[0], dtype=np.int64)
    s, log = mvm(pt, ones, 2, _conv(reram))  # ones need only a 2-bit drive

    sq_bits = max(1, int(np.abs(s).max()).bit_length())
    square_of_sum = mbsa_square(np.abs(s), sq_bits)
    mags = np.abs(vecs)
    v_bits = max(1, int(mags.max()).bit_length())
    sum_of_squares = mbsa_square(mags, v_bits).sum(axis=0)  # every arriving vector
    return square_of_sum - sum_of_squares, log


# Values ``random_weights`` draws at a time: the int64 draw of a block is
# 512 KiB, so drawing a leaf takes its int8 array plus one block, not an
# int64 copy of the leaf (8x its int8 size).
_DRAW_BLOCK_VALUES = 1 << 16


def random_weights(mm: MappedModel, seed: int) -> dict[str, np.ndarray]:
    """Integer weights in range for every weight-carrying leaf, drawn in
    leaf order and kept as int8 (every supported weight width fits).

    Each leaf is drawn in row-major blocks of at most
    ``_DRAW_BLOCK_VALUES`` values straight into its int8 array. An int64
    ``Generator.integers`` draw takes its values one at a time in that
    order, so the blocks give the values of one int64 draw of the whole
    leaf and leave the generator in the same state: the weights do not
    depend on the block size."""
    rng = np.random.default_rng(seed)
    out = {}
    for op in mm.operators:
        for leaf in op.leaves():
            if leaf.engine is Engine.MVM:
                lim = (1 << (leaf.w_bits - 1)) - 1
                w = np.empty((leaf.out_dim, leaf.in_dim), dtype=np.int8)
                flat = w.reshape(-1)
                for i in range(0, flat.size, _DRAW_BLOCK_VALUES):
                    block = flat[i : i + _DRAW_BLOCK_VALUES]
                    block[:] = rng.integers(-lim, lim + 1, size=block.size, dtype=np.int64)
                out[leaf.op_id] = w
    return out


def functional_forward(
    mm: MappedModel,
    dense_in,
    sparse_in,
    weights: dict[str, np.ndarray],
) -> tuple[np.ndarray, dict[str, SaturationLog]]:
    """Execute the mapped model through the crossbar kernel, batch size one.

    Walks :attr:`MappedModel.operators` beside :attr:`MappedModel.layout`,
    block by block; each leaf runs its ``op_id``'s weight at its ``w_bits``
    on the streams its operator's kind reads from its layout ``inputs``.
    Returns the last record's (the final FC's) unclamped output and one
    saturation log per leaf, in leaf order. Activations are
    ``DEFAULT_ACTIVATION_BITS`` wide, the width the cost model prices. With
    lossless converter settings the output matches the pure-integer
    reference exactly.

    Each weight is read in its own dtype (:func:`random_weights` gives
    int8) and must hold integers in its leaf's signed range; every MVM leaf
    runs through :func:`run_fc`, whose memory is bounded by its row block,
    not by the leaf.
    """
    model, reram = mm.model, mm.reram
    n_s = model.num_sparse_features
    dense_in, sparse_in = clamp_activations(dense_in), clamp_activations(sparse_in)
    if dense_in.shape != (model.embedding_dim,):
        raise ShapeMismatch(f"dense input must have shape ({model.embedding_dim},)")
    if sparse_in.shape != (n_s, model.embedding_dim):
        raise ShapeMismatch(f"sparse input must have shape ({n_s}, {model.embedding_dim})")

    out = {"dense": {STEM: dense_in}, "sparse": {STEM: sparse_in}}  # stream -> source -> output
    logs: dict[str, SaturationLog] = {}

    def gather(inputs, stream, dim_s=None):
        """The ``stream`` of every source in ``inputs``: dense vectors joined
        end to end, sparse matrices aligned to ``dim_s`` columns and stacked."""
        mats = [out[stream][s] for s in inputs]
        if stream == "dense":
            return np.concatenate(mats)
        return np.vstack([_align_width(m, dim_s) for m in mats])

    def run(leaf, x):
        if leaf.engine is Engine.MVM:
            y, logs[leaf.op_id] = run_fc(weights[leaf.op_id], x, leaf.w_bits, reram)
        elif leaf.engine is Engine.DP:
            y, logs[leaf.op_id] = dp_engine_forward(x, reram)
        else:
            y, logs[leaf.op_id] = fm_engine_forward(x, reram)
        return y

    blocks = {blk.index: blk for blk in model.blocks}
    *placed, (final, (*_, final_inputs)) = zip(mm.operators, mm.layout)
    for index, group in groupby(placed, key=lambda pair: pair[1][1]):  # by block index
        blk = blocks[index]
        acc = {"dense": np.zeros(blk.dim_d, np.int64), "sparse": np.zeros((n_s, blk.dim_s), np.int64)}
        for op, (_, _, branch, inputs) in group:
            if op.kind not in _BRANCH_KINDS[branch]:
                allowed = [k.value for k in _BRANCH_KINDS[branch]]
                raise ValueError(
                    f"{op.op_id}: {op.kind.value} cannot run in this branch (allowed: {allowed})"
                )
            if op.parts:  # DP or FM: (*front, engine, fc_out)
                *front, engine, fc_out = op.parts
                if front:  # DP: the front FC's row above the EFC's rows
                    fc_front, efc = front
                    h = clamp_activations(run(fc_front, gather(inputs, "dense")))
                    e = clamp_activations(run(efc, gather(inputs, "sparse", blk.dim_s)))
                    x = np.vstack([h[None, :], e])
                else:  # FM: the source sparse vectors
                    x = gather(inputs, "sparse", blk.dim_s)
                y = run(fc_out, clamp_activations(run(engine, x)))
            else:  # FC, EFC or DSI, whose flat output fills the sparse matrix
                x = gather(inputs, _CONSUMED_STREAMS[op.kind][0], blk.dim_s)
                y = run(op, x).reshape(acc[branch].shape)
            acc[branch] += clamp_activations(y)
        out["dense"][index] = clamp_activations(np.maximum(acc["dense"], 0))  # ReLU on dense
        out["sparse"][index] = clamp_activations(acc["sparse"])  # identity activation

    return run(final, gather(final_inputs, "dense")), logs


def _align_width(mat: np.ndarray, width: int) -> np.ndarray:
    if mat.shape[1] == width:
        return mat
    if mat.shape[1] > width:
        return mat[:, :width]
    out = np.zeros((mat.shape[0], width), dtype=mat.dtype)
    out[:, : mat.shape[1]] = mat
    return out
