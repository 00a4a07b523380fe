"""Bit-accurate functional simulation of ReRAM crossbar arithmetic.

Signed weights are stored as differential column pairs (positive and
negative parts, each sliced into cell-width digit planes). Signed inputs
are serialized as unsigned digit slices of their two's-complement form
plus one sign-mask slice carrying negative place weight; this keeps every
DAC drive and every analog column sum nonnegative while reconstructing the
exact signed product for any DAC width. Every analog sum passes through an
ideal saturating ADC; clipping is reported, never hidden.

Storage and reads are array-backed. A programmed matrix is one float32
array of shape ``(row_tiles, xbar_size, virtual_cols)``: rows are
zero-padded to ``row_tiles * xbar_size``, and the virtual columns run per
output, then per digit plane (LSB first), then positive before negative.
Column tile ``ct`` is the column range ``[ct * xbar_size, (ct+1) * xbar_size)``.
A read stacks every DAC slice and the sign slice of every input vector
into one drive tensor ``(row_tiles, slices * n, xbar_size)`` and obtains
all analog column sums from one batched matmul.

Float32 arithmetic is exact here. Every drive, cell, product and partial
sum is a nonnegative integer no larger than
``rows * (2^dac_bits - 1) * (2^cell_bits - 1)`` (576 at 64 rows), and
``CrossbarSpec`` rejects sizes where that bound reaches 2^24. Below 2^24
float32 holds every integer, so every sum is exact in any summation
order. The digital shift-and-add over slices, row tiles
and planes runs in int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class OutOfRange(ValueError):
    """A value does not fit the declared bit-width."""


class ShapeMismatch(ValueError):
    """Input vector length does not match the programmed array."""


# Every bit-width the kernel realizes, per converter and storage field
# (``weight_bits`` covers every programmed value, runtime operands too). A
# design space may offer no other width; ``SpaceDescriptor`` checks.
SUPPORTED_BITS = {
    "dac_bits": (1, 2),
    "cell_bits": (1, 2),
    "adc_bits": (4, 6, 8),
    "weight_bits": (4, 8),
}


@dataclass(frozen=True)
class CrossbarSpec:
    rows: int
    cols: int
    cell_bits: int

    def __post_init__(self):
        if self.rows != self.cols or self.rows < 1:
            raise ValueError("crossbar arrays are square and nonempty")
        if self.cell_bits not in SUPPORTED_BITS["cell_bits"]:
            raise ValueError(f"cell_bits must be one of {SUPPORTED_BITS['cell_bits']}")
        # Largest analog sum: every row at the widest drive (dac 2) and cell.
        if self.rows * 3 * 3 >= 1 << 24:
            raise ValueError(
                f"{self.rows} rows allow column sums beyond 2^24, "
                "the limit of exact float32 sums"
            )


@dataclass(frozen=True)
class ConverterSpec:
    dac_bits: int
    adc_bits: int

    def __post_init__(self):
        if self.dac_bits not in SUPPORTED_BITS["dac_bits"]:
            raise ValueError(f"dac_bits must be one of {SUPPORTED_BITS['dac_bits']}")
        if self.adc_bits not in SUPPORTED_BITS["adc_bits"]:
            raise ValueError(f"adc_bits must be one of {SUPPORTED_BITS['adc_bits']}")


@dataclass
class SaturationLog:
    clip_count: int = 0     # ADC reads that saturated
    max_overflow: int = 0   # largest pre-clip excess over the ADC ceiling

    @property
    def clean(self) -> bool:
        return self.clip_count == 0


@dataclass
class TileMeta:
    """Packing of a logical signed matrix onto physical tiles.

    The logical matrix has shape (in_dim, out_dim): entry [i, j] multiplies
    input i into output j. Each output column occupies ``planes * 2``
    physical columns (digit planes x differential sign), laid out LSB plane
    first, positive before negative.
    """

    in_dim: int
    out_dim: int
    w_bits: int
    cell_bits: int
    planes: int
    xbar_size: int
    row_tiles: int
    col_tiles: int
    # Per virtual column: the signed plane weight (+/- 2^(plane * cell_bits)).
    # Virtual column c feeds logical output c // (planes * 2).
    col_weight: np.ndarray = field(repr=False, default=None)

    @property
    def virtual_cols(self) -> int:
        return self.out_dim * self.planes * 2


@dataclass
class ProgrammedTiles:
    """Tile grid realizing one logical matrix, ready for bit-serial reads.

    ``cells[rt, r, c]`` is the cell at row ``r`` of row tile ``rt`` in
    virtual column ``c``; column tile ``ct`` is the column range
    ``[ct * xbar_size, (ct + 1) * xbar_size)``.
    """

    cells: np.ndarray  # (row_tiles, xbar_size, virtual_cols) float32
    meta: TileMeta
    orientation: str = "normal"


def adc_quantize(analog_sum, adc_bits: int):
    """Ideal saturating reader: clamp to the ADC ceiling, report truncation.

    Works elementwise on arrays of sums; returns the clamped values and the
    mask of reads that exceeded the ceiling.
    """
    sums = np.asarray(analog_sum)
    if np.any(sums < 0):
        raise OutOfRange("analog sums are nonnegative by construction")
    limit = (1 << adc_bits) - 1
    return np.minimum(sums, limit), sums > limit


@lru_cache(maxsize=None)
def _digit_table(w_bits: int, cell_bits: int) -> np.ndarray:
    """Row ``v + 2^(w_bits-1)`` holds the ``planes * 2`` cell digits of the
    signed weight ``v``: per plane, LSB first, positive then negative."""
    planes = math.ceil(w_bits / cell_bits)
    half = 1 << (w_bits - 1)
    values = np.arange(-half, half, dtype=np.int64)
    shifts = np.arange(planes) * cell_bits
    mask = (1 << cell_bits) - 1
    table = np.empty((2 * half, planes, 2), dtype=np.float32)
    table[:, :, 0] = (np.maximum(values, 0)[:, None] >> shifts) & mask
    table[:, :, 1] = (np.maximum(-values, 0)[:, None] >> shifts) & mask
    table = table.reshape(2 * half, planes * 2)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def program_signed(
    matrix,
    w_bits: int,
    spec: CrossbarSpec,
    orientation: str = "normal",
) -> ProgrammedTiles:
    """Decompose a signed integer matrix onto differential bit-plane tiles.

    ``matrix[i, j]`` multiplies word-line input i into output column j.
    The decomposition satisfies, per entry,
    ``sum_k 2^(k*cell_bits) * (plane_pos_k - plane_neg_k) == matrix`` exactly.
    """
    if w_bits not in SUPPORTED_BITS["weight_bits"]:
        raise OutOfRange(
            f"w_bits must be one of {SUPPORTED_BITS['weight_bits']}, got {w_bits}"
        )
    m = np.asarray(matrix, dtype=np.int64)
    if m.ndim != 2:
        raise ShapeMismatch("matrix must be 2-D")
    if np.any(np.abs(m) >= 1 << (w_bits - 1)):
        raise OutOfRange(f"entries exceed signed {w_bits}-bit range")

    in_dim, out_dim = m.shape
    cb = spec.cell_bits
    planes = math.ceil(w_bits / cb)
    vcols = out_dim * planes * 2
    row_tiles = math.ceil(in_dim / spec.rows)
    col_tiles = math.ceil(vcols / spec.cols)

    # Padding rows hold weight 0, whose digits are all zero.
    offset = 1 << (w_bits - 1)
    index = np.full((row_tiles * spec.rows, out_dim), offset, dtype=np.int64)
    index[:in_dim] = m + offset
    cells = np.take(_digit_table(w_bits, cb), index, axis=0)
    cells = cells.reshape(row_tiles, spec.rows, vcols)

    place = np.left_shift(1, np.arange(planes) * cb)
    meta = TileMeta(
        in_dim=in_dim,
        out_dim=out_dim,
        w_bits=w_bits,
        cell_bits=cb,
        planes=planes,
        xbar_size=spec.rows,
        row_tiles=row_tiles,
        col_tiles=col_tiles,
        col_weight=np.tile(np.stack([place, -place], axis=1).ravel(), out_dim),
    )
    return ProgrammedTiles(cells=cells, meta=meta, orientation=orientation)


def _drives(x: np.ndarray, a_bits: int, dac_bits: int, row_tiles: int, rows: int):
    """Word-line drives of every row tile: the unsigned digit slices of the
    two's-complement form, then the sign mask, each over all input vectors.

    Returns a ``(row_tiles, slices * n, rows)`` float32 tensor and the place
    weight of each slice. Reconstruction:
    x = sum_k digit_k * 2^(k*dac_bits) - 2^a_bits * [x < 0].
    """
    n_slices = math.ceil(a_bits / dac_bits)
    n = x.shape[1]
    padded = np.zeros((row_tiles * rows, n), dtype=np.int64)
    padded[: x.shape[0]] = x
    xt = padded.T.reshape(n, row_tiles, rows).transpose(1, 0, 2)  # (rt, n, rows)
    u = xt & ((1 << a_bits) - 1)
    shifts = np.arange(n_slices) * dac_bits
    drives = np.empty((row_tiles, n_slices + 1, n, rows), dtype=np.float32)
    drives[:, :n_slices] = (u[:, None] >> shifts[:, None, None]) & ((1 << dac_bits) - 1)
    drives[:, n_slices] = xt < 0
    weights = np.append(np.left_shift(1, shifts), -(1 << a_bits))
    return drives.reshape(row_tiles, (n_slices + 1) * n, rows), weights


def mvm(
    pt: ProgrammedTiles,
    x,
    a_bits: int,
    conv: ConverterSpec,
) -> tuple[np.ndarray, SaturationLog]:
    """Bit-serial matrix-vector product through the programmed tiles.

    Every (slice, plane, column) analog sum passes ``adc_quantize``; results
    recombine by digital shift-and-add and differential subtraction. When
    the returned log is clean the result equals the exact integer product.

    ``x`` may also be a matrix whose columns are independent drive vectors
    (repeated MVM sharing one saturation log), returning one output column
    per drive.
    """
    meta = pt.meta
    x = np.asarray(x, dtype=np.int64)
    batched = x.ndim == 2
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != meta.in_dim:
        raise ShapeMismatch(f"expected {meta.in_dim} input rows, got {x.shape}")
    if np.any(np.abs(x) >= 1 << (a_bits - 1)):
        raise OutOfRange(f"inputs exceed signed {a_bits}-bit range")

    n = x.shape[1]
    drives, weights = _drives(x, a_bits, conv.dac_bits, meta.row_tiles, meta.xbar_size)
    sums = np.matmul(drives, pt.cells)  # every analog column sum, exact
    read, over = adc_quantize(sums, conv.adc_bits)
    log = SaturationLog(clip_count=int(np.count_nonzero(over)))
    if log.clip_count:
        log.max_overflow = int(sums.max()) - ((1 << conv.adc_bits) - 1)

    # Shift-and-add over row tiles and slices, then over planes and signs.
    digital = read.astype(np.int64).reshape(meta.row_tiles, len(weights), n, -1).sum(axis=0)
    acc = np.tensordot(weights, digital, axes=1) * meta.col_weight  # (n, virtual_cols)
    out = acc.reshape(n, meta.out_dim, meta.planes * 2).sum(axis=2).T
    return (out if batched else out[:, 0]), log


def mbsa_square(v, v_bits: int) -> np.ndarray:
    """Exact elementwise squares via bit-serial AND / shift-accumulate."""
    v = np.asarray(v, dtype=np.int64)
    if np.any(v < 0) or np.any(v >= 1 << v_bits):
        raise OutOfRange(f"values exceed unsigned {v_bits}-bit range")
    acc = np.zeros_like(v)
    for t in range(v_bits):
        bit = (v >> t) & 1
        acc += (bit * v) << t  # partial product of bit t, shifted into place
    return acc


def tiles_to_json(pt: ProgrammedTiles) -> dict:
    """Debug dump of a programmed tile grid (cells as plain integer lists)."""
    meta = pt.meta
    x = meta.xbar_size
    padded = np.zeros((meta.row_tiles, x, meta.col_tiles * x), dtype=np.int64)
    padded[:, :, : meta.virtual_cols] = pt.cells
    return {
        "orientation": pt.orientation,
        "in_dim": meta.in_dim,
        "out_dim": meta.out_dim,
        "w_bits": meta.w_bits,
        "cell_bits": meta.cell_bits,
        "planes": meta.planes,
        "xbar_size": meta.xbar_size,
        "row_tiles": meta.row_tiles,
        "col_tiles": meta.col_tiles,
        "tiles": [
            {
                "row_tile": rt,
                "col_tile": ct,
                "cells": padded[rt, :, ct * x : (ct + 1) * x].tolist(),
            }
            for rt in range(meta.row_tiles)
            for ct in range(meta.col_tiles)
        ],
    }
