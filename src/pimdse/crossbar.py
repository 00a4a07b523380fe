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
A read stacks every driven slice of every input vector into one drive
tensor ``(row_tiles, slices * n, xbar_size)`` and obtains all analog
column sums from one batched matmul. A signed read drives every DAC slice
and the sign slice. A read with no negative input drives only the DAC
slices below the top bit of its largest input: the sign slice and the
higher DAC slices put 0 on every word line, so their sums would be 0,
which adds nothing to any output and cannot clip, and skipping them is
exact.

Float32 arithmetic is exact here. Every drive, cell, product and partial
sum is a nonnegative integer no larger than
``rows * (2^dac_bits - 1) * (2^cell_bits - 1)`` (576 at 64 rows), and
``CrossbarSpec`` rejects sizes where that bound reaches 2^24. Below 2^24
float32 holds every integer, so every sum is exact in any summation
order. The ADC clamps each sum in place to at most ``2^adc_bits - 1``
(255 at the widest ADC), and the digital sum over row tiles also runs in
float32: each of its partial sums is an integer no larger than
``row_tiles * 255``, and ``program_signed`` rejects matrices whose row
tiles would take that bound to 2^24.

No operand is widened to int64 on the way. Programming narrows each
weight once to its uint8 digit-table index ``v + 2^(w_bits-1)`` and
gathers the cells from that index; a read narrows each input once to its
uint8 two's-complement pattern and gathers its DAC slices and sign bit
from a drive table. The shift-and-add over slices, planes and signs is
one float64 contraction of the row-tile totals with the products of
slice and plane weights. It is exact as well: a total is below 2^24, a
slice weight at most 2^8 and a plane weight at most 2^7 in magnitude,
and at most 9 slices times 16 plane-sign columns add up, so every
partial sum stays below 2^47, where float64 holds every integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class OutOfRange(ValueError):
    """A value does not fit the declared bit-width."""


class ShapeMismatch(ValueError):
    """A matrix or input batch has a shape the kernel cannot take."""


# Every bit-width the kernel realizes, per converter and storage field
# (``weight_bits`` covers every programmed value, runtime operands too). A
# design space may offer no other width; ``SpaceDescriptor`` checks. Every
# ADC width is at least any DAC plus cell width, so every combination of
# them is a feasible ReRAM configuration.
SUPPORTED_BITS = {
    "dac_bits": (1, 2),
    "cell_bits": (1, 2),
    "adc_bits": (4, 6, 8),
    "weight_bits": (4, 8),
}

# Widest input a read accepts (``mvm``'s ``a_bits`` runs 1..8). A wider
# input would outgrow the uint8 drive index and the exactness bound of the
# float64 shift-and-add.
MAX_ACTIVATION_BITS = 8


# Row tiles of one programmed matrix stay below this count, so that the
# float32 sum of their clamped ADC reads, at most ``row_tiles * 255``,
# stays below 2^24.
MAX_ROW_TILES = -(-(1 << 24) // ((1 << max(SUPPORTED_BITS["adc_bits"])) - 1))


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


def adc_quantize(sums: np.ndarray, adc_bits: int) -> SaturationLog:
    """Ideal saturating reader: clamp an array of analog sums to the ADC
    ceiling in place and report the truncation."""
    if sums.min() < 0:
        raise OutOfRange("analog sums are nonnegative by construction")
    limit = (1 << adc_bits) - 1
    peak = sums.max()
    log = SaturationLog()
    if peak > limit:
        log.clip_count = int(np.count_nonzero(sums > limit))
        log.max_overflow = int(peak) - limit
        np.minimum(sums, limit, out=sums)
    return log


def _signed_ints(values, bits: int, what: str) -> tuple[np.ndarray, int, int]:
    """``values`` as an integer array, with its smallest and largest entry,
    after checking each is an integer in the signed ``bits``-bit range; a
    float entry must be finite and integral. Integer arrays come back as
    they are, without a copy."""
    a = np.asarray(values)
    if a.dtype.kind == "f" and not (np.isfinite(a) & (a == np.trunc(a))).all():
        raise OutOfRange(f"{what} must be finite integers")
    lo, hi = int(a.min()), int(a.max())
    if hi >= 1 << (bits - 1) or lo <= -(1 << (bits - 1)):
        raise OutOfRange(f"{what} exceed signed {bits}-bit range")
    return (a if a.dtype.kind in "iu" else a.astype(np.int64)), lo, hi


def _plane_weights(planes: int, cell_bits: int) -> np.ndarray:
    """Signed place weight of each virtual column of one output: per plane,
    LSB first, ``+2^(plane * cell_bits)`` then its negative."""
    place = np.left_shift(1, np.arange(planes) * cell_bits)
    return np.stack([place, -place], axis=1).ravel()


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


def checked_weights(matrix, w_bits: int) -> np.ndarray:
    """A nonempty ``matrix`` as an integer array, after checking that
    ``w_bits`` is a supported weight width and that every entry is an
    integer in the symmetric signed ``w_bits`` range (else ``OutOfRange``).
    """
    if not (isinstance(w_bits, (int, np.integer)) and w_bits in SUPPORTED_BITS["weight_bits"]):
        raise OutOfRange(
            f"w_bits must be an integer in {SUPPORTED_BITS['weight_bits']}, got {w_bits!r}"
        )
    return _signed_ints(matrix, w_bits, "entries")[0]


def program_signed(
    matrix,
    w_bits: int,
    spec: CrossbarSpec,
) -> ProgrammedTiles:
    """Decompose a signed integer matrix onto differential bit-plane tiles.

    ``matrix[i, j]`` multiplies word-line input i into output column j.
    The decomposition satisfies, per entry,
    ``sum_k 2^(k*cell_bits) * (plane_pos_k - plane_neg_k) == matrix`` exactly.
    An empty matrix, or one needing ``MAX_ROW_TILES`` row tiles or more,
    raises ``ShapeMismatch``; an entry that is not an integer in the
    symmetric signed ``w_bits`` range raises ``OutOfRange``.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or 0 in m.shape:
        raise ShapeMismatch(f"matrix must be 2-D and nonempty, got shape {m.shape}")
    in_dim, out_dim = m.shape
    row_tiles = math.ceil(in_dim / spec.rows)
    if row_tiles >= MAX_ROW_TILES:
        raise ShapeMismatch(
            f"{in_dim} rows need {row_tiles} row tiles of {spec.rows}; "
            f"row-tile sums stay exact in float32 below {MAX_ROW_TILES}"
        )
    m = checked_weights(m, w_bits)

    cb = spec.cell_bits
    planes = math.ceil(w_bits / cb)
    vcols = out_dim * planes * 2
    col_tiles = math.ceil(vcols / spec.cols)

    # Table rows run to 2^w_bits - 1 <= 255, so the index is uint8. The
    # narrowing pass follows the source's memory order (``run_fc`` passes a
    # transposed view); the uint8 sum wraps to the exact row for any
    # integer dtype. Padding rows hold weight 0, whose digits are all zero.
    offset = 1 << (w_bits - 1)
    index = np.empty((row_tiles * spec.rows, out_dim), dtype=np.uint8)
    index[:in_dim] = np.add(m, offset, dtype=np.uint8, casting="unsafe")
    index[in_dim:] = offset
    cells = np.take(_digit_table(w_bits, cb), index, axis=0)
    cells = cells.reshape(row_tiles, spec.rows, vcols)

    meta = TileMeta(
        in_dim=in_dim,
        out_dim=out_dim,
        w_bits=w_bits,
        cell_bits=cb,
        planes=planes,
        xbar_size=spec.rows,
        row_tiles=row_tiles,
        col_tiles=col_tiles,
    )
    return ProgrammedTiles(cells=cells, meta=meta)


@lru_cache(maxsize=None)
def _drive_table(a_bits: int, dac_bits: int, slices: int) -> np.ndarray:
    """Row ``u`` holds the word-line drives of the input whose ``a_bits``-bit
    two's-complement pattern is ``u``: its unsigned DAC slices, LSB first,
    then its sign bit, of which the first ``slices`` are kept.
    Reconstruction: x = sum_k slice_k * 2^(k*dac_bits) - 2^a_bits * sign."""
    n_slices = math.ceil(a_bits / dac_bits)
    u = np.arange(1 << a_bits)
    table = np.empty((1 << a_bits, n_slices + 1), dtype=np.float32)
    table[:, :n_slices] = (u[:, None] >> np.arange(n_slices) * dac_bits) & ((1 << dac_bits) - 1)
    table[:, n_slices] = u >> (a_bits - 1)
    table = np.ascontiguousarray(table[:, :slices])  # a contiguous table gathers fastest
    table.flags.writeable = False  # shared by every caller through the cache
    return table


@lru_cache(maxsize=None)
def _shift_add_weights(a_bits: int, dac_bits: int, planes: int, cell_bits: int) -> np.ndarray:
    """``(slices, planes * 2, 1)`` place weights: per slice (sign slice last,
    at ``-2^a_bits``) and virtual column of one output (per plane, LSB
    first, positive then negative), the slice weight times the signed plane
    weight."""
    shifts = np.arange(math.ceil(a_bits / dac_bits)) * dac_bits
    slice_w = np.append(np.left_shift(1, shifts), -(1 << a_bits))
    weights = np.outer(slice_w, _plane_weights(planes, cell_bits)).astype(np.float64)[:, :, None]
    weights.flags.writeable = False  # shared by every caller through the cache
    return weights


def _drives(x: np.ndarray, a_bits: int, table: np.ndarray, row_tiles: int, rows: int):
    """Word-line drives of every row tile: each slice (column) of the drive
    ``table``, over all input vectors, as a ``(row_tiles, slices * n, rows)``
    float32 tensor."""
    n = x.shape[1]
    # The uint8 pattern x & (2^a_bits - 1) indexes the table; padding rows
    # get pattern 0, which drives nothing.
    index = np.zeros((row_tiles * rows, n), dtype=np.uint8)
    np.bitwise_and(x, (1 << a_bits) - 1, out=index[: x.shape[0]], dtype=np.uint8, casting="unsafe")
    drives = np.take(table, index, axis=0).reshape(row_tiles, rows, n, -1)
    return drives.transpose(0, 3, 2, 1).reshape(row_tiles, -1, rows)


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

    Only driven slices are read. When no input is negative, the sign slice
    and every DAC slice at or above the top bit of the largest input drive
    nothing: their analog sums are 0, which adds nothing and cannot clip,
    so skipping them leaves the output and the log exact. An all-zero
    input reads zeros with a clean log. The range check already takes the
    smallest and largest input, so a signed read pays nothing for this.

    ``x`` may also be a matrix whose columns are independent drive vectors
    (repeated MVM sharing one saturation log), returning one output column
    per drive. Inputs follow ``program_signed``'s entry rules at ``a_bits``,
    which must be an integer in 1..``MAX_ACTIVATION_BITS`` (else
    ``OutOfRange``).
    """
    if not (isinstance(a_bits, (int, np.integer)) and 1 <= a_bits <= MAX_ACTIVATION_BITS):
        raise OutOfRange(f"a_bits must be an integer in 1..{MAX_ACTIVATION_BITS}, got {a_bits!r}")
    meta = pt.meta
    x = np.asarray(x)
    batched = x.ndim == 2
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != meta.in_dim or x.shape[1] == 0:
        raise ShapeMismatch(
            f"expected {meta.in_dim} input rows and at least one vector, got shape {x.shape}"
        )
    x, lo, hi = _signed_ints(x, a_bits, "inputs")

    n = x.shape[1]
    # Driven slices: every DAC slice and the sign slice for a signed input,
    # else the DAC slices below the top bit of the largest input.
    if lo < 0:
        slices = math.ceil(a_bits / conv.dac_bits) + 1
    else:
        slices = -(-hi.bit_length() // conv.dac_bits)
    if slices == 0:  # an all-zero input
        out = np.zeros((meta.out_dim, n), dtype=np.int64)
        return (out if batched else out[:, 0]), SaturationLog()
    table = _drive_table(a_bits, conv.dac_bits, slices)
    drives = _drives(x, a_bits, table, meta.row_tiles, meta.xbar_size)
    sums = np.matmul(drives, pt.cells)  # every driven analog column sum, exact
    log = adc_quantize(sums, conv.adc_bits)

    # Shift-and-add: row tiles in exact float32, then one exact float64
    # contraction over slices, planes and signs: a matmul per slice over the
    # plane-sign columns of each output, summed over slices.
    weights = _shift_add_weights(a_bits, conv.dac_bits, meta.planes, meta.cell_bits)[:slices]
    digital = sums.reshape(meta.row_tiles, len(weights), n * meta.out_dim, -1)
    digital = digital[0] if meta.row_tiles == 1 else digital.sum(axis=0)
    out = np.matmul(digital, weights).sum(axis=0).reshape(n, meta.out_dim)
    out = out.astype(np.int64).T
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

