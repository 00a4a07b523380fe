"""Bit-accurate functional simulation of ReRAM crossbar arithmetic.

Signed weights are stored as differential column pairs (positive and
negative parts, each sliced into cell-width digit planes). Signed inputs
are serialized as unsigned digit slices of their two's-complement form
plus one sign-mask slice carrying negative place weight; this keeps every
DAC drive and every analog column sum nonnegative while reconstructing the
exact signed product for any DAC width. Every analog sum passes through an
ideal saturating ADC; clipping is reported, never hidden.

Storage and reads are array-backed. A programmed matrix keeps each
differential cell pair in one number: ``pairs`` has shape ``(row_tiles,
xbar_size, out_dim * planes)``, and the entry of a digit plane holds
``pos + 2^F * neg``, its positive and negative cell digits. ``F`` is the
bit width of the largest sum one column can carry at the widest DAC,
``rows * 3 * (2^cell_bits - 1)`` (576 at 64 rows, so ``F = 10``). Rows
are zero-padded to ``row_tiles * xbar_size``; pair columns run per output,
then per digit plane (LSB first), and pair column ``c`` stands for the
virtual columns ``2c`` (positive) and ``2c + 1`` (negative), so column
tile ``ct`` is the virtual column range ``[ct * xbar_size, (ct+1) *
xbar_size)``. The pairs are float32 when ``2F <= 24``, up to 455 rows at
2-bit cells and 1,365 at 1-bit cells, which covers the whole default
space, and float64 otherwise (see :func:`pair_format`).

A read stacks every driven slice of every input vector into one drive
tensor ``(row_tiles, slices * n, xbar_size)`` and obtains every packed
pair of analog column sums ``P = S+ + 2^F * S-`` from one batched matmul
over the pairs, which moves half the bytes a number per cell would. The
drives carry the factor ``2^-F``, so the matmul yields ``P * 2^-F``. The
read takes ``S- = floor(P * 2^-F)`` and leaves ``S+ * 2^-F`` in place; both
pass the ADC as if each were read from its own column, ``S+`` against the
ceiling times ``2^-F``. One contraction then adds every clamped sum of a
column, over its (field, row tile, slice) rows, with its place weight
(``+2^F`` times the slice's for ``S+``, minus the slice's for ``S-``), and
the digit planes of each output add in float64. A signed read drives every
DAC slice and the sign slice. A read with no negative input drives only
the DAC slices below the top bit of its largest input: the sign slice and
the higher DAC slices put 0 on every word line, so their sums would be 0,
which adds nothing to any output and cannot clip, and skipping them is
exact.

When the top DAC slice holds only bit ``a_bits - 1`` (always at DAC 1, and
at DAC 2 for odd ``a_bits``), that slice and the sign slice put the sign
bit of each input on its word line, so their analog sums are equal. A
signed read takes them once, as one slice of place weight ``2^(a_bits-1) -
2^a_bits``, and counts each of its clips twice, as the two reads would;
``max_overflow`` is the same either way.

The packed sum is exact. Every drive, cell digit, product and partial sum
of one column is a nonnegative integer below ``2^F``, so every partial
sum of a packed matmul is a nonnegative integer below ``2^(2F)``: below
2^24 for float32 pairs, and below 2^48 for float64 ones, because
``CrossbarSpec`` keeps ``F <= 24``. The dtype holds every integer there,
and the same integers times the power of two ``2^-F``, so every sum is
exact in any summation order; as the low field's sum stays below ``2^F``
it never carries into the high field. Both fields are nonnegative exactly
when the packed sum is, which the read checks once. The unpack is exact as
well: ``P * 2^-F = S- + S+ * 2^-F`` with ``0 <= S+ * 2^-F < 1``, so its
floor is ``S-``, and the difference left is exactly ``S+ * 2^-F`` (both
terms hold it and the result has no more significant bits). The ADC
compares and clamps ``S+ * 2^-F`` at ``(2^adc_bits - 1) * 2^-F``, which is
exact: scaling by a power of two keeps every value and its order.

The contraction is exact. Each clamped sum times its weight is an integer
of magnitude at most ``|slice_w| * (2^adc_bits - 1)``, so every partial
sum of a contraction over both fields of ``T`` row tiles is an integer of
magnitude at most ``2 * T * sum|slice_w| * (2^adc_bits - 1)``. A read plan
takes ``T`` as large as keeps that below 2^24 in float32 (below 2^53 in
float64), at most 256: 129 row tiles at DAC 1 and ADC 8, where the twin
slice leaves ``sum|slice_w| = 255``, and 96 at DAC 2 and ADC 8. So the
contraction is exact in any summation order, which BLAS is free to pick.
A read of more row tiles takes one contraction per ``T`` row tiles of each
field and adds them in float64, without a float64 copy of the sums. The
plane totals add in float64: ``program_signed`` refuses ``MAX_ROW_TILES``
(about 2^16) row tiles or more and ``sum|slice_w|`` is below 2^9, so a
plane total stays below 2^34; the plane weights of one output add up to
at most ``2^w_bits - 1 = 255``, so every partial sum stays below 2^42,
where float64 holds every integer.

No operand is widened to int64 on the way. Programming narrows each
weight once to its uint8 pair-table index ``v + 2^(w_bits-1)`` and
gathers the pairs from that index; a read narrows each input once to its
uint8 two's-complement pattern and gathers its DAC slices and sign bit
from a drive table.

``program_signed`` and ``mvm`` can write their largest arrays, the pairs
and the sums, into a caller's byte buffer (``scratch``), so that a caller
programming and reading many matrices in turn allocates them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
# input would outgrow the uint8 drive index and the exactness bounds of the
# read's sums.
MAX_ACTIVATION_BITS = 8


# Row tiles of one programmed matrix stay below this count, about 2^16:
# it is where a sum of row-tile reads at the widest ADC ceiling, at most
# ``row_tiles * 255``, would reach 2^24. The exactness of ``mvm``'s float64
# sums counts on the cap, with room to spare (module docstring).
MAX_ROW_TILES = -(-(1 << 24) // ((1 << max(SUPPORTED_BITS["adc_bits"])) - 1))

# Index entries ``program_signed`` gathers its pairs from at a time; the
# intp copy ``np.take`` makes of them is 512 KiB.
GATHER_ENTRIES = 1 << 16

# Row tiles one contraction of ``mvm`` adds at most, where its exactness
# would allow more: it bounds the cached contraction weights of a read
# plan (``_read_plan``) to ``2 * 256 * slices`` numbers.
_CONTRACTION_TILES = 256


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
        # Below 2^24 it also keeps a pair's field width F at most 24, so
        # float64 pairs (2F <= 48 bits) stay exact.
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

    ``pairs[rt, r, c]`` is the differential cell pair at row ``r`` of row
    tile ``rt`` in pair column ``c``, digit plane ``c % planes`` (LSB
    first) of output ``c // planes``. It holds ``pos + 2^F * neg``, with
    ``F`` and the dtype of :func:`pair_format` for ``xbar_size`` rows.
    Pair column ``c`` stands for the virtual columns ``2c`` (positive) and
    ``2c + 1`` (negative); column tile ``ct`` is the virtual column range
    ``[ct * xbar_size, (ct + 1) * xbar_size)``.
    """

    pairs: np.ndarray  # (row_tiles, xbar_size, out_dim * planes)
    meta: TileMeta


@lru_cache(maxsize=None)
def pair_format(rows: int, cell_bits: int) -> tuple[int, np.dtype]:
    """Field width ``F`` and dtype of the cell pairs of a crossbar with
    ``rows`` rows of ``cell_bits``-bit cells. ``F`` is the bit width of
    the largest sum one column can carry, every row at the widest DAC drive
    and the largest digit; a packed sum stays below ``2^(2F)``, so float32
    (exact below 2^24) serves while ``2F <= 24``, and float64 beyond."""
    field = (rows * ((1 << max(SUPPORTED_BITS["dac_bits"])) - 1) * ((1 << cell_bits) - 1)).bit_length()
    return field, np.dtype(np.float32 if 2 * field <= 24 else np.float64)


def _carve(scratch, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """An uninitialized array of ``shape`` and ``dtype``: a view of the
    front of the uint8 buffer ``scratch``, or a new array without one."""
    if scratch is None:
        return np.empty(shape, dtype)
    return scratch[: math.prod(shape) * dtype.itemsize].view(dtype).reshape(shape)


def _saturate(
    fields: np.ndarray, ceilings: np.ndarray, scales: tuple[float, ...], twins=None
) -> SaturationLog:
    """The ADC rule on fields of nonnegative analog sums. ``fields[f]``
    holds the sums of field ``f`` times the power of two ``scales[f]``, and
    ``ceilings[f]`` (shaped to broadcast over it) the ADC ceiling times the
    same, which is exact. A field whose peak passes its ceiling is clamped
    there in place and its clips are counted; each sum at the index
    ``twins`` of a field stands for two reads, so its clips count twice."""
    limits = ceilings.ravel().tolist()
    peaks = fields.reshape(len(limits), -1).max(axis=1).tolist()
    over = [f for f in range(len(limits)) if peaks[f] > limits[f]]
    if not over:
        return SaturationLog()
    if len(over) < len(limits):  # from the first to the last field that clips
        fields, ceilings = fields[over[0] : over[-1] + 1], ceilings[over[0] : over[-1] + 1]
    mask = fields > ceilings
    clips = np.count_nonzero(mask)
    if twins is not None:
        clips += np.count_nonzero(mask[(slice(None),) + twins])
    np.minimum(fields, ceilings, out=fields)
    return SaturationLog(int(clips), max(int((peaks[f] - limits[f]) / scales[f]) for f in over))


def adc_quantize(sums: np.ndarray, adc_bits: int) -> SaturationLog:
    """Ideal saturating reader: clamp an array of analog sums to the ADC
    ceiling in place and report the truncation."""
    if sums.min() < 0:
        raise OutOfRange("analog sums are nonnegative by construction")
    return _saturate(sums[None], np.full((1,) * (sums.ndim + 1), (1 << adc_bits) - 1), (1.0,))


def check_integral(a: np.ndarray, what: str) -> None:
    """Raise ``OutOfRange`` unless every entry of a float array ``a`` is
    finite and integral; other dtypes pass."""
    if a.dtype.kind == "f" and not (np.isfinite(a) & (a == np.trunc(a))).all():
        raise OutOfRange(f"{what} must be finite integers")


def _signed_ints(a: np.ndarray, bits: int, what: str) -> tuple[np.ndarray, int, int]:
    """The array ``a`` as an integer array, with its smallest and largest
    entry, after checking each is an integer in the signed ``bits``-bit
    range; a float entry must be finite and integral. Integer arrays come
    back as they are, without a copy."""
    check_integral(a, what)
    lo, hi = int(a.min()), int(a.max())
    if hi >= 1 << (bits - 1) or lo <= -(1 << (bits - 1)):
        raise OutOfRange(f"{what} exceed signed {bits}-bit range")
    return (a if a.dtype.kind in "iu" else a.astype(np.int64)), lo, hi


@lru_cache(maxsize=None)
def _pair_table(w_bits: int, cell_bits: int, field: int, dtype: np.dtype) -> np.ndarray:
    """Row ``v + 2^(w_bits-1)`` holds the ``planes`` cell pairs of the
    signed weight ``v``, LSB plane first, each ``pos + 2^field * neg``."""
    planes = math.ceil(w_bits / cell_bits)
    half = 1 << (w_bits - 1)
    values = np.arange(-half, half, dtype=np.int64)[:, None]
    shifts = np.arange(planes) * cell_bits
    mask = (1 << cell_bits) - 1
    pos = (np.maximum(values, 0) >> shifts) & mask
    neg = (np.maximum(-values, 0) >> shifts) & mask
    table = (pos + (neg << field)).astype(dtype)
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
    return _signed_ints(np.asarray(matrix), w_bits, "entries")[0]


def program_signed(
    matrix,
    w_bits: int,
    spec: CrossbarSpec,
    scratch: np.ndarray | None = None,
) -> ProgrammedTiles:
    """Decompose a signed integer matrix onto differential bit-plane tiles.

    ``matrix[i, j]`` multiplies word-line input i into output column j.
    The decomposition satisfies, per entry,
    ``sum_k 2^(k*cell_bits) * (plane_pos_k - plane_neg_k) == matrix`` exactly.
    An empty matrix, or one needing ``MAX_ROW_TILES`` row tiles or more,
    raises ``ShapeMismatch``; an entry that is not an integer in the
    symmetric signed ``w_bits`` range raises ``OutOfRange``.

    With a 1-D uint8 ``scratch`` buffer the pairs are written into its
    front, which must have room for them, and ``pairs`` is a view of it,
    valid until the buffer is written again.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or 0 in m.shape:
        raise ShapeMismatch(f"matrix must be 2-D and nonempty, got shape {m.shape}")
    in_dim, out_dim = m.shape
    row_tiles = math.ceil(in_dim / spec.rows)
    if row_tiles >= MAX_ROW_TILES:
        raise ShapeMismatch(
            f"{in_dim} rows need {row_tiles} row tiles of {spec.rows}; "
            f"a programmed matrix holds fewer than {MAX_ROW_TILES}"
        )
    m = checked_weights(m, w_bits)

    cb = spec.cell_bits
    planes = math.ceil(w_bits / cb)
    col_tiles = math.ceil(out_dim * planes * 2 / spec.cols)

    # Table rows run to 2^w_bits - 1 <= 255, so the index is uint8. The
    # narrowing pass follows the source's memory order (``run_fc`` passes a
    # transposed view); the uint8 sum wraps to the exact row for any
    # integer dtype. Padding rows hold weight 0, whose pairs are all zero.
    offset = 1 << (w_bits - 1)
    index = np.empty((row_tiles * spec.rows, out_dim), dtype=np.uint8)
    index[:in_dim] = np.add(m, offset, dtype=np.uint8, casting="unsafe")
    index[in_dim:] = offset
    field, dtype = pair_format(spec.rows, cb)
    pairs = _carve(scratch, (row_tiles * spec.rows, out_dim, planes), dtype)
    # Every index is a table row; "clip" writes straight into ``pairs``,
    # where the default mode would gather into a buffer first. ``np.take``
    # copies its index to intp (8 bytes an entry) before it gathers, so the
    # entries are gathered GATHER_ENTRIES at a time, and that copy is one
    # chunk's, not the whole index's.
    table = _pair_table(w_bits, cb, field, dtype)
    flat_index, flat_pairs = index.reshape(-1), pairs.reshape(-1, planes)
    for i in range(0, flat_index.size, GATHER_ENTRIES):
        chunk = slice(i, i + GATHER_ENTRIES)
        np.take(table, flat_index[chunk], axis=0, out=flat_pairs[chunk], mode="clip")

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
    return ProgrammedTiles(pairs=pairs.reshape(row_tiles, spec.rows, out_dim * planes), meta=meta)


class _ReadPlan(NamedTuple):
    """What one kind of read needs beside its operands (:func:`_read_plan`)."""

    table: np.ndarray  # (2^a_bits, slices): each pattern's drive per read slice, times 2^-F
    weights: np.ndarray  # contraction weights: S+ rows of `tiles` row tiles, then S- rows of as many
    tiles: int  # row tiles one contraction over both fields adds exactly in the pairs' dtype
    ceilings: np.ndarray  # (2, 1, 1, 1): the ADC ceiling of the S+ field (times 2^-F) and the S- field
    scales: tuple[float, float]  # 2^-F and 1, the scales of the S+ and the S- field
    twin: bool  # the last slice is read once for the top DAC slice and the sign slice
    plane_w: np.ndarray  # float64 place weight of each digit plane, LSB first


@lru_cache(maxsize=None)
def _read_plan(
    a_bits: int,
    dac_bits: int,
    adc_bits: int,
    dac_slices: int,
    signed: bool,
    field: int,
    dtype: np.dtype,
    planes: int,
    cell_bits: int,
) -> _ReadPlan:
    """The read of ``a_bits``-bit inputs that drives the ``dac_slices``
    lowest DAC slices and, when ``signed``, the sign slice, into a crossbar
    of ``field``-bit pairs of ``dtype`` and ``planes`` digit planes.

    Row ``u`` of the drive table holds the drives of the input whose
    two's-complement pattern is ``u``: its unsigned DAC slices, LSB first,
    then its sign bit, each times ``2^-field``. Reconstruction: ``x =
    sum_k slice_k * 2^(k * dac_bits) - 2^a_bits * sign``. When the top DAC
    slice holds only bit ``a_bits - 1``, the sign bit, the sign slice
    drives what it drives; the table keeps one column for both, whose place
    weight is the sum of theirs, ``2^(a_bits-1) - 2^a_bits``."""
    shifts = np.arange(dac_slices) * dac_bits
    u = np.arange(1 << a_bits)
    drives = list((u >> shifts[:, None]) & ((1 << dac_bits) - 1))
    slice_w = [1 << int(s) for s in shifts]
    twin = signed and int(shifts[-1]) == a_bits - 1
    if twin:
        slice_w[-1] -= 1 << a_bits
    elif signed:
        drives.append(u >> (a_bits - 1))
        slice_w.append(-(1 << a_bits))
    scale = 2.0**-field
    # Scaling by a power of two is exact. Stored slice-major (``table.T``
    # is contiguous): ``_drives`` gathers each slice's drives for every row
    # at once.
    table = (np.array(drives, dtype=dtype) * scale).T
    # The S+ sums, held times 2^-F, weigh their slices' place weights times
    # 2^F, the S- sums minus the place weights. A contraction over both
    # fields of T row tiles stays within 2 * T * sum|slice_w| * limit of 0;
    # as many row tiles as keep that below 2^24 (float32) or 2^53
    # (float64), at most _CONTRACTION_TILES, are added in one contraction.
    limit = (1 << adc_bits) - 1
    exact = 1 << (np.finfo(dtype).nmant + 1)
    tiles = min(_CONTRACTION_TILES, (exact - 1) // (2 * sum(map(abs, slice_w)) * limit))
    weights = np.outer([1 / scale, -1.0], np.tile(slice_w, tiles)).astype(dtype).ravel()
    ceilings = np.array([limit * scale, limit], dtype=dtype).reshape(2, 1, 1, 1)
    plane_w = np.left_shift(1, np.arange(planes) * cell_bits).astype(np.float64)
    for array in (table, weights, ceilings, plane_w):
        array.flags.writeable = False  # shared by every caller through the cache
    return _ReadPlan(table, weights, tiles, ceilings, (scale, 1.0), twin, plane_w)


def _drives(x: np.ndarray, a_bits: int, table: np.ndarray, row_tiles: int, rows: int):
    """Word-line drives of every row tile: each slice (column) of the drive
    ``table``, over all input vectors, as a ``(row_tiles, slices * n, rows)``
    tensor of the table's dtype."""
    in_dim, n = x.shape
    # The uint8 pattern x & (2^a_bits - 1) indexes the table: the cast to
    # uint8 wraps modulo 2^8, and narrower patterns are masked. Padding rows
    # get pattern 0, which drives nothing. Gathered per slice, per vector,
    # then per row, each row tile's drives are a strided view, no copy.
    index = np.zeros((n, row_tiles * rows), dtype=np.uint8)
    index[:, :in_dim] = x.T
    if a_bits < 8:
        np.bitwise_and(index, (1 << a_bits) - 1, out=index)
    drives = table.T.take(index, axis=1)
    return drives.reshape(-1, row_tiles, rows).transpose(1, 0, 2)


def mvm(
    pt: ProgrammedTiles,
    x,
    a_bits: int,
    conv: ConverterSpec,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, SaturationLog]:
    """Bit-serial matrix-vector product through the programmed tiles.

    Every (slice, plane, column) analog sum passes the ADC; results
    recombine by differential subtraction and digital shift-and-add. When
    the returned log is clean the result equals the exact integer product.
    One matmul over the pairs gives each packed sum ``P = S+ + 2^F * S-``,
    scaled by ``2^-F``; ``S-`` is ``floor(P * 2^-F)`` and what is left is
    ``S+ * 2^-F``, both exact, and each passes the ADC as it would on its
    own column, ``S+`` at the ceiling times ``2^-F``. One contraction over
    the (field, row tile, slice) rows then gives each digit plane's total,
    and the planes add in float64 (see the module docstring).

    Only driven slices are read. When no input is negative, the sign slice
    and every DAC slice at or above the top bit of the largest input drive
    nothing: their analog sums are 0, which adds nothing and cannot clip,
    so skipping them leaves the output and the log exact. An all-zero
    input reads zeros with a clean log. The range check already takes the
    smallest and largest input, so a signed read pays nothing for this.
    When a signed read's top DAC slice holds only the sign bit (at DAC 1,
    and at DAC 2 for odd ``a_bits``), it drives the word lines the sign
    slice drives, so their sums are equal: they are read once, and each of
    those reads' clips counts twice, as two reads clip twice.

    ``x`` may also be a matrix whose columns are independent drive vectors
    (repeated MVM sharing one saturation log), returning one output column
    per drive. Inputs follow ``program_signed``'s entry rules at ``a_bits``,
    which must be an integer in 1..``MAX_ACTIVATION_BITS`` (else
    ``OutOfRange``). With a 1-D uint8 ``scratch`` buffer the packed and
    unpacked sums, twice the size of the packed ones, are held in its
    front, which must have room for them.
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
    # Driven DAC slices: every one for a signed input (and the sign slice),
    # else those below the top bit of the largest input.
    if lo < 0:
        dac_slices = math.ceil(a_bits / conv.dac_bits)
    else:
        dac_slices = -(-hi.bit_length() // conv.dac_bits)
    if dac_slices == 0:  # an all-zero input
        out = np.zeros((meta.out_dim, n), dtype=np.int64)
        return (out if batched else out[:, 0]), SaturationLog()
    pairs = pt.pairs
    field = pair_format(meta.xbar_size, meta.cell_bits)[0]
    plan = _read_plan(
        a_bits, conv.dac_bits, conv.adc_bits, dac_slices, lo < 0,
        field, pairs.dtype, meta.planes, meta.cell_bits,
    )
    drives = _drives(x, a_bits, plan.table, meta.row_tiles, meta.xbar_size)
    slices = plan.table.shape[1]
    sums = _carve(scratch, (2,) + drives.shape[:2] + pairs.shape[2:], pairs.dtype)
    pos, neg = sums
    # The drives carry 2^-F, so the matmul gives every packed pair of
    # analog sums scaled, P * 2^-F = S- + S+ * 2^-F, exactly. Both fields
    # are nonnegative exactly when P is. Unpack in place, each step exact:
    # the floor is S-, what is left is S+ * 2^-F.
    np.matmul(drives, pairs, out=pos)
    del drives
    if pos.min() < 0:
        raise OutOfRange("analog sums are nonnegative by construction")
    np.floor(pos, out=neg)
    np.subtract(pos, neg, out=pos)
    log = _saturate(sums, plan.ceilings, plan.scales, np.s_[:, (slices - 1) * n :] if plan.twin else None)

    # Every digit plane's total: one contraction over the (field, row tile,
    # slice) rows, exact in the pairs' dtype up to plan.tiles row tiles.
    # The weights of any c row tiles of S+ rows end at the middle of
    # plan.weights, and those of c row tiles of S- rows start there.
    k = meta.row_tiles * slices  # rows of each field
    mid = len(plan.weights) // 2
    if meta.row_tiles <= plan.tiles:
        totals = np.matmul(plan.weights[mid - k : mid + k], sums.reshape(2 * k, -1))
    else:  # per field, a contraction per plan.tiles row tiles, added in float64
        totals = np.zeros(n * pairs.shape[2])
        pos, neg = sums.reshape(2, k, -1)
        for r in range(0, k, mid):
            count = min(mid, k - r)
            totals += np.matmul(plan.weights[mid - count : mid], pos[r : r + count])
            totals += np.matmul(plan.weights[mid : mid + count], neg[r : r + count])
    out = np.dot(totals.reshape(-1, meta.planes), plan.plane_w).astype(np.int64)  # (n * out_dim,)
    return (out.reshape(n, meta.out_dim).T if batched else out), log


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

