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
drives carry the factor ``2^-F``, so the matmul yields ``P * 2^-F``. The read
unpacks ``S- = floor(P * 2^-F)`` and ``S+ = P - 2^F * S-``, passes both
through the ADC as if each were read from its own column, and subtracts
them. A signed read drives every DAC slice and the sign slice. A read with
no negative input drives only the DAC slices below the top bit of its
largest input: the sign slice and the higher DAC slices put 0 on every
word line, so their sums would be 0, which adds nothing to any output and
cannot clip, and skipping them is exact.

The packed sum is exact. Every drive, cell digit, product and partial sum
of one column is a nonnegative integer below ``2^F``, so every partial
sum of a packed matmul is a nonnegative integer below ``2^(2F)``: below
2^24 for float32 pairs, and below 2^48 for float64 ones, because
``CrossbarSpec`` keeps ``F <= 24``. The dtype holds every integer there,
and the same integers times the power of two ``2^-F``, so every sum is
exact in any summation order; as the low field's sum stays below ``2^F``
it never carries into the high field. The unpack is exact as well:
``P * 2^-F = S- + S+ * 2^-F`` with ``0 <= S+ * 2^-F < 1``, so its floor
is ``S-``, the difference left is exactly ``S+ * 2^-F`` (both terms hold
it and the result has no more significant bits), and scaling that by
``2^F`` gives ``S+``. The ADC clamps each sum in place to at most
``2^adc_bits - 1`` (255 at the widest ADC), so each difference
``S+ - S-`` is an integer of magnitude at most 255.

The shift-and-add is exact as well. Per row tile, the digit planes of
each output are added with their weights ``2^(plane * cell_bits)`` in the
pairs' dtype: the plane weights of one weight add up to at most
``2^w_bits - 1 = 255``, so each partial sum is an integer of magnitude at
most 255 * 255, below 2^16. The row tiles and the input slices are added
in float64: ``program_signed`` refuses ``MAX_ROW_TILES`` (about 2^16) row
tiles or more, so a sum over row tiles stays below 2^32, a slice weight
is at most 2^8 in magnitude and at most 9 slices add up, so every partial
sum stays below 2^44, where float64 holds every integer.

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


# Row tiles of one programmed matrix stay below this count, about 2^16:
# it is where a sum of row-tile reads at the widest ADC ceiling, at most
# ``row_tiles * 255``, would reach 2^24. The exactness of ``mvm``'s float64
# shift-and-add counts on the cap, with room to spare (module docstring).
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


def _signed_ints(a: np.ndarray, bits: int, what: str) -> tuple[np.ndarray, int, int]:
    """The array ``a`` as an integer array, with its smallest and largest
    entry, after checking each is an integer in the signed ``bits``-bit
    range; a float entry must be finite and integral. Integer arrays come
    back as they are, without a copy."""
    if a.dtype.kind == "f" and not (np.isfinite(a) & (a == np.trunc(a))).all():
        raise OutOfRange(f"{what} must be finite integers")
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
    # where the default mode would gather into a buffer first.
    np.take(_pair_table(w_bits, cb, field, dtype), index, axis=0, out=pairs, mode="clip")

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


@lru_cache(maxsize=None)
def _drive_table(a_bits: int, dac_bits: int, slices: int, field: int, dtype: np.dtype) -> np.ndarray:
    """Row ``u`` holds the word-line drives of the input whose ``a_bits``-bit
    two's-complement pattern is ``u``: its unsigned DAC slices, LSB first,
    then its sign bit, of which the first ``slices`` are kept, each scaled
    by ``2^-field`` in the pairs' ``dtype``.
    Reconstruction: x = sum_k slice_k * 2^(k*dac_bits) - 2^a_bits * sign."""
    n_slices = math.ceil(a_bits / dac_bits)
    u = np.arange(1 << a_bits)
    table = np.empty((n_slices + 1, 1 << a_bits), dtype=dtype)
    table[:n_slices] = (u >> np.arange(n_slices)[:, None] * dac_bits) & ((1 << dac_bits) - 1)
    table[n_slices] = u >> (a_bits - 1)
    # Scaling by a power of two is exact. Stored slice-major (``table.T``
    # is contiguous): ``_drives`` gathers each slice's drives for every
    # row at once.
    table = (table[:slices] * 2.0**-field).T
    table.flags.writeable = False  # shared by every caller through the cache
    return table


@lru_cache(maxsize=None)
def _place_weights(
    a_bits: int, dac_bits: int, planes: int, cell_bits: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Place weights of the shift-and-add: of each digit plane of one
    output (LSB first), ``2^(plane * cell_bits)`` in the pairs' ``dtype``,
    and of each input slice (sign slice last, at ``-2^a_bits``), in
    float64."""
    shifts = np.arange(math.ceil(a_bits / dac_bits)) * dac_bits
    slice_w = np.append(np.left_shift(1, shifts), -(1 << a_bits)).astype(np.float64)
    plane_w = np.left_shift(1, np.arange(planes) * cell_bits).astype(dtype)
    slice_w.flags.writeable = plane_w.flags.writeable = False  # shared through the cache
    return plane_w, slice_w


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

    Every (slice, plane, column) analog sum passes ``adc_quantize``; results
    recombine by differential subtraction and digital shift-and-add. When
    the returned log is clean the result equals the exact integer product.
    One matmul over the pairs gives each packed sum ``P = S+ + 2^F * S-``,
    scaled by ``2^-F``; ``S-`` is ``floor(P * 2^-F)`` and ``S+`` is
    ``P - 2^F * S-``, both exact (see the module docstring), and each
    passes the ADC as it would on its own column.

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
    # Driven slices: every DAC slice and the sign slice for a signed input,
    # else the DAC slices below the top bit of the largest input.
    if lo < 0:
        slices = math.ceil(a_bits / conv.dac_bits) + 1
    else:
        slices = -(-hi.bit_length() // conv.dac_bits)
    if slices == 0:  # an all-zero input
        out = np.zeros((meta.out_dim, n), dtype=np.int64)
        return (out if batched else out[:, 0]), SaturationLog()
    pairs = pt.pairs
    field = pair_format(meta.xbar_size, meta.cell_bits)[0]
    table = _drive_table(a_bits, conv.dac_bits, slices, field, pairs.dtype)
    drives = _drives(x, a_bits, table, meta.row_tiles, meta.xbar_size)
    sums = _carve(scratch, (2,) + drives.shape[:2] + pairs.shape[2:], pairs.dtype)
    pos, neg = sums
    # The drives carry 2^-F, so the matmul gives every packed pair of
    # analog sums scaled, P * 2^-F = S- + S+ * 2^-F, exactly. Unpack in
    # place, each step exact: the floor is S-, what is left scales to S+.
    np.matmul(drives, pairs, out=pos)
    np.floor(pos, out=neg)
    np.subtract(pos, neg, out=pos)
    np.multiply(pos, 1 << field, out=pos)
    log = adc_quantize(sums, conv.adc_bits)
    np.subtract(pos, neg, out=pos)  # each pair's clamped difference, at most 255 in magnitude

    # Shift-and-add, exact at each step (module docstring): the planes of
    # each output per row tile in the pairs' dtype, then the row tiles and
    # the slices in float64.
    plane_w, slice_w = _place_weights(a_bits, conv.dac_bits, meta.planes, meta.cell_bits, pairs.dtype)
    totals = np.matmul(pos.reshape(-1, meta.planes), plane_w).reshape(meta.row_tiles, slices, -1)
    totals = totals[0] if meta.row_tiles == 1 else totals.sum(axis=0, dtype=np.float64)
    out = np.matmul(slice_w[:slices], totals).astype(np.int64)  # (n * out_dim,)
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

