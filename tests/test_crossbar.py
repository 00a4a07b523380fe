"""Bit-level crossbar kernel: programming, MVM, saturation, MBSA."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimdse import crossbar
from pimdse.crossbar import (
    MAX_ACTIVATION_BITS,
    MAX_ROW_TILES,
    SUPPORTED_BITS,
    ConverterSpec,
    CrossbarSpec,
    OutOfRange,
    ShapeMismatch,
    adc_quantize,
    mbsa_square,
    mvm,
    program_signed,
)


def plane_weight(meta, vcol):
    """Signed weight of virtual column ``vcol``, from the documented layout:
    each output owns ``planes * 2`` columns, LSB plane first, positive
    before negative."""
    j = vcol % (meta.planes * 2)
    return (1 - 2 * (j % 2)) * (1 << (j // 2 * meta.cell_bits))


def reconstruct(pt):
    """Independent oracle: rebuild the signed matrix from the tile planes."""
    meta = pt.meta
    total = np.zeros((meta.in_dim, meta.out_dim), dtype=np.int64)
    for rt in range(meta.row_tiles):
        r0 = rt * meta.xbar_size
        rows = min(meta.xbar_size, meta.in_dim - r0)
        for vcol in range(meta.virtual_cols):
            total[r0 : r0 + rows, vcol // (meta.planes * 2)] += (
                plane_weight(meta, vcol) * pt.cells[rt, :rows, vcol].astype(np.int64)
            )
    return total


def tile_views(pt):
    """Every (row tile, column tile) block of the stacked cell array."""
    x = pt.meta.xbar_size
    return [
        pt.cells[rt, :, ct * x : (ct + 1) * x]
        for rt in range(pt.meta.row_tiles)
        for ct in range(pt.meta.col_tiles)
    ]


def tile_loop_mvm(pt, x, a_bits, conv):
    """Oracle: the per-tile, per-slice integer read loop, one ADC at a time."""
    meta = pt.meta
    x = np.asarray(x, dtype=np.int64)
    batched = x.ndim == 2
    if not batched:
        x = x[:, None]
    limit = (1 << conv.adc_bits) - 1
    clip_count = max_overflow = 0
    n = x.shape[1]
    acc = np.zeros((meta.virtual_cols, n), dtype=np.int64)
    n_slices = math.ceil(a_bits / conv.dac_bits)
    for rt in range(meta.row_tiles):
        r0 = rt * meta.xbar_size
        chunk = np.zeros((meta.xbar_size, n), dtype=np.int64)
        chunk[: min(meta.xbar_size, meta.in_dim - r0)] = x[r0 : r0 + meta.xbar_size]
        u = chunk & ((1 << a_bits) - 1)
        drives = [
            ((u >> (k * conv.dac_bits)) & ((1 << conv.dac_bits) - 1), 1 << (k * conv.dac_bits))
            for k in range(n_slices)
        ]
        drives.append(((chunk < 0).astype(np.int64), -(1 << a_bits)))
        drives = [(d, w) for d, w in drives if d.any()]  # zero drives cannot clip
        for ct in range(meta.col_tiles):
            c0 = ct * meta.xbar_size
            c1 = min(c0 + meta.xbar_size, meta.virtual_cols)
            cells = pt.cells[rt, :, c0:c1].astype(np.int64)
            for drive, w in drives:
                sums = drive.T @ cells
                over = sums > limit
                if over.any():
                    clip_count += int(over.sum())
                    max_overflow = max(max_overflow, int((sums - limit).max()))
                    sums = np.minimum(sums, limit)
                acc[c0:c1, :] += w * sums.T
    out = np.zeros((meta.out_dim, n), dtype=np.int64)
    out_index = np.arange(meta.virtual_cols) // (meta.planes * 2)
    col_weight = np.array([plane_weight(meta, c) for c in range(meta.virtual_cols)])
    np.add.at(out, out_index, col_weight[:, None] * acc)
    return (out if batched else out[:, 0]), clip_count, max_overflow


def adc_read(value, adc_bits):
    """One analog sum through ``adc_quantize``: its read and whether it clipped."""
    sums = np.array(value, dtype=np.float32)
    log = adc_quantize(sums, adc_bits)
    return sums.item(), not log.clean


class TestAdcQuantize:
    def test_zero(self):
        assert adc_read(0, 4) == (0, False)

    def test_boundary_not_clipped(self):
        assert adc_read(255, 8) == (255, False)

    def test_worst_case_clips(self):
        # 64 rows x max cell 3 x max slice 3 from the largest menu values.
        assert adc_read(576, 8) == (255, True)

    def test_negative_rejected(self):
        with pytest.raises(OutOfRange):
            adc_read(-1, 8)

    def test_elementwise_on_arrays(self):
        sums = np.array([[0, 15], [16, 40]], dtype=np.float32)
        log = adc_quantize(sums, 4)  # clamps in place
        assert sums.tolist() == [[0, 15], [15, 15]]
        assert (log.clip_count, log.max_overflow) == (2, 40 - 15)


class TestCrossbarSpec:
    def test_float32_exactness_bound(self):
        # rows * 3 * 3 must stay below 2^24 for exact float32 column sums.
        largest = ((1 << 24) - 1) // 9
        assert CrossbarSpec(largest, largest, 2).rows == largest
        with pytest.raises(ValueError, match="2\\^24"):
            CrossbarSpec(largest + 1, largest + 1, 1)


class TestProgramSigned:
    def test_digit_decomposition(self):
        pt = program_signed([[3]], 4, CrossbarSpec(16, 16, 2))
        assert pt.meta.planes == 2
        # virtual columns: (plane0 +, plane0 -, plane1 +, plane1 -)
        assert pt.cells[0, 0, :4].tolist() == [3, 0, 0, 0]

    def test_sign_split(self):
        pt = program_signed([[-1]], 4, CrossbarSpec(16, 16, 1))
        cells = pt.cells[0, 0]
        assert cells[0] == 0 and cells[1] == 1  # LSB negative plane holds the 1

    def test_reconstruction_identity_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            w_bits = int(rng.choice([4, 8]))
            cell = int(rng.choice([1, 2]))
            lim = 1 << (w_bits - 1)
            w = rng.integers(-lim + 1, lim, (rows, cols))
            pt = program_signed(w, w_bits, CrossbarSpec(16, 16, cell))
            assert np.array_equal(reconstruct(pt), w)

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange):
            program_signed([[8]], 4, CrossbarSpec(16, 16, 2))
        with pytest.raises(OutOfRange):
            program_signed([[1]], 3, CrossbarSpec(16, 16, 2))
        with pytest.raises(OutOfRange):
            program_signed([[1]], 4.0, CrossbarSpec(16, 16, 2))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(ShapeMismatch, match="nonempty"):
            program_signed(np.zeros(shape, dtype=int), 4, CrossbarSpec(16, 16, 2))

    @pytest.mark.parametrize("bad", [2.5, -1.5, np.nan, np.inf])
    def test_non_integral_entries_rejected(self, bad):
        # 2.5 and -1.5 used to be stored as 2 and -1.
        with pytest.raises(OutOfRange, match="finite integers"):
            program_signed([[bad, 1.0]], 4, CrossbarSpec(16, 16, 2))

    def test_integral_floats_accepted(self):
        spec = CrossbarSpec(16, 16, 2)
        got = program_signed([[3.0, -2.0]], 4, spec).cells
        assert np.array_equal(got, program_signed([[3, -2]], 4, spec).cells)

    @pytest.mark.parametrize(
        "source",
        [
            lambda m: np.ascontiguousarray(m.T).T,  # F-ordered, as run_fc passes w.T
            lambda m: np.repeat(m, 3, axis=0)[::3],  # strided row slice
            lambda m: np.repeat(m, 2, axis=1)[:, ::2],  # strided column slice
            lambda m: m.astype(np.int8),
            lambda m: m.astype(np.int16),
            lambda m: m.astype(np.float64),  # integral floats
        ],
        ids=["transposed", "row-strided", "col-strided", "int8", "int16", "float"],
    )
    @pytest.mark.parametrize("w_bits, cell", [(4, 2), (8, 1), (8, 2)])
    def test_source_layout_and_dtype_do_not_change_cells(self, source, w_bits, cell):
        rng = np.random.default_rng(w_bits * 10 + cell)
        lim = (1 << (w_bits - 1)) - 1
        m = rng.integers(-lim, lim + 1, (37, 11))
        m[0, :2] = -lim, lim  # both ends of the range
        spec = CrossbarSpec(16, 16, cell)
        src = source(m)
        assert np.array_equal(src, m)
        want = program_signed(np.ascontiguousarray(m, dtype=np.int64), w_bits, spec).cells
        assert np.array_equal(program_signed(src, w_bits, spec).cells, want)

    def test_row_tile_bound_keeps_float32_sums_exact(self):
        # Each row tile adds at most 255 (the widest ADC's ceiling) to a sum.
        assert (MAX_ROW_TILES - 1) * 255 < 1 << 24 <= MAX_ROW_TILES * 255

    def test_too_many_row_tiles_refused_before_allocating(self):
        m = np.zeros((MAX_ROW_TILES * 16, 1), dtype=np.int8)
        tracemalloc.start()
        try:
            with pytest.raises(ShapeMismatch, match=f"{MAX_ROW_TILES} row tiles"):
                program_signed(m, 8, CrossbarSpec(16, 16, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes  # no cell, index or int64 copy was built

    def test_cells_within_cell_range(self):
        rng = np.random.default_rng(2)
        for cell in (1, 2):
            w = rng.integers(-127, 128, (20, 5))
            pt = program_signed(w, 8, CrossbarSpec(16, 16, cell))
            for tile in tile_views(pt):
                assert tile.min() >= 0
                assert tile.max() < (1 << cell)
                assert np.array_equal(tile, np.floor(tile))

    def test_tiling_covers_every_weight_once(self):
        # Conservation: summed tile footprints equal the virtual grid.
        rng = np.random.default_rng(3)
        w = rng.integers(-7, 8, (40, 9))
        pt = program_signed(w, 4, CrossbarSpec(16, 16, 2))
        meta = pt.meta
        assert meta.row_tiles == math.ceil(40 / 16)
        assert meta.col_tiles == math.ceil(meta.virtual_cols / 16)
        assert pt.cells.shape == (meta.row_tiles, 16, meta.virtual_cols)
        assert len(tile_views(pt)) == meta.row_tiles * meta.col_tiles
        assert np.array_equal(reconstruct(pt), w)


class TestMvm:
    def test_single_cell_product(self):
        pt = program_signed([[3]], 4, CrossbarSpec(16, 16, 2))
        y, log = mvm(pt, [5], 4, ConverterSpec(1, 8))
        assert y.tolist() == [15] and log.clean

    def test_identity(self):
        pt = program_signed(np.eye(2, dtype=int), 4, CrossbarSpec(16, 16, 2))
        y, log = mvm(pt, [3, 5], 4, ConverterSpec(1, 8))
        assert y.tolist() == [3, 5] and log.clean

    def test_saturation_boundary_144(self):
        pt = program_signed(np.full((16, 1), 3), 4, CrossbarSpec(16, 16, 2))
        y, log = mvm(pt, np.full(16, 3), 4, ConverterSpec(2, 8))
        assert y.tolist() == [144] and log.clean
        _, log6 = mvm(pt, np.full(16, 3), 4, ConverterSpec(2, 6))
        assert log6.clip_count == 1
        assert log6.max_overflow == 144 - 63

    def test_shape_mismatch(self):
        pt = program_signed(np.eye(2, dtype=int), 4, CrossbarSpec(16, 16, 2))
        with pytest.raises(ShapeMismatch):
            mvm(pt, [1, 2, 3], 4, ConverterSpec(1, 8))

    def test_zero_column_batch_rejected(self):
        pt = program_signed(np.eye(2, dtype=int), 4, CrossbarSpec(16, 16, 2))
        with pytest.raises(ShapeMismatch, match="at least one vector"):
            mvm(pt, np.zeros((2, 0), dtype=int), 4, ConverterSpec(1, 8))

    @pytest.mark.parametrize("bad", [1.9, -0.5, np.nan, -np.inf])
    def test_non_integral_inputs_rejected(self, bad):
        # Against a weight of 3, an input of 1.9 used to read as 1 * 3.
        pt = program_signed([[3]], 4, CrossbarSpec(16, 16, 2))
        with pytest.raises(OutOfRange, match="finite integers"):
            mvm(pt, [bad], 8, ConverterSpec(1, 8))

    @pytest.mark.parametrize("a_bits", [0, 9, 64])
    def test_activation_width_checked(self, a_bits):
        # 0 used to fail on a negative shift count, 64 on an int64 overflow.
        pt = program_signed([[3]], 4, CrossbarSpec(16, 16, 2))
        message = f"a_bits must be an integer in 1..{MAX_ACTIVATION_BITS}"
        with pytest.raises(OutOfRange, match=message):
            mvm(pt, [0], a_bits, ConverterSpec(1, 8))

    def test_integral_float_inputs_accepted(self):
        pt = program_signed([[3]], 4, CrossbarSpec(16, 16, 2))
        y, log = mvm(pt, np.array([5.0]), 8, ConverterSpec(1, 8))
        assert y.tolist() == [15] and log.clean

    def test_lossless_rule_fuzz(self):
        # adc_bits >= dac_bits + cell_bits + ceil(log2(rows)) guarantees
        # exact integer results with a clean log.
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 2000:
            rows = int(rng.choice([16, 32, 64]))
            cell = int(rng.choice([1, 2]))
            dac = int(rng.choice([1, 2]))
            adc = int(rng.choice([4, 6, 8]))
            if adc < dac + cell + math.ceil(math.log2(rows)):
                continue
            w_bits = int(rng.choice([4, 8]))
            out_dim = int(rng.integers(1, 6))
            lim = 1 << (w_bits - 1)
            w = rng.integers(-lim + 1, lim, (rows, out_dim))
            x = rng.integers(-127, 128, rows)
            pt = program_signed(w, w_bits, CrossbarSpec(rows, rows, cell))
            y, log = mvm(pt, x, 8, ConverterSpec(dac, adc))
            assert log.clean
            assert np.array_equal(y, x @ w)
            checked += 1

    def test_monotone_clipping(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rows = int(rng.choice([16, 32, 64]))
            cell = int(rng.choice([1, 2]))
            dac = int(rng.choice([1, 2]))
            w = rng.integers(-7, 8, (rows, 3))
            x = rng.integers(-127, 128, rows)
            pt = program_signed(w, 4, CrossbarSpec(rows, rows, cell))
            clips = [
                mvm(pt, x, 8, ConverterSpec(dac, adc))[1].clip_count for adc in (4, 6, 8)
            ]
            assert clips[0] >= clips[1] >= clips[2]

    def test_linearity_when_clean(self):
        rng = np.random.default_rng(6)
        spec = CrossbarSpec(16, 16, 1)
        conv = ConverterSpec(1, 8)
        for _ in range(200):
            w = rng.integers(-7, 8, (16, 4))
            x = rng.integers(-30, 31, 16)
            y = rng.integers(-30, 31, 16)
            pt = program_signed(w, 4, spec)
            rx, lx = mvm(pt, x, 8, conv)
            ry, ly = mvm(pt, y, 8, conv)
            rxy, lxy = mvm(pt, x + y, 8, conv)
            if lx.clean and ly.clean and lxy.clean:
                assert np.array_equal(rxy, rx + ry)


@settings(max_examples=150)
@given(
    xbar=st.sampled_from([16, 32, 64]),
    cell=st.sampled_from([1, 2]),
    dac=st.sampled_from([1, 2]),
    adc=st.sampled_from([4, 6, 8]),
    w_bits=st.sampled_from([4, 8]),
    a_bits=st.sampled_from([2, 4, 8]),
    in_dim=st.integers(1, 140),
    out_dim=st.integers(1, 12),
    batch=st.integers(0, 3),  # 0: a single 1-D drive vector
    extreme=st.booleans(),  # full-scale weights and inputs, so reads clip
    transposed=st.booleans(),  # program an F-ordered view, as run_fc does
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_read_matches_tile_loop(
    xbar, cell, dac, adc, w_bits, a_bits, in_dim, out_dim, batch, extreme, transposed, seed
):
    rng = np.random.default_rng(seed)
    w_lim = (1 << (w_bits - 1)) - 1
    a_lim = (1 << (a_bits - 1)) - 1
    shape = (in_dim, batch) if batch else (in_dim,)
    if extreme:
        w = w_lim * rng.choice([-1, 1], (in_dim, out_dim))
        x = a_lim * rng.choice([-1, 1], shape)
    else:
        w = rng.integers(-w_lim, w_lim + 1, (in_dim, out_dim))
        x = rng.integers(-a_lim, a_lim + 1, shape)
    source = np.ascontiguousarray(w.T).T if transposed else w
    pt = program_signed(source, w_bits, CrossbarSpec(xbar, xbar, cell))
    conv = ConverterSpec(dac, adc)
    y, log = mvm(pt, x, a_bits, conv)
    want, clip_count, max_overflow = tile_loop_mvm(pt, x, a_bits, conv)
    assert y.shape == want.shape and np.array_equal(y, want)
    assert (log.clip_count, log.max_overflow) == (clip_count, max_overflow)
    if log.clean:
        assert np.array_equal(y, x @ w if batch == 0 else w.T @ x)


@pytest.mark.parametrize(
    "cell, dac, adc, w_bits, a_bits",
    [
        (2, 1, 4, 8, 8),
        (2, 2, 6, 4, 8),
        (1, 2, 4, 8, 4),
        (1, 1, 6, 4, 8),
        (1, 1, 8, 8, 8),  # the most slice x plane terms: 9 slices x 16 columns
    ],
)
def test_many_row_tiles_match_tile_loop(cell, dac, adc, w_bits, a_bits):
    # 2,000 rows at xbar 16 are 125 row tiles; full-scale weights and inputs
    # make every read clip whose full column sum exceeds the ADC ceiling.
    rng = np.random.default_rng(cell * 100 + dac * 10 + adc)
    w = ((1 << (w_bits - 1)) - 1) * rng.choice([-1, 1], (2_000, 5))
    x = ((1 << (a_bits - 1)) - 1) * rng.choice([-1, 1], (2_000, 2))
    pt = program_signed(w, w_bits, CrossbarSpec(16, 16, cell))
    assert pt.meta.row_tiles == 125
    conv = ConverterSpec(dac, adc)
    y, log = mvm(pt, x, a_bits, conv)
    want, clip_count, max_overflow = tile_loop_mvm(pt, x, a_bits, conv)
    assert np.array_equal(y, want)
    assert (log.clip_count, log.max_overflow) == (clip_count, max_overflow)
    # Only the 1-bit cell and DAC cases' full column sum, 16 rows x 1 x 1,
    # fits their ADCs.
    assert log.clean == (16 * ((1 << dac) - 1) * ((1 << cell) - 1) < 1 << adc)
    if log.clean:
        assert np.array_equal(y, w.T @ x)


def test_large_clean_read_is_exact():
    # 20,000 rows of nonnegative weights: the first input's results and the
    # second's positive-slice partial sums lie near 2^27, beyond float32's
    # exact integers. The lossless converter (16 rows x 1 x 1 <= 255) keeps
    # the read clean, so it must equal the integer product.
    rng = np.random.default_rng(7)
    w = rng.integers(0, 128, (20_000, 3))
    x = np.stack([rng.integers(0, 128, 20_000), rng.integers(-127, 128, 20_000)], axis=1)
    pt = program_signed(w, 8, CrossbarSpec(16, 16, 1))
    y, log = mvm(pt, x, 8, ConverterSpec(1, 8))
    assert log.clean
    assert y[:, 0].min() > 1 << 24
    assert np.array_equal(y, w.T @ x)


def test_float64_shift_and_add_bound():
    # The largest partial sum of mvm's float64 shift-and-add: every row-tile
    # total at its ceiling, times the widest slice and plane weights, over
    # every (slice, plane, sign) term. float64 holds every integer below 2^53.
    total = (MAX_ROW_TILES - 1) * ((1 << max(SUPPORTED_BITS["adc_bits"])) - 1)
    slices = math.ceil(MAX_ACTIVATION_BITS / min(SUPPORTED_BITS["dac_bits"])) + 1
    cell = min(SUPPORTED_BITS["cell_bits"])
    planes = math.ceil(max(SUPPORTED_BITS["weight_bits"]) / cell)
    slice_weight = 1 << MAX_ACTIVATION_BITS  # the sign slice's
    plane_weight = 1 << ((planes - 1) * cell)
    assert slices * planes * 2 * total * slice_weight * plane_weight < 1 << 53


CONVERTERS = [
    (dac, cell, adc)
    for dac in SUPPORTED_BITS["dac_bits"]
    for cell in SUPPORTED_BITS["cell_bits"]
    for adc in SUPPORTED_BITS["adc_bits"]
]


class TestNonnegativeReads:
    """A read with no negative input drives only the DAC slices below the
    top bit of its largest input, and no sign slice; the skipped slices'
    sums are 0, so the output and the log are the full read's."""

    @pytest.fixture
    def driven(self, monkeypatch):
        """The number of slices each read drives."""
        counts, real = [], crossbar._drives

        def recorded(x, a_bits, table, *rest):
            counts.append(table.shape[1])
            return real(x, a_bits, table, *rest)

        monkeypatch.setattr(crossbar, "_drives", recorded)
        return counts

    @pytest.mark.parametrize("dac, cell, adc", CONVERTERS)
    @pytest.mark.parametrize("top", range(MAX_ACTIVATION_BITS))  # largest input 2^top - 1
    def test_matches_tile_loop(self, driven, dac, cell, adc, top):
        rng = np.random.default_rng([dac, cell, adc, top])
        w = 127 * rng.choice([-1, 1], (40, 5))  # full scale, so narrow ADCs clip
        x = rng.integers(0, 1 << top, (40, 2))
        x[rng.integers(40), rng.integers(2)] = (1 << top) - 1  # top 0: all zero
        pt = program_signed(w, 8, CrossbarSpec(16, 16, cell))
        conv = ConverterSpec(dac, adc)
        y, log = mvm(pt, x, 8, conv)
        want, clip_count, max_overflow = tile_loop_mvm(pt, x, 8, conv)
        assert y.dtype == np.int64 and np.array_equal(y, want)
        assert (log.clip_count, log.max_overflow) == (clip_count, max_overflow)
        assert driven == ([math.ceil(top / dac)] if top else [])
        if log.clean:
            assert np.array_equal(y, w.T @ x)

    @pytest.mark.parametrize("dac, cell, adc", CONVERTERS)
    def test_one_negative_input_drives_every_slice(self, driven, dac, cell, adc):
        rng = np.random.default_rng([dac, cell, adc])
        w = 127 * rng.choice([-1, 1], (40, 5))
        x = np.zeros(40, dtype=np.int64)
        x[[3, 30]] = [1, -1]
        pt = program_signed(w, 8, CrossbarSpec(16, 16, cell))
        conv = ConverterSpec(dac, adc)
        y, log = mvm(pt, x, 8, conv)
        want, clip_count, max_overflow = tile_loop_mvm(pt, x, 8, conv)
        assert np.array_equal(y, want)
        assert (log.clip_count, log.max_overflow) == (clip_count, max_overflow)
        assert driven == [math.ceil(8 / dac) + 1]

    @pytest.mark.parametrize("dac, cell, adc", CONVERTERS)
    @pytest.mark.parametrize("extreme", [False, True])
    def test_the_fm_engines_all_ones_read(self, driven, dac, cell, adc, extreme):
        # mapping.fm_engine_forward sums its programmed vectors with an
        # all-ones read at a_bits=2: one slice, and no sign slice.
        rng = np.random.default_rng([dac, cell, adc, extreme])
        shape = (20, 6)  # 20 vectors: two row tiles
        vecs = 127 * rng.choice([-1, 1], shape) if extreme else rng.integers(-127, 128, shape)
        pt = program_signed(vecs, 8, CrossbarSpec(16, 16, cell))
        ones = np.ones(20, dtype=np.int64)
        conv = ConverterSpec(dac, adc)
        s, log = mvm(pt, ones, 2, conv)
        want, clip_count, max_overflow = tile_loop_mvm(pt, ones, 2, conv)
        assert np.array_equal(s, want)
        assert (log.clip_count, log.max_overflow) == (clip_count, max_overflow)
        assert driven == [1]
        if log.clean:
            assert np.array_equal(s, vecs.sum(axis=0))

    def test_an_all_zero_input_reads_zeros_cleanly(self, driven):
        pt = program_signed(np.full((20, 3), 127), 8, CrossbarSpec(16, 16, 2))
        for x, shape in ((np.zeros(20, dtype=int), (3,)), (np.zeros((20, 4)), (3, 4))):
            y, log = mvm(pt, x, 8, ConverterSpec(2, 4))
            assert y.dtype == np.int64 and y.shape == shape and not y.any() and log.clean
        assert driven == []


class TestTransposedProgram:
    """Producer vectors programmed as the DP and FM engines program them:
    vector j is input row j, so a read with input u returns sum_j u_j * v_j."""

    spec = CrossbarSpec(16, 16, 2)

    def test_all_ones_read_returns_per_row_sums(self):
        pt = program_signed([[1, 2], [3, 4]], 8, self.spec)
        s, log = mvm(pt, [1, 1], 2, ConverterSpec(1, 8))
        assert s.tolist() == [4, 6] and log.clean

    def test_single_vector_roundtrip(self):
        pt = program_signed([[5, -3, 2]], 8, self.spec)
        s, log = mvm(pt, [1], 2, ConverterSpec(1, 8))
        assert s.tolist() == [5, -3, 2] and log.clean

    def test_self_read_gives_sum_of_squares(self):
        # Feeding a vector back against its own programmed copy: per-row
        # contributions v_i^2 summing to sum(v^2) on the owning line.
        v = np.array([2, -1, 3])
        # Normal-direction read of the same content: program v as a column.
        pt = program_signed(v.reshape(-1, 1), 8, CrossbarSpec(16, 16, 2))
        y, log = mvm(pt, v, 8, ConverterSpec(1, 8))
        assert log.clean and y.tolist() == [int((v * v).sum())]


class TestMbsaSquare:
    def test_trivial(self):
        assert mbsa_square([0, 1], 1).tolist() == [0, 1]

    def test_example(self):
        assert mbsa_square([4, 7], 4).tolist() == [16, 49]

    def test_exhaustive_8bit(self):
        v = np.arange(256)
        assert np.array_equal(mbsa_square(v, 8), v * v)

    def test_range_check(self):
        with pytest.raises(OutOfRange):
            mbsa_square([16], 4)


def test_tile_layout_golden():
    pt = program_signed([[3, -2], [1, 0]], 4, CrossbarSpec(16, 16, 2))
    assert pt.meta.planes == 2 and pt.meta.row_tiles == 1 and pt.meta.col_tiles == 1
    cells = pt.cells[0]
    # row 0: [3+, 3-, .., ..] for out 0 then out 1; -2 lands in the negative plane
    assert cells[0, :4].tolist() == [3, 0, 0, 0]
    assert cells[0, 4:8].tolist() == [0, 2, 0, 0]
    assert cells[1, :4].tolist() == [1, 0, 0, 0]
