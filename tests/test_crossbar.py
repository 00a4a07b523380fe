"""Bit-level crossbar kernel: programming, MVM, saturation, MBSA."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimdse.crossbar import (
    ConverterSpec,
    CrossbarSpec,
    OutOfRange,
    ShapeMismatch,
    adc_quantize,
    mbsa_square,
    mvm,
    program_signed,
    tiles_to_json,
)


def reconstruct(pt):
    """Independent oracle: rebuild the signed matrix from the tile planes."""
    meta = pt.meta
    total = np.zeros((meta.in_dim, meta.out_dim), dtype=np.int64)
    for rt in range(meta.row_tiles):
        r0 = rt * meta.xbar_size
        rows = min(meta.xbar_size, meta.in_dim - r0)
        for vcol in range(meta.virtual_cols):
            total[r0 : r0 + rows, vcol // (meta.planes * 2)] += (
                meta.col_weight[vcol] * pt.cells[rt, :rows, vcol].astype(np.int64)
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
    np.add.at(out, out_index, meta.col_weight[:, None] * acc)
    return (out if batched else out[:, 0]), clip_count, max_overflow


class TestAdcQuantize:
    def test_zero(self):
        assert adc_quantize(0, 4) == (0, False)

    def test_boundary_not_clipped(self):
        assert adc_quantize(255, 8) == (255, False)

    def test_worst_case_clips(self):
        # 64 rows x max cell 3 x max slice 3 from the largest menu values.
        assert adc_quantize(576, 8) == (255, True)

    def test_negative_rejected(self):
        with pytest.raises(OutOfRange):
            adc_quantize(-1, 8)

    def test_elementwise_on_arrays(self):
        values, over = adc_quantize(np.array([[0, 15], [16, 40]], dtype=np.float32), 4)
        assert values.tolist() == [[0, 15], [15, 15]]
        assert over.tolist() == [[False, False], [True, True]]


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
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
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_read_matches_tile_loop(
    xbar, cell, dac, adc, w_bits, a_bits, in_dim, out_dim, batch, extreme, seed
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
    pt = program_signed(w, w_bits, CrossbarSpec(xbar, xbar, cell))
    conv = ConverterSpec(dac, adc)
    y, log = mvm(pt, x, a_bits, conv)
    want, clip_count, max_overflow = tile_loop_mvm(pt, x, a_bits, conv)
    assert y.shape == want.shape and np.array_equal(y, want)
    assert (log.clip_count, log.max_overflow) == (clip_count, max_overflow)
    if log.clean:
        assert np.array_equal(y, x @ w if batch == 0 else w.T @ x)


class TestTransposedProgram:
    """Producer vectors programmed as the DP and FM engines program them:
    vector j is input row j, so a read with input u returns sum_j u_j * v_j."""

    spec = CrossbarSpec(16, 16, 2)

    def test_all_ones_read_returns_per_row_sums(self):
        pt = program_signed([[1, 2], [3, 4]], 8, self.spec, orientation="transposed-write")
        s, log = mvm(pt, [1, 1], 2, ConverterSpec(1, 8))
        assert s.tolist() == [4, 6] and log.clean

    def test_single_vector_roundtrip(self):
        pt = program_signed([[5, -3, 2]], 8, self.spec, orientation="transposed-write")
        s, log = mvm(pt, [1], 2, ConverterSpec(1, 8))
        assert s.tolist() == [5, -3, 2] and log.clean

    def test_self_read_gives_sum_of_squares(self):
        # Feeding a vector back against its own programmed copy: per-row
        # contributions v_i^2 summing to sum(v^2) on the owning line.
        v = np.array([2, -1, 3])
        stacked = program_signed([v], 8, self.spec, orientation="transposed-write")
        # Normal-direction read of the same content: program v as a column.
        pt = program_signed(v.reshape(-1, 1), 8, CrossbarSpec(16, 16, 2))
        y, log = mvm(pt, v, 8, ConverterSpec(1, 8))
        assert log.clean and y.tolist() == [int((v * v).sum())]
        assert stacked.orientation == "transposed-write"


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


def test_tile_dump_golden():
    pt = program_signed([[3, -2], [1, 0]], 4, CrossbarSpec(16, 16, 2))
    dump = tiles_to_json(pt)
    assert dump["planes"] == 2 and dump["row_tiles"] == 1 and dump["col_tiles"] == 1
    cells = np.asarray(dump["tiles"][0]["cells"])
    # row 0: [3+, 3-, .., ..] for out 0 then out 1; -2 lands in the negative plane
    assert cells[0, :4].tolist() == [3, 0, 0, 0]
    assert cells[0, 4:8].tolist() == [0, 2, 0, 0]
    assert cells[1, :4].tolist() == [1, 0, 0, 0]
