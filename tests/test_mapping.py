"""Operator mapping, engine equivalence, and end-to-end functional checks."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimdse import mapping, reference
from pimdse.crossbar import MAX_ROW_TILES, OutOfRange, ShapeMismatch, mbsa_square, mvm, program_signed
from pimdse.design_space import (
    BlockConfig,
    DesignPoint,
    ModelConfig,
    OperatorChoice,
    OperatorKind,
    ReRAMConfig,
    SpaceDescriptor,
    sample_random,
    validate,
)
from pimdse.mapping import (
    DPGeometry,
    Engine,
    dp_engine_forward,
    fm_engine_forward,
    functional_forward,
    map_dp,
    map_efc,
    map_fc,
    map_fm,
    map_model,
    map_shape,
    random_weights,
    run_fc,
)
from pimdse.reference import (
    fm_interaction,
    fm_interaction_pairwise,
    reference_forward,
    strict_upper_pairs,
)

R16 = ReRAMConfig(dac_bits=1, cell_bits=2, xbar_size=16, adc_bits=8)


def operator(mm, op_id):
    """The placed operator ``op_id`` of a mapped model."""
    for op in mm.operators:
        if op.op_id == op_id:
            return op
    raise KeyError(op_id)
LOSSLESS64 = ReRAMConfig(dac_bits=1, cell_bits=1, xbar_size=64, adc_bits=8)


class TestTiling:
    def test_fc_example(self):
        mo = map_fc(16, 16, 4, R16)
        assert (mo.row_tiles, mo.planes, mo.col_tiles) == (1, 2, 4)

    def test_fc_degenerate(self):
        mo = map_fc(1, 1, 4, R16)
        assert mo.row_tiles == 1 and mo.col_tiles == 1

    def test_fc_wide_input(self):
        mo = map_fc(1024, 16, 4, ReRAMConfig(1, 2, 64, 8))
        assert mo.row_tiles == 16

    def test_efc_tiling_and_planes(self):
        mo = map_efc(26, 8, 16, 4, R16)
        assert mo.row_tiles == 2
        assert mo.planes == 2  # 4-bit weights over 2-bit cells divide exactly
        assert mo.emits_transposed and mo.passes == 16

    def test_tile_conservation(self):
        # No weight left unmapped and none double-mapped: the tile grid
        # covers exactly the virtual column space.
        for in_dim, out_dim in ((10, 3), (16, 16), (100, 7)):
            mo = map_fc(in_dim, out_dim, 8, R16)
            virtual_cols = out_dim * mo.planes * 2
            assert mo.row_tiles == -(-in_dim // 16)
            assert mo.col_tiles == -(-virtual_cols // 16)


class TestDPGeometry:
    def test_dim32(self):
        g = DPGeometry.for_dense_dim(32)
        assert (g.k_sparse, g.merged_rows, g.pair_count) == (8, 9, 36)

    def test_dim16_rounding(self):
        g = DPGeometry.for_dense_dim(16)
        assert (g.k_sparse, g.merged_rows, g.pair_count) == (6, 7, 21)

    def test_pair_count_is_binomial(self):
        for dim in (16, 32, 64, 128, 256, 512, 768, 1024):
            g = DPGeometry.for_dense_dim(dim)
            assert g.pair_count == g.merged_rows * (g.merged_rows - 1) // 2


class TestMapComposites:
    def test_dp_parts(self):
        mo = map_dp(32, 16, 4, 4, R16, dense_in_dim=32)
        ids = [p.op_id for p in mo.parts]
        assert ids == ["fc_front", "efc", "engine", "fc_out"]  # a shape's parts carry their roles
        engine = mo.parts[2]
        assert engine.engine is Engine.DP
        assert engine.row_tiles == 1  # ceil(dim_s / xbar) = ceil(16/16)
        assert engine.programming_vectors == 9
        assert mo.parts[3].in_dim == 36 and mo.parts[3].out_dim == 32

    def test_fm_parts(self):
        mo = map_fm(4, 16, 8, R16, out_dim=32)
        engine, fc_out = mo.parts
        assert engine.engine is Engine.FM and engine.emits_transposed
        assert engine.programming_vectors == 4 and engine.mbsa_passes == 5
        assert fc_out.in_dim == 16 and fc_out.out_dim == 32

    def test_fm_requires_two_vectors(self):
        with pytest.raises(ValueError):
            map_fm(1, 16, 4, R16, out_dim=16)

    def test_each_mapper_is_the_shape_of_its_key(self):
        kinds = OperatorKind
        fc, efc, dp, fm, dsi = kinds.FC, kinds.EFC, kinds.DP, kinds.FM, kinds.DSI
        tail = (R16.dac_bits, R16.cell_bits, R16.xbar_size, R16.adc_bits)
        assert map_fc(40, 24, 8, R16) == map_shape((fc, 8, 40, 24, *tail), R16)
        assert map_fc(40, 24, 8, R16, kind=dsi) == map_shape((dsi, 8, 40, 24, *tail), R16)
        assert map_efc(26, 8, 16, 4, R16) == map_shape((efc, 4, 26, 8, 16, *tail), R16)
        assert map_dp(32, 16, 4, 4, R16, dense_in_dim=48) == map_shape((dp, 4, 48, 32, 16, 4, *tail), R16)
        assert map_fm(4, 16, 8, R16, out_dim=32) == map_shape((fm, 8, 4, 16, 32, *tail), R16)
        for kind in (efc, dp, fm):  # their keys hold other dims than (in_dim, out_dim)
            with pytest.raises(ValueError, match="map_fc maps an FC or a DSI"):
                map_fc(40, 24, 8, R16, kind=kind)


class TestDPEngine:
    def test_small_example(self):
        x = np.array([[1, 0], [0, 1], [1, 1]])
        pairs, log = dp_engine_forward(x, ReRAMConfig(1, 1, 16, 8))
        assert pairs.tolist() == [0, 1, 1] and log.clean

    def test_matches_strict_upper_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(2, 10))
            d = int(rng.integers(1, 65))
            x = rng.integers(-127, 128, (m, d))
            pairs, log = dp_engine_forward(x, LOSSLESS64)
            assert log.clean
            assert np.array_equal(pairs, strict_upper_pairs(x))


class TestFMEngine:
    def test_small_example(self):
        v = np.array([[1, 2], [3, 4], [0, 1]])
        ix, log = fm_engine_forward(v, R16)
        assert ix.tolist() == [6, 28] and log.clean
        assert fm_interaction(v).tolist() == [6, 28]
        assert fm_interaction_pairwise(v).tolist() == [6, 28]

    def test_identical_vectors(self):
        v = np.array([[3, -2, 5], [3, -2, 5]])
        ix, log = fm_engine_forward(v, R16)
        assert log.clean
        assert np.array_equal(ix, 2 * v[0] * v[0])

    def test_zero_partner_vector(self):
        v = np.array([[7, -4], [0, 0]])
        ix, log = fm_engine_forward(v, R16)
        assert log.clean and ix.tolist() == [0, 0]

    def test_both_oracles_fuzz(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 17))
            v = rng.integers(-8, 8, (n, d))
            ix, log = fm_engine_forward(v, R16)
            assert log.clean
            assert np.array_equal(ix, fm_interaction(v))
            assert np.array_equal(ix, fm_interaction_pairwise(v))

    def test_one_mbsa_call_per_operand_set(self, monkeypatch):
        calls = []

        def counted(v, v_bits):
            calls.append(np.shape(v))
            return mbsa_square(v, v_bits)

        monkeypatch.setattr(mapping, "mbsa_square", counted)
        v = np.array([[1, -2, 3], [4, 0, -6], [-7, 8, 1], [2, 2, 2]])
        ix, log = fm_engine_forward(v, R16)
        assert log.clean and np.array_equal(ix, fm_interaction(v))
        assert calls == [(3,), (4, 3)]  # the sum, then every vector at once


def two_block_point(reram=None, with_dp=False, with_fm=False):
    dense_1 = [OperatorChoice(OperatorKind.FC, 4, (0,))]
    dense_2 = [OperatorChoice(OperatorKind.FC, 8, (0, 1))]
    if with_dp:
        dense_2.append(OperatorChoice(OperatorKind.DP, 4, (1,)))
    if with_fm:
        dense_2.append(OperatorChoice(OperatorKind.FM, 4, (0, 1)))
    blocks = (
        BlockConfig(1, 16, 16, tuple(dense_1), (OperatorChoice(OperatorKind.EFC, 4, (0,)),)),
        BlockConfig(
            2, 32, 16, tuple(dense_2),
            (
                OperatorChoice(OperatorKind.EFC, 8, (0, 1)),
                OperatorChoice(OperatorKind.DSI, 4, (1,)),
            ),
        ),
    )
    model = ModelConfig(blocks=blocks, final_fc_bits=8, num_sparse_features=4, embedding_dim=16)
    return DesignPoint(model=model, reram=reram or ReRAMConfig(1, 1, 16, 6))


class TestMapModel:
    def test_minimal_plan_has_only_mvm_tiles(self):
        pt = two_block_point()
        mm = map_model(pt)
        assert mm.tile_plan["mvm_tiles"] >= 1
        assert mm.tile_plan["dp_tiles"] == 0
        assert mm.tile_plan["fm_tiles"] == 0
        assert mm.tile_plan["memory_tiles"] >= 1

    def test_dp_fm_point_allocates_engines(self):
        mm = map_model(two_block_point(with_dp=True, with_fm=True))
        assert mm.tile_plan["dp_tiles"] >= 1
        assert mm.tile_plan["fm_tiles"] >= 1

    def test_tile_counts_are_additive(self):
        mm = map_model(two_block_point(with_dp=True, with_fm=True))
        by_engine = {"mvm_tiles": 0, "dp_tiles": 0, "fm_tiles": 0}
        for op in mm.operators:
            for leaf in op.leaves():
                key = {"MVM": "mvm_tiles", "DP": "dp_tiles", "FM": "fm_tiles"}[leaf.engine.value]
                by_engine[key] += leaf.row_tiles * leaf.col_tiles
        for key, total in by_engine.items():
            assert mm.tile_plan[key] == total

    def test_every_operator_mapped_once(self):
        pt = two_block_point(with_dp=True, with_fm=True)
        mm = map_model(pt)
        ids = [op.op_id for op in mm.operators]
        assert len(ids) == len(set(ids))
        expected = sum(
            len(b.dense_ops) + len(b.sparse_ops) for b in pt.model.blocks
        ) + 1
        assert len(ids) == expected

    def test_serialization_round_trip_keys(self):
        mm = map_model(two_block_point(with_dp=True))
        doc = mm.to_dict()
        assert set(doc) == {"model", "reram", "operators", "tile_plan", "edges"}

    def test_mapped_records_are_immutable(self):
        mm = map_model(two_block_point(with_dp=True, with_fm=True))
        dp = operator(mm, "b2.dense.DP")
        for record, field in (
            (dp, "row_tiles"), (dp.parts[0], "op_id"), (dp.geometry, "k_sparse"),
        ):
            with pytest.raises(AttributeError):
                setattr(record, field, 1)

    def test_mapping_twice_gives_equal_operators(self):
        pt = two_block_point(with_dp=True, with_fm=True)
        a, b = map_model(pt).operators, map_model(pt).operators
        assert a == b and a is not b
        assert [hash(op) for op in a] == [hash(op) for op in b]


class TestFunctionalForward:
    @pytest.mark.parametrize(
        "dense, sparse, message",
        [
            # used to fall into the FM path: KeyError 'b1.dense.EFC.fc_out'
            (OperatorKind.EFC, OperatorKind.EFC, "b1.dense.EFC: EFC cannot run in this branch"),
            (OperatorKind.FC, OperatorKind.FC, "b1.sparse.FC: FC cannot run in this branch"),
        ],
    )
    def test_kind_on_the_wrong_branch_raises(self, dense, sparse, message):
        block = BlockConfig(
            1, 16, 16, (OperatorChoice(dense, 4, (0,)),), (OperatorChoice(sparse, 4, (0,)),)
        )
        model = ModelConfig((block,), final_fc_bits=4, num_sparse_features=4, embedding_dim=16)
        mm = map_model(DesignPoint(model=model, reram=R16))
        with pytest.raises(ValueError, match=message):
            functional_forward(
                mm, np.zeros(16, dtype=int), np.zeros((4, 16), dtype=int), random_weights(mm, 0)
            )

    def test_all_zero_inputs_give_zero(self):
        pt = two_block_point()
        mm = map_model(pt)
        w = random_weights(mm, seed=0)
        y, logs = functional_forward(
            mm,
            np.zeros(16, dtype=int),
            np.zeros((4, 16), dtype=int),
            w,
        )
        assert y.tolist() == [0]
        assert all(log.clean for log in logs.values())

    def test_identity_fc_block_passes_input_through(self):
        blocks = (
            BlockConfig(
                1, 16, 16,
                (OperatorChoice(OperatorKind.FC, 8, (0,)),),
                (OperatorChoice(OperatorKind.EFC, 4, (0,)),),
            ),
        )
        model = ModelConfig(blocks, final_fc_bits=8, num_sparse_features=4, embedding_dim=16)
        pt = DesignPoint(model=model, reram=ReRAMConfig(1, 1, 16, 6))
        mm = map_model(pt)
        w = random_weights(mm, seed=1)
        w["b1.dense.FC"] = np.eye(16, dtype=np.int64)
        dense = np.arange(1, 17, dtype=np.int64)  # positive so ReLU is transparent
        sparse = np.zeros((4, 16), dtype=np.int64)
        w["final_fc"] = np.eye(16, dtype=np.int64)[:1]
        y, logs = functional_forward(mm, dense, sparse, w)
        assert all(log.clean for log in logs.values())
        assert y.tolist() == [1]  # first component survives the final 1x16 selector

    def test_matches_integer_reference_on_random_nets(self):
        rng = np.random.default_rng(9)
        for seed in range(4):
            pt = two_block_point(with_dp=seed % 2 == 0, with_fm=seed % 2 == 1)
            mm = map_model(pt)
            w = random_weights(mm, seed=seed)
            for _ in range(50):
                dense = rng.integers(-127, 128, 16)
                sparse = rng.integers(-127, 128, (4, 16))
                y, logs = functional_forward(mm, dense, sparse, w)
                assert all(log.clean for log in logs.values())
                ref = reference_forward(pt.model, dense, sparse, w)
                assert np.array_equal(y, ref)

    def test_sampled_full_space_points_match_reference(self):
        space = SpaceDescriptor(
            num_blocks=3,
            dense_dims=(16, 32),
            sparse_dims=(16, 32),
            num_sparse_features=3,
            embedding_dim=16,
        )
        rng = np.random.default_rng(10)
        for seed in range(6):
            base = sample_random(seed, space)
            pt = DesignPoint(model=base.model, reram=ReRAMConfig(1, 1, 64, 8))
            assert validate(pt, space).ok
            mm = map_model(pt)
            w = random_weights(mm, seed=seed)
            dense = rng.integers(-127, 128, 16)
            sparse = rng.integers(-127, 128, (3, 16))
            y, logs = functional_forward(mm, dense, sparse, w)
            assert all(log.clean for log in logs.values())
            assert np.array_equal(y, reference_forward(pt.model, dense, sparse, w))

    def test_logs_every_priced_leaf_in_operator_order(self):
        # The forward runs the records the cost model prices: one log per
        # leaf of mm.operators, keyed by its op_id, in leaf order.
        rng = np.random.default_rng(11)
        for with_dp, with_fm in ((True, False), (False, True), (True, True)):
            mm = map_model(two_block_point(with_dp=with_dp, with_fm=with_fm))
            dense, sparse = rng.integers(-127, 128, 16), rng.integers(-127, 128, (4, 16))
            _, logs = functional_forward(mm, dense, sparse, random_weights(mm, seed=5))
            assert list(logs) == [leaf.op_id for op in mm.operators for leaf in op.leaves()]

    def test_weight_shapes_cover_all_leaves(self):
        mm = map_model(two_block_point(with_dp=True, with_fm=True))
        shapes = {
            leaf.op_id: (leaf.out_dim, leaf.in_dim)
            for op in mm.operators
            for leaf in op.leaves()
            if leaf.engine is Engine.MVM
        }
        w = random_weights(mm, seed=3)
        assert set(shapes) == set(w)
        for op_id, shape in shapes.items():
            assert w[op_id].shape == shape


def test_efc_identity_weight_passes_sparse_through():
    xs = np.arange(12).reshape(4, 3)
    y, log = run_fc(np.eye(4, dtype=int), xs, 4, ReRAMConfig(1, 1, 16, 6))
    assert log.clean
    assert np.array_equal(y, xs)


def test_fractional_or_nan_weights_are_refused():
    # run_fc used to cast weights to int64 first: 2.7 ran as 2, and NaN
    # warned and then failed the range check instead of the integer one.
    x, reram = np.array([1, 1]), ReRAMConfig(1, 1, 16, 8)
    for bad in (2.7, np.nan, np.inf):
        with pytest.raises(OutOfRange, match="entries must be finite integers"):
            run_fc(np.array([[bad, 1.0]]), x, 8, reram)
    y, log = run_fc(np.array([[2.0, 1.0]]), x, 8, reram)
    assert y.tolist() == [3] and log.clean


def whole_read(weight, x, w_bits, reram):
    """One ``program_signed`` and one ``mvm`` of the whole matrix."""
    pt = program_signed(np.asarray(weight, dtype=np.int64).T, w_bits, mapping._xbar_spec(reram))
    return mvm(pt, x, mapping.DEFAULT_ACTIVATION_BITS, mapping._conv(reram))


class TestRowBlocks:
    """``run_fc`` programs and reads a matrix in blocks of whole row tiles;
    with the block budget patched small, a matrix of a few row tiles
    splits into several blocks."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        xbar=st.sampled_from([16, 32, 64]),
        w_bits=st.sampled_from([4, 8]),
        converters=st.sampled_from([(1, 1, 8), (2, 2, 4), (1, 2, 6), (2, 1, 8)]),
        budget=st.integers(1, 1 << 16),
        batch=st.sampled_from([0, 1, 3]),  # 0: one vector; else an EFC-style matrix of columns
        form=st.sampled_from(["int8", "int64", "list", "float"]),
    )
    def test_equals_one_read_of_the_whole_matrix(
        self, data, xbar, w_bits, converters, budget, batch, form
    ):
        dac, cell, adc = converters
        reram = ReRAMConfig(dac, cell, xbar, adc)  # (1, 1, 8) is lossless at every size; (2, 2, 4) clips
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        out_dim = data.draw(st.integers(1, 6))
        in_dim = data.draw(st.integers(1, 5 * xbar))
        lim = (1 << (w_bits - 1)) - 1
        w = rng.integers(-lim, lim + 1, size=(out_dim, in_dim))
        x = rng.integers(-127, 128, size=(in_dim, batch) if batch else in_dim)
        weight = {"int8": w.astype(np.int8), "int64": w, "list": w.tolist(), "float": w.astype(float)}[form]
        with mock.patch.object(mapping, "_BLOCK_CELL_BYTES", budget):
            y, log = run_fc(weight, x, w_bits, reram)
        y_whole, log_whole = whole_read(w, x, w_bits, reram)
        assert y.dtype == np.int64 and np.array_equal(y, y_whole)
        assert (log.clip_count, log.max_overflow) == (log_whole.clip_count, log_whole.max_overflow)

    def test_lossy_reads_clip_in_several_blocks(self):
        # Dense all-max rows at a 4-bit ADC clip in every block; the counts
        # add and the overflow is the largest block's.
        reram = ReRAMConfig(2, 2, 16, 4)
        w = np.full((3, 16 * 5), 127, dtype=np.int8)
        x = np.arange(16 * 5) % 255 - 127
        with mock.patch.object(mapping, "_BLOCK_CELL_BYTES", 1):  # one row tile per block
            y, log = run_fc(w, x, 8, reram)
        y_whole, log_whole = whole_read(w, x, 8, reram)
        assert log.clip_count > 0 and log.clip_count == log_whole.clip_count
        assert log.max_overflow == log_whole.max_overflow and np.array_equal(y, y_whole)

    @pytest.mark.parametrize("extra", [1, -1])
    @pytest.mark.parametrize("batch", [0, 2])
    def test_input_length_is_checked_before_the_split(self, extra, batch):
        # in_dim is exactly two blocks of one row tile: a longer x would
        # otherwise drop its extra rows, a shorter one reach the last block.
        reram = ReRAMConfig(1, 1, 16, 8)
        w = np.ones((2, 32), dtype=np.int8)
        n = 32 + extra
        x = np.ones((n, batch) if batch else n, dtype=np.int64)
        with mock.patch.object(mapping, "_BLOCK_CELL_BYTES", 1):
            with pytest.raises(ShapeMismatch, match="expected 32 input rows"):
                run_fc(w, x, 8, reram)

    def test_a_matrix_past_the_row_tile_limit_runs_block_by_block(self):
        # program_signed refuses this matrix whole; run_fc computes it exactly.
        reram = ReRAMConfig(1, 1, 16, 8)
        w = np.ones((1, MAX_ROW_TILES * 16), dtype=np.int8)
        x = np.ones(MAX_ROW_TILES * 16, dtype=np.int64)
        with pytest.raises(ShapeMismatch, match=f"{MAX_ROW_TILES} row tiles"):
            program_signed(w.T, 8, mapping._xbar_spec(reram))
        y, log = run_fc(w, x, 8, reram)
        assert log.clean and y.tolist() == [MAX_ROW_TILES * 16]

    def test_memory_is_bounded_by_the_block(self):
        # A leaf whose cells exceed 8x the block budget: the read's peak
        # stays below 3x the budget (the whole-matrix read takes over 8x).
        budget = mapping._BLOCK_CELL_BYTES
        reram = ReRAMConfig(1, 1, 16, 8)
        out_dim, cell_bytes_per_row = 640, 640 * 8 * 2 * 4  # 8 planes, differential, float32
        in_dim = 16 * (9 * budget // (16 * cell_bytes_per_row) + 1)
        assert in_dim * cell_bytes_per_row > 8 * budget
        rng = np.random.default_rng(0)
        w = rng.integers(-127, 128, size=(out_dim, in_dim)).astype(np.int8)
        x = rng.integers(-127, 128, size=in_dim)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run_fc(w, x, 8, reram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * budget

    def test_memory_of_a_batched_read_is_bounded_by_the_block(self):
        # 64 vectors at DAC 1 make 9 * 64 rows of analog sums per tile, 36x
        # a tile's 16 rows of cells, so one tile fills a block. Counting
        # cells only, all 8 tiles would be read at once (~30 MB of sums).
        budget = mapping._BLOCK_CELL_BYTES
        reram = ReRAMConfig(1, 1, 16, 8)
        out_dim, in_dim, n = 100, 16 * 8, 64
        tile_bytes = (16 + 9 * n) * out_dim * 8 * 2 * 4  # 8 planes, differential, float32
        assert budget // 2 < tile_bytes <= budget
        rng = np.random.default_rng(0)
        w = rng.integers(-127, 128, size=(out_dim, in_dim)).astype(np.int8)
        x = rng.integers(-127, 128, size=(in_dim, n))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            y, _ = run_fc(w, x, 8, reram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * budget
        assert np.array_equal(y, w.astype(np.int64) @ x)


class TestDeadRows:
    """``run_fc`` skips the rows whose input is 0 in every column and
    programs each block at its largest live-row count per tile."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        xbar=st.sampled_from([16, 32]),
        w_bits=st.sampled_from([4, 8]),
        converters=st.sampled_from([(1, 1, 8), (2, 2, 4), (1, 2, 6), (2, 1, 8)]),
        budget=st.sampled_from([mapping._BLOCK_CELL_BYTES, 1]),
        tiles=st.integers(1, 5),
        batch=st.sampled_from([0, 1, 3]),  # 0: one vector; else an EFC-style matrix of columns
        live=st.sampled_from(["random", "none", "one per tile"]),
        signed=st.booleans(),  # else nonnegative, as after a ReLU
        extreme=st.booleans(),  # full-scale weights and inputs, so lossy reads clip
    )
    def test_equals_one_read_of_the_whole_matrix(
        self, data, xbar, w_bits, converters, budget, tiles, batch, live, signed, extreme
    ):
        dac, cell, adc = converters
        reram = ReRAMConfig(dac, cell, xbar, adc)  # (1, 1, 8) is lossless at every size; (2, 2, 4) clips
        in_dim = tiles * xbar - data.draw(st.integers(0, xbar - 1), label="short")  # a partial last tile
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        out_dim = data.draw(st.integers(1, 6), label="out_dim")
        w_lim = (1 << (w_bits - 1)) - 1
        shape = (in_dim, batch) if batch else (in_dim,)
        if extreme:
            w = w_lim * rng.choice([-1, 1], (out_dim, in_dim))
            x = 127 * (rng.choice([-1, 1], shape) if signed else np.ones(shape, dtype=np.int64))
        else:
            w = rng.integers(-w_lim, w_lim + 1, (out_dim, in_dim))
            x = rng.integers(-127 if signed else 1, 128, shape)
        if live == "random":
            rows = rng.random(in_dim) < data.draw(st.floats(0, 1), label="live share")
        elif live == "none":
            rows = np.zeros(in_dim, dtype=bool)
        else:
            rows = np.zeros(in_dim, dtype=bool)
            rows[[min(t * xbar + int(rng.integers(xbar)), in_dim - 1) for t in range(tiles)]] = True
        x[~rows] = 0
        if batch > 1:  # zero some entries of the live rows too, leaving the row live
            x[rows] *= rng.random((int(rows.sum()), batch)) < 0.5
            x[rows, 0] = np.where(x[rows].any(axis=1), x[rows, 0], 1)
        with mock.patch.object(mapping, "_BLOCK_CELL_BYTES", budget):
            y, log = run_fc(w.astype(np.int8), x, w_bits, reram)
        y_whole, log_whole = whole_read(w, x, w_bits, reram)
        assert y.dtype == np.int64 and y.shape == y_whole.shape and np.array_equal(y, y_whole)
        assert (log.clip_count, log.max_overflow) == (log_whole.clip_count, log_whole.max_overflow)

    def test_only_live_rows_are_programmed(self, monkeypatch):
        # Tiles of 16 rows with 3, 0, 16, 1 and (the last, 5 rows long) 2
        # live rows: four tiles are programmed, fewest live rows first and
        # the last tile last, each block at its largest live count.
        reram = ReRAMConfig(1, 1, 16, 8)
        x = np.zeros(16 * 4 + 5, dtype=np.int64)
        for tile, live in enumerate([3, 0, 16, 1, 2]):
            x[tile * 16 : tile * 16 + live] = 7
        w = np.ones((2, x.size), dtype=np.int8)
        programmed = []

        def recorded(matrix, w_bits, spec):
            programmed.append((np.shape(matrix)[0], spec.rows))
            return program_signed(matrix, w_bits, spec)

        monkeypatch.setattr(mapping, "program_signed", recorded)
        monkeypatch.setattr(mapping, "_BLOCK_CELL_BYTES", 1)  # one tile per block
        y, log = run_fc(w, x, 8, reram)
        assert programmed == [(1, 1), (3, 3), (16, 16), (2, 2)]
        # 64 rows of cells and sums: 2 outputs x 8 planes x 2 x float32 each.
        monkeypatch.setattr(mapping, "_BLOCK_CELL_BYTES", 64 * 2 * 8 * 2 * 4)
        programmed.clear()
        assert np.array_equal(run_fc(w, x, 8, reram)[0], y) and log.clean
        # 1 + 3 rows at height 3, then 16 rows and the last tile's 5 rows
        # padded to 16.
        assert programmed == [(6, 3), (21, 16)]
        assert y.tolist() == [22 * 7] * 2

    def test_weights_of_dead_rows_are_still_checked(self):
        reram = ReRAMConfig(1, 1, 16, 8)
        x = np.array([0, 5])
        with pytest.raises(OutOfRange, match="entries exceed signed 4-bit range"):
            run_fc(np.array([[9, 1]], dtype=np.int8), x, 4, reram)
        with pytest.raises(OutOfRange, match="w_bits must be an integer"):
            run_fc(np.array([[1, 1]]), np.zeros(2, dtype=np.int64), 5, reram)


def test_random_weights_are_the_int64_draw_kept_as_int8():
    mm = map_model(two_block_point(with_dp=True, with_fm=True))
    weights = random_weights(mm, seed=4)
    rng = np.random.default_rng(4)
    for op_id, w in weights.items():
        leaf = next(leaf for op in mm.operators for leaf in op.leaves() if leaf.op_id == op_id)
        lim = (1 << (leaf.w_bits - 1)) - 1
        drawn = rng.integers(-lim, lim + 1, size=(leaf.out_dim, leaf.in_dim), dtype=np.int64)
        assert w.dtype == np.int8 and np.array_equal(w, drawn)


SMALL_SPACES = [
    SpaceDescriptor(num_blocks=2, dense_dims=(16, 32), sparse_dims=(16,), num_sparse_features=3),
    SpaceDescriptor(
        num_blocks=3, dense_dims=(16, 48), sparse_dims=(16, 32), num_sparse_features=2, embedding_dim=8
    ),
]


def mvm_leaves(mm):
    return [leaf for op in mm.operators for leaf in op.leaves() if leaf.engine is Engine.MVM]


class TestBlockedDrawsAndProducts:
    """``random_weights`` draws and ``reference_forward`` multiplies a
    block of values at a time; with the block patched small, every leaf
    splits into several blocks, mid-row included."""

    @settings(max_examples=40, deadline=None)
    @given(
        space=st.sampled_from(SMALL_SPACES),
        point_seed=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 7, 64]),
    )
    def test_random_weights_are_one_int64_draw_per_leaf(self, space, point_seed, seed, block):
        mm = map_model(sample_random(point_seed, space))
        real_rng, made = np.random.default_rng, []

        def spy(s):
            made.append(real_rng(s))
            return made[-1]

        with mock.patch.object(mapping, "_DRAW_BLOCK_VALUES", block):
            with mock.patch.object(np.random, "default_rng", spy):
                weights = random_weights(mm, seed)
        rng = np.random.default_rng(seed)
        leaves = mvm_leaves(mm)
        assert list(weights) == [leaf.op_id for leaf in leaves]
        for leaf in leaves:
            lim = (1 << (leaf.w_bits - 1)) - 1
            whole = rng.integers(-lim, lim + 1, size=(leaf.out_dim, leaf.in_dim), dtype=np.int64)
            w = weights[leaf.op_id]
            assert w.dtype == np.int8 and np.array_equal(w, whole.astype(np.int8))
        assert made[0].bit_generator.state == rng.bit_generator.state
        assert made[0].integers(0, 1 << 62) == rng.integers(0, 1 << 62)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        block=st.sampled_from([1, 7, 64]),
        batch=st.sampled_from([0, 1, 3]),
        dtype=st.sampled_from([np.int8, np.int64, np.float64]),
    )
    def test_product_equals_the_whole_matrix_product(self, data, block, batch, dtype):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        out_dim, in_dim = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 150))
        w = rng.integers(-127, 128, size=(out_dim, in_dim)).astype(dtype)
        x = rng.integers(-(1 << 20), 1 << 20, size=(in_dim, batch) if batch else in_dim)
        with mock.patch.object(reference, "_PRODUCT_BLOCK_VALUES", block):
            y = reference._product(w, x)
        whole = w @ x
        assert y.dtype == whole.dtype and np.array_equal(y, whole)

    @settings(max_examples=30, deadline=None)
    @given(
        space=st.sampled_from(SMALL_SPACES),
        point_seed=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 7, 64]),
    )
    def test_reference_forward_equals_whole_matrix_products(self, space, point_seed, seed, block):
        pt = sample_random(point_seed, space)
        weights = random_weights(map_model(pt), seed)
        rng = np.random.default_rng(seed)
        n_s, dim = pt.model.num_sparse_features, pt.model.embedding_dim
        dense, sparse = rng.integers(-127, 128, dim), rng.integers(-127, 128, (n_s, dim))

        def whole(w, x):
            return w @ x

        with mock.patch.object(reference, "_PRODUCT_BLOCK_VALUES", block):
            y = reference_forward(pt.model, dense, sparse, weights)
        with mock.patch.object(reference, "_product", whole):
            y_whole = reference_forward(pt.model, dense, sparse, weights)
        assert y.dtype == np.int64 and np.array_equal(y, y_whole)


class TestFunctionalPathMemory:
    """On a large default point (622,946 tiles, 10 MB of int8 weights,
    largest leaf 1664x2560) neither drawing the weights nor the reference
    pass takes an int64 copy of a leaf (~34 MB for the largest one)."""

    @pytest.fixture(scope="class")
    def large(self):
        pt = sample_random(10140)
        mm = map_model(pt)
        mvm_leaves(mm)  # build the cached leaf records before tracing
        return pt, mm

    def test_random_weights_take_the_weights_plus_one_block(self, large):
        _, mm = large
        tracemalloc.start()
        try:
            weights = random_weights(mm, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weight_bytes = sum(w.nbytes for w in weights.values())
        assert weight_bytes > 10 << 20
        assert peak < weight_bytes + 8 * mapping._DRAW_BLOCK_VALUES + (64 << 10)

    def test_reference_forward_takes_a_few_blocks(self, large):
        pt, mm = large
        weights = random_weights(mm, seed=0)
        rng = np.random.default_rng(0)
        n_s, dim = pt.model.num_sparse_features, pt.model.embedding_dim
        dense, sparse = rng.integers(-127, 128, dim), rng.integers(-127, 128, (n_s, dim))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reference_forward(pt.model, dense, sparse, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 4 * 8 * reference._PRODUCT_BLOCK_VALUES
