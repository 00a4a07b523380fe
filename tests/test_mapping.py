"""Operator mapping, engine equivalence, and end-to-end functional checks."""

import numpy as np
import pytest

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
    random_weights,
    run_efc,
)
from pimdse.reference import (
    fm_interaction,
    fm_interaction_pairwise,
    reference_forward,
    strict_upper_pairs,
)

R16 = ReRAMConfig(dac_bits=1, cell_bits=2, xbar_size=16, adc_bits=8)
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
        mo = map_dp(32, 16, 4, 4, R16)
        ids = [p.op_id for p in mo.parts]
        assert ids == ["dp.fc_front", "dp.efc", "dp.engine", "dp.fc_out"]
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
            map_fm(1, 16, 4, R16)


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


class TestFunctionalForward:
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
    y, log = run_efc(np.eye(4, dtype=int), xs, 4, ReRAMConfig(1, 1, 16, 6))
    assert log.clean
    assert np.array_equal(y, xs)
