"""Design-space validation, sampling, mutation, and counting."""

import hashlib
import json
import pickle
import random

import pytest

from pimdse.design_space import (
    DEFAULT_SPACE,
    BlockConfig,
    DesignPoint,
    ModelConfig,
    OperatorChoice,
    OperatorKind,
    ReRAMConfig,
    SpaceDescriptor,
    canonical_json,
    cardinality,
    cardinality_report,
    mutate,
    point_from_json,
    sample_random,
    validate,
)


def minimal_point(num_blocks=7):
    """Smallest legal point: FC + EFC per block, all dims 16, cheapest ReRAM."""
    blocks = tuple(
        BlockConfig(
            index=i,
            dim_d=16,
            dim_s=16,
            dense_ops=(OperatorChoice(OperatorKind.FC, 4, (i - 1,)),),
            sparse_ops=(OperatorChoice(OperatorKind.EFC, 4, (i - 1,)),),
        )
        for i in range(1, num_blocks + 1)
    )
    model = ModelConfig(blocks=blocks, final_fc_bits=4, num_sparse_features=26, embedding_dim=16)
    return DesignPoint(model=model, reram=ReRAMConfig(1, 1, 16, 4))


class TestValidate:
    def test_minimal_default_point_is_ok(self):
        report = validate(minimal_point())
        assert report.ok and report.violations == []

    def test_empty_sparse_branch_is_named(self):
        pt = minimal_point()
        blk = pt.model.blocks[2]
        bad = BlockConfig(blk.index, blk.dim_d, blk.dim_s, blk.dense_ops, ())
        blocks = tuple(bad if b.index == 3 else b for b in pt.model.blocks)
        pt = DesignPoint(
            model=ModelConfig(blocks, 4, 26, 16),
            reram=pt.reram,
        )
        report = validate(pt)
        assert not report.ok
        assert "block 3: sparse branch empty" in report.violations

    def test_adc_feasibility_rule(self):
        # dac=2, cell=2, adc=4 satisfies adc >= dac + cell
        pt = DesignPoint(model=minimal_point().model, reram=ReRAMConfig(2, 2, 16, 4))
        assert validate(pt).ok
        # adc=3 is rejected by the menu check itself
        pt = DesignPoint(model=minimal_point().model, reram=ReRAMConfig(2, 2, 16, 3))
        report = validate(pt)
        assert not report.ok
        assert any("adc_bits 3 not in menu" in v for v in report.violations)

    def test_dag_violation_detected(self):
        pt = minimal_point()
        blk = pt.model.blocks[0]
        bad = BlockConfig(
            blk.index, blk.dim_d, blk.dim_s,
            (OperatorChoice(OperatorKind.FC, 4, (5,)),),  # forward reference
            blk.sparse_ops,
        )
        blocks = (bad,) + pt.model.blocks[1:]
        pt = DesignPoint(model=ModelConfig(blocks, 4, 26, 16), reram=pt.reram)
        report = validate(pt)
        assert any("violates DAG order" in v for v in report.violations)


class TestSampleRandom:
    def test_identical_seed_identical_point(self):
        assert sample_random(0).point_id == sample_random(0).point_id

    def test_samples_all_validate(self):
        for seed in range(1000):
            assert validate(sample_random(seed)).ok

    def test_dim_diversity(self):
        dims = {blk.dim_d for seed in range(1000) for blk in sample_random(seed).model.blocks}
        assert len(dims) >= 2

    def test_blocks_topologically_sortable(self):
        # Indices strictly increase and inputs point backwards, so a
        # topological order exists; check it explicitly on sampled DAGs.
        for seed in range(50):
            pt = sample_random(seed)
            seen = {0}
            for blk in pt.model.blocks:
                for op in blk.dense_ops + blk.sparse_ops:
                    assert set(op.inputs) <= seen
                seen.add(blk.index)


class TestMutate:
    def test_rejects_zero_mutations(self):
        with pytest.raises(ValueError):
            mutate(minimal_point(), seed=0, num_mutations=0)

    def test_deterministic(self):
        parent = sample_random(3)
        a = mutate(parent, seed=7, num_mutations=2)
        b = mutate(parent, seed=7, num_mutations=2)
        assert a.point_id == b.point_id

    def test_single_mutation_changes_one_atomic_field(self):
        parent = minimal_point()
        child = mutate(parent, seed=11, num_mutations=1)
        diffs = _atomic_diffs(parent, child)
        assert diffs == 1

    def test_children_all_validate(self):
        parent = sample_random(5)
        for seed in range(500):
            child = mutate(parent, seed=seed, num_mutations=3)
            assert validate(child).ok

    def test_closure_fuzz(self):
        # Closure under repeated mutation from many parents.
        rng = random.Random(0)
        for trial in range(200):
            point = sample_random(rng.randrange(10_000))
            for _ in range(5):
                point = mutate(point, seed=rng.randrange(10_000), num_mutations=2)
                assert validate(point).ok


def _atomic_diffs(a: DesignPoint, b: DesignPoint) -> int:
    """Count differing atomic fields between two points."""
    n = 0
    n += sum(
        1
        for f in ("dac_bits", "cell_bits", "xbar_size", "adc_bits")
        if getattr(a.reram, f) != getattr(b.reram, f)
    )
    n += a.model.final_fc_bits != b.model.final_fc_bits
    for ba, bb in zip(a.model.blocks, b.model.blocks):
        n += ba.dim_d != bb.dim_d
        n += ba.dim_s != bb.dim_s
        for ops_a, ops_b in ((ba.dense_ops, bb.dense_ops), (ba.sparse_ops, bb.sparse_ops)):
            da = {op.kind: op for op in ops_a}
            db = {op.kind: op for op in ops_b}
            added = set(db) - set(da)
            removed = set(da) - set(db)
            if added and removed:
                n += max(len(added), len(removed))  # kind swap counts once
            else:
                n += len(added) + len(removed)
            for kind in set(da) & set(db):
                n += da[kind].weight_bits != db[kind].weight_bits
                n += da[kind].inputs != db[kind].inputs
    return n


class TestCardinality:
    def test_degenerate_space_counts_one(self):
        space = SpaceDescriptor(
            num_blocks=1,
            dense_operators=(OperatorKind.FC,),
            sparse_operators=(OperatorKind.EFC,),
            dense_dims=(16,),
            sparse_dims=(16,),
            weight_bits=(4,),
            dac_bits=(1,),
            cell_bits=(1,),
            xbar_sizes=(16,),
            adc_bits=(4,),
        )
        assert cardinality(space) == 1

    def test_multiplicative_in_menu_size(self):
        base = SpaceDescriptor(
            num_blocks=1,
            dense_operators=(OperatorKind.FC,),
            sparse_operators=(OperatorKind.EFC,),
            dense_dims=(16,),
            sparse_dims=(16,),
            weight_bits=(4,),
            dac_bits=(1,),
            cell_bits=(1,),
            xbar_sizes=(16,),
            adc_bits=(4,),
        )
        doubled_dim = SpaceDescriptor(**{**base.__dict__, "dense_dims": (16, 32)})
        assert cardinality(doubled_dim) == 2 * cardinality(base)
        doubled_xbar = SpaceDescriptor(**{**base.__dict__, "xbar_sizes": (16, 32)})
        assert cardinality(doubled_xbar) == 2 * cardinality(base)

    def test_independent_subspaces_multiply(self):
        # Model-side and ReRAM-side menus are independent factors.
        full = cardinality(DEFAULT_SPACE)
        one_reram = SpaceDescriptor(
            dac_bits=(1,), cell_bits=(1,), xbar_sizes=(16,), adc_bits=(4,)
        )
        reram_combos = sum(
            1
            for d in DEFAULT_SPACE.dac_bits
            for c in DEFAULT_SPACE.cell_bits
            for _ in DEFAULT_SPACE.xbar_sizes
            for a in DEFAULT_SPACE.adc_bits
            if a >= d + c
        )
        assert full == cardinality(one_reram) * reram_combos

    def test_full_space_magnitude(self):
        count = cardinality(DEFAULT_SPACE)
        assert len(str(count)) >= 53
        report = cardinality_report(DEFAULT_SPACE)
        assert report["count"] == str(count)
        assert "convention" in report and report["decimal_digits"] == len(str(count))
        # The single-global-bit-width view of the same menus lands at the
        # published order of magnitude (~2e54).
        est = int(report["global_quant_count"])
        assert 10**52 <= est <= 10**56


class TestSerialization:
    def test_round_trip(self):
        pt = sample_random(42)
        again = point_from_json(canonical_json(pt))
        assert again == pt
        assert again.point_id == pt.point_id

    def test_point_id_serializes_once_per_object(self, monkeypatch):
        import pimdse.design_space as ds

        calls = []

        def counting(point):
            calls.append(point)
            return canonical_json(point)

        monkeypatch.setattr(ds, "canonical_json", counting)
        pt = sample_random(42)
        first = pt.point_id
        assert pt.point_id == first and pt.point_id == first
        assert len(calls) == 1
        twin = sample_random(42)
        assert twin is not pt and twin == pt and twin.point_id == first
        assert len(calls) == 2  # a new object hashes its own content once

    def test_point_id_follows_content(self):
        pt = sample_random(42)
        pid = pt.point_id
        child = mutate(pt, seed=1, num_mutations=1)
        assert child != pt and child.point_id != pid
        copy = pickle.loads(pickle.dumps(pt))
        assert copy == pt and copy.point_id == pid
        assert copy.point_id == hashlib.sha256(canonical_json(copy).encode("ascii")).hexdigest()
        assert hash(copy) == hash(pt) and pt.to_dict() == copy.to_dict()

    def test_canonical_form_is_stable(self):
        pt = sample_random(42)
        doc = json.loads(canonical_json(pt))
        assert canonical_json(point_from_json(json.dumps(doc))) == canonical_json(pt)
