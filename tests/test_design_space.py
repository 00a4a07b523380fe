"""Design-space validation, sampling, mutation, and counting."""

import copy
import hashlib
import itertools
import json
import math
import pickle
import random
import re
import types
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction
from typing import get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimdse import design_space
from pimdse.cost_model import default_tech, model_cost
from pimdse.crossbar import SUPPORTED_BITS
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
    from_plain,
    mutate,
    point_from_json,
    sample_random,
    validate,
)
from pimdse.evaluator import SurrogateParams, surrogate_loss
from pimdse.mapping import map_model
from pimdse.pipeline import simulate
from pimdse.search import SearchConfig, criterion, default_hw_metrics, default_loss, run_search


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

    def test_every_supported_reram_combination_is_feasible(self):
        # No menu-check pass can break adc_bits >= dac_bits + cell_bits, so
        # validate, sampling, mutation and cardinality do not check it. A
        # wider DAC or cell width in the table must bring that rule back.
        assert min(SUPPORTED_BITS["adc_bits"]) >= (
            max(SUPPORTED_BITS["dac_bits"]) + max(SUPPORTED_BITS["cell_bits"])
        )

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


def memo_free(point):
    """The same point built from new objects, so none of its records has cached anything."""
    return from_plain(DesignPoint, point.to_dict())


class TestValidateMemo:
    """``validate`` keeps each block's violations on the block, keyed by its
    position, the space (by identity) and ``num_sparse_features``."""

    def test_block_moved_to_another_position(self):
        pt = sample_random(7)
        assert validate(pt).ok
        deep = next(  # a block reading from block 2 or later, checked at its own position
            b for b in pt.model.blocks[3:] if any(max(o.inputs) > 1 for o in b.dense_ops + b.sparse_ops)
        )
        blocks = (pt.model.blocks[0], deep) + pt.model.blocks[2:]
        moved = DesignPoint(replace(pt.model, blocks=blocks), pt.reram)
        report = validate(moved)
        assert report == validate(memo_free(moved))
        assert f"block 2: index {deep.index} out of order" in report.violations
        assert any("violates DAG order" in v for v in report.violations)
        assert validate(pt).ok  # and back at its own position it is valid again

    def test_block_under_two_space_descriptors(self):
        pt = sample_random(7)
        narrow = replace(DEFAULT_SPACE, dense_dims=(16,), weight_bits=(4,))
        twin = replace(DEFAULT_SPACE)  # equal, but another object
        assert validate(pt, DEFAULT_SPACE).ok
        report = validate(pt, narrow)
        assert report == validate(memo_free(pt), narrow) and not report.ok
        assert any("dim_d" in v or "weight_bits" in v for v in report.violations)
        assert validate(pt, twin) == validate(memo_free(pt), twin) == validate(pt, DEFAULT_SPACE)

    def test_block_under_a_model_that_starves_its_fm(self):
        fm = OperatorChoice(OperatorKind.FM, 4, (0,))  # one source: two vectors only if n_s >= 2
        blk = BlockConfig(1, 16, 16, (fm,), (OperatorChoice(OperatorKind.EFC, 4, (0,)),))
        rest = minimal_point().model.blocks[1:]
        fed = DesignPoint(ModelConfig((blk,) + rest, 4, 26, 16), ReRAMConfig(1, 1, 16, 4))
        starved = DesignPoint(replace(fed.model, num_sparse_features=1), fed.reram)
        one_feature = replace(DEFAULT_SPACE, num_sparse_features=1)
        assert validate(fed).ok
        report = validate(starved, one_feature)
        assert report == validate(memo_free(starved), one_feature)
        assert report.violations == ["block 1: FM needs at least two incoming sparse vectors"]
        assert validate(fed).ok

    def test_child_rechecks_only_the_blocks_it_changed(self, monkeypatch):
        import pimdse.design_space as ds

        checked = []
        check = ds._block_violations

        def counting(blk, *args):
            checked.append(blk)
            return check(blk, *args)

        monkeypatch.setattr(ds, "_block_violations", counting)
        for seed in range(20):
            parent = sample_random(seed)
            checked.clear()
            assert validate(parent).ok and len(checked) == DEFAULT_SPACE.num_blocks
            checked.clear()
            child = mutate(parent, seed, 3)
            inherited = [b for b in child.model.blocks if any(b is p for p in parent.model.blocks)]
            assert inherited  # a child shares blocks with its parent by identity
            assert not any(b is p for b in checked for p in parent.model.blocks)
            checked.clear()
            assert validate(child).ok and checked == []


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
        # True ran as 1, and 2.5 and 1.0 raised a TypeError from range().
        for bad in (0, True, 2.5, 1.0):
            with pytest.raises(ValueError, match=f"^num_mutations must be an int >= 1, got {bad!r}$"):
                mutate(minimal_point(), seed=0, num_mutations=bad)

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

    def test_weight_bits_draws_what_a_target_list_draws(self):
        # The oracle builds the list of every target, as the mutator once
        # did, and picks one with rng.choice; the mutator counts the
        # targets and indexes them with one randrange. Both must give the
        # same child and leave the generator in the same state.
        def listed(point, rng, space):
            targets = [("final", None, None)]
            for pos, blk in enumerate(point.model.blocks):
                for branch in ("dense", "sparse"):
                    for i in range(len(design_space._branch_of(blk, branch))):
                        targets.append((pos, branch, i))
            target = rng.choice(targets)
            if target[0] == "final":
                options = [b for b in space.weight_bits if b != point.model.final_fc_bits]
                if not options:
                    return None
                model = ModelConfig(
                    blocks=point.model.blocks,
                    final_fc_bits=rng.choice(options),
                    num_sparse_features=point.model.num_sparse_features,
                    embedding_dim=point.model.embedding_dim,
                )
                return DesignPoint(model=model, reram=point.reram)
            pos, branch, i = target
            blk = point.model.blocks[pos]
            ops = design_space._branch_of(blk, branch)
            options = [b for b in space.weight_bits if b != ops[i].weight_bits]
            if not options:
                return None
            edited = list(ops)
            edited[i] = OperatorChoice(ops[i].kind, rng.choice(options), ops[i].inputs)
            return design_space._replace_block(point, design_space._with_branch(blk, branch, edited))

        one_width = replace(DEFAULT_SPACE, weight_bits=(8,))  # every draw finds no option
        mutations = 0
        for space in (DEFAULT_SPACE, one_width):
            for i in range(1000):
                point = sample_random(i, space)
                ours, theirs = random.Random(i), random.Random(i)
                child = design_space._mut_weight_bits(point, ours, space)
                assert child == listed(point, theirs, space)
                assert ours.getstate() == theirs.getstate()
                mutations += 1
        assert mutations == 2000

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


FC, DP, FM, EFC, DSI = (OperatorKind(k) for k in ("FC", "DP", "FM", "EFC", "DSI"))
TINY_MENUS = [  # each on top of one-item menus for every other field
    dict(num_blocks=1, dense_operators=(FC, FM), sparse_operators=(EFC, DSI),
         weight_bits=(4, 8), dense_dims=(16, 32), xbar_sizes=(16, 32)),
    dict(num_blocks=2, dense_operators=(FC, FM), sparse_operators=(EFC,)),
    dict(num_blocks=2, dense_operators=(DP, FM), sparse_operators=(DSI,), adc_bits=(4, 8)),
    dict(num_blocks=1, dense_operators=(FM,), sparse_operators=(EFC,)),
    dict(num_blocks=2, dense_operators=(FM,), sparse_operators=(EFC, DSI)),
]


def _every_point(menus):
    """Every point over the menus, valid or not: each branch any subset of
    its operator menu (empty too), each operator any width and any subset
    of the sources before its block (empty too)."""
    def branches(menu, n_sources):
        subsets = [
            tuple(i for i in range(n_sources) if mask >> i & 1) for mask in range(1 << n_sources)
        ]
        per_kind = [
            [None] + [OperatorChoice(k, b, ins) for b in menus.weight_bits for ins in subsets]
            for k in menu
        ]
        return [tuple(op for op in ops if op) for ops in itertools.product(*per_kind)]

    blocks_per_index = [
        [
            BlockConfig(i, d, s, dense, sparse)
            for d in menus.dense_dims
            for s in menus.sparse_dims
            for dense in branches(menus.dense_operators, i)
            for sparse in branches(menus.sparse_operators, i)
        ]
        for i in range(1, menus.num_blocks + 1)
    ]
    rerams = [
        ReRAMConfig(*combo)
        for combo in itertools.product(menus.dac_bits, menus.cell_bits, menus.xbar_sizes, menus.adc_bits)
    ]
    for blocks in itertools.product(*blocks_per_index):
        for bits in menus.weight_bits:
            model = ModelConfig(blocks, bits, menus.num_sparse_features, menus.embedding_dim)
            for reram in rerams:
                yield DesignPoint(model, reram)


ONE_ITEM_MENUS = dict(
    dense_dims=(16,), sparse_dims=(16,), weight_bits=(4,), dac_bits=(1,),
    cell_bits=(2,), xbar_sizes=(16,), adc_bits=(4,), embedding_dim=4,
)


class TestCardinalityByEnumeration:
    @pytest.mark.parametrize("n_s", [1, 2])
    @pytest.mark.parametrize("menu", TINY_MENUS)
    def test_count_matches_enumerated_valid_points(self, menu, n_s):
        fields = dict(ONE_ITEM_MENUS)
        fields.update(menu, num_sparse_features=n_s)
        # validate reads only the menus, so the brute-force count needs no
        # SpaceDescriptor, whose constructor refuses spaces with no valid point.
        menus = types.SimpleNamespace(**fields)
        valid = sum(validate(p, menus).ok for p in _every_point(menus))
        if valid == 0:
            with pytest.raises(ValueError, match="no valid points"):
                SpaceDescriptor(**fields)
            return
        space = SpaceDescriptor(**fields)
        assert cardinality(space) == valid
        for seed in range(30):
            assert validate(sample_random(seed, space), space).ok

    @pytest.mark.parametrize(
        "name, menu",
        [("dense_operators", (FC, FC)), ("dense_dims", (16, 16)), ("xbar_sizes", (16, 32, 16))],
    )
    def test_duplicate_menu_entries_are_refused(self, name, menu):
        # cardinality counted every copy: (FC, FC) gave 3 and (16, 16) gave 2
        # for spaces that hold one valid point.
        fields = dict(
            ONE_ITEM_MENUS, num_blocks=1, dense_operators=(FC,), sparse_operators=(EFC,),
            num_sparse_features=2,
        )
        fields[name] = menu
        menus = types.SimpleNamespace(**fields)
        distinct = {p for p in _every_point(menus) if validate(p, menus).ok}
        with pytest.raises(ValueError, match=name):
            SpaceDescriptor(**fields)
        deduplicated = SpaceDescriptor(**{**fields, name: tuple(dict.fromkeys(menu))})
        assert cardinality(deduplicated) == len(distinct)


def test_search_finds_the_enumerated_optimum():
    # Every valid point of two tiny spaces (512 and 270 points), scored under
    # each run's own targets. 40 generations of 4 children evaluate 168
    # points; 168 uniform draws would hold one space's optimum about 28% of
    # the time. Measured when this test was written: 14 of 16 runs found it,
    # missing seeds 6 and 7 on the 270-point space.
    tech, found = default_tech(), 0
    for menu in (TINY_MENUS[0], TINY_MENUS[2]):
        space = SpaceDescriptor(**{**ONE_ITEM_MENUS, **menu, "num_sparse_features": 2})
        points = [p for p in _every_point(space) if validate(p, space).ok]
        assert len(points) == cardinality(space)
        for seed in range(8):
            cfg = SearchConfig(
                num_generations=40, num_children=4, population_init_size=8, tournament_size=4, seed=seed
            )
            loss_fn, metric_fn = default_loss(SurrogateParams(seed=seed)), default_hw_metrics(tech, space, seed)
            result = run_search(cfg, loss_fn, metric_fn, space)
            best = min(criterion(loss_fn(p), metric_fn(p), cfg, result.log.targets) for p in points)
            assert result.top_entries[0].criterion >= best
            found += result.top_entries[0].criterion == best
    assert found >= 14


@pytest.mark.parametrize(
    "name, value",
    [
        ("num_sparse_features", math.nan), ("num_blocks", 2.5), ("num_blocks", True),
        ("embedding_dim", 16.0), ("dense_dims", (math.nan,)), ("sparse_dims", (16, Fraction(33, 2))),
        ("weight_bits", (4.0, 8.0)), ("dac_bits", (True,)), ("xbar_sizes", (16, 32.0)), ("adc_bits", (4, 8.0)),
    ],
)
def test_space_counts_and_number_menus_must_be_ints(name, value):
    # NaN passed every bound: num_sparse_features=nan sampled invalid points,
    # dense_dims=(nan,) failed in costing, weight_bits=(4.0, 8.0) in the
    # functional path, num_blocks=2.5 in cardinality, and True counted as 1.
    with pytest.raises(ValueError, match=f"^{name} must"):
        SpaceDescriptor(**{name: value})


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

    def test_deeply_nested_json_is_a_value_error(self):
        with pytest.raises(ValueError, match="^JSON nested too deeply: maximum recursion depth"):
            point_from_json("[" * 200_000)

    def test_cached_fragments_and_checks_are_not_part_of_the_record(self):
        pt = sample_random(42)
        assert validate(pt).ok and pt.point_id
        fresh = memo_free(pt)
        for blk, twin in zip(pt.model.blocks, fresh.model.blocks):
            assert set(vars(blk)) - set(vars(twin)) == {"canonical_fragment", "_violations"}
            assert blk == twin and hash(blk) == hash(twin) and repr(blk) == repr(twin)
            assert blk.to_dict() == twin.to_dict()
        assert set(vars(pt.reram)) - set(vars(fresh.reram)) == {"canonical_fragment"}
        assert repr(pt.reram) == repr(fresh.reram)
        assert pt == fresh and hash(pt) == hash(fresh) and pt.to_dict() == fresh.to_dict()

    def test_pickles_and_copies_carry_the_fields_only(self):
        pt = sample_random(42)
        records = (pt, pt.model.blocks[0], pt.reram)
        sizes = [len(pickle.dumps(r)) for r in records]
        assert validate(pt).ok and pt.point_id
        assert [len(pickle.dumps(r)) for r in records] == sizes
        for again in (pickle.loads(pickle.dumps(pt)), copy.deepcopy(pt)):
            assert again == pt and "point_id" not in vars(again)
            assert not any(vars(b).keys() & {"canonical_fragment", "_violations"} for b in again.model.blocks)
            assert validate(again).ok and again.point_id == pt.point_id

    def test_inputs_and_operators_out_of_order_decode_to_the_sorted_point(self):
        def shuffleable(p):
            return any(
                len(b.dense_ops) > 1 and any(len(o.inputs) > 1 for o in b.dense_ops)
                for b in p.model.blocks
            )

        pt = next(p for p in map(sample_random, range(100)) if shuffleable(p))
        doc = json.loads(canonical_json(pt))
        for blk in doc["model"]["blocks"]:
            for branch in ("dense_ops", "sparse_ops"):
                blk[branch].reverse()
                for op in blk[branch]:
                    op["inputs"].reverse()
        shuffled = json.dumps(doc)
        assert shuffled != canonical_json(pt)
        again = point_from_json(shuffled)
        assert again == pt and again.point_id == pt.point_id


class TestFromPlain:
    """One typed decoder builds every input record from its JSON form."""

    def test_partial_space_keeps_defaults(self):
        space = from_plain(SpaceDescriptor, {"num_blocks": 2, "dense_dims": [16, 32.0]})
        assert space == SpaceDescriptor(num_blocks=2, dense_dims=(16, 32))

    def test_point_errors_name_the_path(self):
        doc = json.loads(canonical_json(sample_random(3)))
        doc["model"]["blocks"][0]["dense_ops"][0]["weight_bits"] = [4]
        with pytest.raises(ValueError, match=r"^model\.blocks\[0\]\.dense_ops\[0\]\.weight_bits: expected int, got \[4\]$"):
            from_plain(DesignPoint, doc)
        doc = json.loads(canonical_json(sample_random(3)))
        del doc["reram"]["adc_bits"]
        with pytest.raises(ValueError, match=r"^reram\.adc_bits: missing required key$"):
            from_plain(DesignPoint, doc)


# Two small custom spaces beside the default: FM and DP with a single
# sparse feature, and one-item converter menus with a wide sparse menu.
PROPERTY_SPACES = (
    DEFAULT_SPACE,
    SpaceDescriptor(
        num_blocks=3, dense_operators=(OperatorKind.DP, OperatorKind.FM),
        sparse_operators=(OperatorKind.DSI,), dense_dims=(16, 64), sparse_dims=(16, 32),
        num_sparse_features=1, embedding_dim=4,
    ),
    SpaceDescriptor(
        num_blocks=2, dense_operators=(OperatorKind.FC,), dense_dims=(8,), sparse_dims=(4, 16),
        weight_bits=(8,), dac_bits=(2,), cell_bits=(2,), xbar_sizes=(16,), adc_bits=(4, 6),
        num_sparse_features=3, embedding_dim=8,
    ),
)
TECH = default_tech()


def scrambled(point, rng):
    """``point`` with block indices that are not its positions: two blocks
    swapped, one block re-indexed, or one block listed twice."""
    blocks = list(point.model.blocks)
    i, j = rng.sample(range(len(blocks)), 2)
    how = rng.randrange(3)
    if how == 0:
        blocks[i], blocks[j] = blocks[j], blocks[i]
    elif how == 1:
        blocks[i] = replace(blocks[i], index=rng.choice([0, -1, len(blocks) + 1, j + 1]))
    else:
        blocks.insert(i, blocks[i])
    return DesignPoint(replace(point.model, blocks=tuple(blocks)), point.reram)


class TestPointProperties:
    @pytest.mark.parametrize("space", PROPERTY_SPACES, ids=["default", "dp_fm_dsi", "fc_only"])
    def test_mutating_a_point_whose_indices_are_not_positions(self, space):
        # Such a point has no valid child, so mutate refuses it at once,
        # naming its first violation, instead of spending every draw.
        rng = random.Random(0)
        for seed in range(100):
            point = scrambled(sample_random(seed, space), rng)
            report = validate(point, space)
            assert not report.ok
            with pytest.raises(ValueError, match="cannot mutate a point that fails validate") as refused:
                mutate(point, seed, 3, space)
            assert report.violations[0] in str(refused.value)

    @settings(max_examples=60)
    @given(
        space_index=st.sampled_from(range(len(PROPERTY_SPACES))),
        seed=st.integers(0, 2**32 - 1),
        mutation_seed=st.integers(0, 2**32 - 1),
        edits=st.integers(1, 4),
    )
    def test_sampled_and_mutated_points_validate_round_trip_and_cost(
        self, space_index, seed, mutation_seed, edits
    ):
        space = PROPERTY_SPACES[space_index]
        parent = sample_random(seed, space)
        child = mutate(parent, mutation_seed, edits, space)
        for point in (parent, child):
            assert validate(point, space).ok
            again = point_from_json(canonical_json(point))
            assert again == point and again.point_id == point.point_id
            mm = map_model(point)
            model_cost(mm, TECH)
            simulate(mm, TECH)

    @settings(max_examples=60)
    @given(
        space_index=st.sampled_from(range(len(PROPERTY_SPACES))),
        seed=st.integers(0, 2**32 - 1),
        mutation_seed=st.integers(0, 2**32 - 1),
        edits=st.integers(1, 4),
    )
    def test_fragments_and_memoized_checks_match_the_whole_point(
        self, space_index, seed, mutation_seed, edits
    ):
        space = PROPERTY_SPACES[space_index]
        parent = sample_random(seed, space)
        child = mutate(parent, mutation_seed, edits, space)
        grandchild = mutate(child, mutation_seed + 1, edits, space)
        for point in (parent, child, grandchild):
            oracle = json.dumps(point.to_dict(), sort_keys=True, separators=(",", ":"))
            assert canonical_json(point) == oracle
            for other in PROPERTY_SPACES:  # checks cached under one space, asked under another
                assert validate(point, other) == validate(memo_free(point), other)


def reversed_rebuild(point):
    """``point`` built again through the constructors, with every branch's
    operators and every operator's inputs listed in reverse."""
    def branch(ops):
        return tuple(OperatorChoice(op.kind, op.weight_bits, op.inputs[::-1]) for op in reversed(ops))

    blocks = tuple(
        BlockConfig(b.index, b.dim_d, b.dim_s, branch(b.dense_ops), branch(b.sparse_ops))
        for b in point.model.blocks
    )
    return DesignPoint(replace(point.model, blocks=blocks), point.reram)


class TestOneIdentityPerDesign:
    """A record sorts its own inputs and operators, so a design built in
    Python in any order is the same record, with one ``point_id``."""

    @pytest.mark.parametrize("space", PROPERTY_SPACES, ids=["default", "dp_fm_dsi", "fc_only"])
    def test_reversed_operators_and_inputs_rebuild_the_same_point(self, space):
        reordered = 0
        for seed in range(20):
            parent = sample_random(seed, space)
            for point in (parent, mutate(parent, seed, 3, space)):
                again = reversed_rebuild(point)
                reordered += any(
                    len(ops) > 1 or any(len(op.inputs) > 1 for op in ops)
                    for b in point.model.blocks for ops in (b.dense_ops, b.sparse_ops)
                )
                assert again == point and again.point_id == point.point_id
                assert surrogate_loss(again) == surrogate_loss(point)
                assert validate(again, space) == validate(point, space)
                latencies = model_cost(map_model(again), TECH).op_latencies
                assert list(latencies) == list(model_cost(map_model(point), TECH).op_latencies)
        assert reordered > 0  # the reversal changed the listed order somewhere


RERAM_FIELDS = ("dac_bits", "cell_bits", "xbar_size", "adc_bits")
MODEL_FIELDS = ("final_fc_bits", "num_sparse_features", "embedding_dim")
BLOCK_FIELDS = ("index", "dim_d", "dim_s")
NUMBER_FIELDS = (*RERAM_FIELDS, *MODEL_FIELDS, *BLOCK_FIELDS, "weight_bits", "input")


def number_at(point, where):
    """One number of ``point``, named as :func:`with_field` names it."""
    if where in RERAM_FIELDS:
        return getattr(point.reram, where)
    if where in MODEL_FIELDS:
        return getattr(point.model, where)
    blk = point.model.blocks[1]
    if where in BLOCK_FIELDS:
        return getattr(blk, where)
    op = blk.dense_ops[0]
    return op.weight_bits if where == "weight_bits" else op.inputs[0]


def with_field(point, where, value):
    """``point`` with one number replaced by ``value``: a ReRAM field, a
    model scalar, block 2's index or a dim, or block 2's first dense
    operator's weight width or first input."""
    model, reram = point.model, point.reram
    if where in RERAM_FIELDS:
        return DesignPoint(model, replace(reram, **{where: value}))
    if where in MODEL_FIELDS:
        return DesignPoint(replace(model, **{where: value}), reram)
    blocks = list(model.blocks)
    blk = blocks[1]
    if where in BLOCK_FIELDS:
        blocks[1] = replace(blk, **{where: value})
    else:
        op = blk.dense_ops[0]
        if where == "weight_bits":
            edited = replace(op, weight_bits=value)
        else:
            edited = replace(op, inputs=(value, *op.inputs[1:]))
        blocks[1] = replace(blk, dense_ops=(edited, *blk.dense_ops[1:]))
    return DesignPoint(replace(model, blocks=tuple(blocks)), reram)


def _int_fields(record) -> list[str]:
    """The fields of ``record`` declared ``int`` or ``tuple[int, ...]``."""
    return [name for name, tp in get_type_hints(type(record)).items() if tp in (int, tuple[int, ...])]


_POINT = sample_random(3)
INT_RECORDS = (
    _POINT.model.blocks[1].dense_ops[0], _POINT.model.blocks[1], _POINT.model, _POINT.reram,
    DEFAULT_SPACE, SearchConfig(), SurrogateParams(), TECH,
)
INT_CASES = [(record, name) for record in INT_RECORDS for name in _int_fields(record)]


def _int_enum_member(value):
    return IntEnum("Entry", {"E": value}).E


class TestNumbersAreInts:
    """Every record holds exactly an ``int`` in each field declared ``int``
    (or ``tuple[int, ...]``), and refuses anything else when it is built: a
    bool, a float, a numpy integer or an ``IntEnum`` member equal to an
    entry used to be accepted, then hashed, encoded or computed otherwise."""

    def test_every_int_field_of_every_record_is_covered(self):
        assert {type(r).__name__: len(_int_fields(r)) for r in INT_RECORDS} == {
            "OperatorChoice": 2, "BlockConfig": 3, "ModelConfig": 3, "ReRAMConfig": 4,
            "SpaceDescriptor": 10, "SearchConfig": 6, "SurrogateParams": 1, "TechParams": 1,
        }

    @pytest.mark.parametrize(
        "record, name", INT_CASES, ids=[f"{type(r).__name__}.{n}" for r, n in INT_CASES]
    )
    @pytest.mark.parametrize(
        "make", [lambda v: True, float, np.int64, _int_enum_member], ids=["bool", "float", "numpy", "intenum"]
    )
    def test_a_number_that_is_not_an_int_is_refused_at_construction(self, record, name, make):
        value = getattr(record, name)
        bad = (make(value[0]), *value[1:]) if isinstance(value, tuple) else make(value)
        with pytest.raises(ValueError, match=f"^{name} must"):
            replace(record, **{name: bad})
        assert replace(record, **{name: value}) == record  # the int itself is accepted

    def test_a_kind_or_branch_entry_of_another_type_is_refused(self):
        blk = _POINT.model.blocks[1]
        op = blk.dense_ops[0]
        with pytest.raises(ValueError, match=f"^kind must be an OperatorKind, got {op.kind.value!r}$"):
            replace(op, kind=op.kind.value)  # a str, equal to the member
        for name in ("dense_ops", "sparse_ops"):
            with pytest.raises(ValueError, match=f"^{name} must list OperatorChoice records only"):
                replace(blk, **{name: (*getattr(blk, name), op.to_dict())})
        with pytest.raises(ValueError, match=r"^dense_operators must list OperatorKinds only, got \['FC'\]$"):
            SpaceDescriptor(dense_operators=("FC",))

    def test_the_reproduced_cases(self):
        # dac_bits=True compared equal to dac_bits=1 yet hashed to another id
        with pytest.raises(ValueError, match="^dac_bits must be an int, got True$"):
            replace(_POINT.reram, dac_bits=True)
        # an IntEnum dense dim was accepted; every sample then failed validate and mutate raised
        width = IntEnum("Width", {"NARROW": 16, "WIDE": 32})
        with pytest.raises(ValueError, match=r"^dense_dims must list ints only, got \[<Width.NARROW: 16>"):
            SpaceDescriptor(dense_dims=tuple(width))
        # seed=True and seed=1.0 compared equal to seed=1, yet gave other search logs
        for seed in (True, 1.0):
            with pytest.raises(ValueError, match=f"^seed must be an int, got {seed!r}$"):
                SearchConfig(seed=seed)
        # SurrogateParams(seed=True) compared equal to seed=1, yet gave other losses
        with pytest.raises(ValueError, match="^seed must be an int, got True$"):
            SurrogateParams(seed=True)
        # a fractional ADC count per crossbar was priced
        with pytest.raises(ValueError, match=r"^adcs_per_xbar must be an int, got 2\.5$"):
            replace(TECH, adcs_per_xbar=2.5)

    def test_a_file_number_equal_to_an_int_still_loads_as_that_int(self):
        text = canonical_json(_POINT)
        as_floats = re.sub(r"(?<=[:\[,])(\d+)(?=[,\]}])", r"\1.0", text)
        assert as_floats.count(".0") > 40
        loaded = point_from_json(as_floats)
        assert loaded == _POINT and canonical_json(loaded) == text


@st.composite
def custom_spaces(draw):
    """Small spaces with random menus; FM starvation (one sparse feature) included."""
    def subset(options):
        return tuple(draw(st.lists(st.sampled_from(options), min_size=1, max_size=len(options), unique=True)))

    fields = dict(
        num_blocks=draw(st.integers(1, 4)),
        dense_operators=subset(list(design_space.DENSE_KINDS)),
        sparse_operators=subset(list(design_space.SPARSE_KINDS)),
        dense_dims=subset([8, 16, 24, 64]),
        sparse_dims=subset([4, 16, 48]),
        weight_bits=subset([4, 8]),
        dac_bits=subset([1, 2]),
        cell_bits=subset([1, 2]),
        xbar_sizes=subset([16, 32, 64]),
        adc_bits=subset([4, 6, 8]),
        num_sparse_features=draw(st.sampled_from([1, 2, 3, 26])),
        embedding_dim=draw(st.sampled_from([4, 16])),
    )
    try:
        return SpaceDescriptor(**fields)
    except ValueError:  # an FM-only dense menu with one sparse feature holds no point
        return replace(DEFAULT_SPACE, **{**fields, "dense_operators": (OperatorKind.FC,)})


class TestDirectEncoding:
    @settings(max_examples=80)
    @given(
        space=custom_spaces(), seed=st.integers(0, 2**32 - 1), edits=st.integers(0, 4),
        where=st.sampled_from((None,) + NUMBER_FIELDS),
        make=st.sampled_from([bool, float, np.int64, np.int32, int]),
    )
    def test_canonical_json_equals_one_json_dumps(self, space, seed, edits, where, make):
        point = sample_random(seed, space)
        if edits:
            point = mutate(point, seed + 1, edits, space)
        if where is not None:
            if space.num_blocks < 2 and where not in RERAM_FIELDS + MODEL_FIELDS:
                where = "final_fc_bits"  # with_field edits block 2
            value = make(number_at(point, where))
            if make is int:  # a fresh record of the same int
                point = with_field(point, where, value)
            else:  # any other number is refused when its record is built
                with pytest.raises(ValueError, match="^inputs must" if where == "input" else f"^{where} must"):
                    with_field(point, where, value)
        expected = json.dumps(point.to_dict(), sort_keys=True, separators=(",", ":"))
        assert canonical_json(point) == expected
        assert canonical_json(point) == expected  # again, from the cached fragments
        assert point.point_id == hashlib.sha256(expected.encode("ascii")).hexdigest()


class TestEditCheck:
    """``mutate`` checks only what each edit replaced; whenever the point it
    edits validates, that check must agree with the full ``validate``."""

    @settings(max_examples=60)
    @given(
        space=st.one_of(st.sampled_from(PROPERTY_SPACES), custom_spaces()),
        seed=st.integers(0, 2**32 - 1),
        mutation_seed=st.integers(0, 2**32 - 1),
        edits=st.integers(1, 4),
    )
    def test_mutate_draws_what_a_full_validate_would(self, space, seed, mutation_seed, edits):
        parent = sample_random(seed, space)
        edit_valid = design_space._edit_valid

        def compared(child, current, space):
            assert validate(current, space).ok
            ok = edit_valid(child, current, space)
            assert ok == validate(memo_free(child), space).ok
            return ok

        with mock.patch.object(design_space, "_edit_valid", compared):
            child = mutate(parent, mutation_seed, edits, space)
            grandchild = mutate(child, mutation_seed + 1, edits, space)
        # the same children as a mutate that runs the full validate on every edit
        def full(child, current, space):
            return validate(child, space).ok

        fresh = memo_free(parent)
        with mock.patch.object(design_space, "_edit_valid", full):
            again = mutate(fresh, mutation_seed, edits, space)
            assert again == child and again.point_id == child.point_id
            assert mutate(again, mutation_seed + 1, edits, space) == grandchild
        assert validate(grandchild, space).ok

    def test_each_kind_of_edit_is_checked(self):
        # The mutators draw ReRAM values and final-FC widths from the menus,
        # so mutate alone cannot show that those checks run.
        current = sample_random(5)
        assert validate(current).ok
        model, reram = current.model, current.reram
        blocks = model.blocks

        def with_block(blk):
            return DesignPoint(replace(model, blocks=(*blocks[:2], blk, *blocks[3:])), reram)

        edits = {
            "reram off the menu": (DesignPoint(model, replace(reram, adc_bits=5)), False),
            "reram equal, new object": (DesignPoint(model, replace(reram)), True),
            "final FC off the menu": (DesignPoint(replace(model, final_fc_bits=6), reram), False),
            "block off the menu": (with_block(replace(blocks[2], dim_d=17)), False),
            "block equal, new object": (with_block(replace(blocks[2])), True),
            "model counts changed": (DesignPoint(replace(model, num_sparse_features=1), reram), False),
            "a block fewer": (DesignPoint(replace(model, blocks=blocks[:-1]), reram), False),
        }
        for name, (child, ok) in edits.items():
            assert validate(child).ok is ok, name
            assert design_space._edit_valid(child, current, DEFAULT_SPACE) is ok, name
        with pytest.raises(ValueError, match="^dac_bits must be an int, got True$"):
            replace(reram, dac_bits=True)  # refused when built, so no edit can carry it

    def test_one_input_check_per_point_object_and_space(self):
        calls = []

        def counting(point, space=DEFAULT_SPACE):
            calls.append(point)
            return validate(point, space)

        parent = sample_random(5)
        twin = replace(DEFAULT_SPACE)  # equal, but another object
        with mock.patch.object(design_space, "validate", counting):
            children = [mutate(parent, seed, 3) for seed in range(8)]
            assert calls == [parent]
            mutate(parent, 0, 3, twin)
            assert calls == [parent, parent]
            mutate(memo_free(parent), 0, 3)
            assert len(calls) == 3
        assert all(validate(c).ok for c in children)
        bad = scrambled(parent, random.Random(1))
        for _ in range(2):  # the kept result still refuses the point
            with pytest.raises(ValueError, match="cannot mutate a point that fails validate"):
                mutate(bad, 0, 3)
        assert "_validated" not in vars(pickle.loads(pickle.dumps(parent)))
