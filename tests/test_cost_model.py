"""Cost-model arithmetic, additivity, monotonicity, scale-freeness."""

import copy
import math
import pickle
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimdse import cost_model, mapping, pipeline, search
from pimdse.cost_model import (
    OPERATOR_TABLE_SIZE,
    TechParams,
    default_tech,
    model_cost,
    overlap_ready_time,
    price_operator,
    priced_operators,
    stage_times,
)
from pimdse.design_space import (
    DEFAULT_SPACE,
    BlockConfig,
    DesignPoint,
    ModelConfig,
    OperatorChoice,
    OperatorKind,
    ReRAMConfig,
    SpaceDescriptor,
    from_plain,
    mutate,
    sample_random,
)
from pimdse.mapping import (
    MappedModel,
    MappedOperator,
    consumed_streams,
    leaf_plan,
    map_dp,
    map_fc,
    map_fm,
    map_model,
    map_shape,
)
from pimdse.pipeline import schedule, simulate, zipf_lookup_model
from pimdse.search import default_hw_metrics

TECH = default_tech()
R16 = ReRAMConfig(dac_bits=1, cell_bits=2, xbar_size=16, adc_bits=8)


def tech_with(**overrides) -> TechParams:
    return from_plain(TechParams, {**TECH.to_dict(), **overrides})


class TestTechParams:
    def test_default_profile_is_labeled_illustrative(self):
        assert "illustrative" in TECH.label

    def test_monotone_adc_tables_enforced(self):
        with pytest.raises(ValueError):
            tech_with(adc_area={"4": 0.1, "6": 0.05, "8": 0.2})

    def test_positive_values_enforced(self):
        with pytest.raises(ValueError):
            tech_with(xbar_read_time=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field, message",
        [
            ("cell_area", "technology parameters must be positive and finite"),
            ("adcs_per_xbar", "technology parameters must be positive and finite"),
            ("controller_overhead_fraction", "controller overhead must be nonnegative and finite"),
            ("adc_energy", "ADC tables must be positive, finite"),
            ("adc_area", "ADC tables must be positive, finite"),
        ],
    )
    def test_non_finite_values_refused(self, field, message, value):
        # The Python API used to accept them: a NaN cell area priced every area as NaN.
        bad = {**getattr(TECH, field), 8: value} if field.startswith("adc_") else value
        with pytest.raises(ValueError, match=message):
            replace(TECH, **{field: bad})


class TestOpLatency:
    def test_slice_count_halves_with_wider_dac(self):
        mo = map_fc(16, 16, 4, R16)
        t1 = price_operator(mo, TECH, R16).latency
        t2 = price_operator(mo, TECH, ReRAMConfig(2, 2, 16, 8)).latency
        assert t1 == 2 * t2  # ceil(8/1) = 8 slices vs ceil(8/2) = 4

    def test_single_tile_formula(self):
        # One 16-wide tile, 16 ADCs, unit read and conversion times, 8 slices.
        tp = tech_with(xbar_read_time=1.0, adc_time=1.0, adcs_per_xbar=16)
        mo = map_fc(16, 4, 4, R16)  # 4 outputs x 2 planes x 2 = 16 active cols
        assert price_operator(mo, tp, R16).latency == 16

    def test_fm_write_component_is_linear_in_vectors(self):
        base = map_fm(2, 16, 4, R16, out_dim=16)
        bigger = map_fm(6, 16, 4, R16, out_dim=16)
        def write_part(mo):
            engine = mo.parts[0]
            return engine.programming_vectors * TECH.xbar_write_time
        assert write_part(bigger) - write_part(base) == 4 * TECH.xbar_write_time
        # and the serial latency includes exactly that component
        delta_writes = 4 * TECH.xbar_write_time
        extra_mbsa = 4 * 8 * TECH.mbsa_time  # 4 extra squaring passes
        engines = [mo.parts[0] for mo in (base, bigger)]
        lat = [price_operator(e, TECH, R16).latency for e in engines]
        assert math.isclose(lat[1] - lat[0], delta_writes + extra_mbsa)


class TestOpAreaEnergy:
    def test_degenerate_zero_tile_operator_has_zero_area(self):
        from pimdse.design_space import OperatorKind
        from pimdse.mapping import Engine, MappedOperator

        ghost = MappedOperator(
            op_id="ghost", kind=OperatorKind.FC, engine=Engine.MVM,
            in_dim=0, out_dim=0, w_bits=4, planes=1, row_tiles=0, col_tiles=0,
        )
        assert price_operator(ghost, TECH, R16).area == 0.0

    def test_doubling_col_tiles_doubles_crossbar_area_share(self):
        a1 = map_fc(16, 4, 4, R16)   # 1 col tile
        a2 = map_fc(16, 8, 4, R16)   # 2 col tiles
        assert a2.col_tiles == 2 * a1.col_tiles
        tile_area = (
            R16.xbar_size**2 * TECH.cell_area
            + TECH.adcs_per_xbar * TECH.adc_area[R16.adc_bits]
            + R16.xbar_size * TECH.dac_area
        )
        delta = price_operator(a2, TECH, R16).area - price_operator(a1, TECH, R16).area
        # buffer term unchanged: max(in, out) is 16 bytes for both shapes
        assert math.isclose(delta, tile_area)

    def test_adc_resolution_monotone_area(self):
        mo4 = map_fc(16, 16, 4, ReRAMConfig(1, 2, 16, 4))
        mo8 = map_fc(16, 16, 4, ReRAMConfig(1, 2, 16, 8))
        area4 = price_operator(mo4, TECH, ReRAMConfig(1, 2, 16, 4)).area
        assert price_operator(mo8, TECH, ReRAMConfig(1, 2, 16, 8)).area >= area4

    def test_composite_sums_parts(self):
        mo = map_dp(32, 16, 4, 4, R16, dense_in_dim=32)
        whole = price_operator(mo, TECH, R16)
        parts = [price_operator(p, TECH, R16) for p in mo.parts]
        assert math.isclose(whole.area, sum(p.area for p in parts))
        assert math.isclose(whole.energy, sum(p.energy for p in parts))
        assert math.isclose(whole.latency, sum(p.latency for p in parts))


class TestModelCost:
    def test_totals_are_component_sums(self):
        mm = map_model(sample_random(11))
        report = model_cost(mm, TECH)
        assert math.isclose(report.area, sum(report.area_components.values()))
        assert math.isclose(
            report.energy_per_inference, sum(report.energy_components.values())
        )

    def test_adding_a_block_never_decreases_area(self):
        # Same prefix model with more blocks can only add components.
        from pimdse.design_space import SpaceDescriptor

        small = SpaceDescriptor(num_blocks=2, num_sparse_features=4)
        big = SpaceDescriptor(num_blocks=3, num_sparse_features=4)
        pt_small = sample_random(0, small)
        pt_big = sample_random(0, big)
        # sampling shares the first blocks' draw sequence per block loop
        area_small = model_cost(map_model(pt_small), TECH).area
        area_big = model_cost(map_model(pt_big), TECH).area
        assert area_big >= area_small or len(pt_big.model.blocks) > len(pt_small.model.blocks)

    def test_hand_computed_two_operator_model(self):
        # Spreadsheet-style independent total for one FC leaf.
        tp = tech_with(
            xbar_read_time=2.0, adc_time=3.0, adcs_per_xbar=4,
            dac_energy=0.5, cell_read_energy=0.25, xbar_write_energy=1.0,
            buffer_read_energy=0.1, buffer_write_energy=0.2, mbsa_time=1.0,
        )
        mo = map_fc(16, 16, 4, R16)  # 1 row tile, 4 col tiles, planes 2
        # latency: 8 slices * (2 + ceil(16/4)*3) = 8 * 14 = 112
        assert price_operator(mo, tp, R16).latency == 112
        # energy: reads = 8; dac 16 rows x 4 col tiles x 0.5 = 32/slice;
        # cells = 16 x 64 x 0.25 = 256/slice; adc = 64 cols x 1 row tile x e8
        expected = 8 * (32 + 256 + 64 * tp.adc_energy[8]) + (16 * 0.1 + 16 * 0.2)
        assert math.isclose(price_operator(mo, tp, R16).energy, expected)

    def test_scale_freeness(self):
        mm = map_model(sample_random(13))
        base = model_cost(mm, TECH)
        for c in (2.0, 7.5):
            scaled = model_cost(mm, TECH.scaled_times(c))
            for op_id, t in base.op_latencies.items():
                assert math.isclose(scaled.op_latencies[op_id], c * t, rel_tol=1e-12)
            for op_id, t in base.stage_times.items():
                assert math.isclose(scaled.stage_times[op_id], c * t, rel_tol=1e-12)
            assert scaled.bottleneck_stage == base.bottleneck_stage
            assert math.isclose(scaled.peak_power, base.peak_power / c, rel_tol=1e-12)

    def test_invariances_over_random_models(self):
        for seed in range(25):
            mm = map_model(sample_random(seed))
            report = model_cost(mm, TECH)
            assert math.isclose(report.area, sum(report.area_components.values()))
            scaled = model_cost(mm, TECH.scaled_times(3.0))
            assert scaled.bottleneck_stage == report.bottleneck_stage
            for op_id, t in report.op_latencies.items():
                assert math.isclose(scaled.op_latencies[op_id], 3.0 * t, rel_tol=1e-12)


class TestStageTimes:
    def test_overlap_not_slower_than_serial(self):
        # FM occupancy is producer-paced (a slow upstream stream can stretch
        # its window), so the guarantee applies to internally-produced DP
        # stages and to every plain operator.
        from pimdse.design_space import OperatorKind

        for seed in range(10):
            mm = map_model(sample_random(seed))
            fast = stage_times(mm, TECH, overlap=True)
            slow = stage_times(mm, TECH, overlap=False)
            for op in mm.operators:
                if op.kind is OperatorKind.FM:
                    continue
                assert fast[op.op_id] <= slow[op.op_id] + 1e-9

    def test_overlap_ready_closed_form(self):
        assert overlap_ready_time(3, 2.0, 3.0) == 11.0
        assert overlap_ready_time(1, 2.0, 3.0) == 5.0
        assert overlap_ready_time(4, 2.0, 0.0001) == pytest.approx(8.0001, abs=1e-9)


# The default space and two small ones: few dims, so operators repeat, and
# a one-feature space where FMs need two or more sources.
TABLE_SPACES = (
    DEFAULT_SPACE,
    SpaceDescriptor(
        num_blocks=2, dense_dims=(16, 32), sparse_dims=(16,), num_sparse_features=4, embedding_dim=8
    ),
    SpaceDescriptor(
        num_blocks=3, dense_operators=(OperatorKind.DP, OperatorKind.FM),
        sparse_operators=(OperatorKind.DSI,), dense_dims=(16, 64), sparse_dims=(16, 32),
        num_sparse_features=1, embedding_dim=4,
    ),
)


class TestOperatorTable:
    @settings(max_examples=40)
    @given(
        space_index=st.sampled_from(range(len(TABLE_SPACES))),
        first=st.integers(0, 2**32 - 1),
        # each step mutates the previous point (1-3 edits) or samples anew (0)
        walk=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 3)), max_size=8),
    )
    def test_table_entries_equal_direct_pricing(self, space_index, first, walk):
        space = TABLE_SPACES[space_index]
        tech = default_tech()
        lookup = zipf_lookup_model(space.num_sparse_features, 256, 8, 16, 1, tech.t_bank)
        metric_fn = default_hw_metrics(tech, space, lookup_model=lookup)
        point = sample_random(first, space)
        # far fewer entries than a walk maps, so entries are evicted
        with mock.patch.object(cost_model, "OPERATOR_TABLE_SIZE", 8):
            for seed, edits in [(None, 0), *walk]:
                if seed is not None:
                    point = mutate(point, seed, edits, space) if edits else sample_random(seed, space)
                mm, reram = map_model(point), point.reram
                assert all(ReRAMConfig(*key[-4:]) == reram for key in mm.keys)  # what a miss maps for
                direct = tuple(price_operator(map_shape(key, reram), tech, reram) for key in mm.keys)
                entries = priced_operators(mm, tech)
                for entry, priced in zip(entries, direct, strict=True):  # a miss prices the key's leaf plan
                    assert entry._asdict() == priced._asdict()
                assert [(p.engine, p.programming_vectors) for p in entries] == [
                    (shape.engine, shape.programming_vectors) for shape in mm.shapes
                ]
                cold = default_tech()  # an empty table: this model's shapes alone
                plain = map_model(point)
                cost, report = model_cost(plain, cold), simulate(plain, cold, lookup_model=lookup)
                expected = (1.0 / report.throughput, cost.area, cost.peak_power)
                assert tuple(metric_fn(point)) == expected
                assert model_cost(mm, tech).to_dict() == cost.to_dict()
                assert simulate(mm, tech, lookup_model=lookup).to_dict() == report.to_dict()
                # one operator order: stages, latencies, placed operators, compute events
                ids = [op.op_id for op in mm.operators]
                assert list(stage_times(mm, tech)) == list(model_cost(mm, tech).op_latencies) == ids
                for overlap in (True, False):
                    sched = schedule(mm, tech, overlap)
                    assert sched.to_dict() == schedule(plain, cold, overlap).to_dict()
                    assert [e.stage_id for e in sched.events if e.kind == "compute"] == ids
                assert [op_id for op_id, *_ in mm.layout] == ids
                assert mm.edges == tuple(
                    ("stem" if s == 0 else f"b{s}.{stream}", op.op_id)
                    for op, (*_, inputs) in zip(mm.operators, mm.layout)
                    for s, stream in consumed_streams(op.kind, inputs)
                )
                info = tech.operator_table.cache_info()
                assert info.maxsize == 8 and info.currsize <= 8

    def test_one_model_misses_once_per_distinct_shape(self):
        for seed in range(4):
            tech = default_tech()
            table = tech.operator_table
            mm = map_model(sample_random(seed))
            distinct = len(set(mm.keys))
            with mock.patch.object(cost_model, "_price_shape", wraps=cost_model._price_shape) as price:
                model_cost(mm, tech)
                for overlap in (True, False):
                    assert simulate(mm, tech, overlap=overlap).latency
                    schedule(mm, tech, overlap)
                assert table.cache_info()[:2] == (len(mm.keys) - distinct, distinct)  # (hits, misses)
                assert price.call_count == distinct
                again = map_model(sample_random(seed))  # the same shapes, all held
                model_cost(again, tech)
                assert (table.cache_info().misses, price.call_count) == (distinct, distinct)

    @mock.patch.object(cost_model, "OPERATOR_TABLE_SIZE", 64)  # about three default-space models
    def test_bound_and_counts(self):
        tech = default_tech()
        table = tech.operator_table
        operators = 0
        point = sample_random(0)
        for seed in range(40):
            point = mutate(point, seed, 2)
            operators += len(priced_operators(map_model(point), tech))
            assert table.cache_info().currsize <= 64
        hits, misses, maxsize, _ = table.cache_info()
        assert hits + misses == operators and maxsize == 64
        assert hits > 0 and misses > 64  # children share operators; entries were evicted
        assert tech.operator_table is tech.operator_table

    @mock.patch.object(cost_model, "OPERATOR_TABLE_SIZE", 2)
    def test_least_recently_used_goes_first(self):
        tech = default_tech()
        table = tech.operator_table
        a, b, c = list(dict.fromkeys(map_model(sample_random(0)).keys))[:3]
        with mock.patch.object(cost_model, "_price_shape", wraps=cost_model._price_shape) as miss:
            first = table(a)
            table(b)
            assert table(a) is first  # a hit; a is now more recent than b
            table(c)  # evicts b
            assert table(a) is first
            table(b)  # evicts c
        assert [call.args for call in miss.call_args_list] == [(tech, k) for k in (a, b, c, b)]
        assert table.cache_info() == (2, 4, 2, 2)  # hits, misses, maxsize, currsize

    def test_scaled_times_prices_with_the_scaled_times(self):
        tech = default_tech()
        point = sample_random(5)
        priced = map_model(point)
        unscaled = model_cost(priced, tech).to_dict()
        scaled = tech.scaled_times(3.0)
        assert scaled.operator_table is not tech.operator_table
        assert scaled.operator_table.cache_info().currsize == 0
        assert scaled.xbar_read_time == 3.0 * tech.xbar_read_time
        fresh = model_cost(map_model(point), scaled).to_dict()
        assert scaled.operator_table.cache_info().misses == len(set(priced.keys))
        # a model priced under tech is priced again from scaled's table: every lookup hits
        assert model_cost(priced, scaled).to_dict() == fresh
        assert scaled.operator_table.cache_info().misses == len(set(priced.keys))
        assert fresh != unscaled

    def test_one_shape_at_two_placements_shares_one_entry(self):
        fc, efc, dsi = OperatorKind.FC, OperatorKind.EFC, OperatorKind.DSI
        # block 2's FC reads block 1's 16-wide dense output: block 1's FC shape
        blocks = (
            BlockConfig(1, 16, 16, (OperatorChoice(fc, 4, (0,)),), (OperatorChoice(efc, 4, (0,)),)),
            BlockConfig(2, 16, 16, (OperatorChoice(fc, 4, (1,)),), (OperatorChoice(dsi, 4, (1,)),)),
        )
        point = DesignPoint(ModelConfig(blocks, 8, 4, 16), R16)
        tech = default_tech()
        table = tech.operator_table
        mm = map_model(point)
        priced = priced_operators(mm, tech)
        assert table.cache_info()[:2] == (1, 4)  # b2.dense.FC hit b1.dense.FC's entry
        assert priced[2] is priced[0] and mm.keys[2] == mm.keys[0] and mm.shapes[2] == mm.shapes[0]
        ids = [op.op_id for op in mm.operators]
        assert ids == ["b1.dense.FC", "b1.sparse.EFC", "b2.dense.FC", "b2.sparse.DSI", "final_fc"]
        assert [op_id for op_id, *_ in mm.layout] == ids
        consumes = [consumed_streams(op.kind, inputs) for op, (*_, inputs) in zip(mm.operators, mm.layout)]
        assert consumes[0] == ((0, "dense"),) and consumes[2] == ((1, "dense"),)
        # block 1 alone: its FC, its EFC and a final FC from 16 wide are all held
        one = DesignPoint(ModelConfig(blocks[:1], 8, 4, 16), R16)
        again = map_model(one)
        assert priced_operators(again, tech) == (priced[0], priced[1], priced[4])
        assert table.cache_info()[:2] == (4, 4)
        assert again.shapes == (mm.shapes[0], mm.shapes[1], mm.shapes[4])

    def test_a_search_candidate_builds_no_shape_or_operator(self):
        tech = default_tech()
        mapped = []

        def keep(*args, **kwargs):
            mapped.append(map_model(*args, **kwargs))
            return mapped[-1]

        with (
            mock.patch.object(search, "map_model", keep),
            mock.patch.object(mapping, "map_shape", wraps=map_shape) as shaped,
        ):
            default_hw_metrics(tech)(sample_random(3))
        (mm,) = mapped
        # an empty table prices every key from its leaf plan: no shape record is built
        assert shaped.call_count == 0
        assert tech.operator_table.cache_info().misses == len(set(mm.keys))
        # shape and placed records are built on first read only
        assert "shapes" not in vars(mm) and "operators" not in vars(mm)
        assert "consumes" not in MappedOperator._fields
        for kind, *rest in mm.keys:  # shape keys: a kind, then integers
            assert isinstance(kind, OperatorKind) and all(type(v) is int for v in rest)

    def test_a_latency_read_or_schedule_maps_no_shape(self):
        # Placement is recorded by map_model and prices are kept on the model,
        # so once a model is priced its timeline needs no shape record.
        tech = default_tech()
        for seed in range(4):
            mm = map_model(sample_random(seed))
            model_cost(mm, tech)
            with (
                mock.patch.object(mapping, "map_shape", wraps=map_shape) as mapped,
                mock.patch.object(cost_model, "leaf_plan", wraps=leaf_plan) as planned,
            ):
                for overlap in (True, False):
                    assert simulate(mm, tech, overlap=overlap).latency > 0
                    assert schedule(mm, tech, overlap).events
            assert mapped.call_count == planned.call_count == 0  # the timeline used to map every shape again
            assert "shapes" not in vars(mm) and "operators" not in vars(mm)

    def test_table_is_not_serialized(self):
        tech = default_tech()
        priced_operators(map_model(sample_random(1)), tech)
        assert tech.operator_table.cache_info().currsize
        d = tech.to_dict()
        assert "operator_table" not in d
        assert from_plain(TechParams, d) == tech


class TestOneOccupancyPass:
    """``stage_times`` walks the occupancy once per model, technology object
    and overlap setting; each case is checked against a memo-free model."""

    def test_a_search_candidate_walks_once_and_times_only_a_read_latency(self):
        tech = default_tech()
        reports = []

        def keep(*args, **kwargs):
            reports.append(simulate(*args, **kwargs))
            return reports[-1]

        with (
            mock.patch.object(search, "simulate", keep),
            mock.patch.object(cost_model, "_occupancy_walk", wraps=cost_model._occupancy_walk) as walk,
            mock.patch.object(pipeline, "_timeline", wraps=pipeline._timeline) as timeline,
        ):
            default_hw_metrics(tech)(sample_random(3))
            assert (walk.call_count, timeline.call_count) == (1, 0)
            latency = reports[0].latency
            assert reports[0].latency == latency
            assert (walk.call_count, timeline.call_count) == (1, 1)

    def test_interleaved_techs_and_overlap(self):
        tech = default_tech()
        scaled = tech.scaled_times(3.0)
        lookup = zipf_lookup_model(26, 256, 8, 16, 1, tech.t_bank)
        calls = [(tech, True), (scaled, True), (tech, False), (tech, True), (scaled, False), (scaled, True)]
        for seed in range(4):
            point = sample_random(seed)
            mm = map_model(point)
            for tp, overlap in calls:
                assert stage_times(mm, tp, overlap) == stage_times(map_model(point), tp, overlap)
                assert model_cost(mm, tp).to_dict() == model_cost(map_model(point), tp).to_dict()
                report = simulate(mm, tp, lookup, overlap).to_dict()
                assert report == simulate(map_model(point), tp, lookup, overlap).to_dict()

    def test_model_priced_by_one_tech_costed_under_another(self):
        tech = default_tech()
        other = tech_with(xbar_write_time=7 * TECH.xbar_write_time, mbsa_energy=2 * TECH.mbsa_energy)
        for seed in range(4):
            point = sample_random(seed)
            mm = map_model(point)
            for tp in (tech, other, tech):
                fresh = map_model(point)
                assert model_cost(mm, tp).to_dict() == model_cost(fresh, tp).to_dict()
                assert simulate(mm, tp).to_dict() == simulate(fresh, tp).to_dict()
                assert schedule(mm, tp).to_dict() == schedule(fresh, tp).to_dict()
            assert model_cost(mm, other).to_dict() != model_cost(mm, tech).to_dict()

    def test_a_changed_result_mapping_changes_no_later_result(self):
        tech = default_tech()
        point = sample_random(11)
        mm = map_model(point)
        for returned in (model_cost(mm, tech).stage_times, stage_times(mm, tech)):
            for key in returned:
                returned[key] = 0.0
            returned["extra"] = 1e9
        fresh = map_model(point)
        assert stage_times(mm, tech) == stage_times(fresh, tech)
        assert simulate(mm, tech).to_dict() == simulate(fresh, tech).to_dict()
        assert model_cost(mm, tech).to_dict() == model_cost(fresh, tech).to_dict()

    @pytest.mark.parametrize("with_lookup", (False, True))
    def test_latency_is_the_schedule_end(self, with_lookup):
        tech = default_tech()
        lookup = zipf_lookup_model(26, 256, 2, 16, 1, tech.t_bank) if with_lookup else None
        first = lookup.latencies[0] if with_lookup else tech.t_bank
        assert with_lookup == (first != tech.t_bank)  # the lookup model moves the timeline
        for seed in range(6):
            mm = map_model(sample_random(seed))
            for overlap in (True, False):
                latency = simulate(mm, tech, lookup, overlap).latency
                end = schedule(mm, tech, overlap, lookup_time=first).end_time
                assert latency == end + tech.activation_time


class TestPickledRecords:
    def test_tech_pickles_and_copies_without_its_table(self):
        tech = default_tech()
        metric_fn = default_hw_metrics(tech)
        for seed in range(200):
            metric_fn(sample_random(seed))
        full = tech.operator_table.cache_info()
        assert full.currsize == full.maxsize == OPERATOR_TABLE_SIZE
        assert len(pickle.dumps(tech)) == len(pickle.dumps(default_tech()))
        mm = map_model(sample_random(0))
        for again in (pickle.loads(pickle.dumps(tech)), copy.deepcopy(tech)):
            assert again == tech and again.operator_table.cache_info().currsize == 0
            with mock.patch.object(cost_model, "_price_shape", wraps=cost_model._price_shape) as miss:
                priced_operators(mm, again)
            assert miss.call_count == len(set(mm.keys))
            assert all(call.args[0] is again for call in miss.call_args_list)  # the copy prices under itself
        assert tech.operator_table.cache_info().currsize == OPERATOR_TABLE_SIZE

    def test_mapped_model_pickles_without_prices_or_memo(self):
        tech = default_tech()
        point = sample_random(4)
        mm = map_model(point)
        assert simulate(mm, tech).latency and mm.edges and mm.tile_plan
        assert "_priced" in vars(mm) and "shapes" in vars(mm)
        fresh = map_model(point)
        assert pickle.dumps(mm) == pickle.dumps(MappedModel(mm.model, mm.reram, mm.keys, mm.layout))
        for again in (pickle.loads(pickle.dumps(mm)), copy.deepcopy(mm)):
            assert again == mm and set(vars(again)) == {"model", "reram", "keys", "layout"}
            assert model_cost(again, tech).to_dict() == model_cost(fresh, tech).to_dict()
