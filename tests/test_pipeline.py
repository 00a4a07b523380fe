"""Placement, bank conflicts, scheduling, and throughput reporting."""

import math
import random

import pytest

from pimdse.cost_model import default_tech, model_cost, op_latency, overlap_ready_time
from pimdse.design_space import sample_random
from pimdse.mapping import map_model
from pimdse.pipeline import (
    UnplacedId,
    place_embeddings,
    schedule,
    simulate,
    simulate_lookup,
    zipf_lookup_model,
)

TECH = default_tech()


def event_list_ready_time(k, t_e, t_p):
    """Brute-force two-stage pipeline oracle: vector i is emitted at i*t_e,
    programming starts when both the vector and the writer are free."""
    done = 0.0
    for i in range(1, k + 1):
        done = max(done, i * t_e) + t_p
    return done


class TestOverlapRecurrence:
    def test_spec_example(self):
        assert overlap_ready_time(3, 2, 3) == 11  # naive would be 15

    def test_no_overlap_possible_with_one_vector(self):
        assert overlap_ready_time(1, 4.0, 2.5) == 6.5

    def test_free_programming_limit(self):
        assert overlap_ready_time(5, 3.0, 0.0) == pytest.approx(15.0)

    def test_against_event_list_oracle(self):
        rng = random.Random(0)
        for _ in range(1000):
            k = rng.randint(1, 40)
            t_e = rng.uniform(0.0, 20.0)
            t_p = rng.uniform(0.0, 20.0)
            closed = overlap_ready_time(k, t_e, t_p)
            assert math.isclose(closed, event_list_ready_time(k, t_e, t_p), rel_tol=1e-12)
            assert closed <= k * (t_e + t_p) + 1e-9


class TestPlacement:
    def test_frequency_round_robin(self):
        pl = place_embeddings({"a": 9, "b": 7, "c": 5, "d": 3}, 2)
        assert pl.assignment == {"a": 0, "b": 1, "c": 0, "d": 1}

    def test_single_bank(self):
        pl = place_embeddings({"a": 1, "b": 2}, 1)
        assert set(pl.assignment.values()) == {0}

    def test_n_ids_n_banks_unit_loads(self):
        pl = place_embeddings({i: 1 for i in range(8)}, 8)
        assert pl.bank_loads() == [1] * 8

    def test_balance_fuzz(self):
        rng = random.Random(1)
        for _ in range(1000):
            n_ids = rng.randint(1, 60)
            banks = rng.randint(1, 12)
            freqs = {f"id{i}": rng.randint(0, 100) for i in range(n_ids)}
            loads = place_embeddings(freqs, banks).bank_loads()
            assert max(loads) - min(loads) <= 1

    def test_tie_break_by_id(self):
        pl = place_embeddings({"x": 5, "a": 5, "m": 5}, 3)
        assert pl.assignment == {"a": 0, "m": 1, "x": 2}


class TestLookup:
    def setup_method(self):
        self.pl = place_embeddings({"a": 9, "b": 7, "c": 5, "d": 3}, 2)

    def test_cross_bank_parallel(self):
        assert simulate_lookup([("a", "b")], self.pl, 10.0) == [10.0]

    def test_same_bank_serializes(self):
        assert simulate_lookup([("a", "c")], self.pl, 10.0) == [20.0]

    def test_empty_query(self):
        assert simulate_lookup([()], self.pl, 10.0) == [0.0]

    def test_unplaced_id_raises(self):
        with pytest.raises(UnplacedId):
            simulate_lookup([("zz",)], self.pl, 10.0)

    def test_serialization_oracle_fuzz(self):
        rng = random.Random(2)
        ids = [f"id{i}" for i in range(24)]
        pl = place_embeddings({i: rng.randint(0, 50) for i in ids}, 4)
        for _ in range(500):
            query = rng.sample(ids, rng.randint(0, 12))
            got = simulate_lookup([query], pl, 3.0)[0]
            counts = {}
            for q in query:
                counts[pl.assignment[q]] = counts.get(pl.assignment[q], 0) + 1
            expected = 3.0 * max(counts.values()) if counts else 0.0
            assert got == expected


class TestSchedule:
    @staticmethod
    def _stream_ready(mm, sched):
        """Readiness time of every block stream, from the event list itself.

        Dense outputs pay the functional-unit activation pass; sparse
        outputs and the post-lookup stem streams are ready at their ends.
        """
        ends: dict = {}
        for op in mm.operators:
            if op.op_id == "final_fc":
                continue
            key = (op.block_index, op.branch)
            ends[key] = max(ends.get(key, 0.0), sched.event(op.op_id).end)
        lookup_end = sched.event("lookup").end
        ready = {(0, "dense"): lookup_end, (0, "sparse"): lookup_end}
        for (blk, branch), end in ends.items():
            ready[(blk, branch)] = end + (TECH.activation_time if branch == "dense" else 0.0)
        return ready

    def test_dependencies_respected_serial(self):
        # Without overlap, no stage starts before every DAG predecessor ends.
        for seed in range(8):
            mm = map_model(sample_random(seed))
            sched = schedule(mm, TECH, overlap=False)
            ready = self._stream_ready(mm, sched)
            for op in mm.operators:
                start = sched.event(op.op_id).start
                for src, stream in op.consumes:
                    assert start >= ready[(src, stream)] - 1e-9

    def test_overlapped_fm_still_causal(self):
        # With overlap on, an FM stage may start during production but must
        # end after the last source vector has been produced and written.
        from pimdse.design_space import OperatorKind

        for seed in range(20):
            mm = map_model(sample_random(seed))
            sched = schedule(mm, TECH, overlap=True)
            ready = self._stream_ready(mm, sched)
            for op in mm.operators:
                if op.kind is not OperatorKind.FM or not op.parts:
                    continue
                ev = sched.event(op.op_id)
                src_end = max(ready[(s, stream)] for s, stream in op.consumes)
                assert ev.end >= src_end + TECH.xbar_write_time - 1e-9

    def test_events_well_formed(self):
        mm = map_model(sample_random(3))
        sched = schedule(mm, TECH)
        for e in sched.events:
            assert e.end >= e.start >= 0.0
        assert sched.event("final_fc").end == sched.end_time

    def test_deterministic(self):
        mm = map_model(sample_random(4))
        a = schedule(mm, TECH).to_dict()
        b = schedule(mm, TECH).to_dict()
        assert a == b

    def test_single_fc_chain_latency(self):
        # Degenerate pipeline: one FC-only block; its dense path waits for
        # the lookup, runs the FC, then pays the activation pass.
        from pimdse.design_space import (
            BlockConfig,
            DesignPoint,
            ModelConfig,
            OperatorChoice,
            OperatorKind,
            ReRAMConfig,
        )

        blocks = (
            BlockConfig(
                1, 16, 16,
                (OperatorChoice(OperatorKind.FC, 4, (0,)),),
                (OperatorChoice(OperatorKind.EFC, 4, (0,)),),
            ),
        )
        pt = DesignPoint(
            model=ModelConfig(blocks, 4, 4, 16),
            reram=ReRAMConfig(1, 1, 16, 6),
        )
        mm = map_model(pt)
        sched = schedule(mm, TECH, lookup_time=TECH.t_bank)
        fc = sched.event("b1.dense.FC")
        assert fc.start == TECH.t_bank
        assert fc.end == TECH.t_bank + op_latency(mm.operator("b1.dense.FC"), TECH, pt.reram)
        final = sched.event("final_fc")
        assert final.start == fc.end + TECH.activation_time


class TestSimulate:
    def test_throughput_inverts_bottleneck(self):
        mm = map_model(sample_random(5))
        rep = simulate(mm, TECH)
        assert math.isclose(rep.throughput * rep.bottleneck_time, 1.0, rel_tol=1e-12)
        assert 0 < max(rep.stage_utilization.values()) <= 1.0 + 1e-12

    def test_pipelined_latency_bounded_by_serial_sum(self):
        for seed in range(20):
            mm = map_model(sample_random(seed))
            rep = simulate(mm, TECH)
            serial = sum(
                op_latency(op, TECH, mm.reram) for op in mm.operators
            ) + TECH.t_bank + (len(mm.model.blocks) + 1) * TECH.activation_time
            assert rep.latency <= serial + 1e-6

    def test_overlap_never_hurts(self):
        for seed in range(25):
            mm = map_model(sample_random(seed))
            with_overlap = simulate(mm, TECH).latency
            without = simulate(mm, TECH, overlap=False).latency
            assert with_overlap <= without + 1e-9

    def test_bottleneck_matches_cost_model(self):
        for seed in range(10):
            mm = map_model(sample_random(seed))
            cost = model_cost(mm, TECH)
            rep = simulate(mm, TECH)
            if rep.bottleneck_stage != "lookup":
                assert rep.bottleneck_stage == cost.bottleneck_stage

    def test_slower_stage_reduces_throughput(self):
        mm = map_model(sample_random(6))
        rep = simulate(mm, TECH)
        slower = TECH.scaled_times(10.0)  # every stage slower, bottleneck included
        rep_slow = simulate(mm, slower)
        assert rep_slow.throughput < rep.throughput


class TestLookupModel:
    def test_zipf_model_deterministic(self):
        a = zipf_lookup_model(4, 64, 4, 8, seed=3, t_bank=5.0)
        b = zipf_lookup_model(4, 64, 4, 8, seed=3, t_bank=5.0)
        assert a.trace == b.trace
        assert a.latencies == b.latencies

    def test_placement_covers_trace(self):
        lm = zipf_lookup_model(6, 32, 4, 16, seed=9, t_bank=2.0)
        for query in lm.trace:
            for row_id in query:
                assert row_id in lm.placement.assignment
