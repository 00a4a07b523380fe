"""Stage-level behavioral simulation: embedding placement, bank conflicts,
and end-to-end latency/throughput with programming/production overlap.

Granularity is one stage per top-level operator (plus the embedding lookup
stage); stage occupancies come from :func:`pimdse.cost_model.stage_times`
so the throughput bottleneck reported here matches the cost model's by
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .cost_model import TechParams, _engine_ready, stage_times
from .mapping import Engine, MappedModel


class UnplacedId(KeyError):
    """A trace references an embedding row that was never placed."""


@dataclass(frozen=True)
class EmbeddingPlacement:
    assignment: dict          # embedding row id -> bank index
    num_banks: int

    def bank_of(self, row_id) -> int:
        try:
            return self.assignment[row_id]
        except KeyError as exc:
            raise UnplacedId(row_id) from exc

    def bank_loads(self) -> list[int]:
        loads = [0] * self.num_banks
        for bank in self.assignment.values():
            loads[bank] += 1
        return loads


def place_embeddings(freqs: dict, num_banks: int) -> EmbeddingPlacement:
    """Round-robin by descending access frequency (ties broken by id)."""
    if num_banks < 1:
        raise ValueError("num_banks must be >= 1")
    ranked = sorted(freqs, key=lambda i: (-freqs[i], i))
    assignment = {row_id: rank % num_banks for rank, row_id in enumerate(ranked)}
    return EmbeddingPlacement(assignment=assignment, num_banks=num_banks)


def simulate_lookup(trace, placement: EmbeddingPlacement, t_bank: float) -> list[float]:
    """Per-query lookup latency: same-bank accesses serialize, banks run in
    parallel, so each query costs t_bank times its worst per-bank count."""
    out = []
    for query in trace:
        per_bank: dict[int, int] = {}
        for row_id in query:
            bank = placement.bank_of(row_id)
            per_bank[bank] = per_bank.get(bank, 0) + 1
        out.append(t_bank * max(per_bank.values()) if per_bank else 0.0)
    return out


@dataclass(frozen=True)
class LookupModel:
    placement: EmbeddingPlacement
    trace: tuple
    t_bank: float

    @cached_property
    def latencies(self) -> tuple[float, ...]:
        """Per-query lookup latencies; the trace is fixed, so computed once."""
        return tuple(simulate_lookup(self.trace, self.placement, self.t_bank))


def zipf_lookup_model(
    num_tables: int,
    rows_per_table: int,
    num_banks: int,
    num_queries: int,
    seed: int,
    t_bank: float,
    alpha: float = 1.3,
) -> LookupModel:
    """Synthetic skewed trace: one row per table per query, Zipf-ish ranks."""
    rng = random.Random(seed)
    trace = []
    for _ in range(num_queries):
        query = []
        for t in range(num_tables):
            rank = min(int(rng.paretovariate(alpha)), rows_per_table)
            query.append(f"t{t}:r{rank}")
        trace.append(tuple(query))
    freqs: dict[str, int] = {}
    for query in trace:
        for row_id in query:
            freqs[row_id] = freqs.get(row_id, 0) + 1
    placement = place_embeddings(freqs, num_banks)
    return LookupModel(placement=placement, trace=tuple(trace), t_bank=t_bank)


@dataclass(frozen=True)
class StageEvent:
    stage_id: str
    start: float
    end: float
    kind: str  # lookup | compute | program


@dataclass(frozen=True)
class Schedule:
    events: tuple[StageEvent, ...]
    edges: tuple[tuple[str, str], ...]  # (producer event, consumer event)
    occupancy: dict  # stage_times the timeline was built from; not serialized

    @property
    def end_time(self) -> float:
        return max(e.end for e in self.events)

    def event(self, stage_id: str) -> StageEvent:
        for e in self.events:
            if e.stage_id == stage_id:
                return e
        raise KeyError(stage_id)

    def to_dict(self) -> dict:
        return {
            "events": [
                {"stage_id": e.stage_id, "start": e.start, "end": e.end, "kind": e.kind}
                for e in self.events
            ],
            "edges": [list(e) for e in self.edges],
            "end_time": self.end_time,
        }


@dataclass
class ThroughputReport:
    latency: float
    throughput: float
    bottleneck_stage: str
    bottleneck_time: float
    stage_utilization: dict

    def to_dict(self) -> dict:
        return {
            "latency": self.latency,
            "throughput": self.throughput,
            "bottleneck_stage": self.bottleneck_stage,
            "bottleneck_time": self.bottleneck_time,
            "stage_utilization": dict(self.stage_utilization),
        }


def schedule(
    mm: MappedModel,
    tp: TechParams,
    overlap: bool = True,
    lookup_time: float | None = None,
) -> Schedule:
    """Timeline of one query through the mapped model.

    Each operator starts once every source stream is ready and holds its
    stage for its :func:`~pimdse.cost_model.stage_times` occupancy, which
    the schedule keeps. With ``overlap`` an FM engine instead starts
    programming when the last of its source sparse branches starts, and
    ends at the shared engine-overlap formula; ``overlap=False`` serializes
    engine programming, for comparison. Dense branches pay one functional-unit
    activation pass; sparse branches pass through.
    """
    lookup_t = tp.t_bank if lookup_time is None else lookup_time
    occ = stage_times(mm, tp, overlap=overlap)

    events = [StageEvent("lookup", 0.0, lookup_t, "lookup")]
    edges: list[tuple[str, str]] = []
    dense_ready = {0: lookup_t}   # both stem streams are available post-lookup
    sparse_ready = {0: lookup_t}
    sparse_start = {0: 0.0}       # when stem production (the lookup) begins

    def stream_ready(source: int, stream: str) -> float:
        return dense_ready[source] if stream == "dense" else sparse_ready[source]

    for blk in mm.model.blocks:
        dense_ends, sparse_ends, branch_starts = [], [], []
        for op in (o for o in mm.operators if o.block_index == blk.index):
            start = max(stream_ready(s, stream) for s, stream in op.consumes)
            end = start + occ[op.op_id]
            if overlap and op.engine is Engine.FM:
                # Occupancy has no timeline, so it spreads the source
                # branches' summed production over the vectors. Here the
                # branches' start and end times are known, so the engine is
                # programmed across the observed production window instead;
                # eager programming can only improve on the serialized plan.
                *_, engine, fc_out = op.parts
                start = max(sparse_start[s] for s, stream in op.consumes)
                window = max(sparse_ready[s] for s, stream in op.consumes) - start
                t_e = window / engine.programming_vectors
                end = _engine_ready(start, t_e, engine, fc_out, tp, mm.reram)
            events.append(StageEvent(op.op_id, start, end, "compute"))
            for s, stream in op.consumes:
                edges.append((_stream_event(s, stream), op.op_id))
            if op.branch == "dense":
                dense_ends.append(end)
            else:
                sparse_ends.append(end)
                branch_starts.append(start)
        dense_ready[blk.index] = max(dense_ends) + tp.activation_time
        sparse_ready[blk.index] = max(sparse_ends)
        sparse_start[blk.index] = min(branch_starts)

    start = dense_ready[mm.model.blocks[-1].index]
    events.append(StageEvent("final_fc", start, start + occ["final_fc"], "compute"))
    edges.append((_stream_event(mm.model.blocks[-1].index, "dense"), "final_fc"))
    return Schedule(events=tuple(events), edges=tuple(edges), occupancy=occ)


def _stream_event(source: int, stream: str) -> str:
    return "lookup" if source == 0 else f"b{source}.{stream}"


def simulate(
    mm: MappedModel,
    tp: TechParams,
    lookup_model: LookupModel | None = None,
    overlap: bool = True,
) -> ThroughputReport:
    """End-to-end latency and steady-state throughput for one mapped model."""
    if lookup_model is not None:
        lookup_lat = lookup_model.latencies
        first_lookup = lookup_lat[0] if lookup_lat else tp.t_bank
        worst_lookup = max(lookup_lat) if lookup_lat else tp.t_bank
    else:
        first_lookup = worst_lookup = tp.t_bank

    sched = schedule(mm, tp, overlap=overlap, lookup_time=first_lookup)
    latency = sched.end_time + tp.activation_time  # final functional-unit pass

    stages = dict(sched.occupancy)
    stages["lookup"] = worst_lookup
    bottleneck = max(stages, key=lambda k: (stages[k], k))
    bottleneck_time = stages[bottleneck]
    return ThroughputReport(
        latency=latency,
        throughput=1.0 / bottleneck_time,
        bottleneck_stage=bottleneck,
        bottleneck_time=bottleneck_time,
        stage_utilization={k: v / bottleneck_time for k, v in stages.items()},
    )
