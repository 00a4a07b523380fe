"""Stage-level behavioral simulation: embedding placement, bank conflicts,
and end-to-end latency/throughput with programming/production overlap.

Granularity is one stage per top-level operator (plus the embedding lookup
stage); stage occupancies come from :func:`pimdse.cost_model.stage_times`
so the throughput bottleneck reported here matches the cost model's by
construction. The occupancy is walked once per mapped model and technology
object and shared by :func:`~pimdse.cost_model.model_cost`,
:func:`simulate` and :func:`schedule`. :func:`simulate` derives throughput
from it alone; the stage timeline is built only when a latency is read.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

from .cost_model import TechParams, _engine_ready, priced_operators, stage_times
from .mapping import Engine, MappedModel, consumed_streams

ZIPF_ALPHA = 1.3  # Pareto exponent of the synthetic lookup trace's ranks


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
        per_bank = Counter(placement.bank_of(row_id) for row_id in query)
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
) -> LookupModel:
    """Synthetic skewed trace: one row per table per query, Zipf-ish ranks."""
    rng = random.Random(seed)
    trace = []
    for _ in range(num_queries):
        query = []
        for t in range(num_tables):
            rank = min(int(rng.paretovariate(ZIPF_ALPHA)), rows_per_table)
            query.append(f"t{t}:r{rank}")
        trace.append(tuple(query))
    placement = place_embeddings(Counter(row_id for query in trace for row_id in query), num_banks)
    return LookupModel(placement=placement, trace=tuple(trace), t_bank=t_bank)


class StageEvent(NamedTuple):
    """One stage's interval on the timeline; an immutable record."""

    stage_id: str
    start: float
    end: float
    kind: str  # lookup | compute | program


@dataclass(frozen=True)
class Schedule:
    events: tuple[StageEvent, ...]
    edges: tuple[tuple[str, str], ...]  # (producer event, consumer event)

    @property
    def end_time(self) -> float:
        return max(e.end for e in self.events)

    def to_dict(self) -> dict:
        return {
            "events": [e._asdict() for e in self.events],
            "edges": [list(e) for e in self.edges],
            "end_time": self.end_time,
        }


@dataclass
class ThroughputReport:
    """Steady-state throughput of one mapped model, from its stage occupancy."""

    throughput: float
    bottleneck_stage: str
    bottleneck_time: float
    stage_utilization: dict
    timeline_inputs: tuple = field(repr=False)  # (mm, tp, overlap, first lookup)

    @cached_property
    def latency(self) -> float:
        """End-to-end latency of one query, from a timeline built on first read."""
        mm, tp, overlap, lookup_time = self.timeline_inputs
        events = _timeline(mm, tp, overlap, lookup_time)
        return max(e.end for e in events) + tp.activation_time  # final functional-unit pass

    def __eq__(self, other) -> bool:
        """Equal when every reported value is, latency included."""
        if not isinstance(other, ThroughputReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()

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
    """Timeline of one query through the mapped model, with the mapping's
    data edges (the stem's streams are produced by the lookup).

    Each operator starts once every source stream is ready and holds its
    stage for its :func:`~pimdse.cost_model.stage_times` occupancy. With
    ``overlap`` an FM engine instead starts programming when the last of
    its source sparse branches starts, and ends at the shared
    engine-overlap formula; ``overlap=False`` serializes engine
    programming, for comparison. Dense branches pay one functional-unit
    activation pass; sparse branches pass through.
    """
    edges = tuple(("lookup" if src == "stem" else src, dst) for src, dst in mm.edges)
    return Schedule(events=_timeline(mm, tp, overlap, lookup_time), edges=edges)


def _timeline(
    mm: MappedModel, tp: TechParams, overlap: bool, lookup_time: float | None
) -> tuple[StageEvent, ...]:
    """The events of :func:`schedule`, without the edges, which
    :attr:`ThroughputReport.latency` does not read."""
    lookup_t = tp.t_bank if lookup_time is None else lookup_time
    occ = stage_times(mm, tp, overlap=overlap)

    events = [StageEvent("lookup", 0.0, lookup_t, "lookup")]
    dense_ready = {0: lookup_t}   # both stem streams are available post-lookup
    sparse_ready = {0: lookup_t}
    sparse_start = {0: 0.0}       # when stem production (the lookup) begins

    FM = Engine.FM
    placed = zip(mm.layout, mm.keys, priced_operators(mm, tp))
    for index, group in groupby(placed, key=lambda placed_op: placed_op[0][1]):  # by block index
        dense_ends, sparse_ends, branch_starts = [], [], []
        for (op_id, _, branch, inputs), key, p in group:
            if overlap and p.engine is FM:
                # Occupancy has no timeline, so it spreads the source
                # branches' summed production over the vectors. Here the
                # branches' start and end times are known, so the engine is
                # programmed across the observed production window instead;
                # eager programming can only improve on the serialized plan.
                k = p.programming_vectors
                start = max(sparse_start[s] for s in inputs)
                window = max(sparse_ready[s] for s in inputs) - start
                end = _engine_ready(start, window / k, k, p.tail, tp)
            else:
                start = max(
                    (dense_ready if stream == "dense" else sparse_ready)[s]
                    for s, stream in consumed_streams(key[0], inputs)
                )
                end = start + occ[op_id]
            events.append(StageEvent(op_id, start, end, "compute"))
            if branch == "dense":
                dense_ends.append(end)
            else:
                sparse_ends.append(end)
                branch_starts.append(start)
        dense_ready[index] = max(dense_ends) + tp.activation_time
        if sparse_ends:  # the final FC's group has none
            sparse_ready[index] = max(sparse_ends)
            sparse_start[index] = min(branch_starts)
    return tuple(events)


def simulate(
    mm: MappedModel,
    tp: TechParams,
    lookup_model: LookupModel | None = None,
    overlap: bool = True,
) -> ThroughputReport:
    """Steady-state throughput and end-to-end latency for one mapped model.

    Throughput, bottleneck and utilization come from the stage occupancy
    alone; the timeline is built only when the report's ``latency`` is
    first read.
    """
    lookup_lat = lookup_model.latencies if lookup_model is not None else ()
    first_lookup = lookup_lat[0] if lookup_lat else tp.t_bank
    worst_lookup = max(lookup_lat) if lookup_lat else tp.t_bank

    stages = stage_times(mm, tp, overlap=overlap)
    stages["lookup"] = worst_lookup
    bottleneck = max(stages, key=lambda k: (stages[k], k))
    bottleneck_time = stages[bottleneck]
    return ThroughputReport(
        throughput=1.0 / bottleneck_time,
        bottleneck_stage=bottleneck,
        bottleneck_time=bottleneck_time,
        stage_utilization={k: v / bottleneck_time for k, v in stages.items()},
        timeline_inputs=(mm, tp, overlap, first_lookup),
    )
