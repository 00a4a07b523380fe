"""Analytic area / energy / latency estimation for mapped models.

All numbers come from a user-supplied technology table; the shipped default
profile is illustrative only, so meaningful results are ratios and
invariances (additivity, monotonicity, time-scale-freeness), never absolute
values.

Latency model per weight-stationary read sweep:
``n_slices * (xbar_read_time + ceil(active_cols / adcs_per_xbar) * adc_time)``
with ``n_slices = ceil(a_bits / dac_bits)``. Parallel tiles count once on
the critical path; sequential partial-sum accumulation is folded into the
controller overhead fraction. Runtime-programmed engines add one
``xbar_write_time`` per programmed vector (overlappable, see
:func:`stage_times`), and the MBSA unit adds ``a_bits * mbsa_time`` per
squaring pass.

An operator's price is counts times unit costs, so it depends on the
operator's shape and the technology table alone, never on where the
operator sits in the model. Every model is therefore priced one way, by
:func:`priced_operators`: each of its shape keys is looked up in the
:class:`TechParams` object's operator table, a bounded
``functools.lru_cache``, and only a shape the table does not hold is
priced into it, from the key's :func:`pimdse.mapping.leaf_plan`.
:func:`model_cost`, :func:`stage_times` and :func:`pimdse.pipeline.schedule`
read those entries, and take placement from the
:attr:`pimdse.mapping.MappedModel.layout` that :func:`pimdse.mapping.map_model` records.

A model keeps its prices and its stage occupancy, walked once per overlap
setting, for the last technology object it was priced under:
:func:`model_cost`, :func:`pimdse.pipeline.simulate` and
:func:`pimdse.pipeline.schedule` all read them from there.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, lru_cache
from importlib import resources
from typing import NamedTuple

from .crossbar import SUPPORTED_BITS
from .design_space import ReRAMConfig, _field_state, from_plain
from .mapping import (
    DEFAULT_ACTIVATION_BITS,
    ENGINE_OF,
    Engine,
    MappedModel,
    MappedOperator,
    _tile_counts,
    leaf_plan,
)


@dataclass(frozen=True)
class TechParams:
    """Per-unit technology parameters; times/energies/areas in arbitrary units."""

    xbar_read_time: float       # per slice read
    xbar_write_time: float      # per programmed vector
    xbar_write_energy: float    # per programmed vector
    adc_time: float             # per conversion
    adc_energy: dict[int, float]  # adc_bits -> energy per conversion
    adc_area: dict[int, float]    # adc_bits -> area per ADC instance
    dac_energy: float           # per row drive per slice
    dac_area: float             # per row driver
    cell_read_energy: float     # per occupied cell per slice read
    cell_area: float            # per crossbar cell
    mbsa_time: float            # per bit pass
    mbsa_energy: float          # per bit pass
    mbsa_area: float            # per MBSA unit
    buffer_read_energy: float   # per word
    buffer_write_energy: float  # per word
    buffer_area_per_byte: float
    controller_overhead_fraction: float
    adcs_per_xbar: int
    t_bank: float               # memory-tile bank access time
    activation_time: float      # functional-unit pass after a dense branch
    label: str = ""

    __getstate__ = _field_state

    def __post_init__(self):
        numeric = [
            self.xbar_read_time, self.xbar_write_time, self.xbar_write_energy,
            self.adc_time, self.dac_energy, self.dac_area, self.cell_read_energy,
            self.cell_area, self.mbsa_time, self.mbsa_energy, self.mbsa_area,
            self.buffer_read_energy, self.buffer_write_energy,
            self.buffer_area_per_byte, self.t_bank, self.activation_time, self.adcs_per_xbar,
        ]
        # Written so that NaN, which fails every comparison, fails them too.
        if not all(0 < v < math.inf for v in numeric):
            raise ValueError("technology parameters must be positive and finite")
        if type(self.adcs_per_xbar) is not int:  # a positive int, so at least 1
            raise ValueError(f"adcs_per_xbar must be an int, got {self.adcs_per_xbar!r}")
        if not 0 <= self.controller_overhead_fraction < math.inf:
            raise ValueError("controller overhead must be nonnegative and finite")
        for name, table in (("adc_energy", self.adc_energy), ("adc_area", self.adc_area)):
            missing = sorted(set(SUPPORTED_BITS["adc_bits"]) - set(table))
            if missing:
                raise ValueError(
                    f"{name} has no entry for adc_bits {missing} "
                    f"(every supported width {list(SUPPORTED_BITS['adc_bits'])} needs one)"
                )
            keys = sorted(table)
            vals = [table[k] for k in keys]
            if not all(0 < v < math.inf for v in vals) or any(a > b for a, b in zip(vals, vals[1:])):
                raise ValueError(
                    "ADC tables must be positive, finite and nondecreasing in resolution"
                )

    def scaled_times(self, c: float) -> "TechParams":
        """All time entries multiplied by c; used by scale-freeness checks.

        A new object, so its operator table starts empty."""
        return replace(self, **{name: getattr(self, name) * c for name in _TIME_FIELDS})

    @cached_property
    def operator_table(self):
        """The operators priced under this object: a ``functools.lru_cache``
        of :func:`_price_shape` by shape key, filled by
        :func:`priced_operators` and bounded by ``OPERATOR_TABLE_SIZE`` as
        it stands when the table is first read; ``cache_info()`` gives its
        hits, misses and size. Kept outside the dataclass fields, so it is
        never compared, serialized, pickled or copied (by ``replace`` or
        ``copy``): a copy starts with an empty table of its own."""
        return lru_cache(OPERATOR_TABLE_SIZE)(lambda key: _price_shape(self, key))

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["adc_energy"] = {str(k): v for k, v in self.adc_energy.items()}
        d["adc_area"] = {str(k): v for k, v in self.adc_area.items()}
        return d


_TIME_FIELDS = (
    "xbar_read_time", "xbar_write_time", "adc_time", "mbsa_time", "t_bank", "activation_time",
)


def default_tech() -> TechParams:
    text = resources.files("pimdse.data").joinpath("default_tech.json").read_text()
    return from_plain(TechParams, json.loads(text))


@dataclass
class CostReport:
    area: float
    energy_per_inference: float
    peak_power: float
    op_latencies: dict
    stage_times: dict
    bottleneck_stage: str
    area_components: dict
    energy_components: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        """Flat metric,value rows (operator latencies one row each)."""
        lines = ["metric,value"]
        lines.append(f"area,{self.area!r}")
        lines.append(f"energy_per_inference,{self.energy_per_inference!r}")
        lines.append(f"peak_power,{self.peak_power!r}")
        lines.append(f"bottleneck_stage,{self.bottleneck_stage}")
        for op_id in sorted(self.op_latencies):
            lines.append(f"latency.{op_id},{self.op_latencies[op_id]!r}")
        return "\n".join(lines) + "\n"


def _leaf_costs(
    in_dim: int, out_dim: int, planes: int, row_tiles: int, col_tiles: int,
    passes: int, vectors: int, mbsa_passes: int, tp: TechParams, reram_key: tuple,
) -> tuple[float, float, float, float]:
    """``(area, energy, read latency, write latency)`` of one leaf, from
    its counts times the per-unit table entries; every price is summed from
    here. ``reram_key`` is a key's last four values, ``(dac_bits,
    cell_bits, xbar_size, adc_bits)``.

    Area is a strict component sum: crossbar cells, converter shares, MBSA
    and buffer. Energy counts conversions, cell reads, writes and buffer
    traffic. The read side is bit-serial sweeps plus MBSA passes: slices
    are ``ceil(a_bits / dac_bits)`` at the activation width, and a tile
    converts at most ``xbar_size`` active columns. The write side is one
    write per runtime-programmed vector.
    """
    dac_bits, _, xbar_size, adc_bits = reram_key
    a_bits = DEFAULT_ACTIVATION_BITS
    n_slices = math.ceil(a_bits / dac_bits)
    vcols = out_dim * planes * 2

    tiles = row_tiles * col_tiles
    per_tile = (
        xbar_size**2 * tp.cell_area
        + tp.adcs_per_xbar * tp.adc_area[adc_bits]
        + xbar_size * tp.dac_area
    )
    area = tiles * per_tile
    if mbsa_passes:
        area += tp.mbsa_area
    buffer_bytes = max(in_dim, out_dim) * DEFAULT_ACTIVATION_BITS / 8
    area += buffer_bytes * tp.buffer_area_per_byte

    reads = passes * n_slices
    energy = reads * (
        in_dim * col_tiles * tp.dac_energy          # every col tile re-drives its rows
        + in_dim * vcols * tp.cell_read_energy      # occupied cells
        + vcols * row_tiles * tp.adc_energy[adc_bits]
    )
    energy += vectors * tp.xbar_write_energy
    energy += mbsa_passes * a_bits * tp.mbsa_energy
    energy += passes * (in_dim * tp.buffer_read_energy + out_dim * tp.buffer_write_energy)

    active_cols = min(vcols, xbar_size)
    per_sweep = n_slices * (
        tp.xbar_read_time + math.ceil(active_cols / tp.adcs_per_xbar) * tp.adc_time
    )
    read = passes * per_sweep + mbsa_passes * a_bits * tp.mbsa_time
    write = vectors * tp.xbar_write_time
    return area, energy, read, write


def overlap_ready_time(k: int, t_e: float, t_p: float) -> float:
    """Engine-ready time when programming vector j overlaps producing j+1.

    With k vectors, per-vector producer time t_e and program time t_p:
    ``t_e + (k - 1) * max(t_e, t_p) + t_p``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return t_e + (k - 1) * max(t_e, t_p) + t_p


def _engine_ready(t0: float, t_e: float, k: int, tail: tuple[float, float], tp: TechParams) -> float:
    """``t0`` plus the overlapped programming train of ``k`` engine vectors
    (per-vector production time ``t_e``), then the engine's read and its
    trailing FC, ``tail`` as kept by :class:`PricedOperator`.

    The one engine-overlap formula, shared by :func:`stage_times` and
    :func:`pimdse.pipeline.schedule`. The sum is taken left to right from
    ``t0``; reordering it would move results in the last bit.
    """
    read, fc_out = tail
    t = t0 + overlap_ready_time(k, t_e, tp.xbar_write_time)
    return t + read + fc_out


# ---------------------------------------------------------------------------
# priced operators and the per-technology operator table
# ---------------------------------------------------------------------------

OPERATOR_TABLE_SIZE = 1024  # entries per table, read as it is built; least recently used goes first


class PricedOperator(NamedTuple):
    """One operator shape's prices under one technology table, with the two
    shape values its occupancy and timeline read; placement is not part of
    it, and neither is a shape record."""

    engine: Engine
    programming_vectors: int  # runtime-programmed vectors of a DP/FM engine; 0 for MVM
    area: float
    energy: float
    latency: float           # serial latency: every leaf's read plus write
    occupancy: float | None  # overlapped stage occupancy; None for FM (see price_operator)
    tail: tuple[float, float] = ()  # DP/FM: engine read, trailing FC latency


def _priced(engine: Engine, vectors: int, costs: list, tp: TechParams) -> PricedOperator:
    """An operator's prices from its leaves' :func:`_leaf_costs`, listed in
    part order: a leaf's own, or a composite's sums, taken in part order.
    ``vectors`` are the operator's runtime-programmed vectors."""
    if len(costs) == 1:
        area, energy, read, write = costs[0]
        latency = read + write
        return PricedOperator(engine, vectors, area, energy, latency, latency)
    latencies = [read + write for _, _, read, write in costs]  # (*front, engine, fc_out)
    area = sum(c[0] for c in costs)
    energy = sum(c[1] for c in costs)
    latency = sum(latencies)
    tail = (costs[-2][2], latencies[-1])  # the engine's read, the trailing FC
    if engine is Engine.FM:
        return PricedOperator(engine, vectors, area, energy, latency, None, tail)
    t_e = sum(c[2] for c in costs[:-2]) / vectors  # DP: the front FC/EFC reads
    occupancy = _engine_ready(0.0, t_e, vectors, tail, tp)
    return PricedOperator(engine, vectors, area, energy, latency, occupancy, tail)


def price_operator(op: MappedOperator, tp: TechParams, reram: ReRAMConfig) -> PricedOperator:
    """Area, energy, serial latency and, where it depends on the operator
    alone, overlapped stage occupancy of a shape record: an MVM stage is
    held for its serial latency, and a DP engine overlaps its own front
    FC/EFC output stream. An FM engine overlaps its source blocks' sparse
    production, so its occupancy is computed per model by
    :func:`stage_times`.

    Each leaf is costed once by :func:`_leaf_costs`, from the record's own
    counts; a table miss prices a key's leaf plan the same way.
    """
    reram_key = (reram.dac_bits, reram.cell_bits, reram.xbar_size, reram.adc_bits)
    costs = [
        _leaf_costs(
            leaf.in_dim, leaf.out_dim, leaf.planes, leaf.row_tiles, leaf.col_tiles,
            leaf.passes, leaf.programming_vectors, leaf.mbsa_passes, tp, reram_key,
        )
        for leaf in op.leaves()
    ]
    return _priced(op.engine, op.programming_vectors, costs, tp)


def _price_shape(tp: TechParams, key: tuple) -> PricedOperator:
    """A table miss: the :func:`pimdse.mapping.leaf_plan` of one
    :func:`pimdse.mapping.map_model` key, tiled for the ReRAM configuration
    its last four values name ``(dac_bits, cell_bits, xbar_size,
    adc_bits)`` and priced under ``tp``, with no record built.

    The key is all pricing reads, so a hit gives exactly what pricing
    afresh would, and exactly what :func:`price_operator` gives for the
    key's :func:`pimdse.mapping.map_shape` record: operators of one shape
    share an entry wherever they sit.
    """
    reram_key = key[-4:]
    _, cell_bits, xbar_size, _ = reram_key
    plan = leaf_plan(key)
    costs = [
        _leaf_costs(
            in_dim, out_dim, *_tile_counts(in_dim, out_dim, w_bits, cell_bits, xbar_size),
            passes, vectors, mbsa_passes, tp, reram_key,
        )
        for in_dim, out_dim, w_bits, passes, vectors, mbsa_passes in plan
    ]
    vectors = plan[-2][4] if len(plan) > 1 else 0  # a composite programs its engine; a leaf is an MVM
    return _priced(ENGINE_OF[key[0]], vectors, costs, tp)


def priced_operators(mm: MappedModel, tp: TechParams) -> tuple[PricedOperator, ...]:
    """Every operator shape of ``mm`` priced under ``tp``, in operator
    order: each key's entry in ``tp``'s operator table, mapped and priced
    into it on a miss. The model keeps one memo slot beside its fields, as
    ``cached_property`` stores: ``(tp, priced, {overlap: stage times})``
    for the last technology object (by identity) it was priced under."""
    memo = mm.__dict__.get("_priced")
    if memo is None or memo[0] is not tp:
        # Through a list: a tuple of known length reuses the tuples freed by
        # earlier models, where tuple(map(...)) grows its own and leaves them
        # idle in the interpreter's free lists, raising peak memory.
        memo = mm.__dict__["_priced"] = (tp, tuple([*map(tp.operator_table, mm.keys)]), {})
    return memo[1]


def stage_times(mm: MappedModel, tp: TechParams, overlap: bool = True) -> dict[str, float]:
    """Per-operator pipeline-stage occupancy.

    With overlap enabled, runtime-programmed engines hide vector programming
    behind production: the DP engine overlaps its own front FC/EFC output
    stream, and the FM engine overlaps the sparse production of its source
    blocks (the stem stream counts the bank access time per vector).
    Without it, every operator occupies its stage for its serial latency.

    The occupancy is walked once per model, technology object and
    ``overlap``, and kept in the model's memo slot beside its prices; every
    call returns a copy, so a caller may change the mapping it gets.
    """
    priced = priced_operators(mm, tp)
    times = mm.__dict__["_priced"][2]
    if overlap not in times:
        times[overlap] = _occupancy_walk(mm, tp, overlap, priced)
    return dict(times[overlap])


def _occupancy_walk(mm: MappedModel, tp: TechParams, overlap: bool, priced: tuple) -> dict[str, float]:
    times: dict[str, float] = {}
    sparse_branch: dict[int, float] = {0: tp.t_bank}  # stem production = lookup
    for (op_id, block_index, branch, inputs), p in zip(mm.layout, priced):
        if not overlap:
            t = p.latency
        elif p.occupancy is not None:
            t = p.occupancy
        else:  # FM: producers are the source blocks' sparse branches
            k = p.programming_vectors
            t_e = sum(sparse_branch[s] for s in inputs) / k
            # Occupancy counts from the first vector's arrival: the engine is
            # held through the arrival-limited programming train.
            t = _engine_ready(-t_e, t_e, k, p.tail, tp)
        times[op_id] = t
        if branch == "sparse":
            sparse_branch[block_index] = sparse_branch.get(block_index, 0.0) + t
    return times


def model_cost(mm: MappedModel, tp: TechParams) -> CostReport:
    """Aggregate cost of a mapped model; every total is an exact component sum.

    Tile counts and engine widths are fixed when the model is mapped, so the
    mapping's own ReRAM configuration and activation width price them.
    """
    reram = mm.reram
    priced = priced_operators(mm, tp)
    stages = stage_times(mm, tp)  # keyed by op_id, in operator order
    latencies = {op_id: p.latency for op_id, p in zip(stages, priced)}

    memory_area = mm.memory_tiles * reram.xbar_size**2 * tp.cell_area
    cells_per_value = math.ceil(DEFAULT_ACTIVATION_BITS / reram.cell_bits)
    memory_energy = (
        mm.model.num_sparse_features
        * mm.model.embedding_dim
        * cells_per_value
        * tp.cell_read_energy
    )

    operator_area = sum(p.area for p in priced)
    operator_energy = sum(p.energy for p in priced)
    controller_area = tp.controller_overhead_fraction * (operator_area + memory_area)
    controller_energy = tp.controller_overhead_fraction * (operator_energy + memory_energy)

    area_components = {
        "operators": operator_area,
        "memory": memory_area,
        "controller": controller_area,
    }
    energy_components = {
        "operators": operator_energy,
        "memory": memory_energy,
        "controller": controller_energy,
    }

    bottleneck = max(stages, key=lambda k: (stages[k], k))
    peak_power = max(p.energy / t for p, t in zip(priced, stages.values()))

    return CostReport(
        area=sum(area_components.values()),
        energy_per_inference=sum(energy_components.values()),
        peak_power=peak_power,
        op_latencies=latencies,
        stage_times=stages,
        bottleneck_stage=bottleneck,
        area_components=area_components,
        energy_components=energy_components,
    )
