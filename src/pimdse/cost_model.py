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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .crossbar import SUPPORTED_BITS
from .design_space import ReRAMConfig
from .mapping import DEFAULT_ACTIVATION_BITS, Engine, MappedModel, MappedOperator


@dataclass(frozen=True)
class TechParams:
    """Per-unit technology parameters; times/energies/areas in arbitrary units."""

    xbar_read_time: float       # per slice read
    xbar_write_time: float      # per programmed vector
    xbar_write_energy: float    # per programmed vector
    adc_time: float             # per conversion
    adc_energy: dict            # adc_bits -> energy per conversion
    adc_area: dict              # adc_bits -> area per ADC instance
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

    def __post_init__(self):
        numeric = [
            self.xbar_read_time, self.xbar_write_time, self.xbar_write_energy,
            self.adc_time, self.dac_energy, self.dac_area, self.cell_read_energy,
            self.cell_area, self.mbsa_time, self.mbsa_energy, self.mbsa_area,
            self.buffer_read_energy, self.buffer_write_energy,
            self.buffer_area_per_byte, self.t_bank, self.activation_time,
        ]
        if any(v <= 0 for v in numeric) or self.adcs_per_xbar < 1:
            raise ValueError("technology parameters must be positive")
        if self.controller_overhead_fraction < 0:
            raise ValueError("controller overhead must be nonnegative")
        for name, table in (("adc_energy", self.adc_energy), ("adc_area", self.adc_area)):
            missing = sorted(set(SUPPORTED_BITS["adc_bits"]) - set(table))
            if missing:
                raise ValueError(
                    f"{name} has no entry for adc_bits {missing} "
                    f"(every supported width {list(SUPPORTED_BITS['adc_bits'])} needs one)"
                )
            keys = sorted(table)
            vals = [table[k] for k in keys]
            if any(v <= 0 for v in vals) or any(a > b for a, b in zip(vals, vals[1:])):
                raise ValueError("ADC tables must be positive and nondecreasing in resolution")

    def scaled_times(self, c: float) -> "TechParams":
        """All time entries multiplied by c; used by scale-freeness checks."""
        return TechParams(
            xbar_read_time=self.xbar_read_time * c,
            xbar_write_time=self.xbar_write_time * c,
            xbar_write_energy=self.xbar_write_energy,
            adc_time=self.adc_time * c,
            adc_energy=dict(self.adc_energy),
            adc_area=dict(self.adc_area),
            dac_energy=self.dac_energy,
            dac_area=self.dac_area,
            cell_read_energy=self.cell_read_energy,
            cell_area=self.cell_area,
            mbsa_time=self.mbsa_time * c,
            mbsa_energy=self.mbsa_energy,
            mbsa_area=self.mbsa_area,
            buffer_read_energy=self.buffer_read_energy,
            buffer_write_energy=self.buffer_write_energy,
            buffer_area_per_byte=self.buffer_area_per_byte,
            controller_overhead_fraction=self.controller_overhead_fraction,
            adcs_per_xbar=self.adcs_per_xbar,
            t_bank=self.t_bank * c,
            activation_time=self.activation_time * c,
            label=self.label,
        )

    @staticmethod
    def from_dict(d: dict) -> "TechParams":
        d = dict(d)
        for key in ("adc_energy", "adc_area"):
            d[key] = {int(k): float(v) for k, v in d[key].items()}
        return TechParams(**d)

    @staticmethod
    def from_json(path: str) -> "TechParams":
        with open(path, "r", encoding="utf-8") as fh:
            return TechParams.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["adc_energy"] = {str(k): v for k, v in self.adc_energy.items()}
        d["adc_area"] = {str(k): v for k, v in self.adc_area.items()}
        return d


def default_tech() -> TechParams:
    text = resources.files("pimdse.data").joinpath("default_tech.json").read_text()
    return TechParams.from_dict(json.loads(text))


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
        return {
            "area": self.area,
            "energy_per_inference": self.energy_per_inference,
            "peak_power": self.peak_power,
            "op_latencies": dict(self.op_latencies),
            "stage_times": dict(self.stage_times),
            "bottleneck_stage": self.bottleneck_stage,
            "area_components": dict(self.area_components),
            "energy_components": dict(self.energy_components),
        }

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


def _n_slices(a_bits: int, reram: ReRAMConfig) -> int:
    return math.ceil(a_bits / reram.dac_bits)


def read_latency(mo: MappedOperator, tp: TechParams, reram: ReRAMConfig, a_bits: int) -> float:
    """Read-side latency of one leaf: bit-serial sweeps plus MBSA passes.

    Slices are ``ceil(a_bits / dac_bits)``; a tile converts at most
    ``xbar_size`` active columns."""
    active_cols = min(mo.out_dim * mo.planes * 2, reram.xbar_size)
    per_sweep = math.ceil(a_bits / reram.dac_bits) * (
        tp.xbar_read_time + math.ceil(active_cols / tp.adcs_per_xbar) * tp.adc_time
    )
    return mo.passes * per_sweep + mo.mbsa_passes * a_bits * tp.mbsa_time


def write_latency(mo: MappedOperator, tp: TechParams) -> float:
    return mo.programming_vectors * tp.xbar_write_time


def op_latency(
    mo: MappedOperator,
    tp: TechParams,
    reram: ReRAMConfig,
    a_bits: int = DEFAULT_ACTIVATION_BITS,
) -> float:
    """Serial latency of an operator (no cross-stage overlap applied)."""
    if mo.parts:
        return sum(op_latency(p, tp, reram, a_bits) for p in mo.parts)
    return read_latency(mo, tp, reram, a_bits) + write_latency(mo, tp)


def op_area(mo: MappedOperator, tp: TechParams, reram: ReRAMConfig) -> float:
    """Strict component sum: crossbar cells, converter shares, MBSA, buffer."""
    if mo.parts:
        return sum(op_area(p, tp, reram) for p in mo.parts)
    tiles = mo.row_tiles * mo.col_tiles
    per_tile = (
        reram.xbar_size**2 * tp.cell_area
        + tp.adcs_per_xbar * tp.adc_area[reram.adc_bits]
        + reram.xbar_size * tp.dac_area
    )
    area = tiles * per_tile
    if mo.mbsa_passes:
        area += tp.mbsa_area
    buffer_bytes = max(mo.in_dim, mo.out_dim) * DEFAULT_ACTIVATION_BITS / 8
    area += buffer_bytes * tp.buffer_area_per_byte
    return area


def op_energy(
    mo: MappedOperator,
    tp: TechParams,
    reram: ReRAMConfig,
    a_bits: int = DEFAULT_ACTIVATION_BITS,
) -> float:
    """Per-inference energy: conversions, cell reads, writes, buffer traffic."""
    if mo.parts:
        return sum(op_energy(p, tp, reram, a_bits) for p in mo.parts)
    n_slices = _n_slices(a_bits, reram)
    vcols = mo.out_dim * mo.planes * 2
    reads = mo.passes * n_slices
    energy = reads * (
        mo.in_dim * mo.col_tiles * tp.dac_energy          # every col tile re-drives its rows
        + mo.in_dim * vcols * tp.cell_read_energy          # occupied cells
        + vcols * mo.row_tiles * tp.adc_energy[reram.adc_bits]
    )
    energy += mo.programming_vectors * tp.xbar_write_energy
    energy += mo.mbsa_passes * a_bits * tp.mbsa_energy
    energy += mo.passes * (
        mo.in_dim * tp.buffer_read_energy + mo.out_dim * tp.buffer_write_energy
    )
    return energy


def overlap_ready_time(k: int, t_e: float, t_p: float) -> float:
    """Engine-ready time when programming vector j overlaps producing j+1.

    With k vectors, per-vector producer time t_e and program time t_p:
    ``t_e + (k - 1) * max(t_e, t_p) + t_p``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return t_e + (k - 1) * max(t_e, t_p) + t_p


def _engine_ready(
    t0: float,
    t_e: float,
    engine: MappedOperator,
    fc_out: MappedOperator,
    tp: TechParams,
    reram: ReRAMConfig,
) -> float:
    """``t0`` plus the overlapped programming train of a runtime-programmed
    engine (per-vector production time ``t_e``), its read and its trailing FC.

    The one engine-overlap formula, shared by :func:`stage_times` and
    :func:`pimdse.pipeline.schedule`. The sum is taken left to right from
    ``t0``; reordering it would move results in the last bit.
    """
    t = t0 + overlap_ready_time(engine.programming_vectors, t_e, tp.xbar_write_time)
    t = t + read_latency(engine, tp, reram, DEFAULT_ACTIVATION_BITS)
    return t + op_latency(fc_out, tp, reram)


def stage_times(mm: MappedModel, tp: TechParams, overlap: bool = True) -> dict[str, float]:
    """Per-operator pipeline-stage occupancy.

    With overlap enabled, runtime-programmed engines hide vector programming
    behind production: the DP engine overlaps its own front FC/EFC output
    stream, and the FM engine overlaps the sparse production of its source
    blocks (the stem stream counts the bank access time per vector).
    """
    return _stage_times(mm, tp, overlap, None)


def _stage_times(
    mm: MappedModel, tp: TechParams, overlap: bool, latencies: dict | None
) -> dict[str, float]:
    """:func:`stage_times`; an operator that is not overlapped occupies its
    stage for its serial ``op_latency``, read from ``latencies`` (op_id ->
    value) when given, so :func:`model_cost` computes each one once."""
    reram = mm.reram
    times: dict[str, float] = {}
    sparse_branch: dict[int, float] = {0: tp.t_bank}  # stem production = lookup
    for blk in mm.model.blocks:
        sparse_branch[blk.index] = 0.0

    MVM, DP = Engine.MVM, Engine.DP
    for op in mm.operators:
        if op.engine is MVM or not overlap:
            t = op_latency(op, tp, reram) if latencies is None else latencies[op.op_id]
        elif op.engine is DP:
            *front, engine, fc_out = op.parts
            produced = sum(read_latency(p, tp, reram, DEFAULT_ACTIVATION_BITS) for p in front)
            t_e = produced / engine.programming_vectors
            t = _engine_ready(0.0, t_e, engine, fc_out, tp, reram)
        else:  # FM: producers are the source blocks' sparse branches
            *_, engine, fc_out = op.parts
            produced = sum(
                sparse_branch[s] for s, stream in op.consumes if stream == "sparse"
            )
            t_e = produced / engine.programming_vectors
            # Occupancy counts from the first vector's arrival: the engine is
            # held through the arrival-limited programming train.
            t = _engine_ready(-t_e, t_e, engine, fc_out, tp, reram)
        times[op.op_id] = t
        if op.branch == "sparse" and op.block_index in sparse_branch:
            sparse_branch[op.block_index] += t
    return times


def model_cost(mm: MappedModel, tp: TechParams) -> CostReport:
    """Aggregate cost of a mapped model; every total is an exact component sum.

    Tile counts and engine widths are fixed when the model is mapped, so the
    mapping's own ReRAM configuration and activation width price them.
    """
    reram = mm.reram

    op_areas = {op.op_id: op_area(op, tp, reram) for op in mm.operators}
    op_energies = {op.op_id: op_energy(op, tp, reram) for op in mm.operators}
    latencies = {op.op_id: op_latency(op, tp, reram) for op in mm.operators}
    stages = _stage_times(mm, tp, True, latencies)

    memory_area = mm.tile_plan["memory_tiles"] * reram.xbar_size**2 * tp.cell_area
    cells_per_value = math.ceil(DEFAULT_ACTIVATION_BITS / reram.cell_bits)
    memory_energy = (
        mm.model.num_sparse_features
        * mm.model.embedding_dim
        * cells_per_value
        * tp.cell_read_energy
    )

    operator_area = sum(op_areas.values())
    operator_energy = sum(op_energies.values())
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
    peak_power = max(op_energies[k] / stages[k] for k in stages)

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
