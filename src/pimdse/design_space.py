"""Joint model / quantization / ReRAM design space.

Defines the searchable configuration types, validates them, samples and
mutates them deterministically, and counts the space exactly.

Conventions baked into this module (documented in ``cardinality_report``):

* A model is ``num_blocks`` choice blocks followed by a final FC layer.
* Each block has a dense branch and a sparse branch. Dense-branch operators
  produce dense vectors (FC, DP, FM); sparse-branch operators produce sparse
  feature matrices (EFC, DSI). Both branches must be nonempty.
* Connections are operator-wise: every operator instance selects its own
  nonempty set of input sources from {stem} + earlier blocks. Source index
  0 is the input stem; blocks are 1-based.
* Weight bits are chosen per operator instance (and for the final FC).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from .crossbar import SUPPORTED_BITS

STEM = 0  # source index of the input stem


class OperatorKind(str, Enum):
    FC = "FC"    # fully connected, dense -> dense
    EFC = "EFC"  # embedded FC over the sparse feature-count axis
    DP = "DP"    # dot-product interaction, dense+sparse -> dense
    DSI = "DSI"  # dense-to-sparse merger (FC + reshape)
    FM = "FM"    # factorization machine, sparse -> dense


DENSE_KINDS = (OperatorKind.FC, OperatorKind.DP, OperatorKind.FM)
SPARSE_KINDS = (OperatorKind.EFC, OperatorKind.DSI)
# Operators that fuse information across the dense/sparse boundary.
INTERACTION_KINDS = (OperatorKind.DP, OperatorKind.FM, OperatorKind.DSI)

MUTATION_ACTIONS = (
    "swap-dense-op",
    "swap-sparse-op",
    "change-dim-d",
    "change-dim-s",
    "rewire-connection",
    "toggle-interaction-op",
    "change-weight-bits",
    "change-reram-field",
)

MUTATION_RETRIES = 16  # redraws per requested mutation before giving up


@dataclass(frozen=True)
class OperatorChoice:
    """One operator instance inside a block branch."""

    kind: OperatorKind
    weight_bits: int
    inputs: tuple[int, ...]  # sorted source indices, 0 = stem

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "weight_bits": self.weight_bits,
            "inputs": list(self.inputs),
        }

    @staticmethod
    def from_dict(d: dict) -> "OperatorChoice":
        return OperatorChoice(
            kind=OperatorKind(d["kind"]),
            weight_bits=int(d["weight_bits"]),
            inputs=tuple(sorted(int(x) for x in d["inputs"])),
        )


@dataclass(frozen=True)
class BlockConfig:
    index: int  # 1-based position
    dim_d: int  # dense feature dimension
    dim_s: int  # sparse feature dimension
    dense_ops: tuple[OperatorChoice, ...]
    sparse_ops: tuple[OperatorChoice, ...]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "dim_d": self.dim_d,
            "dim_s": self.dim_s,
            "dense_ops": [op.to_dict() for op in self.dense_ops],
            "sparse_ops": [op.to_dict() for op in self.sparse_ops],
        }

    @staticmethod
    def from_dict(d: dict) -> "BlockConfig":
        return BlockConfig(
            index=int(d["index"]),
            dim_d=int(d["dim_d"]),
            dim_s=int(d["dim_s"]),
            dense_ops=_sort_ops(OperatorChoice.from_dict(x) for x in d["dense_ops"]),
            sparse_ops=_sort_ops(OperatorChoice.from_dict(x) for x in d["sparse_ops"]),
        )


@dataclass(frozen=True)
class ModelConfig:
    blocks: tuple[BlockConfig, ...]
    final_fc_bits: int
    num_sparse_features: int  # count of input embedding tables
    embedding_dim: int        # width of input embeddings (and of the stem dense vector)

    def to_dict(self) -> dict:
        return {
            "blocks": [b.to_dict() for b in self.blocks],
            "final_fc_bits": self.final_fc_bits,
            "num_sparse_features": self.num_sparse_features,
            "embedding_dim": self.embedding_dim,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(
            blocks=tuple(BlockConfig.from_dict(b) for b in d["blocks"]),
            final_fc_bits=int(d["final_fc_bits"]),
            num_sparse_features=int(d["num_sparse_features"]),
            embedding_dim=int(d["embedding_dim"]),
        )


@dataclass(frozen=True)
class ReRAMConfig:
    dac_bits: int
    cell_bits: int
    xbar_size: int
    adc_bits: int

    def to_dict(self) -> dict:
        return {
            "dac_bits": self.dac_bits,
            "cell_bits": self.cell_bits,
            "xbar_size": self.xbar_size,
            "adc_bits": self.adc_bits,
        }

    @staticmethod
    def from_dict(d: dict) -> "ReRAMConfig":
        return ReRAMConfig(
            dac_bits=int(d["dac_bits"]),
            cell_bits=int(d["cell_bits"]),
            xbar_size=int(d["xbar_size"]),
            adc_bits=int(d["adc_bits"]),
        )


@dataclass(frozen=True)
class DesignPoint:
    model: ModelConfig
    reram: ReRAMConfig

    @cached_property
    def point_id(self) -> str:
        """Stable content hash: SHA-256 of the canonical JSON document.

        Computed once per object; a frozen point cannot change under it."""
        return hashlib.sha256(canonical_json(self).encode("ascii")).hexdigest()

    def to_dict(self) -> dict:
        return {"model": self.model.to_dict(), "reram": self.reram.to_dict()}

    @staticmethod
    def from_dict(d: dict) -> "DesignPoint":
        return DesignPoint(
            model=ModelConfig.from_dict(d["model"]),
            reram=ReRAMConfig.from_dict(d["reram"]),
        )


@dataclass(frozen=True)
class SpaceDescriptor:
    """Menus of allowed values, mirroring the searchable configuration table."""

    num_blocks: int = 7
    dense_operators: tuple[OperatorKind, ...] = DENSE_KINDS
    sparse_operators: tuple[OperatorKind, ...] = SPARSE_KINDS
    dense_dims: tuple[int, ...] = (16, 32, 64, 128, 256, 512, 768, 1024)
    sparse_dims: tuple[int, ...] = (16, 32, 48, 64)
    weight_bits: tuple[int, ...] = (4, 8)
    dac_bits: tuple[int, ...] = (1, 2)
    cell_bits: tuple[int, ...] = (1, 2)
    xbar_sizes: tuple[int, ...] = (16, 32, 64)
    adc_bits: tuple[int, ...] = (4, 6, 8)
    num_sparse_features: int = 26
    embedding_dim: int = 16

    def __post_init__(self):
        """Reject menus that would only fail later, inside mapping or costing."""
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        for name in SUPPORTED_BITS:
            unsupported = sorted(set(getattr(self, name)) - set(SUPPORTED_BITS[name]))
            if unsupported:
                raise ValueError(
                    f"{name} {unsupported} not supported by the crossbar "
                    f"(supported: {list(SUPPORTED_BITS[name])})"
                )

    def to_dict(self) -> dict:
        return {
            "num_blocks": self.num_blocks,
            "dense_operators": [k.value for k in self.dense_operators],
            "sparse_operators": [k.value for k in self.sparse_operators],
            "dense_dims": list(self.dense_dims),
            "sparse_dims": list(self.sparse_dims),
            "weight_bits": list(self.weight_bits),
            "dac_bits": list(self.dac_bits),
            "cell_bits": list(self.cell_bits),
            "xbar_sizes": list(self.xbar_sizes),
            "adc_bits": list(self.adc_bits),
            "num_sparse_features": self.num_sparse_features,
            "embedding_dim": self.embedding_dim,
        }

    @staticmethod
    def from_dict(d: dict) -> "SpaceDescriptor":
        base = SpaceDescriptor()
        return SpaceDescriptor(
            num_blocks=int(d.get("num_blocks", base.num_blocks)),
            dense_operators=tuple(
                OperatorKind(k) for k in d.get("dense_operators", [k.value for k in base.dense_operators])
            ),
            sparse_operators=tuple(
                OperatorKind(k) for k in d.get("sparse_operators", [k.value for k in base.sparse_operators])
            ),
            dense_dims=tuple(int(x) for x in d.get("dense_dims", base.dense_dims)),
            sparse_dims=tuple(int(x) for x in d.get("sparse_dims", base.sparse_dims)),
            weight_bits=tuple(int(x) for x in d.get("weight_bits", base.weight_bits)),
            dac_bits=tuple(int(x) for x in d.get("dac_bits", base.dac_bits)),
            cell_bits=tuple(int(x) for x in d.get("cell_bits", base.cell_bits)),
            xbar_sizes=tuple(int(x) for x in d.get("xbar_sizes", base.xbar_sizes)),
            adc_bits=tuple(int(x) for x in d.get("adc_bits", base.adc_bits)),
            num_sparse_features=int(d.get("num_sparse_features", base.num_sparse_features)),
            embedding_dim=int(d.get("embedding_dim", base.embedding_dim)),
        )

    @staticmethod
    def from_json(path: str) -> "SpaceDescriptor":
        with open(path, "r", encoding="utf-8") as fh:
            return SpaceDescriptor.from_dict(json.load(fh))


DEFAULT_SPACE = SpaceDescriptor()


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def _sort_ops(ops: Iterable[OperatorChoice]) -> tuple[OperatorChoice, ...]:
    return tuple(sorted(ops, key=lambda o: o.kind.value))


def canonical_json(point: DesignPoint) -> str:
    """Canonical serialized form: sorted keys, no whitespace, ASCII only."""
    return json.dumps(point.to_dict(), sort_keys=True, separators=(",", ":"))


def point_from_json(text: str) -> DesignPoint:
    return DesignPoint.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(point: DesignPoint, space: SpaceDescriptor = DEFAULT_SPACE) -> ValidationReport:
    """Check every structural invariant; violations are data, not exceptions."""
    v: list[str] = []
    model, reram = point.model, point.reram

    if len(model.blocks) != space.num_blocks:
        v.append(f"model: expected {space.num_blocks} blocks, got {len(model.blocks)}")
    if model.final_fc_bits not in space.weight_bits:
        v.append(f"final_fc: weight_bits {model.final_fc_bits} not in menu")
    if model.num_sparse_features < 1:
        v.append("model: num_sparse_features must be >= 1")
    if model.embedding_dim < 1:
        v.append("model: embedding_dim must be >= 1")

    for pos, blk in enumerate(model.blocks, start=1):
        name = f"block {pos}"
        if blk.index != pos:
            v.append(f"{name}: index {blk.index} out of order")
        if blk.dim_d not in space.dense_dims:
            v.append(f"{name}: dim_d {blk.dim_d} not in menu")
        if blk.dim_s not in space.sparse_dims:
            v.append(f"{name}: dim_s {blk.dim_s} not in menu")
        if not blk.dense_ops:
            v.append(f"{name}: dense branch empty")
        if not blk.sparse_ops:
            v.append(f"{name}: sparse branch empty")
        for branch, ops, menu in (
            ("dense", blk.dense_ops, space.dense_operators),
            ("sparse", blk.sparse_ops, space.sparse_operators),
        ):
            kinds = [op.kind for op in ops]
            if len(set(kinds)) != len(kinds):
                v.append(f"{name}: duplicate operator in {branch} branch")
            for op in ops:
                if op.kind not in menu:
                    v.append(f"{name}: {op.kind.value} not allowed in {branch} branch")
                if op.weight_bits not in space.weight_bits:
                    v.append(f"{name}: {op.kind.value} weight_bits {op.weight_bits} not in menu")
                if not op.inputs:
                    v.append(f"{name}: {op.kind.value} has no inputs")
                if len(set(op.inputs)) != len(op.inputs):
                    v.append(f"{name}: {op.kind.value} has duplicate inputs")
                for s in op.inputs:
                    if not (0 <= s < pos):
                        v.append(f"{name}: {op.kind.value} input {s} violates DAG order")
                if op.kind is OperatorKind.FM and model.num_sparse_features * len(op.inputs) < 2:
                    v.append(f"{name}: FM needs at least two incoming sparse vectors")

    if reram.dac_bits not in space.dac_bits:
        v.append(f"reram: dac_bits {reram.dac_bits} not in menu")
    if reram.cell_bits not in space.cell_bits:
        v.append(f"reram: cell_bits {reram.cell_bits} not in menu")
    if reram.xbar_size not in space.xbar_sizes:
        v.append(f"reram: xbar_size {reram.xbar_size} not in menu")
    if reram.adc_bits not in space.adc_bits:
        v.append(f"reram: adc_bits {reram.adc_bits} not in menu")
    if reram.adc_bits < reram.dac_bits + reram.cell_bits:
        v.append("reram: adc_bits < dac_bits + cell_bits")

    return ValidationReport(ok=not v, violations=v)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _random_subset(rng: random.Random, n: int) -> tuple[int, ...]:
    """Uniform nonempty subset of range(n), as a sorted index tuple."""
    mask = rng.randrange(1, 1 << n)
    return tuple(i for i in range(n) if mask >> i & 1)


def _random_branch(
    rng: random.Random,
    menu: Sequence[OperatorKind],
    n_sources: int,
    bits_menu: Sequence[int],
) -> tuple[OperatorChoice, ...]:
    present_mask = rng.randrange(1, 1 << len(menu))
    ops = []
    for i, kind in enumerate(menu):
        if not present_mask >> i & 1:
            continue
        ops.append(
            OperatorChoice(
                kind=kind,
                weight_bits=rng.choice(list(bits_menu)),
                inputs=_random_subset(rng, n_sources),
            )
        )
    return _sort_ops(ops)


def sample_random(seed: int, space: SpaceDescriptor = DEFAULT_SPACE) -> DesignPoint:
    """Draw a valid point; identical seed gives an identical point."""
    rng = random.Random(seed)
    blocks = []
    for i in range(1, space.num_blocks + 1):
        blocks.append(
            BlockConfig(
                index=i,
                dim_d=rng.choice(list(space.dense_dims)),
                dim_s=rng.choice(list(space.sparse_dims)),
                dense_ops=_random_branch(rng, space.dense_operators, i, space.weight_bits),
                sparse_ops=_random_branch(rng, space.sparse_operators, i, space.weight_bits),
            )
        )
    for _ in range(64):  # menu combinations may be infeasible in custom spaces
        reram = ReRAMConfig(
            dac_bits=rng.choice(list(space.dac_bits)),
            cell_bits=rng.choice(list(space.cell_bits)),
            xbar_size=rng.choice(list(space.xbar_sizes)),
            adc_bits=rng.choice(list(space.adc_bits)),
        )
        if reram.adc_bits >= reram.dac_bits + reram.cell_bits:
            break
    model = ModelConfig(
        blocks=tuple(blocks),
        final_fc_bits=rng.choice(list(space.weight_bits)),
        num_sparse_features=space.num_sparse_features,
        embedding_dim=space.embedding_dim,
    )
    return DesignPoint(model=model, reram=reram)


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------

def _replace_block(point: DesignPoint, blk: BlockConfig) -> DesignPoint:
    blocks = tuple(blk if b.index == blk.index else b for b in point.model.blocks)
    model = ModelConfig(
        blocks=blocks,
        final_fc_bits=point.model.final_fc_bits,
        num_sparse_features=point.model.num_sparse_features,
        embedding_dim=point.model.embedding_dim,
    )
    return DesignPoint(model=model, reram=point.reram)


def _branch_of(blk: BlockConfig, branch: str) -> tuple[OperatorChoice, ...]:
    return blk.dense_ops if branch == "dense" else blk.sparse_ops


def _with_branch(blk: BlockConfig, branch: str, ops: tuple[OperatorChoice, ...]) -> BlockConfig:
    if branch == "dense":
        return BlockConfig(blk.index, blk.dim_d, blk.dim_s, _sort_ops(ops), blk.sparse_ops)
    return BlockConfig(blk.index, blk.dim_d, blk.dim_s, blk.dense_ops, _sort_ops(ops))


def _mut_swap_op(point, rng, space, branch):
    menu = space.dense_operators if branch == "dense" else space.sparse_operators
    blk = rng.choice(point.model.blocks)
    ops = _branch_of(blk, branch)
    present = [op.kind for op in ops]
    absent = [k for k in menu if k not in present]
    if not absent:
        return None
    old = rng.choice(sorted(present, key=lambda k: k.value))
    new = rng.choice(sorted(absent, key=lambda k: k.value))
    swapped = tuple(
        OperatorChoice(new, op.weight_bits, op.inputs) if op.kind == old else op for op in ops
    )
    return _replace_block(point, _with_branch(blk, branch, swapped))


def _mut_change_dim(point, rng, space, which):
    menu = space.dense_dims if which == "d" else space.sparse_dims
    blk = rng.choice(point.model.blocks)
    cur = blk.dim_d if which == "d" else blk.dim_s
    options = [x for x in menu if x != cur]
    if not options:
        return None
    new = rng.choice(options)
    if which == "d":
        blk2 = BlockConfig(blk.index, new, blk.dim_s, blk.dense_ops, blk.sparse_ops)
    else:
        blk2 = BlockConfig(blk.index, blk.dim_d, new, blk.dense_ops, blk.sparse_ops)
    return _replace_block(point, blk2)


def _mut_rewire(point, rng, space):
    blk = rng.choice(point.model.blocks)
    branch = rng.choice(["dense", "sparse"])
    ops = _branch_of(blk, branch)
    if not ops:
        return None
    idx = rng.randrange(len(ops))
    new_inputs = _random_subset(rng, blk.index)
    if new_inputs == ops[idx].inputs:
        return None
    edited = list(ops)
    edited[idx] = OperatorChoice(ops[idx].kind, ops[idx].weight_bits, new_inputs)
    return _replace_block(point, _with_branch(blk, branch, tuple(edited)))


def _mut_toggle_interaction(point, rng, space):
    kind = rng.choice(list(INTERACTION_KINDS))
    branch = "sparse" if kind in SPARSE_KINDS else "dense"
    menu = space.sparse_operators if branch == "sparse" else space.dense_operators
    if kind not in menu:
        return None
    blk = rng.choice(point.model.blocks)
    ops = _branch_of(blk, branch)
    present = [op for op in ops if op.kind == kind]
    if present:
        if len(ops) <= 1:  # removal must keep the branch nonempty
            return None
        kept = tuple(op for op in ops if op.kind != kind)
        return _replace_block(point, _with_branch(blk, branch, kept))
    new = OperatorChoice(
        kind=kind,
        weight_bits=rng.choice(list(space.weight_bits)),
        inputs=_random_subset(rng, blk.index),
    )
    return _replace_block(point, _with_branch(blk, branch, ops + (new,)))


def _mut_weight_bits(point, rng, space):
    # Final FC competes with block operators for the draw.
    targets = [("final", None, None)]
    for blk in point.model.blocks:
        for branch in ("dense", "sparse"):
            for i in range(len(_branch_of(blk, branch))):
                targets.append((blk.index, branch, i))
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
    bidx, branch, i = target
    blk = point.model.blocks[bidx - 1]
    ops = _branch_of(blk, branch)
    options = [b for b in space.weight_bits if b != ops[i].weight_bits]
    if not options:
        return None
    edited = list(ops)
    edited[i] = OperatorChoice(ops[i].kind, rng.choice(options), ops[i].inputs)
    return _replace_block(point, _with_branch(blk, branch, tuple(edited)))


def _mut_reram(point, rng, space):
    reram = point.reram
    fld = rng.choice(["dac_bits", "cell_bits", "xbar_size", "adc_bits"])
    menu = {
        "dac_bits": space.dac_bits,
        "cell_bits": space.cell_bits,
        "xbar_size": space.xbar_sizes,
        "adc_bits": space.adc_bits,
    }[fld]
    cur = getattr(reram, fld)
    options = [x for x in menu if x != cur]
    if not options:
        return None
    new = ReRAMConfig(**{**reram.to_dict(), fld: rng.choice(options)})
    if new.adc_bits < new.dac_bits + new.cell_bits:
        return None
    return DesignPoint(model=point.model, reram=new)


def _apply_action(point, rng, space, action):
    if action == "swap-dense-op":
        return _mut_swap_op(point, rng, space, "dense")
    if action == "swap-sparse-op":
        return _mut_swap_op(point, rng, space, "sparse")
    if action == "change-dim-d":
        return _mut_change_dim(point, rng, space, "d")
    if action == "change-dim-s":
        return _mut_change_dim(point, rng, space, "s")
    if action == "rewire-connection":
        return _mut_rewire(point, rng, space)
    if action == "toggle-interaction-op":
        return _mut_toggle_interaction(point, rng, space)
    if action == "change-weight-bits":
        return _mut_weight_bits(point, rng, space)
    if action == "change-reram-field":
        return _mut_reram(point, rng, space)
    raise ValueError(f"unknown mutation action {action!r}")


def mutate(
    point: DesignPoint,
    seed: int,
    num_mutations: int = 1,
    space: SpaceDescriptor = DEFAULT_SPACE,
) -> DesignPoint:
    """Apply up to ``num_mutations`` atomic edits drawn from the action menu.

    Each requested mutation draws (action, target) pairs until one applies,
    bounded by ``MUTATION_RETRIES`` redraws; an exhausted slot leaves the
    point unchanged, so the result differs from the input in at most
    ``num_mutations`` atomic actions and always validates.
    """
    if num_mutations < 1:
        raise ValueError("num_mutations must be >= 1")
    rng = random.Random(seed)
    current = point
    for _ in range(num_mutations):
        for _ in range(MUTATION_RETRIES):
            action = rng.choice(MUTATION_ACTIONS)
            child = _apply_action(current, rng, space, action)
            if child is not None and validate(child, space).ok:
                current = child
                break
    return current


# ---------------------------------------------------------------------------
# cardinality
# ---------------------------------------------------------------------------

def _reram_combo_count(space: SpaceDescriptor) -> int:
    return sum(
        1
        for d in space.dac_bits
        for c in space.cell_bits
        for _ in space.xbar_sizes
        for a in space.adc_bits
        if a >= d + c
    )


def _branch_count(n_kinds: int, n_sources: int, n_bits: int) -> int:
    # Per operator: absent, or present with a bit-width and a nonempty
    # input subset; at least one operator present per branch.
    per_op = 1 + n_bits * ((1 << n_sources) - 1)
    return per_op**n_kinds - 1


def cardinality(space: SpaceDescriptor = DEFAULT_SPACE) -> int:
    """Exact count of valid points under this artifact's conventions."""
    total = len(space.weight_bits)  # final FC bits
    total *= _reram_combo_count(space)
    n_bits = len(space.weight_bits)
    for i in range(1, space.num_blocks + 1):
        block = len(space.dense_dims) * len(space.sparse_dims)
        block *= _branch_count(len(space.dense_operators), i, n_bits)
        block *= _branch_count(len(space.sparse_operators), i, n_bits)
        total *= block
    return total


def _global_quant_estimate(space: SpaceDescriptor) -> int:
    # Same space counted with one global weight-bit choice instead of
    # per-operator choices; useful as a cross-check against published
    # space-size figures that do not state their convention.
    one_width = replace(space, weight_bits=space.weight_bits[:1])
    return len(space.weight_bits) * cardinality(one_width)


def cardinality_report(space: SpaceDescriptor = DEFAULT_SPACE) -> dict:
    count = cardinality(space)
    estimate = _global_quant_estimate(space)
    return {
        "count": str(count),
        "decimal_digits": len(str(count)),
        "convention": (
            "Per block: dense/sparse feature dims from their menus; each operator "
            "kind independently absent or present with a per-operator weight "
            "bit-width and a nonempty input subset drawn from {stem, earlier "
            "blocks}; both branches nonempty. Global: final-FC bit-width and "
            "the feasible DAC/cell/crossbar/ADC combinations."
        ),
        "global_quant_count": str(estimate),
        "global_quant_digits": len(str(estimate)),
        "global_quant_note": (
            "Same menus counted with a single model-wide weight bit-width; "
            "reported for comparison with published space-size figures."
        ),
    }
