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
import re
import sys
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import cache, cached_property
from operator import attrgetter
from typing import Sequence, get_args, get_origin, get_type_hints

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
_KIND = attrgetter("kind")  # kinds are str members, so they sort by their values
# ReRAMConfig field -> the SpaceDescriptor menu it draws from, in draw order.
_RERAM_MENUS = {
    "dac_bits": "dac_bits", "cell_bits": "cell_bits", "xbar_size": "xbar_sizes", "adc_bits": "adc_bits",
}

MUTATION_RETRIES = 16  # redraws per requested mutation before giving up
# Upper bounds of a space: a point holds up to blocks x sources input
# indices, the lookup trace draws one row per sparse feature per query, and
# costs convert dims and crossbar sizes to float.
MAX_BLOCKS = 64
MAX_SPARSE_FEATURES = 4096
MAX_DIM = 65536  # dims, embedding width and crossbar size


def _field_state(record) -> dict:
    """``__getstate__`` of the records that keep results beside their
    fields: ``pickle`` and ``copy`` take the compared dataclass fields only,
    so a restored record computes its cached values again and a field left
    out reads its class default."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.compare}


def _not_an_int(record, *names: str) -> ValueError:
    """The refusal of the first of ``names`` not holding exactly an ``int``."""
    name = next(n for n in names if type(getattr(record, n)) is not int)
    return ValueError(f"{name} must be an int, got {getattr(record, name)!r}")


@dataclass(frozen=True)
class OperatorChoice:
    """One operator instance inside a block branch."""

    kind: OperatorKind
    weight_bits: int
    inputs: tuple[int, ...]  # source indices, stored sorted; 0 = stem

    def __post_init__(self):
        if type(self.kind) is not OperatorKind:
            raise ValueError(f"kind must be an OperatorKind, got {self.kind!r}")
        if type(self.weight_bits) is not int:
            raise _not_an_int(self, "weight_bits")
        inputs = tuple(self.inputs)
        for s in inputs:
            if type(s) is not int:
                raise ValueError(f"inputs must list ints only, got {s!r}")
        object.__setattr__(self, "inputs", tuple(sorted(inputs)))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "weight_bits": self.weight_bits,
            "inputs": list(self.inputs),
        }


@dataclass(frozen=True)
class BlockConfig:
    index: int  # 1-based position
    dim_d: int  # dense feature dimension
    dim_s: int  # sparse feature dimension
    dense_ops: tuple[OperatorChoice, ...]  # each branch stored sorted by kind
    sparse_ops: tuple[OperatorChoice, ...]

    __getstate__ = _field_state

    def __post_init__(self):
        if type(self.index) is not int or type(self.dim_d) is not int or type(self.dim_s) is not int:
            raise _not_an_int(self, "index", "dim_d", "dim_s")
        dense, sparse = tuple(self.dense_ops), tuple(self.sparse_ops)
        for op in (*dense, *sparse):
            if type(op) is not OperatorChoice:
                name = "dense_ops" if op in dense else "sparse_ops"
                raise ValueError(f"{name} must list OperatorChoice records only, got {op!r}")
        object.__setattr__(self, "dense_ops", tuple(sorted(dense, key=_KIND)))
        object.__setattr__(self, "sparse_ops", tuple(sorted(sparse, key=_KIND)))

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "dim_d": self.dim_d,
            "dim_s": self.dim_s,
            "dense_ops": [op.to_dict() for op in self.dense_ops],
            "sparse_ops": [op.to_dict() for op in self.sparse_ops],
        }

    @cached_property
    def canonical_fragment(self) -> str:
        """This block's part of :func:`canonical_json`, encoded once per object."""
        return (
            f'{{"dense_ops":[{_ops_json(self.dense_ops)}],"dim_d":{self.dim_d},"dim_s":{self.dim_s},'
            f'"index":{self.index},"sparse_ops":[{_ops_json(self.sparse_ops)}]}}'
        )


@dataclass(frozen=True)
class ModelConfig:
    blocks: tuple[BlockConfig, ...]
    final_fc_bits: int
    num_sparse_features: int  # count of input embedding tables
    embedding_dim: int        # width of input embeddings (and of the stem dense vector)

    def __post_init__(self):
        bits, n_s, emb = self.final_fc_bits, self.num_sparse_features, self.embedding_dim
        if type(bits) is not int or type(n_s) is not int or type(emb) is not int:
            raise _not_an_int(self, "final_fc_bits", "num_sparse_features", "embedding_dim")

    def to_dict(self) -> dict:
        return {
            "blocks": [b.to_dict() for b in self.blocks],
            "final_fc_bits": self.final_fc_bits,
            "num_sparse_features": self.num_sparse_features,
            "embedding_dim": self.embedding_dim,
        }


@dataclass(frozen=True)
class ReRAMConfig:
    dac_bits: int
    cell_bits: int
    xbar_size: int
    adc_bits: int

    __getstate__ = _field_state

    def __post_init__(self):
        dac, cell, xbar, adc = self.dac_bits, self.cell_bits, self.xbar_size, self.adc_bits
        if type(dac) is not int or type(cell) is not int or type(xbar) is not int or type(adc) is not int:
            raise _not_an_int(self, *_RERAM_MENUS)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _RERAM_MENUS}

    @cached_property
    def canonical_fragment(self) -> str:
        """This record's part of :func:`canonical_json`, encoded once per object."""
        dac, cell, xbar, adc = self.dac_bits, self.cell_bits, self.xbar_size, self.adc_bits
        return f'{{"adc_bits":{adc},"cell_bits":{cell},"dac_bits":{dac},"xbar_size":{xbar}}}'


@dataclass(frozen=True)
class DesignPoint:
    model: ModelConfig
    reram: ReRAMConfig

    __getstate__ = _field_state

    @cached_property
    def point_id(self) -> str:
        """Stable content hash: SHA-256 of the canonical JSON document.

        Computed once per object; a frozen point cannot change under it."""
        return hashlib.sha256(canonical_json(self).encode("ascii")).hexdigest()

    def to_dict(self) -> dict:
        return {"model": self.model.to_dict(), "reram": self.reram.to_dict()}


def _fm_starved(kind: OperatorKind, n_s: int, n_inputs: int) -> bool:
    """True for an FM fed fewer than two sparse vectors (``validate`` rejects it)."""
    return kind is OperatorKind.FM and n_s * n_inputs < 2


def _input_subset_count(kind: OperatorKind, n_sources: int, n_s: int) -> int:
    """Input subsets of ``n_sources`` sources that ``validate`` accepts for ``kind``."""
    subsets = (1 << n_sources) - 1
    if _fm_starved(kind, n_s, 1):  # then single-source inputs starve the FM
        subsets -= n_sources
    return subsets


# SpaceDescriptor fields that list the choices of one configuration field.
_MENUS = (
    "dense_operators", "sparse_operators", "dense_dims", "sparse_dims", "weight_bits",
    *_RERAM_MENUS.values(),
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
        """Reject menus that would only fail later, inside sampling, mapping
        or costing, and spaces with no valid point."""
        for name, most in (
            ("num_blocks", MAX_BLOCKS),
            ("num_sparse_features", MAX_SPARSE_FEATURES),
            ("embedding_dim", MAX_DIM),
        ):
            value = getattr(self, name)
            if type(value) is not int:
                raise _not_an_int(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            if value > most:
                raise ValueError(f"{name} must be <= {most}")
        for name in _MENUS:
            menu, entry = getattr(self, name), OperatorKind if name in _MENUS[:2] else int
            if not menu:
                raise ValueError(f"{name} must not be empty")
            stray = [x for x in menu if type(x) is not entry]
            if stray:
                raise ValueError(f"{name} must list {entry.__name__}s only, got {stray}")
            if len(set(menu)) != len(menu):
                raise ValueError(
                    f"{name} lists an entry more than once: {[getattr(x, 'value', x) for x in menu]}"
                )
        for name, branch_kinds in (
            ("dense_operators", DENSE_KINDS), ("sparse_operators", SPARSE_KINDS)
        ):
            stray = [k.value for k in getattr(self, name) if k not in branch_kinds]
            if stray:
                raise ValueError(
                    f"{name} lists {stray}, which belong to the other branch "
                    f"(allowed: {[k.value for k in branch_kinds]})"
                )
        for name in ("dense_dims", "sparse_dims", "xbar_sizes"):
            if min(getattr(self, name)) < 1:
                raise ValueError(f"{name} must all be >= 1")
            if max(getattr(self, name)) > MAX_DIM:
                raise ValueError(f"{name} must all be <= {MAX_DIM}")
        for name in SUPPORTED_BITS:
            unsupported = sorted(set(getattr(self, name)) - set(SUPPORTED_BITS[name]))
            if unsupported:
                raise ValueError(
                    f"{name} {unsupported} not supported by the crossbar "
                    f"(supported: {list(SUPPORTED_BITS[name])})"
                )
        # Block 1, fed by the stem alone, has the fewest valid input subsets:
        # if one of its branches has no operator to draw, no point is valid.
        for name in ("dense_operators", "sparse_operators"):
            if not any(_input_subset_count(k, 1, self.num_sparse_features) for k in getattr(self, name)):
                raise ValueError(
                    f"{name} leaves block 1 no valid operator, so the space has no valid "
                    "points: an FM needs at least two incoming sparse vectors "
                    f"(num_sparse_features is {self.num_sparse_features})"
                )


DEFAULT_SPACE = SpaceDescriptor()


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


_KIND_VALUES = {kind: kind.value for kind in OperatorKind}


def _ops_json(ops) -> str:
    """A branch's operators as canonical JSON, without the brackets."""
    return ",".join(
        f'{{"inputs":[{",".join(map(str, op.inputs))}],"kind":"{_KIND_VALUES[op.kind]}",'
        f'"weight_bits":{op.weight_bits}}}'
        for op in ops
    )


def canonical_json(point: DesignPoint) -> str:
    """Canonical serialized form: sorted keys, no whitespace, ASCII only.

    Byte-identical to ``json.dumps(point.to_dict(), sort_keys=True,
    separators=(",", ":"))``, but joined from the blocks' and the ReRAM
    record's cached fragments, so a mutated child encodes only the records
    it does not share with its parent. Records hold only ints and operator
    kinds (they refuse anything else when built), written with f-strings."""
    model = point.model
    blocks = ",".join(blk.canonical_fragment for blk in model.blocks)
    return (
        f'{{"model":{{"blocks":[{blocks}],"embedding_dim":{model.embedding_dim},'
        f'"final_fc_bits":{model.final_fc_bits},"num_sparse_features":{model.num_sparse_features}}},'
        f'"reram":{point.reram.canonical_fragment}}}'
    )


def point_from_json(text: str) -> DesignPoint:
    """Decode a design point; malformed or too deeply nested JSON raises ``ValueError``."""
    try:
        return from_plain(DesignPoint, json.loads(text))
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply: {exc}") from None


# ---------------------------------------------------------------------------
# typed decoding of plain JSON forms
# ---------------------------------------------------------------------------

def from_plain(cls, data):
    """Build the config dataclass ``cls`` from its plain JSON form, by its
    field types: dataclasses, ``tuple[X, ...]``, fixed-length tuples,
    ``X | None``, enums, ``dict[int, float]``, ``int``, ``float``, ``str``.

    Keys left out keep their defaults. Anything malformed raises
    ``ValueError`` naming its JSON path, e.g.
    ``model.blocks[0].dense_ops[0].weight_bits: expected int, got [4]``.
    """
    return _decode(cls, data, "")


@cache
def _field_types(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: (f, hints[f.name]) for f in fields(cls)}


def _decode(tp, value, path: str):
    def bad(message, where=path):
        return ValueError(f"{where}: {message}" if where else message)

    def expected(what):
        return bad(f"expected {what}, got {json.dumps(value, default=repr)}")

    def at(key):
        return f"{path}.{key}" if path else str(key)

    origin, args = get_origin(tp), get_args(tp)
    if (is_dataclass(tp) or origin is dict) and not isinstance(value, dict):
        raise expected("an object")
    if is_dataclass(tp):
        known = _field_types(tp)
        for key in value:
            if key not in known:
                raise bad(f"unknown key (known: {', '.join(known)})", at(key))
        kwargs = {}
        for name, (f, ftp) in known.items():
            if name in value:
                kwargs[name] = _decode(ftp, value[name], at(name))
            elif f.default is MISSING and f.default_factory is MISSING:
                raise bad("missing required key", at(name))
        return tp(**kwargs)
    if origin is types.UnionType:
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise expected("a list")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise bad(f"expected {len(args)} items, got {len(value)}")
        return tuple(_decode(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if origin is dict:  # JSON keys are strings: "4" is the int key 4
        key_tp, val_tp = args

        def key(k):
            numeral = isinstance(k, str) and re.fullmatch(r"-?[0-9]+", k)
            return int(k) if key_tp is int and numeral else k

        return {_decode(key_tp, key(k), at(k)): _decode(val_tp, v, at(k)) for k, v in value.items()}
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise expected(f"one of {', '.join(str(m.value) for m in tp)}") from None
    if tp is int and (type(value) is int or type(value) is float and value.is_integer()):
        return int(value)  # booleans and fractions are refused
    if tp is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if tp is str and isinstance(value, str):
        return value
    raise expected("a finite number" if tp is float else tp.__name__)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(point: DesignPoint, space: SpaceDescriptor = DEFAULT_SPACE) -> ValidationReport:
    """Check every structural invariant; violations are data, not exceptions.

    Only menus and structure are checked: a record refuses, when built,
    any number that is not exactly an ``int`` (a bool, a float, a numpy
    integer) and any kind that is not an :class:`OperatorKind`. A block's
    violations depend only on the block, its position, the space and
    ``num_sparse_features``, so they are kept on the frozen block with that
    key (space by identity) and a child re-checks only the blocks it does
    not share with its parent."""
    v: list[str] = []
    model, reram = point.model, point.reram
    n_s = model.num_sparse_features

    if len(model.blocks) != space.num_blocks:
        v.append(f"model: expected {space.num_blocks} blocks, got {len(model.blocks)}")
    _check_number(v, "final_fc: weight_bits", model.final_fc_bits, space.weight_bits)
    for name in ("num_sparse_features", "embedding_dim"):
        value, expected = getattr(model, name), getattr(space, name)
        if value != expected:
            v.append(f"model: expected {name} {expected}, got {value}")

    for pos, blk in enumerate(model.blocks, start=1):
        v.extend(_checked_block(blk, pos, space, n_s))
    _check_reram(v, reram, space)
    return ValidationReport(ok=not v, violations=v)


def _check_number(v: list[str], subject: str, value, menu) -> None:
    """Append the violation of one menu-drawn number, if it has one."""
    if value not in menu:
        v.append(f"{subject} {value} not in menu")


def _check_reram(v: list[str], reram: ReRAMConfig, space: SpaceDescriptor) -> None:
    for name, menu in _RERAM_MENUS.items():
        _check_number(v, f"reram: {name}", getattr(reram, name), getattr(space, menu))


def _checked_block(blk: BlockConfig, pos: int, space: SpaceDescriptor, n_s: int) -> tuple[str, ...]:
    """The violations of the block at 1-based position ``pos``, kept on the
    block beside its fields, as ``cached_property`` stores."""
    memo = blk.__dict__.get("_violations")
    if memo is None or memo[0] is not space or memo[1] != pos or memo[2] != n_s:
        memo = blk.__dict__["_violations"] = (space, pos, n_s, tuple(_block_violations(blk, pos, space, n_s)))
    return memo[3]


def _block_violations(blk: BlockConfig, pos: int, space: SpaceDescriptor, n_s: int) -> list[str]:
    """Violations of the block at 1-based position ``pos``."""
    v: list[str] = []
    name = f"block {pos}"
    if blk.index != pos:
        v.append(f"{name}: index {blk.index} out of order")
    _check_number(v, f"{name}: dim_d", blk.dim_d, space.dense_dims)
    _check_number(v, f"{name}: dim_s", blk.dim_s, space.sparse_dims)
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
            kind, bits, inputs = op.kind, op.weight_bits, op.inputs
            if kind not in menu:
                v.append(f"{name}: {kind.value} not allowed in {branch} branch")
            if bits not in space.weight_bits:
                v.append(f"{name}: {kind.value} weight_bits {bits} not in menu")
            if not inputs:
                v.append(f"{name}: {kind.value} has no inputs")
            if len(set(inputs)) != len(inputs):
                v.append(f"{name}: {kind.value} has duplicate inputs")
            for s in inputs:
                if not (0 <= s < pos):
                    v.append(f"{name}: {kind.value} input {s} violates DAG order")
            if _fm_starved(kind, n_s, len(inputs)):
                v.append(f"{name}: FM needs at least two incoming sparse vectors")
    return v


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
    n_s: int,
) -> tuple[OperatorChoice, ...]:
    # Kinds with no valid input subset here cannot be drawn; with
    # n_s >= 2 that is none, and the draws are unaffected.
    menu = [kind for kind in menu if _input_subset_count(kind, n_sources, n_s)]
    present_mask = rng.randrange(1, 1 << len(menu))
    ops = []
    for i, kind in enumerate(menu):
        if not present_mask >> i & 1:
            continue
        weight_bits = rng.choice(list(bits_menu))
        inputs = _random_subset(rng, n_sources)
        while _fm_starved(kind, n_s, len(inputs)):  # uniform over the valid subsets
            inputs = _random_subset(rng, n_sources)
        ops.append(OperatorChoice(kind=kind, weight_bits=weight_bits, inputs=inputs))
    return tuple(ops)


def sample_random(seed: int, space: SpaceDescriptor = DEFAULT_SPACE) -> DesignPoint:
    """Draw a valid point; identical seed gives an identical point."""
    rng = random.Random(seed)
    n_s = space.num_sparse_features
    blocks = tuple(
        BlockConfig(
            index=i,
            dim_d=rng.choice(list(space.dense_dims)),
            dim_s=rng.choice(list(space.sparse_dims)),
            dense_ops=_random_branch(rng, space.dense_operators, i, space.weight_bits, n_s),
            sparse_ops=_random_branch(rng, space.sparse_operators, i, space.weight_bits, n_s),
        )
        for i in range(1, space.num_blocks + 1)
    )
    reram = ReRAMConfig(
        **{name: rng.choice(list(getattr(space, menu))) for name, menu in _RERAM_MENUS.items()}
    )
    model = ModelConfig(
        blocks=blocks,
        final_fc_bits=rng.choice(list(space.weight_bits)),
        num_sparse_features=space.num_sparse_features,
        embedding_dim=space.embedding_dim,
    )
    return DesignPoint(model=model, reram=reram)


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------

def _replace_block(point: DesignPoint, blk: BlockConfig) -> DesignPoint:
    # Replaced by position: if block indices are not positions, parent and children all fail validate.
    blocks, i = point.model.blocks, blk.index - 1
    model = ModelConfig(
        blocks=blocks[:i] + (blk,) + blocks[i + 1:],
        final_fc_bits=point.model.final_fc_bits,
        num_sparse_features=point.model.num_sparse_features,
        embedding_dim=point.model.embedding_dim,
    )
    return DesignPoint(model=model, reram=point.reram)


def _branch_of(blk: BlockConfig, branch: str) -> tuple[OperatorChoice, ...]:
    return blk.dense_ops if branch == "dense" else blk.sparse_ops


def _with_branch(blk: BlockConfig, branch: str, ops: Sequence[OperatorChoice]) -> BlockConfig:
    if branch == "dense":
        return BlockConfig(blk.index, blk.dim_d, blk.dim_s, ops, blk.sparse_ops)
    return BlockConfig(blk.index, blk.dim_d, blk.dim_s, blk.dense_ops, ops)


def _mut_swap_op(point, rng, space, branch):
    menu = space.dense_operators if branch == "dense" else space.sparse_operators
    blk = rng.choice(point.model.blocks)
    ops = _branch_of(blk, branch)
    present = [op.kind for op in ops]
    absent = [k for k in menu if k not in present]
    if not absent:
        return None
    old = rng.choice(present)
    new = rng.choice(sorted(absent, key=lambda k: k.value))
    swapped = [OperatorChoice(new, op.weight_bits, op.inputs) if op.kind == old else op for op in ops]
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
    # Sources are counted from the block's position, not its index, so a point
    # whose indices are not positions cannot crash the draw; randrange(n)
    # draws what rng.choice would.
    pos = rng.randrange(len(point.model.blocks))
    blk = point.model.blocks[pos]
    branch = rng.choice(["dense", "sparse"])
    ops = _branch_of(blk, branch)
    if not ops:
        return None
    idx = rng.randrange(len(ops))
    new_inputs = _random_subset(rng, pos + 1)  # the stem and the blocks before it
    if new_inputs == ops[idx].inputs:
        return None
    edited = list(ops)
    edited[idx] = OperatorChoice(ops[idx].kind, ops[idx].weight_bits, new_inputs)
    return _replace_block(point, _with_branch(blk, branch, edited))


def _mut_toggle_interaction(point, rng, space):
    kind = rng.choice(list(INTERACTION_KINDS))
    branch = "sparse" if kind in SPARSE_KINDS else "dense"
    menu = space.sparse_operators if branch == "sparse" else space.dense_operators
    if kind not in menu:
        return None
    pos = rng.randrange(len(point.model.blocks))  # by position, as in _mut_rewire
    blk = point.model.blocks[pos]
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
        inputs=_random_subset(rng, pos + 1),
    )
    return _replace_block(point, _with_branch(blk, branch, ops + (new,)))


def _mut_weight_bits(point, rng, space):
    # Final FC competes with block operators for the draw: target 0 is the
    # final FC, then every block's dense and then sparse operators in order.
    # randrange(n) draws what rng.choice over a list of the n targets would.
    blocks = point.model.blocks
    k = rng.randrange(1 + sum(len(blk.dense_ops) + len(blk.sparse_ops) for blk in blocks))
    if k == 0:
        options = [b for b in space.weight_bits if b != point.model.final_fc_bits]
        if not options:
            return None
        model = ModelConfig(
            blocks=blocks,
            final_fc_bits=rng.choice(options),
            num_sparse_features=point.model.num_sparse_features,
            embedding_dim=point.model.embedding_dim,
        )
        return DesignPoint(model=model, reram=point.reram)
    k -= 1
    for blk in blocks:
        for branch in ("dense", "sparse"):
            ops = _branch_of(blk, branch)
            if k >= len(ops):
                k -= len(ops)
                continue
            options = [b for b in space.weight_bits if b != ops[k].weight_bits]
            if not options:
                return None
            edited = list(ops)
            edited[k] = OperatorChoice(ops[k].kind, rng.choice(options), ops[k].inputs)
            return _replace_block(point, _with_branch(blk, branch, edited))


def _mut_reram(point, rng, space):
    reram = point.reram
    fld = rng.choice(list(_RERAM_MENUS))
    menu = getattr(space, _RERAM_MENUS[fld])
    cur = getattr(reram, fld)
    options = [x for x in menu if x != cur]
    if not options:
        return None
    new = ReRAMConfig(**{**reram.to_dict(), fld: rng.choice(options)})
    return DesignPoint(model=point.model, reram=new)


# Action name -> mutator(point, rng, space); the draw order is this order.
_MUTATORS = {
    "swap-dense-op": lambda point, rng, space: _mut_swap_op(point, rng, space, "dense"),
    "swap-sparse-op": lambda point, rng, space: _mut_swap_op(point, rng, space, "sparse"),
    "change-dim-d": lambda point, rng, space: _mut_change_dim(point, rng, space, "d"),
    "change-dim-s": lambda point, rng, space: _mut_change_dim(point, rng, space, "s"),
    "rewire-connection": _mut_rewire,
    "toggle-interaction-op": _mut_toggle_interaction,
    "change-weight-bits": _mut_weight_bits,
    "change-reram-field": _mut_reram,
}
MUTATION_ACTIONS = tuple(_MUTATORS)


def mutate(
    point: DesignPoint,
    seed: int,
    num_mutations: int = 1,
    space: SpaceDescriptor = DEFAULT_SPACE,
) -> DesignPoint:
    """Apply up to ``num_mutations`` atomic edits drawn from the action menu.

    The input must validate against ``space``; one that does not raises
    ``ValueError`` naming its first violation, since no edit sequence is
    searched for a valid child of it. The input is validated once per
    point object and space (by identity), and the result is kept beside
    the point's fields, as blocks keep their violations. Each requested
    mutation draws (action, target) pairs until one applies, bounded by
    ``MUTATION_RETRIES`` redraws; an exhausted slot leaves the point
    unchanged, so the result differs from the input in at most
    ``num_mutations`` atomic actions and always validates.
    """
    if type(num_mutations) is not int or num_mutations < 1:
        raise ValueError(f"num_mutations must be an int >= 1, got {num_mutations!r}")
    memo = point.__dict__.get("_validated")
    if memo is None or memo[0] is not space:
        memo = point.__dict__["_validated"] = (space, tuple(validate(point, space).violations))
    if memo[1]:
        raise ValueError(f"cannot mutate a point that fails validate: {memo[1][0]}")
    rng = random.Random(seed)
    current = point
    for _ in range(num_mutations):
        for _ in range(MUTATION_RETRIES):
            child = _MUTATORS[rng.choice(MUTATION_ACTIONS)](current, rng, space)
            if child is not None and _edit_valid(child, current, space):
                current = child
                break
    return current


def _edit_valid(child: DesignPoint, current: DesignPoint, space: SpaceDescriptor) -> bool:
    """``validate(child, space).ok`` for an edit of ``current``, a point
    that validates: a record the child shares with ``current`` (a block at
    its own position, the ReRAM record, the final-FC width, the model's
    counts) passed already, so only the records the edit replaced are
    checked."""
    v: list[str] = []
    model, before = child.model, current.model
    if model is not before:
        if (
            len(model.blocks) != len(before.blocks)
            or model.num_sparse_features is not before.num_sparse_features
            or model.embedding_dim is not before.embedding_dim
        ):
            return validate(child, space).ok
        if model.final_fc_bits is not before.final_fc_bits:
            _check_number(v, "final_fc: weight_bits", model.final_fc_bits, space.weight_bits)
        n_s = model.num_sparse_features
        for pos, (blk, old) in enumerate(zip(model.blocks, before.blocks), start=1):
            if blk is not old:
                v.extend(_checked_block(blk, pos, space, n_s))
    if child.reram is not current.reram:
        _check_reram(v, child.reram, space)
    return not v


# ---------------------------------------------------------------------------
# cardinality
# ---------------------------------------------------------------------------

def _branch_count(
    menu: Sequence[OperatorKind], n_sources: int, n_bits: int, n_s: int
) -> int:
    # Per operator: absent, or present with a bit-width and an input subset
    # it accepts; at least one operator present per branch.
    count = 1
    for kind in menu:
        count *= 1 + n_bits * _input_subset_count(kind, n_sources, n_s)
    return count - 1


def cardinality(space: SpaceDescriptor = DEFAULT_SPACE) -> int:
    """Exact count of valid points under this artifact's conventions."""
    total = len(space.weight_bits)  # final FC bits
    for menu in _RERAM_MENUS.values():
        total *= len(getattr(space, menu))  # every ReRAM combination is feasible (see SUPPORTED_BITS)
    n_bits, n_s = len(space.weight_bits), space.num_sparse_features
    for i in range(1, space.num_blocks + 1):
        block = len(space.dense_dims) * len(space.sparse_dims)
        block *= _branch_count(space.dense_operators, i, n_bits, n_s)
        block *= _branch_count(space.sparse_operators, i, n_bits, n_s)
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
            "every DAC/cell/crossbar/ADC combination."
        ),
        "global_quant_count": str(estimate),
        "global_quant_digits": len(str(estimate)),
        "global_quant_note": (
            "Same menus counted with a single model-wide weight bit-width; "
            "reported for comparison with published space-size figures."
        ),
    }
