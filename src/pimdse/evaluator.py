"""Model-quality signal for the search loop.

Real CTR training is out of scope, so the loss term comes from a
deterministic desk-scale surrogate with enough structure to exercise the
search (capacity helps, interactions help, 4-bit boundary FCs hurt). It
adds a pseudo-random term keyed off the point hash. That term is not
smooth: it is a fresh draw per ``point_id``, so any one-field edit, even
one operator's weight width, redraws it whole. Externally measured losses
can be ingested from CSV and override the surrogate per point.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass

from .design_space import DesignPoint, OperatorKind

INTERACTION_CAP = 4  # diminishing returns beyond this many DP/FM operators
_INTERACTIONS = (OperatorKind.DP, OperatorKind.FM)
_LOSS_FLOOR = 0.01
_HEX64 = re.compile(r"^[0-9a-f]{64}$")


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class EvalResult:
    log_loss: float
    auc: float | None
    source: str  # "surrogate" or "external"

    def __post_init__(self):
        if not 0 < self.log_loss < math.inf:  # also refuses nan
            raise ValueError(f"log_loss must be positive and finite, got {self.log_loss}")
        if self.auc is not None and not 0.0 < self.auc < 1.0:
            raise ValueError("auc must lie in (0, 1)")


@dataclass(frozen=True)
class SurrogateParams:
    base_loss: float = 0.55
    capacity_weight: float = 0.012
    low_bit_penalty: float = 0.015
    interaction_bonus: float = 0.018
    noise_scale: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("base_loss", "capacity_weight", "low_bit_penalty", "interaction_bonus", "noise_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if type(self.seed) is not int:  # the noise hashes str(seed): True and 1.0 are not 1
            raise ValueError(f"seed must be an int, got {self.seed!r}")


def _unit_noise(point_id: str, seed: int) -> float:
    """Deterministic pseudo-random value in [-1, 1)."""
    digest = hashlib.sha256(f"{point_id}:{seed}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 63) - 1.0


def surrogate_loss(point: DesignPoint, sp: SurrogateParams = SurrogateParams()) -> EvalResult:
    """Deterministic stand-in for a measured validation loss."""
    model = point.model
    total_dense = interactions = 0
    for b in model.blocks:  # one pass counts both terms
        total_dense += b.dim_d
        for op in b.dense_ops:
            if op.kind in _INTERACTIONS:
                interactions += 1
    boundary_low_bits = sum(
        1
        for op in model.blocks[0].dense_ops
        if op.kind is OperatorKind.FC and op.weight_bits == 4
    )
    if model.final_fc_bits == 4:
        boundary_low_bits += 1

    loss = sp.base_loss
    loss -= sp.capacity_weight * math.log2(total_dense)
    loss -= sp.interaction_bonus * min(interactions, INTERACTION_CAP)
    loss += sp.low_bit_penalty * boundary_low_bits
    loss += sp.noise_scale * _unit_noise(point.point_id, sp.seed)
    return EvalResult(log_loss=max(loss, _LOSS_FLOOR), auc=None, source="surrogate")


def ingest_external(path: str, logger=None) -> dict[str, EvalResult]:
    """Load measured results from CSV: ``point_id,log_loss[,auc]`` plus header.

    Duplicate ids resolve last-wins with a warning; ids that do not look
    like point hashes are warned about but kept (callers may use their own
    naming scheme).
    """
    results: dict[str, EvalResult] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return results
        if not header or header[0].strip().lower() != "point_id":
            raise ParseError(1, "expected header starting with 'point_id'")
        for line_no, row in enumerate(reader, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ParseError(line_no, "expected point_id,log_loss[,auc]")
            point_id = row[0].strip()
            try:
                log_loss = float(row[1])
                auc = float(row[2]) if len(row) > 2 and row[2].strip() else None
            except ValueError as exc:
                raise ParseError(line_no, f"bad number: {exc}") from exc
            try:
                result = EvalResult(log_loss=log_loss, auc=auc, source="external")
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
            if logger is not None and not _HEX64.match(point_id):
                logger.warning("line %d: id %r does not look like a point hash", line_no, point_id)
            if point_id in results and logger is not None:
                logger.warning("line %d: duplicate point_id %s, keeping last", line_no, point_id)
            results[point_id] = result
    return results
