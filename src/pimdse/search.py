"""Regularized-evolution search over the joint design space.

One generation: tournament-select a parent, spawn children by chained
mutation, evaluate loss and hardware metrics, scalarize into the criterion,
append, sort ascending and drop the worst, keeping the population size
constant. Fully deterministic for a given config: selection randomness
comes from one seeded generator and every mutation seed is derived by
hashing. Children are evaluated one after another, in child order; the
evaluation is pure Python, so threads would only contend for the GIL.
"""

from __future__ import annotations

import hashlib
import json
import logging
import statistics
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable

from .cost_model import TechParams, model_cost
from .design_space import (
    DEFAULT_SPACE,
    DesignPoint,
    SpaceDescriptor,
    mutate,
    sample_random,
    validate,
)
from .evaluator import EvalResult, SurrogateParams, surrogate_loss
from .mapping import map_model
from .pipeline import LookupModel, simulate, zipf_lookup_model

logger = logging.getLogger(__name__)

MAX_SKIPPED_CHILDREN = 64
METRIC_NAMES = ("inverse_throughput", "area", "peak_power")


@dataclass(frozen=True)
class SearchConfig:
    num_generations: int = 240
    num_children: int = 8
    num_mutations: int = 3
    lambdas: tuple[float, float, float] = (0.1, 0.1, 0.1)
    targets: tuple[float, float, float] | None = None  # default: reference sample
    population_init_size: int = 64
    tournament_size: int = 10
    seed: int = 0

    def __post_init__(self):
        counts = (
            self.num_generations,
            self.num_children,
            self.num_mutations,
            self.population_init_size,
            self.tournament_size,
        )
        if any(c < 1 for c in counts):
            raise ValueError("all counts must be >= 1")
        if len(self.lambdas) != 3 or any(l < 0 for l in self.lambdas):
            raise ValueError("lambdas must be three nonnegative weights")
        if self.targets is not None and (
            len(self.targets) != 3 or any(t <= 0 for t in self.targets)
        ):
            raise ValueError("targets must be three positive values")

    @staticmethod
    def from_dict(d: dict) -> "SearchConfig":
        kwargs = dict(d)
        if "lambdas" in kwargs:
            kwargs["lambdas"] = tuple(float(x) for x in kwargs["lambdas"])
        if kwargs.get("targets") is not None:
            kwargs["targets"] = tuple(float(x) for x in kwargs["targets"])
        return SearchConfig(**kwargs)

    @staticmethod
    def from_json(path: str) -> "SearchConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return SearchConfig.from_dict(json.load(fh))


@dataclass(frozen=True)
class PopulationEntry:
    point: DesignPoint
    loss: float
    metrics: tuple[float, float, float]  # (1/throughput, area, peak_power)
    criterion: float
    insertion: int

    @property
    def point_id(self) -> str:
        return self.point.point_id


@dataclass
class GenerationRecord:
    generation: int
    best: float
    median: float
    parent_id: str
    child_ids: list[str]
    population_size: int = 0


@dataclass
class SearchLog:
    generations: list[GenerationRecord] = field(default_factory=list)
    targets: tuple[float, float, float] = (1.0, 1.0, 1.0)
    wall_time_s: float = 0.0  # excluded from the canonical form

    def to_dict(self) -> dict:
        return {
            "targets": list(self.targets),
            "generations": [
                {
                    "generation": g.generation,
                    "best": g.best,
                    "median": g.median,
                    "parent_id": g.parent_id,
                    "child_ids": list(g.child_ids),
                    "population_size": g.population_size,
                }
                for g in self.generations
            ],
        }

    def to_canonical_json(self) -> str:
        """Byte-stable serialization; wall time is reported separately."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass
class SearchResult:
    population: list[PopulationEntry]
    top_entries: list[PopulationEntry]
    log: SearchLog


class SearchAborted(RuntimeError):
    pass


def criterion(
    loss: float,
    metrics,
    cfg: SearchConfig,
    targets=None,
) -> float:
    """Scalarized objective: loss plus the weighted normalized hardware terms."""
    targets = cfg.targets if targets is None else targets
    if len(metrics) != 3 or len(targets) != 3:
        raise ValueError("metrics and targets must have length 3")
    return loss + sum(l * m / t for l, m, t in zip(cfg.lambdas, metrics, targets))


def sample_and_select(
    population: list[PopulationEntry],
    cfg: SearchConfig,
    rng: Random,
) -> PopulationEntry:
    """Tournament selection: lowest criterion wins, ties by earliest insertion."""
    if not population:
        raise ValueError("population is empty")
    k = min(cfg.tournament_size, len(population))
    contestants = rng.sample(population, k)
    return min(contestants, key=lambda e: (e.criterion, e.insertion))


def derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def default_hw_metrics(
    tech: TechParams,
    space: SpaceDescriptor = DEFAULT_SPACE,
    seed: int = 0,
    lookup_model: LookupModel | None = None,
) -> Callable[[DesignPoint], tuple[float, float, float]]:
    """Map -> cost -> pipeline, shared lookup trace across all candidates."""
    if lookup_model is None:
        lookup_model = zipf_lookup_model(
            num_tables=space.num_sparse_features,
            rows_per_table=256,
            num_banks=8,
            num_queries=16,
            seed=derive_seed(seed, "trace"),
            t_bank=tech.t_bank,
        )

    def metrics(point: DesignPoint) -> tuple[float, float, float]:
        mm = map_model(point)
        cost = model_cost(mm, tech)
        report = simulate(mm, tech, lookup_model=lookup_model)
        return (1.0 / report.throughput, cost.area, cost.peak_power)

    return metrics


def default_loss(
    sp: SurrogateParams = SurrogateParams(),
    external: dict[str, EvalResult] | None = None,
) -> Callable[[DesignPoint], float]:
    """Surrogate loss, overridden per point by ingested measurements."""

    def loss(point: DesignPoint) -> float:
        if external:
            hit = external.get(point.point_id)
            if hit is not None:
                return hit.log_loss
        return surrogate_loss(point, sp).log_loss

    return loss


def run_search(
    cfg: SearchConfig,
    loss_fn: Callable[[DesignPoint], float],
    metric_fn: Callable[[DesignPoint], tuple[float, float, float]],
    space: SpaceDescriptor = DEFAULT_SPACE,
    top_k: int = 15,
    on_generation: Callable[[GenerationRecord], None] | None = None,
) -> SearchResult:
    """Run the evolution loop; see the module docstring for the semantics."""
    t0 = time.perf_counter()
    rng = Random(cfg.seed)
    skipped = 0

    def evaluate(point: DesignPoint):
        """(loss, metrics) of a point, or the exception its evaluation raised.

        Evaluation is a pure function of the point, so a repeated child is
        simply evaluated again and gets the same numbers.
        """
        try:
            return loss_fn(point), tuple(metric_fn(point))
        except Exception as exc:  # noqa: BLE001 - isolated per child
            return exc

    population: list[PopulationEntry] = []
    insertion = 0

    init_points = [
        sample_random(derive_seed(cfg.seed, "init", i), space)
        for i in range(cfg.population_init_size)
    ]
    init_evals = [evaluate(p) for p in init_points]
    for res in init_evals:
        if isinstance(res, Exception):
            raise SearchAborted(f"initial population evaluation failed: {res}")
    targets = cfg.targets if cfg.targets is not None else init_evals[0][1]
    log = SearchLog(targets=tuple(targets))
    for point, (loss, metrics) in zip(init_points, init_evals):
        population.append(
            PopulationEntry(point, loss, metrics, criterion(loss, metrics, cfg, targets), insertion)
        )
        insertion += 1

    for gen in range(1, cfg.num_generations + 1):
        parent = sample_and_select(population, cfg, rng)
        children: list[DesignPoint] = []
        for c in range(cfg.num_children):
            child = mutate(
                parent.point, derive_seed(cfg.seed, "mut", gen, c), cfg.num_mutations, space
            )
            children.append(child)

        appended = 0
        child_ids = []
        for child in children:
            res = evaluate(child)
            if isinstance(res, Exception):
                skipped += 1
                logger.warning("skipping child %s: %s", child.point_id[:12], res)
                if skipped > MAX_SKIPPED_CHILDREN:
                    raise SearchAborted(f"{skipped} children failed evaluation")
                continue
            loss, metrics = res
            population.append(
                PopulationEntry(
                    child, loss, metrics, criterion(loss, metrics, cfg, targets), insertion
                )
            )
            insertion += 1
            appended += 1
            child_ids.append(child.point_id)

        population.sort(key=lambda e: (e.criterion, e.insertion))
        if appended:
            del population[-appended:]

        record = GenerationRecord(
            generation=gen,
            best=population[0].criterion,
            median=statistics.median(e.criterion for e in population),
            parent_id=parent.point_id,
            child_ids=child_ids,
            population_size=len(population),
        )
        log.generations.append(record)
        if on_generation is not None:
            on_generation(record)

    log.wall_time_s = time.perf_counter() - t0
    ranked = sorted(population, key=lambda e: (e.criterion, e.insertion))
    for entry in ranked:
        assert validate(entry.point, space).ok  # truncation keeps only valid points
    return SearchResult(population=population, top_entries=ranked[:top_k], log=log)
