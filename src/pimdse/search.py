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
import math
import statistics
import time
from dataclasses import asdict, dataclass, field
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
MAX_COUNT = 1_000_000  # upper bound of every SearchConfig count
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
        for name in (
            "num_generations", "num_children", "num_mutations", "population_init_size", "tournament_size"
        ):
            count = getattr(self, name)
            if type(count) is not int or count < 1:
                raise ValueError(f"{name} must be an int >= 1, got {count!r}")
            if count > MAX_COUNT:
                raise ValueError(f"{name} must be <= {MAX_COUNT}, got {count!r}")
        if type(self.seed) is not int:  # derive_seed hashes str(seed): True and 1.0 are not 1
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        # Written so that NaN, which fails every comparison, fails them too.
        if len(self.lambdas) != 3 or not all(0 <= l < math.inf for l in self.lambdas):
            raise ValueError("lambdas must be three finite nonnegative weights")
        if self.targets is not None and (
            len(self.targets) != 3 or not all(0 < t < math.inf for t in self.targets)
        ):
            raise ValueError("targets must be three finite positive values")


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
            "generations": [asdict(g) for g in self.generations],
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


class CriterionOverflow(OverflowError):
    """A criterion that is not finite although its metrics are: the
    config's lambdas or targets scale them past float64. With no targets
    given, the targets are the first point's metrics, so a tech file that
    makes one of them subnormal can cause it too."""


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


def default_lookup_model(tech: TechParams, num_tables: int, seed: int) -> LookupModel:
    """The Zipf lookup trace a search or ``pimdse simulate`` prices with:
    256 rows per table on 8 banks, 16 queries, drawn from ``seed``."""
    return zipf_lookup_model(
        num_tables=num_tables,
        rows_per_table=256,
        num_banks=8,
        num_queries=16,
        seed=derive_seed(seed, "trace"),
        t_bank=tech.t_bank,
    )


def default_hw_metrics(
    tech: TechParams,
    space: SpaceDescriptor = DEFAULT_SPACE,
    seed: int = 0,
    lookup_model: LookupModel | None = None,
) -> Callable[[DesignPoint], tuple[float, float, float]]:
    """Map -> cost -> pipeline, shared lookup trace across all candidates."""
    if lookup_model is None:
        lookup_model = default_lookup_model(tech, space.num_sparse_features, seed)

    def metrics(point: DesignPoint) -> tuple[float, float, float]:
        mm = map_model(point)
        cost = model_cost(mm, tech)
        report = simulate(mm, tech, lookup_model=lookup_model)
        # An infinite bottleneck gives throughput 0: an infinite metric.
        inverse_throughput = 1.0 / report.throughput if report.throughput else math.inf
        return (inverse_throughput, cost.area, cost.peak_power)

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
    """Run the evolution loop; see the module docstring for the semantics.

    ``top_k``, the number of best entries returned, must be an int >= 0;
    it is checked before the first evaluation."""
    if type(top_k) is not int or top_k < 0:
        raise ValueError(f"top_k must be an int >= 0, got {top_k!r}")
    t0 = time.perf_counter()
    rng = Random(cfg.seed)
    skipped = 0

    def evaluate(point: DesignPoint) -> tuple[float, tuple[float, float, float]]:
        """(loss, metrics) of a point.

        Evaluation is a pure function of the point, so a repeated child is
        simply evaluated again and gets the same numbers. A metric that is
        not finite, as costs past float64 give, fails it with ``OverflowError``.
        """
        loss, metrics = loss_fn(point), tuple(metric_fn(point))
        for name, value in zip(METRIC_NAMES, metrics):
            if not math.isfinite(value):
                raise OverflowError(f"{name} is {value!r}")
        return loss, metrics

    def entry(point: DesignPoint, loss: float, metrics) -> PopulationEntry:
        """``point``'s population entry; ``CriterionOverflow`` for a
        criterion that is not finite."""
        crit = criterion(loss, metrics, cfg, targets)
        if not math.isfinite(crit):
            raise CriterionOverflow(f"criterion is {crit!r}")
        return PopulationEntry(point, loss, metrics, crit, insertion)

    population: list[PopulationEntry] = []
    insertion = 0

    init_points = [
        sample_random(derive_seed(cfg.seed, "init", i), space)
        for i in range(cfg.population_init_size)
    ]
    try:  # every point is evaluated before the first one is scored
        init_evals = [evaluate(p) for p in init_points]
        targets = cfg.targets if cfg.targets is not None else init_evals[0][1]
        for point, res in zip(init_points, init_evals):
            population.append(entry(point, *res))
            insertion += 1
    except Exception as exc:  # noqa: BLE001 - reported as the search's cause
        raise SearchAborted(f"initial population evaluation failed: {exc}") from exc
    log = SearchLog(targets=tuple(targets))

    for gen in range(1, cfg.num_generations + 1):
        parent = sample_and_select(population, cfg, rng)
        children = [
            mutate(parent.point, derive_seed(cfg.seed, "mut", gen, c), cfg.num_mutations, space)
            for c in range(cfg.num_children)
        ]

        child_ids = []
        for child in children:
            try:
                new = entry(child, *evaluate(child))
            except Exception as exc:  # noqa: BLE001 - isolated per child
                skipped += 1
                logger.warning("skipping child %s: %s", child.point_id[:12], exc)
                if skipped > MAX_SKIPPED_CHILDREN:
                    raise SearchAborted(f"{skipped} children failed evaluation") from exc
                continue
            population.append(new)
            insertion += 1
            child_ids.append(child.point_id)

        population.sort(key=lambda e: (e.criterion, e.insertion))
        if child_ids:  # one entry dropped per child appended
            del population[-len(child_ids):]

        median = statistics.median(e.criterion for e in population)
        if not math.isfinite(median):  # the mean of two criteria near the float64 limit
            overflow = CriterionOverflow(f"median criterion is {median!r}")
            raise SearchAborted(f"generation {gen} failed: {overflow}") from overflow
        record = GenerationRecord(
            generation=gen,
            best=population[0].criterion,
            median=median,
            parent_id=parent.point_id,
            child_ids=child_ids,
            population_size=len(population),
        )
        log.generations.append(record)
        if on_generation is not None:
            on_generation(record)

    log.wall_time_s = time.perf_counter() - t0
    ranked = sorted(population, key=lambda e: (e.criterion, e.insertion))
    assert all(validate(e.point, space).ok for e in ranked)  # truncation keeps only valid points
    return SearchResult(population=population, top_entries=ranked[:top_k], log=log)
