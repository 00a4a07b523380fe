"""Evolution-loop semantics: criterion, selection, truncation, determinism."""

import math
import random

import pytest

from pimdse.cost_model import default_tech
from pimdse.design_space import sample_random, validate
from pimdse.evaluator import SurrogateParams
from pimdse.search import (
    CriterionOverflow,
    PopulationEntry,
    SearchAborted,
    SearchConfig,
    criterion,
    default_hw_metrics,
    default_loss,
    run_search,
    sample_and_select,
)

TECH = default_tech()


def small_cfg(**overrides):
    base = dict(
        num_generations=12,
        num_children=4,
        num_mutations=2,
        population_init_size=10,
        tournament_size=4,
        seed=0,
    )
    base.update(overrides)
    return SearchConfig(**base)


class TestCriterion:
    def test_weighted_sum_example(self):
        cfg = SearchConfig(
            lambdas=(0.1, 0.1, 0.1), targets=(1 / 2000, 20.0, 10.0), seed=0
        )
        value = criterion(0.44, (1 / 1000, 10.0, 5.0), cfg)
        assert math.isclose(value, 0.74)

    def test_zero_lambdas_reduce_to_loss(self):
        cfg = SearchConfig(lambdas=(0.0, 0.0, 0.0), targets=(1.0, 1.0, 1.0))
        assert criterion(0.51, (3.0, 4.0, 5.0), cfg) == 0.51

    def test_metrics_at_target_add_lambda_each(self):
        cfg = SearchConfig(lambdas=(1.0, 1.0, 1.0), targets=(2.0, 3.0, 4.0))
        assert math.isclose(criterion(0.5, (2.0, 3.0, 4.0), cfg), 3.5)

    def test_length_checked(self):
        cfg = SearchConfig(targets=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            criterion(0.5, (1.0, 2.0), cfg)


def entry(i, crit):
    return PopulationEntry(sample_random(i), 0.5, (1.0, 1.0, 1.0), crit, insertion=i)


class TestSampleAndSelect:
    def test_population_of_one(self):
        cfg = small_cfg()
        only = entry(0, 0.9)
        assert sample_and_select([only], cfg, random.Random(0)) is only

    def test_full_tournament_returns_global_best(self):
        cfg = small_cfg(tournament_size=50)
        pop = [entry(i, 1.0 - i * 0.01) for i in range(20)]
        assert sample_and_select(pop, cfg, random.Random(1)) is pop[-1]

    def test_fixed_seed_is_deterministic(self):
        cfg = small_cfg()
        pop = [entry(i, random.Random(i).random()) for i in range(30)]
        a = sample_and_select(pop, cfg, random.Random(7))
        b = sample_and_select(pop, cfg, random.Random(7))
        assert a is b

    def test_tie_breaks_by_insertion(self):
        cfg = small_cfg(tournament_size=10)
        pop = [entry(i, 0.5) for i in range(5)]
        assert sample_and_select(pop, cfg, random.Random(3)).insertion == 0


class TestRunSearch:
    def setup_method(self):
        self.loss_fn = default_loss(SurrogateParams(seed=0))
        self.metric_fn = default_hw_metrics(TECH, seed=0)

    def test_population_size_invariant(self):
        cfg = small_cfg(num_generations=1, num_children=1)
        res = run_search(cfg, self.loss_fn, self.metric_fn)
        assert len(res.population) == cfg.population_init_size

    def test_best_monotone_and_survivors_valid(self):
        cfg = small_cfg()
        res = run_search(cfg, self.loss_fn, self.metric_fn)
        bests = [g.best for g in res.log.generations]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bests, bests[1:]))
        for e in res.population:
            assert validate(e.point).ok

    def test_criterion_recomputable_from_stored_fields(self):
        cfg = small_cfg()
        res = run_search(cfg, self.loss_fn, self.metric_fn)
        targets = res.log.targets
        for e in res.population:
            assert math.isclose(
                e.criterion, criterion(e.loss, e.metrics, cfg, targets), rel_tol=1e-15
            )

    def test_byte_reproducible(self):
        cfg = small_cfg()
        a = run_search(cfg, self.loss_fn, self.metric_fn)
        b = run_search(cfg, self.loss_fn, self.metric_fn)
        assert a.log.to_canonical_json() == b.log.to_canonical_json()
        assert [e.point_id for e in a.top_entries] == [e.point_id for e in b.top_entries]

    def test_top_entries_sorted_and_capped(self):
        cfg = small_cfg(population_init_size=20)
        res = run_search(cfg, self.loss_fn, self.metric_fn, top_k=15)
        crits = [e.criterion for e in res.top_entries]
        assert crits == sorted(crits)
        assert len(res.top_entries) == 15

    def test_failing_children_are_skipped_with_bound(self):
        cfg = small_cfg(num_generations=4)
        calls = {"n": 0}

        def flaky_metrics(point):
            calls["n"] += 1
            # healthy during init, then every 5th child evaluation fails
            if calls["n"] > cfg.population_init_size and calls["n"] % 5 == 0:
                raise RuntimeError("transient failure")
            return (1.0, 1.0, 1.0)

        res = run_search(cfg, self.loss_fn, flaky_metrics)
        # Truncation removes only as many entries as were appended, keeping
        # the population size stable even with skipped children.
        assert len(res.population) == cfg.population_init_size

    def test_children_with_non_finite_metrics_are_skipped(self, caplog):
        cfg = small_cfg(num_generations=4)
        calls = {"n": 0}

        def overflowing_metrics(point):
            calls["n"] += 1
            if calls["n"] > cfg.population_init_size and calls["n"] % 2 == 0:
                return (1.0, math.inf, 1.0) if calls["n"] % 4 else (1.0, 1.0, math.nan)
            return (1.0, 1.0, 1.0)

        res = run_search(cfg, self.loss_fn, overflowing_metrics)
        assert all(math.isfinite(m) for e in res.population for m in e.metrics)
        assert sum(len(g.child_ids) for g in res.log.generations) < cfg.num_generations * cfg.num_children
        assert "area is inf" in caplog.text and "peak_power is nan" in caplog.text

    def test_children_whose_criterion_overflows_are_skipped(self, caplog):
        # Finite metrics, scaled past float64 by the config's lambdas.
        cfg = small_cfg(num_generations=4, lambdas=(1e308, 0.0, 0.0), targets=(1.0, 1.0, 1.0))
        calls = {"n": 0}

        def metrics(point):
            calls["n"] += 1
            grown = calls["n"] > cfg.population_init_size and calls["n"] % 2 == 0
            return (1e300 if grown else 1e-300, 1.0, 1.0)

        res = run_search(cfg, self.loss_fn, metrics)
        assert all(math.isfinite(e.criterion) for e in res.population)
        assert sum(len(g.child_ids) for g in res.log.generations) < cfg.num_generations * cfg.num_children
        assert "criterion is inf" in caplog.text

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"targets": (1e-320, 1.0, 1.0)}, "initial population evaluation failed: criterion is inf"),
            ({"lambdas": (1e308, 1e308, 1e308)}, "initial population evaluation failed: criterion is inf"),
            # each criterion is finite, but the mean of two of them is not
            ({"lambdas": (1e308, 0.0, 0.0), "targets": (1.0, 1.0, 1.0)}, "generation 1 failed"),
        ],
        ids=["tiny_target", "huge_lambdas", "median"],
    )
    def test_a_criterion_past_float64_aborts(self, overrides, message):
        cfg = small_cfg(num_generations=1, num_children=1, population_init_size=2, **overrides)
        with pytest.raises(SearchAborted, match=message) as aborted:
            run_search(cfg, self.loss_fn, lambda point: (1.0, 1.0, 1.0))
        assert isinstance(aborted.value.__cause__, CriterionOverflow)

    @pytest.mark.parametrize("top_k", [-1, 2.5, True], ids=["negative", "float", "bool"])
    def test_top_k_is_checked_before_the_first_evaluation(self, top_k):
        # -1 returned all but the last entry, 2.5 failed after the whole
        # search with a TypeError, and True was taken as 1.
        def never(point):
            raise AssertionError("evaluated")

        with pytest.raises(ValueError, match=f"^top_k must be an int >= 0, got {top_k!r}$"):
            run_search(small_cfg(), never, never, top_k=top_k)

    def test_explicit_targets_respected(self):
        cfg = small_cfg(targets=(1.0, 2.0, 3.0))
        res = run_search(cfg, self.loss_fn, self.metric_fn)
        assert res.log.targets == (1.0, 2.0, 3.0)


class TestSearchConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SearchConfig(num_generations=0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            SearchConfig(lambdas=(-0.1, 0.1, 0.1))

    def test_rejects_nonpositive_targets(self):
        with pytest.raises(ValueError):
            SearchConfig(targets=(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_lambdas_and_targets(self, value):
        # Both used to be accepted: NaN fails every comparison, and infinity is positive.
        with pytest.raises(ValueError, match="lambdas must be three finite nonnegative weights"):
            SearchConfig(lambdas=(0.1, value, 0.1))
        with pytest.raises(ValueError, match="targets must be three finite positive values"):
            SearchConfig(targets=(1.0, 1.0, value))

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, True, "3"])
    @pytest.mark.parametrize(
        "name", ["num_generations", "num_children", "num_mutations", "population_init_size", "tournament_size"]
    )
    def test_counts_must_be_ints(self, name, value):
        # NaN, infinity, 2.5 and True used to be accepted (run_search then died with a
        # TypeError), and "3" raised a TypeError here; the file decoder refuses True too.
        with pytest.raises(ValueError, match=f"^{name} must be an int >= 1, got "):
            SearchConfig(**{name: value})
