"""Golden digests of the scoring path and the composite-operator layout.

``SEARCH_DIGEST``, ``SCORING_DIGEST`` and ``WEIGHTS_DIGEST`` were recorded
before the scoring path was simplified (one engine-overlap formula, typed
composite parts, stage times computed once per ``simulate``).
``CLI_DIGEST`` was recorded before the crossbar's orientation tag and
tile dump, ``Schedule.occupancy`` and the functional path's activation
width parameter were deleted; it pins the bytes ``pimdse map`` and
``pimdse simulate`` print and write. ``REPEATS_DIGEST`` was recorded while ``run_search`` still cached
evaluations by point id, on a small space where that cache answered 17 of
88 candidates; it shows that evaluating a repeated child again gives the
same search. Any change in a result, down to the last bit of a float,
changes a digest. Floats are serialized with ``repr`` by ``json``, so
equal digests mean bit-identical values.
"""

import hashlib
import json

import numpy as np

from pimdse.cli import EXIT_PARSE, main
from pimdse.cost_model import default_tech, model_cost
from pimdse.design_space import SpaceDescriptor, canonical_json, sample_random
from pimdse.evaluator import SurrogateParams
from pimdse.mapping import Engine, map_model, random_weights
from pimdse.pipeline import schedule, simulate, zipf_lookup_model
from pimdse.search import SearchConfig, default_hw_metrics, default_loss, run_search

TECH = default_tech()

SEARCH_DIGEST = "7d90e40fcfa719efe757489e8d6a73127e8825b9286213d39944d57b12d07760"
SCORING_DIGEST = "6bc3db13d0edc51c1ebb5898f36961baaeec1ed6178cf27255ea92661f0c70e6"
WEIGHTS_DIGEST = "792242f47e348c69652a0e597175665a96d2f704c2cbe3681b9256fd54950ff0"
REPEATS_DIGEST = "58a40a1725ee1125981a8e20ab0ecf109aa7221134f2d06e26aa352ed5fde8e1"
CLI_DIGEST = "1f659d892819f0d4c6d139a534647b0f9aea64c6612fdb39418bbc14ce1428a9"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def sampled_points(n=50):
    return [sample_random(1000 + i) for i in range(n)]


def search_digest(result) -> str:
    top = [[e.point_id, e.loss, list(e.metrics), e.criterion] for e in result.top_entries]
    return sha256(result.log.to_canonical_json() + json.dumps(top))


def test_search_log_and_top_entries_digest():
    cfg = SearchConfig(
        num_generations=10, num_children=4, num_mutations=2,
        population_init_size=8, tournament_size=3, seed=7,
    )
    result = run_search(
        cfg, default_loss(SurrogateParams(seed=7)), default_hw_metrics(TECH, seed=7)
    )
    assert search_digest(result) == SEARCH_DIGEST


def test_search_with_repeated_children_digest():
    # Two blocks, a one-width sparse menu and one crossbar size, with one
    # mutation per child: many children repeat a point already evaluated.
    space = SpaceDescriptor(
        num_blocks=2, dense_dims=(16, 32), sparse_dims=(16,), xbar_sizes=(16,),
        num_sparse_features=4, embedding_dim=8,
    )
    cfg = SearchConfig(
        num_generations=20, num_children=4, num_mutations=1,
        population_init_size=8, tournament_size=3, seed=0,
    )
    hw = default_hw_metrics(TECH, space, seed=0)
    evaluated = []

    def metric_fn(point):
        evaluated.append(point.point_id)
        return hw(point)

    result = run_search(cfg, default_loss(SurrogateParams(seed=0)), metric_fn, space)
    assert search_digest(result) == REPEATS_DIGEST
    candidates = cfg.population_init_size + cfg.num_generations * cfg.num_children
    assert len(evaluated) == candidates  # once per candidate, repeats included
    assert len(set(evaluated)) < candidates


def test_cost_simulate_schedule_digest():
    lookup = zipf_lookup_model(
        num_tables=26, rows_per_table=256, num_banks=8, num_queries=16, seed=3,
        t_bank=TECH.t_bank,
    )
    records = []
    for point in sampled_points():
        mm = map_model(point)
        record = {"cost": model_cost(mm, TECH).to_dict()}
        for overlap in (True, False):
            record[f"simulate_{overlap}"] = simulate(
                mm, TECH, lookup_model=lookup, overlap=overlap
            ).to_dict()
            record[f"schedule_{overlap}"] = schedule(mm, TECH, overlap=overlap).to_dict()
        records.append(record)
    assert sha256(json.dumps(records, sort_keys=True)) == SCORING_DIGEST


def test_map_and_simulate_cli_output_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    for seed in (21, 22):
        point = tmp_path / f"point{seed}.json"
        point.write_text(canonical_json(sample_random(seed)) + "\n")
        csv = tmp_path / f"cost{seed}.csv"
        for argv in (
            ["map", "--point", str(point)],
            ["simulate", "--point", str(point), "--csv", str(csv)],
            ["simulate", "--point", str(point), "--no-overlap"],
        ):
            assert main(argv) == 0
            digest.update(capsys.readouterr().out.encode("ascii"))
        digest.update(csv.read_bytes())
    assert digest.hexdigest() == CLI_DIGEST


def test_random_weights_digest():
    digest = hashlib.sha256()
    for point in sampled_points(4):
        for op_id, w in random_weights(map_model(point), seed=11).items():
            digest.update(op_id.encode("ascii"))
            digest.update(np.ascontiguousarray(w, dtype="<i8").tobytes())
    assert digest.hexdigest() == WEIGHTS_DIGEST


def test_composites_are_front_engine_fc_out():
    composites = 0
    for point in sampled_points():
        for op in map_model(point).operators:
            if not op.parts:
                continue
            composites += 1
            *front, engine, fc_out = op.parts
            assert engine.engine is op.engine and engine.engine in (Engine.DP, Engine.FM)
            assert not engine.parts
            assert op.programming_vectors == engine.programming_vectors
            assert fc_out.engine is Engine.MVM and not fc_out.parts
            assert all(p.engine is Engine.MVM and not p.parts for p in front)
            assert len(front) == (2 if op.engine is Engine.DP else 0)
    assert composites > 0


def test_search_config_with_workers_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_generations": 1, "workers": 2}))
    code = main(["search", "--search-config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert "workers" in err
