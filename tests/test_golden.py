"""Golden digests of the scoring path and the composite-operator layout.

The digests were recorded before the scoring path was simplified (one
engine-overlap formula, typed composite parts, stage times computed once
per ``simulate``); any change in a result, down to the last bit of a
float, changes a digest. Floats are serialized with ``repr`` by ``json``,
so equal digests mean bit-identical values.
"""

import hashlib
import json

import numpy as np

from pimdse.cli import EXIT_PARSE, main
from pimdse.cost_model import default_tech, model_cost
from pimdse.design_space import sample_random
from pimdse.evaluator import SurrogateParams
from pimdse.mapping import Engine, map_model, random_weights
from pimdse.pipeline import schedule, simulate, zipf_lookup_model
from pimdse.search import SearchConfig, default_hw_metrics, default_loss, run_search

TECH = default_tech()

SEARCH_DIGEST = "7d90e40fcfa719efe757489e8d6a73127e8825b9286213d39944d57b12d07760"
SCORING_DIGEST = "6bc3db13d0edc51c1ebb5898f36961baaeec1ed6178cf27255ea92661f0c70e6"
WEIGHTS_DIGEST = "792242f47e348c69652a0e597175665a96d2f704c2cbe3681b9256fd54950ff0"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def sampled_points(n=50):
    return [sample_random(1000 + i) for i in range(n)]


def test_search_log_and_top_entries_digest():
    cfg = SearchConfig(
        num_generations=10, num_children=4, num_mutations=2,
        population_init_size=8, tournament_size=3, seed=7,
    )
    result = run_search(
        cfg, default_loss(SurrogateParams(seed=7)), default_hw_metrics(TECH, seed=7)
    )
    top = [[e.point_id, e.loss, list(e.metrics), e.criterion] for e in result.top_entries]
    assert sha256(result.log.to_canonical_json() + json.dumps(top)) == SEARCH_DIGEST


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
