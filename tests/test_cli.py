"""Command-line surface: determinism, artifacts, exit codes."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimdse.cli import EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
from pimdse.design_space import point_from_json, sample_random, canonical_json


@pytest.fixture
def point_file(tmp_path):
    path = tmp_path / "point.json"
    path.write_text(canonical_json(sample_random(5)) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpace:
    def test_count_prints_big_integer(self, capsys):
        code, out, _ = run_cli(capsys, "space", "count")
        assert code == EXIT_OK
        assert len(out.strip()) >= 53
        assert out.strip().isdigit()

    def test_degenerate_space_counts_one(self, capsys, tmp_path):
        space = {
            "num_blocks": 1,
            "dense_operators": ["FC"],
            "sparse_operators": ["EFC"],
            "dense_dims": [16],
            "sparse_dims": [16],
            "weight_bits": [4],
            "dac_bits": [1],
            "cell_bits": [1],
            "xbar_sizes": [16],
            "adc_bits": [4],
        }
        p = tmp_path / "space.json"
        p.write_text(json.dumps(space))
        code, out, _ = run_cli(capsys, "space", "count", "--space", str(p))
        assert code == EXIT_OK and out.strip() == "1"

    def test_count_report_documents_convention(self, capsys):
        code, out, _ = run_cli(capsys, "space", "count", "--report")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["decimal_digits"] >= 53
        assert "convention" in doc and "global_quant_count" in doc

    def test_sample_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "space", "sample", "--seed", "3", "-n", "2")
        assert code == EXIT_OK
        _, out2, _ = run_cli(capsys, "space", "sample", "--seed", "3", "-n", "2")
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            point_from_json(line)  # parses and round-trips

    def test_bad_space_file_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "space.json"
        p.write_text("{nope")
        code, _, err = run_cli(capsys, "space", "count", "--space", str(p))
        assert code == EXIT_PARSE and "cannot load" in err

    def test_deeply_nested_space_file_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "space.json"
        p.write_text("[" * 200_000)
        code, _, err = run_cli(capsys, "space", "count", "--space", str(p))
        assert code == EXIT_PARSE
        assert f"cannot load space descriptor {p}: maximum recursion depth" in err


class TestUnrealizableSpace:
    """A descriptor the crossbar cannot realize is refused when loaded, by
    every command, before anything is sampled, mapped or costed."""

    def assert_every_command_exits_2(self, capsys, tmp_path, point_file, space, field):
        p = tmp_path / "space.json"
        p.write_text(json.dumps(space))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"num_generations": 1, "population_init_size": 2}')
        out = str(tmp_path / "out")
        for argv in (
            ("space", "sample"),
            ("map", "--point", point_file),
            ("simulate", "--point", point_file),
            ("search", "--search-config", str(cfg), "--out", out),
        ):
            code, _, err = run_cli(capsys, *argv, "--space", str(p))
            assert code == EXIT_PARSE, argv
            assert "cannot load space descriptor" in err and field in err

    def test_zero_blocks(self, capsys, tmp_path, point_file):
        # Used to exit 4 with "tuple index out of range" in map/simulate/search.
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, {"num_blocks": 0}, "num_blocks")

    def test_adc_width_without_converter(self, capsys, tmp_path, point_file):
        # Used to exit 4 with "KeyError: 10" in simulate/search.
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, {"adc_bits": [10]}, "adc_bits")

    def test_weight_width_program_signed_rejects(self, capsys, tmp_path, point_file):
        # Used to let the search explore 2-bit weights and exit 0.
        space = {"weight_bits": [2, 4, 8]}
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, space, "weight_bits")

    def test_adc_menu_with_no_feasible_combination(self, capsys, tmp_path, point_file):
        # Used to make `space sample` print a point that fails validation.
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, {"adc_bits": [1]}, "adc_bits")

    def test_empty_menu(self, capsys, tmp_path, point_file):
        # Used to make `space sample` exit 4 ("Cannot choose from an empty sequence").
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, {"dac_bits": []}, "dac_bits")

    def test_zero_crossbar_size(self, capsys, tmp_path, point_file):
        # Used to let `space sample` exit 0 and `map` exit 4 ("division by zero").
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, {"xbar_sizes": [0]}, "xbar_sizes")

    def test_zero_dense_dim(self, capsys, tmp_path, point_file):
        # Used to let `space sample` exit 0 and `map` exit 4 ("dims must be >= 1").
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, {"dense_dims": [0]}, "dense_dims")

    @pytest.mark.parametrize(
        "field, value",
        [("dense_dims", [16, 1e308]), ("xbar_sizes", [16, 65537]), ("embedding_dim", 65537),
         ("num_blocks", 65), ("num_sparse_features", 4097)],
    )
    def test_sizes_past_the_bounds(self, capsys, tmp_path, point_file, field, value):
        # Used to load: a point of dim 10**308 made `map` and `simulate` exit 4 ("int too
        # large to convert to float"), and a huge block or feature count made `space sample`
        # or the lookup trace run without end.
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, {field: value}, field)

    def test_zero_embedding_dim(self, capsys, tmp_path, point_file):
        # Used to make `space sample` print a point that fails validation.
        space = {"embedding_dim": 0}
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, space, "embedding_dim")

    def test_fm_only_dense_menu_with_one_sparse_feature(self, capsys, tmp_path, point_file):
        # Block 1 reads only the stem, one sparse vector, and an FM needs two:
        # no point is valid. `space count` used to print 8.5e42 and
        # `space sample` a point that `map` rejected with exit 3.
        space = {"num_sparse_features": 1, "dense_operators": ["FM"]}
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, space, "dense_operators")

    def test_duplicate_operator_in_menu(self, capsys, tmp_path, point_file):
        # Used to load, and `space count` counted each copy (3 for a one-point space).
        space = {"dense_operators": ["FC", "FC"]}
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, space, "dense_operators")

    def test_duplicate_dim_in_menu(self, capsys, tmp_path, point_file):
        # Used to load, and `space count` counted each copy.
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, {"dense_dims": [16, 16]}, "dense_dims")

    def test_sparse_kind_in_dense_menu(self, capsys, tmp_path, point_file):
        # Used to sample, map and simulate, then `functional_forward` raised
        # KeyError: 'b1.dense.EFC.fc_out'.
        space = {"num_blocks": 2, "dense_operators": ["EFC"]}
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, space, "dense_operators")

    def test_dense_kind_in_sparse_menu(self, capsys, tmp_path, point_file):
        space = {"sparse_operators": ["EFC", "FC"]}
        self.assert_every_command_exits_2(capsys, tmp_path, point_file, space, "sparse_operators")


class TestTechFile:
    """A technology file is checked when loaded, before any point is costed."""

    @pytest.fixture
    def tech_without_adc8(self, tmp_path):
        from importlib import resources

        tech = json.loads(resources.files("pimdse.data").joinpath("default_tech.json").read_text())
        for table in ("adc_energy", "adc_area"):
            del tech[table]["8"]
        path = tmp_path / "tech.json"
        path.write_text(json.dumps(tech))
        return str(path)

    @pytest.fixture
    def adc8_point_file(self, tmp_path):
        seed = next(s for s in range(100) if sample_random(s).reram.adc_bits == 8)
        path = tmp_path / "adc8.json"
        path.write_text(canonical_json(sample_random(seed)))
        return str(path)

    def test_simulate_rejects_missing_adc_width(self, capsys, tech_without_adc8, adc8_point_file):
        # Used to exit 4 with "internal error: 8" (a KeyError in the area pricing).
        code, _, err = run_cli(capsys, "simulate", "--point", adc8_point_file, "--tech", tech_without_adc8)
        assert code == EXIT_PARSE
        assert "cannot load tech params" in err and "adc_bits [8]" in err

    def test_search_rejects_missing_adc_width(self, capsys, tmp_path, tech_without_adc8):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"num_generations": 1, "population_init_size": 2}')
        code, _, err = run_cli(
            capsys, "search", "--search-config", str(cfg), "--out", str(tmp_path / "out"),
            "--tech", tech_without_adc8,
        )
        assert code == EXIT_PARSE
        assert "cannot load tech params" in err and "adc_bits [8]" in err

    @pytest.fixture
    def overflowing_tech(self, tmp_path):
        from importlib import resources

        tech = json.loads(resources.files("pimdse.data").joinpath("default_tech.json").read_text())
        tech["xbar_read_time"] = 1e308  # accepted, but a read sweep's latency overflows float64
        path = tmp_path / "tech.json"
        path.write_text(json.dumps(tech))
        return str(path)

    def test_simulate_rejects_costs_past_float64(self, capsys, tmp_path, point_file, overflowing_tech):
        # Used to exit 0 printing NaN and Infinity, which are not JSON.
        csv_path = tmp_path / "cost.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--point", point_file, "--tech", overflowing_tech, "--csv", str(csv_path)
        )
        assert code == EXIT_PARSE and out == "" and not csv_path.exists()
        assert f"tech params {overflowing_tech} give a value that is not finite: cost.op_latencies." in err
        assert err.rstrip().endswith("= inf")

    def test_search_rejects_costs_past_float64(self, capsys, tmp_path, overflowing_tech):
        # Used to exit 4: "initial population evaluation failed: float division by zero".
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"num_generations": 1, "population_init_size": 2}')
        code, _, err = run_cli(
            capsys, "search", "--search-config", str(cfg), "--out", str(tmp_path / "out"),
            "--tech", overflowing_tech,
        )
        assert code == EXIT_PARSE
        assert f"tech params {overflowing_tech} give a value that is not finite: inverse_throughput is inf" in err
        assert not (tmp_path / "out").exists()  # used to keep manifest.json and a header-only criterion.csv

    def test_aborted_search_removes_only_what_it_made(self, capsys, tmp_path, overflowing_tech):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"num_generations": 1, "population_init_size": 2}')
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine")
        code, _, _ = run_cli(
            capsys, "search", "--search-config", str(cfg), "--out", str(kept / "a" / "b"),
            "--tech", overflowing_tech,
        )
        assert code == EXIT_PARSE
        assert sorted(p.name for p in kept.iterdir()) == ["notes.txt"]


def _set(doc, keys, value):
    """``doc`` with the value at the key path ``keys`` set; ``()`` replaces it."""
    if not keys:
        return value
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return doc


class TestMalformedFiles:
    """Every input file is decoded by field type. An unknown key or a value
    of the wrong JSON type exits 2 with a message naming its path: never 4,
    never a silent default, and never a truncated or coerced value."""

    CASES = [
        # (file kind, key path in the file, value, what the message names)
        # Each used to exit 4 ...
        ("point", ("model", "blocks", 0, "dense_ops", 0, "weight_bits"), [4],
         "model.blocks[0].dense_ops[0].weight_bits: expected int"),
        ("point", ("model", "blocks", 0, "dense_ops", 0, "inputs"), 0,
         "model.blocks[0].dense_ops[0].inputs: expected a list"),
        ("point", ("model", "blocks"), 5, "model.blocks: expected a list"),
        ("point", ("reram",), None, "reram: expected an object"),
        ("space", ("dense_dims",), 16, "dense_dims: expected a list"),
        ("space", (), [1, 2], "expected an object"),
        ("space", ("num_blocks",), None, "num_blocks: expected int"),
        ("search", ("num_generations",), 2.5, "num_generations: expected int"),
        ("tech", ("adc_energy",), [1, 2], "adc_energy: expected an object"),
        # ... or was ignored, truncated or accepted
        ("point", ("reram", "adc_bitz"), 8, "reram.adc_bitz: unknown key"),
        ("space", ("num_blok",), 2, "num_blok: unknown key"),
        ("space", ("dense_dims",), [16.7, 32], "dense_dims[0]: expected int"),
        ("space", ("num_blocks",), True, "num_blocks: expected int"),
        ("search", ("seed",), "abc", "seed: expected int"),
        ("tech", ("adcs_per_xbar",), 1.5, "adcs_per_xbar: expected int"),
        # ... and other rules, whose messages used to name no path
        ("space", ("dense_operators",), ["XX"], "dense_operators[0]: expected one of FC, EFC"),
        ("search", ("lambdas",), [1, 2], "lambdas: expected 3 items, got 2"),
        ("tech", ("t_bank",), "50", "t_bank: expected a finite number"),
    ]
    NAMES = {
        "point": "design point", "space": "space descriptor", "search": "search config",
        "tech": "tech params",
    }

    @pytest.fixture
    def files(self, point_file):
        from importlib import resources

        return {
            "point": json.loads(Path(point_file).read_text()),
            "space": {},
            "search": {"num_generations": 1, "population_init_size": 2},
            "tech": json.loads(resources.files("pimdse.data").joinpath("default_tech.json").read_text()),
        }

    @pytest.mark.parametrize(
        "kind, keys, value, named",
        CASES,
        ids=[f"{c[0]}:{'.'.join(map(str, c[1]))}={json.dumps(c[2])}" for c in CASES],
    )
    def test_exits_2_naming_the_path(self, capsys, tmp_path, point_file, files, kind, keys, value, named):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(_set(files[kind], keys, value)))
        argv = {
            "point": ("map", "--point", str(path)),
            "space": ("space", "count", "--space", str(path)),
            "search": ("search", "--search-config", str(path), "--out", str(tmp_path / "out")),
            "tech": ("simulate", "--point", point_file, "--tech", str(path)),
        }[kind]
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE
        assert f"cannot load {self.NAMES[kind]} {path}: {named}" in err


class TestMapSimulate:
    def test_map_output_is_stable_json(self, capsys, point_file):
        code, out1, _ = run_cli(capsys, "map", "--point", point_file)
        assert code == EXIT_OK
        _, out2, _ = run_cli(capsys, "map", "--point", point_file)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["tile_plan"]["mvm_tiles"] >= 1

    def test_simulate_reports_cost_and_throughput(self, capsys, point_file):
        code, out, _ = run_cli(capsys, "simulate", "--point", point_file)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"cost", "throughput", "timeline"}
        assert doc["throughput"]["throughput"] > 0

    def test_no_overlap_flag_never_faster(self, capsys, point_file):
        _, fast, _ = run_cli(capsys, "simulate", "--point", point_file)
        _, slow, _ = run_cli(capsys, "simulate", "--point", point_file, "--no-overlap")
        lat_fast = json.loads(fast)["throughput"]["latency"]
        lat_slow = json.loads(slow)["throughput"]["latency"]
        assert lat_fast <= lat_slow + 1e-9

    def test_dp_bearing_point_shows_strict_overlap_savings(self, capsys, tmp_path):
        from pimdse.design_space import (
            BlockConfig,
            DesignPoint,
            ModelConfig,
            OperatorChoice,
            OperatorKind,
            ReRAMConfig,
        )

        blocks = tuple(
            BlockConfig(
                i, 32, 16,
                (OperatorChoice(OperatorKind.DP, 4, (i - 1,)),),
                (OperatorChoice(OperatorKind.EFC, 4, (i - 1,)),),
            )
            for i in range(1, 8)
        )
        pt = DesignPoint(
            model=ModelConfig(blocks, 8, 26, 16),
            reram=ReRAMConfig(1, 2, 16, 8),
        )
        path = tmp_path / "dp_point.json"
        path.write_text(canonical_json(pt))
        _, fast, _ = run_cli(capsys, "simulate", "--point", str(path))
        _, slow, _ = run_cli(capsys, "simulate", "--point", str(path), "--no-overlap")
        assert (
            json.loads(fast)["throughput"]["latency"]
            < json.loads(slow)["throughput"]["latency"]
        )

    def test_csv_flag_writes_cost_table(self, capsys, point_file, tmp_path):
        csv_path = tmp_path / "cost.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--point", point_file, "--csv", str(csv_path)
        )
        assert code == EXIT_OK
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "metric,value"
        assert any(line.startswith("area,") for line in lines)

    @pytest.mark.parametrize("where", ("dir", "missing/cost.csv"), ids=["a_directory", "under_a_missing_dir"])
    def test_bad_csv_path_exits_2_before_any_output(self, capsys, point_file, tmp_path, where):
        # Used to print the report, then exit 4 (IsADirectoryError / FileNotFoundError).
        (tmp_path / "dir").mkdir()
        csv_path = tmp_path / where
        code, stdout, err = run_cli(capsys, "simulate", "--point", point_file, "--csv", str(csv_path))
        assert code == EXIT_PARSE and stdout == ""
        assert f"cannot write cost CSV {csv_path}: " in err
        assert not (tmp_path / "missing").exists()

    def test_timeline_included_for_plotting(self, capsys, point_file):
        _, out, _ = run_cli(capsys, "simulate", "--point", point_file)
        doc = json.loads(out)
        events = doc["timeline"]["events"]
        assert events[0]["stage_id"] == "lookup"
        assert all(e["end"] >= e["start"] for e in events)

    def test_unparseable_point_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _, _ = run_cli(capsys, "map", "--point", str(bad))
        assert code == EXIT_PARSE

    def test_deeply_nested_point_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200_000)
        code, _, err = run_cli(capsys, "map", "--point", str(bad))
        assert code == EXIT_PARSE
        assert f"cannot load design point {bad}: maximum recursion depth" in err

    def test_invalid_point_exits_3(self, capsys, tmp_path, point_file):
        doc = json.loads(Path(point_file).read_text())
        doc["model"]["blocks"][0]["sparse_ops"] = []
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "map", "--point", str(bad))
        assert code == EXIT_VALIDATION and "sparse branch empty" in err

    def test_point_outside_the_space_exits_3(self, capsys, tmp_path, point_file):
        doc = json.loads(Path(point_file).read_text())
        doc["model"]["num_sparse_features"] = 999
        doc["model"]["embedding_dim"] = 3
        bad = tmp_path / "elsewhere.json"
        bad.write_text(json.dumps(doc))
        for command in ("map", "simulate"):
            code, _, err = run_cli(capsys, command, "--point", str(bad))
            assert code == EXIT_VALIDATION
            assert "expected num_sparse_features 26, got 999" in err
            assert "expected embedding_dim 16, got 3" in err


class TestSearch:
    @pytest.fixture
    def cfg_file(self, tmp_path):
        cfg = {
            "num_generations": 4,
            "num_children": 2,
            "num_mutations": 1,
            "population_init_size": 6,
            "tournament_size": 3,
            "seed": 0,
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_one_generation_smoke_run_is_fast(self, capsys, tmp_path):
        import time

        cfg = {
            "num_generations": 1,
            "num_children": 2,
            "num_mutations": 1,
            "population_init_size": 8,
            "tournament_size": 3,
            "seed": 1,
        }
        p = tmp_path / "smoke.json"
        p.write_text(json.dumps(cfg))
        t0 = time.perf_counter()
        code, _, _ = run_cli(capsys, "search", "--search-config", str(p), "--out", str(tmp_path / "smoke_out"))
        elapsed = time.perf_counter() - t0
        assert code == EXIT_OK and elapsed < 10.0

    def test_artifacts_and_determinism(self, capsys, tmp_path, cfg_file):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        code, _, _ = run_cli(capsys, "search", "--search-config", cfg_file, "--out", str(out1))
        assert code == EXIT_OK
        run_cli(capsys, "search", "--search-config", cfg_file, "--out", str(out2))

        names = sorted(p.name for p in out1.iterdir())
        assert names == ["criterion.csv", "manifest.json", "search_log.json", "top_points.json"]

        for name in ("criterion.csv", "search_log.json", "top_points.json"):
            assert (out1 / name).read_text() == (out2 / name).read_text()

        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["command"] == "search" and manifest["seed"] == 0

        log = json.loads((out1 / "search_log.json").read_text())
        assert log["_manifest"] == "manifest.json"
        assert len(log["generations"]) == 4

        top = json.loads((out1 / "top_points.json").read_text())
        assert top["_manifest"] == "manifest.json"
        assert len(top["entries"]) >= 1

        csv_lines = (out1 / "criterion.csv").read_text().splitlines()
        assert csv_lines[0] == "# manifest=manifest.json"
        assert csv_lines[1] == "generation,best,median"
        assert len(csv_lines) == 2 + 4

    def test_seed_override(self, capsys, tmp_path, cfg_file):
        out = tmp_path / "seeded"
        run_cli(capsys, "search", "--search-config", cfg_file, "--out", str(out), "--seed", "9")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9

    @pytest.mark.parametrize(
        "rows, named",
        [
            (f"{'ab' * 32},notanumber", "line 2: bad number"),
            (f"{'ab' * 32},nan", "line 2: log_loss must be positive and finite, got nan"),
            (None, "No such file or directory"),
        ],
        ids=["bad_number", "nan", "missing_file"],
    )
    def test_bad_external_losses_exit_2_before_any_output(
        self, capsys, tmp_path, cfg_file, rows, named
    ):
        ext = tmp_path / "ext.csv"
        if rows is not None:
            ext.write_text(f"point_id,log_loss\n{rows}\n")
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "search", "--search-config", cfg_file, "--external", str(ext), "--out", str(out)
        )
        assert code == EXIT_PARSE
        assert f"cannot load external losses {ext}: " in err and named in err
        assert not out.exists()  # refused before the manifest is written

    @pytest.mark.parametrize("below", ("x", ""), ids=["under_a_file", "a_file"])
    def test_out_blocked_by_a_file_exits_2_before_any_output(self, capsys, tmp_path, cfg_file, below):
        # Used to exit 4: NotADirectoryError under a file, FileExistsError on one.
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / below if below else afile
        code, stdout, err = run_cli(capsys, "search", "--search-config", cfg_file, "--out", str(out))
        assert code == EXIT_PARSE and stdout == ""
        assert f"cannot create output directory {out}: " in err
        assert afile.read_text() == "kept\n" and sorted(tmp_path.iterdir()) == sorted([afile, tmp_path / "cfg.json"])

    @pytest.mark.parametrize(
        "edit",
        [{"targets": [1e-320, 1, 1]}, {"lambdas": [1e308, 1e308, 1e308]}],
        ids=["tiny_target", "huge_lambdas"],
    )
    def test_criterion_past_float64_exits_2_and_leaves_nothing(self, capsys, tmp_path, edit):
        # Used to exit 4 ("Out of range float values are not JSON compliant: inf"),
        # leaving manifest.json, a criterion.csv of "1,inf,inf" and a half-written search_log.json.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_generations": 1, "population_init_size": 2, "num_children": 1} | edit))
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "search", "--search-config", str(cfg), "--out", str(out))
        assert code == EXIT_PARSE and stdout == ""
        assert f"search config {cfg} gives a criterion that is not finite: criterion is inf" in err
        assert "tech params" not in err and not out.exists()

    def test_criterion_past_float64_from_a_tech_file_names_both_inputs(self, capsys, tmp_path):
        # With "targets": null the first initial point's metrics are the targets. This tech file
        # makes that point's area subnormal (its ADCs are 4-bit) and the second point's normal.
        from importlib import resources

        tech = json.loads(resources.files("pimdse.data").joinpath("default_tech.json").read_text())
        tech.update(dict.fromkeys(("dac_area", "cell_area", "mbsa_area", "buffer_area_per_byte"), 5e-324))
        tech["adc_area"]["4"] = 5e-324
        tech_path, cfg = tmp_path / "tech.json", tmp_path / "cfg.json"
        tech_path.write_text(json.dumps(tech))
        cfg.write_text('{"num_generations": 1, "population_init_size": 2, "num_children": 1, "targets": null}')
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            capsys, "search", "--search-config", str(cfg), "--tech", str(tech_path), "--out", str(out)
        )
        assert code == EXIT_PARSE and stdout == "" and not out.exists()
        assert f"search config {cfg} with tech params {tech_path} gives a criterion that is not finite" in err

    def test_bad_config_exits_2(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"num_generations": 0}')
        code, _, _ = run_cli(capsys, "search", "--search-config", str(p), "--out", str(tmp_path / "x"))
        assert code == EXIT_PARSE


def _nodes(doc, path=()):
    """(path, value) of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Each one-edit kind, with the values it applies to.
_EDITS = {
    "drop": lambda path, value: True,
    "rename": lambda path, value: isinstance(path[-1], str),
    "retype": lambda path, value: True,
    "out-of-range": lambda path, value: _is_number(value),
    "reverse": lambda path, value: isinstance(value, list) and len(value) > 1,
}
_OTHER_TYPES = (None, True, "16", [], {}, 2.5, [16])
_OUT_OF_RANGE = (-1, 0, 3, 1025, 2**63, -(2**63), 10**40, 1e308, 1e-320, math.inf, math.nan)


def _one_edit(doc, data):
    """Apply to ``doc`` one edit drawn from ``data``: drop or rename a key,
    give a value another JSON type, push a number out of range, or reverse
    a list."""
    nodes = list(_nodes(doc))
    keys = sorted({p[-1] for p, _ in nodes if isinstance(p[-1], str)})
    kinds = [e for e in sorted(_EDITS) if any(_EDITS[e](*n) for n in nodes)]  # a tech file has no list to reverse
    edit = data.draw(st.sampled_from(kinds), label="edit")
    path, value = data.draw(st.sampled_from([n for n in nodes if _EDITS[edit](*n)]), label="node")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if edit == "drop":
        del parent[key]
    elif edit == "rename":
        parent[data.draw(st.sampled_from([k for k in keys if k != key] + [key + "s"]))] = parent.pop(key)
    elif edit == "retype":
        parent[key] = data.draw(st.sampled_from([v for v in _OTHER_TYPES if type(v) is not type(value)]))
    elif edit == "out-of-range":
        parent[key] = data.draw(st.sampled_from(_OUT_OF_RANGE))
    else:
        value.reverse()


def _exit_codes(*argvs):
    """``(exit code, stderr)`` of each command line, run in turn."""
    codes = []
    for argv in argvs:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            codes.append((main(list(argv)), err.getvalue()))
    return codes


class TestOneEditedPointFile:
    """A design-point file one edit away from a valid one: ``map`` and
    ``simulate`` exit 0 (still valid), 2 (does not decode) or 3 (fails
    ``validate``), never 4, which is an internal error."""

    @settings(max_examples=150)
    @given(seed=st.integers(0, 3), data=st.data())
    def test_map_and_simulate_never_exit_4(self, tmp_path_factory, seed, data):
        doc = json.loads(canonical_json(sample_random(seed)))
        _one_edit(doc, data)
        point = tmp_path_factory.mktemp("edited") / "point.json"
        point.write_text(json.dumps(doc))
        for code, err in _exit_codes(*([command, "--point", str(point)] for command in ("map", "simulate"))):
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION), err


# A search small enough to run per example: three evaluations.
_TINY_SEARCH = {
    "num_generations": 1, "num_children": 1, "num_mutations": 1, "lambdas": [0.1, 0.1, 0.1],
    "targets": [1.0, 1.0, 1.0], "population_init_size": 2, "tournament_size": 2, "seed": 0,
}


class TestOneEditedInputFile:
    """A space descriptor, technology file or search configuration one edit
    away from a valid one: every command that reads it exits 0, 2 or 3,
    never 4. The design point is a valid default-space point."""

    @staticmethod
    def _base(kind):
        from dataclasses import asdict
        from importlib import resources

        from pimdse.design_space import DEFAULT_SPACE

        if kind == "space":
            return json.loads(json.dumps(asdict(DEFAULT_SPACE)))
        if kind == "tech":
            return json.loads(resources.files("pimdse.data").joinpath("default_tech.json").read_text())
        return json.loads(json.dumps(_TINY_SEARCH))

    @pytest.mark.parametrize("kind", ["space", "tech", "search"])
    @settings(max_examples=100)
    @given(data=st.data())
    def test_every_command_never_exits_4(self, tmp_path_factory, kind, data):
        doc = self._base(kind)
        _one_edit(doc, data)
        tmp = tmp_path_factory.mktemp("edited")
        edited, cfg, point = tmp / f"{kind}.json", tmp / "cfg.json", tmp / "point.json"
        edited.write_text(json.dumps(doc))
        cfg.write_text(json.dumps(_TINY_SEARCH))
        point.write_text(canonical_json(sample_random(5)))
        search = ["search", "--search-config", str(cfg), "--out", str(tmp / "out")]
        if kind == "space":
            flag = ["--space", str(edited)]
            argvs = (
                ["space", "count", *flag], ["space", "count", "--report", *flag],
                ["space", "sample", "-n", "2", *flag],
                ["map", "--point", str(point), *flag], ["simulate", "--point", str(point), *flag],
                [*search, *flag],
            )
        elif kind == "tech":
            flag = ["--tech", str(edited)]
            argvs = (["simulate", "--point", str(point), *flag], [*search, *flag])
        else:
            argvs = (["search", "--search-config", str(edited), "--out", str(tmp / "out")],)
        for code, err in _exit_codes(*argvs):
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION), err
