"""Command-line surface: determinism, artifacts, exit codes."""

import json

import pytest

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

    def test_invalid_point_exits_3(self, capsys, tmp_path, point_file):
        doc = json.loads(open(point_file).read())
        doc["model"]["blocks"][0]["sparse_ops"] = []
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "map", "--point", str(bad))
        assert code == EXIT_VALIDATION and "sparse branch empty" in err


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

    def test_bad_config_exits_2(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"num_generations": 0}')
        code, _, _ = run_cli(capsys, "search", "--search-config", str(p), "--out", str(tmp_path / "x"))
        assert code == EXIT_PARSE
