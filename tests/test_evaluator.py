"""Surrogate loss behavior and external-measurement ingestion."""

import logging
import math

import pytest

from pimdse.design_space import (
    BlockConfig,
    DesignPoint,
    ModelConfig,
    OperatorChoice,
    OperatorKind,
    ReRAMConfig,
    sample_random,
)
from pimdse.evaluator import (
    EvalResult,
    ParseError,
    SurrogateParams,
    ingest_external,
    surrogate_loss,
)


def point_with_dense_ops(dense_kinds, final_bits=8):
    blocks = []
    for i in range(1, 8):
        dense = tuple(OperatorChoice(k, 8, (0,)) for k in dense_kinds)
        blocks.append(
            BlockConfig(
                i, 32, 16, dense, (OperatorChoice(OperatorKind.EFC, 8, (0,)),)
            )
        )
    model = ModelConfig(tuple(blocks), final_bits, 26, 16)
    return DesignPoint(model=model, reram=ReRAMConfig(1, 1, 16, 4))


class TestSurrogate:
    def test_deterministic(self):
        pt = sample_random(1)
        sp = SurrogateParams()
        assert surrogate_loss(pt, sp) == surrogate_loss(pt, sp)

    def test_interaction_strictly_reduces_loss(self):
        sp = SurrogateParams(noise_scale=0.0)
        base = point_with_dense_ops([OperatorKind.FC])
        with_fm = point_with_dense_ops([OperatorKind.FC, OperatorKind.FM])
        assert surrogate_loss(with_fm, sp).log_loss < surrogate_loss(base, sp).log_loss

    def test_low_bit_boundary_fc_increases_loss(self):
        sp = SurrogateParams(noise_scale=0.0)
        hi = point_with_dense_ops([OperatorKind.FC], final_bits=8)
        lo = point_with_dense_ops([OperatorKind.FC], final_bits=4)
        assert surrogate_loss(lo, sp).log_loss > surrogate_loss(hi, sp).log_loss

    def test_distribution_has_variance(self):
        sp = SurrogateParams()
        losses = {round(surrogate_loss(sample_random(s), sp).log_loss, 9) for s in range(200)}
        assert len(losses) > 20

    def test_loss_floor(self):
        sp = SurrogateParams(base_loss=0.02, capacity_weight=1.0, noise_scale=0.0)
        assert surrogate_loss(sample_random(0), sp).log_loss == 0.01

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            EvalResult(log_loss=0.0, auc=None, source="surrogate")
        with pytest.raises(ValueError):
            EvalResult(log_loss=0.4, auc=1.5, source="external")

    @pytest.mark.parametrize(
        "name, value",
        [("capacity_weight", math.inf), ("noise_scale", math.nan), ("base_loss", -math.inf), ("interaction_bonus", math.nan)],
    )
    def test_non_finite_surrogate_weight_is_refused(self, name, value):
        # capacity_weight=inf scored every point at the loss floor, and
        # noise_scale=nan passed the < 0 check to fail inside EvalResult.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SurrogateParams(**{name: value})

    @pytest.mark.parametrize("log_loss", [math.nan, math.inf])
    def test_non_finite_log_loss_is_refused(self, log_loss):
        with pytest.raises(ValueError, match="positive and finite"):
            EvalResult(log_loss=log_loss, auc=None, source="external")


class TestIngestExternal:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("point_id,log_loss,auc\n")
        assert ingest_external(str(p)) == {}

    def test_single_row(self, tmp_path):
        pid = "ab" * 32
        p = tmp_path / "ext.csv"
        p.write_text(f"point_id,log_loss,auc\n{pid},0.4397,0.8116\n")
        got = ingest_external(str(p))
        assert got == {pid: EvalResult(0.4397, 0.8116, "external")}

    def test_auc_optional(self, tmp_path):
        pid = "cd" * 32
        p = tmp_path / "ext.csv"
        p.write_text(f"point_id,log_loss\n{pid},0.3736\n")
        assert ingest_external(str(p))[pid].auc is None

    def test_duplicate_last_wins(self, tmp_path, caplog):
        pid = "ef" * 32
        p = tmp_path / "ext.csv"
        p.write_text(f"point_id,log_loss\n{pid},0.5\n{pid},0.4\n")
        logger = logging.getLogger("test_ingest")
        with caplog.at_level(logging.WARNING, logger="test_ingest"):
            got = ingest_external(str(p), logger=logger)
        assert got[pid].log_loss == 0.4
        assert any("duplicate" in r.message for r in caplog.records)

    def test_missing_header_is_parse_error(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("abcd,0.5\n")
        with pytest.raises(ParseError) as err:
            ingest_external(str(p))
        assert err.value.line_no == 1

    def test_bad_number_reports_line(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("point_id,log_loss\nxyz,notanumber\n")
        with pytest.raises(ParseError) as err:
            ingest_external(str(p))
        assert err.value.line_no == 2
