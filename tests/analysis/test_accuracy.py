"""Unit tests for the quantization-accuracy harness."""

import math

import numpy as np
import pytest

from repro.analysis import evaluate_accuracy, sqnr_db


class TestSqnr:
    def test_known_ratio(self):
        sig = np.ones(100)
        err = np.full(100, 0.1)
        assert sqnr_db(sig, err) == pytest.approx(20.0)

    def test_zero_error_is_infinite(self):
        assert sqnr_db(np.ones(4), np.zeros(4)) == math.inf

    def test_zero_signal(self):
        assert sqnr_db(np.zeros(4), np.ones(4)) == -math.inf


class TestEvaluateAccuracy:
    def test_report_structure(self, small_accel, small_encoder, small_input):
        report = evaluate_accuracy(small_accel, small_encoder, small_input)
        assert len(report.stages) == 3 * small_accel.config.num_layers
        assert report.output_rms > 0
        assert report.output_sqnr_db > 10  # 8-bit still usable

    def test_fix16_far_better_than_fix8(self, small_accel, small_accel_fix16,
                                        small_encoder, small_input):
        r8 = evaluate_accuracy(small_accel, small_encoder, small_input)
        r16 = evaluate_accuracy(small_accel_fix16, small_encoder, small_input)
        assert r16.output_sqnr_db > r8.output_sqnr_db + 10

    def test_error_accumulates_across_layers(self, small_accel,
                                             small_encoder, small_input):
        """Later layers should not be dramatically more accurate than
        earlier ones — the noise budget compounds."""
        report = evaluate_accuracy(small_accel, small_encoder, small_input)
        outs = [s for s in report.stages if s.stage == "layer_output"]
        assert outs[-1].rms >= outs[0].rms * 0.5

    def test_worst_stage_lookup(self, small_accel, small_encoder,
                                small_input):
        report = evaluate_accuracy(small_accel, small_encoder, small_input)
        worst = report.worst_stage()
        assert worst.sqnr_db == min(s.sqnr_db for s in report.stages)

    def test_three_stages_per_layer_in_layer_order(self, small_accel,
                                                   small_encoder,
                                                   small_input):
        report = evaluate_accuracy(small_accel, small_encoder, small_input)
        layers = [s.layer for s in report.stages]
        assert layers == sorted(layers)
        for layer in range(small_accel.config.num_layers):
            assert sum(s.layer == layer for s in report.stages) == 3
