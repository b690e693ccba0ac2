"""Unit tests: CPU/GPU platforms reproduce their published anchors."""

import pytest

from repro.baselines import (
    intel_i5_4460,
    intel_i5_5257u,
    jetson_tx2,
    rtx_3060,
    titan_xp_hep,
    titan_xp_nlp,
)
from repro.nn import get_model


class TestAnchorsReproduced:
    """Each platform must reproduce its cited Table III latency on its
    anchor workload (by construction — this guards the transcription)."""

    def test_i5_5257u(self):
        assert intel_i5_5257u().latency_ms(
            get_model("model1-peng-isqed21")) == pytest.approx(3.54, rel=1e-6)

    def test_jetson_tx2(self):
        assert jetson_tx2().latency_ms(
            get_model("model1-peng-isqed21")) == pytest.approx(0.673, rel=1e-6)

    def test_titan_xp_hep(self):
        assert titan_xp_hep().latency_ms(
            get_model("model2-lhc-trigger")) == pytest.approx(1.062, rel=1e-6)

    def test_i5_4460(self):
        assert intel_i5_4460().latency_ms(
            get_model("model3-efa-trans")) == pytest.approx(4.66, rel=1e-6)

    def test_rtx_3060(self):
        assert rtx_3060().latency_ms(
            get_model("model3-efa-trans")) == pytest.approx(0.71, rel=1e-6)

    def test_titan_xp_nlp(self):
        assert titan_xp_nlp().latency_ms(
            get_model("model4-qi-iccad21")) == pytest.approx(147.0, rel=1e-6)


class TestPublishedOrderings:
    def test_tx2_beats_cpu_on_model1(self):
        """Table III row 1: the Jetson is 5.3x faster than the i5."""
        cfg = get_model("model1-peng-isqed21")
        assert jetson_tx2().latency_ms(cfg) < intel_i5_5257u().latency_ms(cfg)

    def test_rtx_beats_cpu_on_model3(self):
        cfg = get_model("model3-efa-trans")
        assert rtx_3060().latency_ms(cfg) < intel_i5_4460().latency_ms(cfg)

    def test_anchor_provenance_recorded(self):
        for platform in (intel_i5_5257u, intel_i5_4460, jetson_tx2,
                         titan_xp_hep, titan_xp_nlp, rtx_3060):
            assert platform().anchor is not None
