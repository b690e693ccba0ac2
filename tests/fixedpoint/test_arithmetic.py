"""Unit tests for the FxTensor integer datapath."""

import numpy as np
import pytest

from repro.fixedpoint import FxTensor, QFormat

Q84 = QFormat(8, 4)


class TestFxTensor:
    def test_from_float_roundtrip(self):
        x = np.array([[0.5, -1.25], [3.0, 0.0]])
        t = FxTensor.from_float(x, Q84)
        assert np.allclose(t.to_float(), x)

    def test_out_of_range_raw_rejected(self):
        with pytest.raises(ValueError):
            FxTensor(np.array([300]), Q84)

    def test_astype_requantizes(self):
        t = FxTensor(np.array([16]), QFormat(16, 8))
        narrow = t.astype(Q84)
        assert narrow.raw[0] == 1
        assert narrow.to_float()[0] == pytest.approx(16 / 256)

    def test_getitem_preserves_format(self):
        t = FxTensor(np.arange(10), QFormat(16, 4))
        assert t[2:5].fmt == t.fmt
        assert t[2:5].raw.tolist() == [2, 3, 4]

