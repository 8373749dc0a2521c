"""Tests for the measured density of activation and weight arrays."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.compressed import measured_density


class TestSparseDensity:
    def test_density_values(self):
        assert measured_density(np.array([0.0, 1.0, 0.0, 2.0])) == pytest.approx(0.5)
        assert measured_density(np.array([[0.0, 1.0], [3.0, 0.0]])) == pytest.approx(0.5)
        assert measured_density(np.zeros(4)) == 0.0
        assert measured_density(np.array([])) == 0.0
