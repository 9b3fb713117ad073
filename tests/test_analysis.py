"""Statistics helper tests."""

import pytest

from repro.analysis.stats import arithmetic_mean


def test_arithmetic_mean():
    assert arithmetic_mean([1, 2, 3]) == 2.0


def test_means_reject_empty():
    with pytest.raises(ValueError):
        arithmetic_mean([])
