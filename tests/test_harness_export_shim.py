"""The deprecated ``repro.harness.export`` shim is gone (PR 8).

Result serialization lives in :mod:`repro.core.export`; the harness
package no longer advertises or resolves the old name.
"""

import importlib

import pytest

import repro.harness as harness
from repro.core.export import SCHEMA_VERSION, result_to_dict


def test_shim_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.harness.export")


def test_harness_does_not_expose_export():
    assert "export" not in harness.__all__
    with pytest.raises(AttributeError):
        harness.export


def test_core_export_is_the_canonical_home():
    assert callable(result_to_dict)
    assert isinstance(SCHEMA_VERSION, int)
