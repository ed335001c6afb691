"""The public surface: every exported name resolves."""

import pytest

import divtol.cli
import divtol.core
import divtol.estimator
import divtol.ingest
import divtol.simulation

MODULES = [divtol.core, divtol.estimator, divtol.ingest, divtol.simulation, divtol.cli]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []

