"""Every name in a layer module's ``__all__`` exists.

The benchmark tracer wraps each ``__all__`` name of these modules, so a stale
entry would stop every traced run.
"""

import importlib

import pytest

LAYERS_WITH_ALL = ("hamiltonian", "spectral", "ensemble", "closedform", "lee", "perturbation",
                   "recurrence", "fock_oracle")


@pytest.mark.parametrize("layer", LAYERS_WITH_ALL)
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"qsurvival.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
