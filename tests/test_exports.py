"""The package's export lists agree with its modules' export lists."""

import importlib

import pytest

import hermloc

MODULES = ("hermite", "kernels", "estimator", "gaussian_net", "deep_net", "experiments")


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_exists(name):
    module = importlib.import_module(f"hermloc.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_are_the_module_exports():
    assert len(hermloc.__all__) == len(set(hermloc.__all__))
    assert [n for n in hermloc.__all__ if not hasattr(hermloc, n)] == []
    union = {"__version__"}
    for name in MODULES:
        union.update(importlib.import_module(f"hermloc.{name}").__all__)
    assert set(hermloc.__all__) == union
