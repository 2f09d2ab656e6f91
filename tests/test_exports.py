"""The package's export lists agree with its modules' export lists."""

import ast
import importlib
from pathlib import Path

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


# each module imports only from modules of an earlier group; the three
# modules of the fourth group import nothing from each other
LAYERS = (("hermite",), ("kernels",), ("estimator",),
          ("experiments", "gaussian_net", "deep_net"), ("cli",))


def test_modules_import_only_from_earlier_layers():
    layer = {name: i for i, group in enumerate(LAYERS) for name in group}
    src = Path(hermloc.__file__).parent
    upward = []
    for name in layer:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [(name, t) for t in targets if layer[t] >= layer[name]]
    assert upward == []
