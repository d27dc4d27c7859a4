"""Every test module must import.

A test module that fails to import is reported by pytest as one collection
error beside the passing count, and ``--continue-on-collection-errors`` lets
the run go on, so every test in it silently stops running. Importing each
module here turns that into a failed test named after the module.
"""

import importlib
from pathlib import Path

import pytest

MODULES = sorted(path.stem for path in Path(__file__).parent.glob("test_*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
