"""The package's exported names."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import simplexlms

MODULES = [m.name for m in pkgutil.iter_modules(simplexlms.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a stale __all__ entry breaks star imports, and the span tracer of the
    # benchmark would skip the missing name without a word
    module = importlib.import_module(f"simplexlms.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"simplexlms.{name}.__all__ names missing functions: {missing}"


def test_star_imports_work():
    for name in ["simplexlms"] + [f"simplexlms.{m}" for m in MODULES]:
        exec(f"from {name} import *", {})


def test_readme_names_resolve():
    # a README that still names a removed function fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    dotted = set(re.findall(r"simplexlms\.(\w+)\.(\w+)", readme))
    assert ("lms", "theory_report") in dotted
    missing = [f"simplexlms.{module}.{name}" for module, name in sorted(dotted)
               if not hasattr(importlib.import_module(f"simplexlms.{module}"), name)]
    assert not missing, f"README.md names missing functions: {missing}"
