"""The package's exported names."""

import ast
import importlib
import inspect
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


def test_readme_signatures_match():
    # a backticked `name(a, b, ...)` of an exported function lists its leading
    # parameters; a span may cross a line break, and math such as `c_X(p)` or a
    # call such as `max_stepsize(moments.c_X)` is not a signature
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"simplexlms.{name}")
        exported.update({n: getattr(module, n) for n in getattr(module, "__all__", [])
                         if inspect.isfunction(getattr(module, n))})
    checked, stale = set(), []
    for name, args in re.findall(r"`(?:simplexlms\.\w+\.)?(\w+)\(([\w\s,]*)\)`", readme):
        if name not in exported:
            continue
        listed = [a.strip() for a in args.split(",")]
        params = list(inspect.signature(exported[name]).parameters)
        checked.add(name)
        if params[: len(listed)] != listed:
            stale.append(f"{name}({', '.join(listed)}) but the function takes {params}")
    assert {"generate_stream", "moments_empirical", "regressor_tensor", "theory_report",
            "max_stepsize", "run_experiment", "run_distributed", "run_inference",
            "ar_regressor_tensor"} <= checked
    assert not stale, f"README.md shows stale signatures: {stale}"


def test_benchmark_spans_are_traced_functions():
    # the benchmark's traced run fails when a span it reads records no calls,
    # and its tracer wraps only the functions a module defines and exports:
    # a span whose function is renamed, privatised or deleted fails here first
    layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    tables = {node.targets[0].id: node.value
              for node in ast.parse(layers.read_text(encoding="utf-8")).body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    spans = {row.elts[2].value for row in tables["SPAN_METRICS"].elts}
    spans |= {row.elts[0].value for row in tables["BUCKETED_SPANS"].elts}
    assert {"signals.regressor_tensor", "artrain.ar_regressor_tensor",
            "inference.regressors_from_t"} <= spans
    untraced = []
    for span in sorted(spans):
        layer, name = span.split(".")
        module = importlib.import_module(f"simplexlms.{layer}")
        exported = getattr(module, "__all__", None)
        public = name in exported if exported is not None else not name.startswith("_")
        fn = getattr(module, name, None)
        if not (public and inspect.isfunction(fn) and fn.__module__ == module.__name__):
            untraced.append(span)
    assert not untraced, f"benchmark spans the tracer would not wrap: {untraced}"
