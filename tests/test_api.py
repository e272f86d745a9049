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
            "ar_regressor_tensor", "lms_step", "atc_step", "infer_step"} <= checked
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


def test_benchmark_imports_resolve():
    # the benchmark writes its inputs with the package's own writers: a name it
    # imports that is moved or renamed fails here, not in the benchmark's run
    imported = []
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("simplexlms"):
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert {("workloads.py", "simplexlms.complexes", "save_complex"),
            ("workloads.py", "simplexlms.datasets", "write_edge_series")} <= set(imported)
    missing = [f"{file}: {module}.{name}" for file, module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"benchmark imports missing names: {missing}"


def test_only_the_files_module_touches_a_file():
    # one module owns every file format: only it opens a file or imports csv or re, json is
    # used there and by the CLI's printout, and the numerics modules import no file module
    numerics = {"complexes", "signals", "lms", "sampling", "inference", "diffusion", "artrain"}
    file_modules = {"csv", "re", "json", "os", "io", "pathlib", "shutil", "tempfile", "pickle"}
    file_calls = {"open", "loadtxt", "savetxt", "genfromtxt", "fromfile", "tofile"}
    uses = {}
    for path in sorted(Path(simplexlms.__file__).parent.glob("*.py")):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                found |= {"open("} if name in file_calls else set()
        uses[path.stem] = found
    assert {module for module, found in uses.items() if found & {"open(", "csv", "re"}} == {"files"}
    assert {module for module, found in uses.items() if "json" in found} == {"files", "cli"}
    assert {module: uses[module] & file_modules for module in numerics
            if uses[module] & file_modules} == {}
