"""Guards for the names that tools outside the package bind to."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = _tracer()
    for kind, (modname, names) in tracer.WRAPPED.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{kind}: {modname}.{name}"
    for kind, (modname, glob, path) in tracer.FOREIGN.items():
        target = getattr(importlib.import_module(f"{tracer.PACKAGE}.{modname}"), glob)
        for attr in path:
            target = getattr(target, attr, None)
        assert callable(target), f"{kind}: {modname}.{glob}.{'.'.join(path)}"


@pytest.mark.parametrize("module", ["", ".signals", ".hankel", ".rank", ".estimators", ".experiments"])
def test_every_all_name_resolves(module):
    mod = importlib.import_module(f"hankelorder{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"hankelorder{module}.{name}"


def test_package_names_are_the_submodule_lists():
    package = importlib.import_module("hankelorder")
    submodules = ("signals", "hankel", "rank", "estimators", "experiments")
    names = [name for sub in submodules for name in importlib.import_module(f"hankelorder.{sub}").__all__]
    assert package.__all__ == ["__version__", *names]
    assert len(set(package.__all__)) == len(package.__all__)


def _workload_names():
    """Every attribute the benchmark's workloads take off the package,
    as ``hk.<name>`` or ``self.hk.<name>``."""
    names = set()
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "hk") or (
                isinstance(owner, ast.Attribute) and owner.attr == "hk"
                and isinstance(owner.value, ast.Name) and owner.value.id == "self"
            ):
                names.add(node.attr)
    return sorted(names)


def test_every_workload_name_resolves():
    names = _workload_names()
    assert {"cli", "hokalman_order", "run_experiment"} <= set(names)  # the parse still finds the workloads' calls
    package = importlib.import_module("hankelorder")
    importlib.import_module("hankelorder.cli")  # cli_mix loads it before calling hk.cli.main
    for name in names:
        assert hasattr(package, name), f"hankelorder.{name}"
