"""Guards for the names that tools outside the package bind to."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
