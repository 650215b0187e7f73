"""Guards for the names that tools outside the package bind to."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
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


def _code_names(path: Path, strings: bool = False) -> set[str]:
    """Every name a file's code reads (``_reads``)."""
    return _reads(ast.parse(path.read_text(encoding="utf-8")), strings)


def _reads(tree: ast.AST, strings: bool = False) -> set[str]:
    """Every name the code under a node reads, as ``name`` or
    ``<expr>.name`` (a ``def`` is not a read), and with ``strings`` every
    string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_function_is_used_outside_the_tests():
    """A public function only tests call is a candidate for removal.  A
    use is a read in src/, in bench/ as code or as a string (the tracer
    lists the names it wraps), in demos/, or a call in README."""
    package = importlib.import_module("hankelorder")
    functions = [name for name in package.__all__ if inspect.isfunction(getattr(package, name))]
    assert {"hokalman_order", "gen_y5", "condition_number"} <= set(functions)
    used = set(re.findall(r"(\w+)\(", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in (ROOT / "src").rglob("*.py"):
        used |= _code_names(path)
    for path in BENCH.rglob("*.py"):
        used |= _code_names(path, strings=True)
    for path in (ROOT / "demos").rglob("*.py"):
        used |= _code_names(path)
    assert [name for name in functions if name not in used] == []


def test_every_private_function_is_read_in_src():
    """A module-level private function left behind only for tests is a
    candidate for removal: each one must be read in src/ by code other
    than its own definition."""
    defined, reads = [], []
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = node.name if isinstance(node, ast.FunctionDef) else None
            if name and name.startswith("_") and not name.startswith("__"):
                defined.append(name)
            reads.append((name, _reads(node)))
    assert {"_decide", "_plateau_onsets", "_sweep_points", "_fmt"} <= set(defined)
    assert [name for name in defined if not any(name in read for owner, read in reads if owner != name)] == []


def test_result_shapes_the_benchmark_reads(tmp_path):
    """The attributes and types that bench/workloads.py and bench/tracer.py
    take off results, beyond the names above."""
    hk = importlib.import_module("hankelorder")
    signal = hk.gen_y5(40)
    estimate, sweep = hk.hokalman_order(signal, 8)
    # long_sweep checks (order, sweep.ranks) against (order, list) with tuple(out) != tuple(want)
    assert type(sweep.ranks) is list and all(type(r) is int for r in sweep.ranks)
    assert tuple((estimate.order, sweep.ranks)) == (5, [2, 3, 4, 5, 5, 5, 5])
    assert len(sweep.points) == 7
    mat = hk.build_hankel(signal, 6)
    assert mat.entries.nbytes == 6 * 6 * 8
    spectrum = hk.singular_values(mat.entries)
    assert sorted(spectrum.source_shape, reverse=True) == [6, 6]
    assert type(hk.numerical_rank(spectrum, hk.default_policy(mat.shape)).rank) is int
    summary = hk.run_experiment(hk.ExperimentSpec("sec33_nonhomogeneous"), tmp_path / "sec33.csv")
    assert isinstance(summary.headline, str) and summary.output_path.stat().st_size > 0
    for path in (
        hk.write_sweep_csv(sweep, tmp_path / "sweep.csv"),
        hk.write_aic_csv(hk.aic_order(signal, 6)[1], tmp_path / "aic.csv"),
        hk.write_covdet_csv(hk.covariance_determinants(signal, range(2, 5)), tmp_path / "covdet.csv"),
    ):
        assert isinstance(path, Path) and path.is_file()


_LAZY_MPMATH = """
import sys
import hankelorder.cli as cli
from hankelorder import experiments

out = sys.argv[1]
assert cli.main(["experiment", "fig5_high_order_exp", "--out", f"{out}/fig5.csv"]) == 0
assert cli.main(["generate", "y5", "--count", "40", "--out", f"{out}/y5.csv"]) == 0
assert cli.main(["rank", f"{out}/y5.csv", "--n-max", "8", "--out", f"{out}/sweep.csv"]) == 0
assert "mpmath" not in sys.modules, "running the CLI imported mpmath"
assert callable(experiments.mpmath.svd_r)
try:
    experiments.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("experiments.no_such_name resolved")
"""


def test_mpmath_is_imported_only_when_read(tmp_path):
    """In a fresh interpreter (a test's monkeypatch of experiments.mpmath
    leaves the name bound): the CLI runs fig5 and a rank sweep without
    importing mpmath, experiments.mpmath.svd_r then resolves for the
    tracer, and other unknown names still raise AttributeError."""
    src = str(Path(importlib.import_module("hankelorder").__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", _LAZY_MPMATH, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
