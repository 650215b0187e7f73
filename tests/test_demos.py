"""Each demo script runs to the end; demo 05 writes its CSVs to a
temporary directory, so the committed goldens in demos/out stay as they
are."""

import runpy
import sys
from pathlib import Path

import pytest

from hankelorder import list_experiments

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("0[1-5]_*.py"))


def _goldens() -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((DEMO_DIR / "out").glob("*.csv"))}


def test_all_five_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS[:4], ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_registry_demo_writes_every_experiment_to_the_given_directory(tmp_path, capsys, monkeypatch):
    goldens = _goldens()
    monkeypatch.setattr(sys, "argv", [str(DEMOS[4]), str(tmp_path)])
    runpy.run_path(str(DEMOS[4]), run_name="__main__")
    out = capsys.readouterr().out
    names = [name for name, _, _ in list_experiments()]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{name}.csv" for name in names)
    assert [line.split(",")[0] for line in out.splitlines() if line.endswith(",ok")] == names
    assert out.endswith(f"CSV artifacts written to {tmp_path}\n")
    assert _goldens() == goldens
