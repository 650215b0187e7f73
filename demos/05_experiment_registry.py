"""Regenerate every canonical dataset as CSV.

Each registered experiment is seeded and parameterized; rerunning one
with the same spec produces a byte-identical file.  Outputs land in
./out next to this script, or in the directory given as the first
argument:

    python demos/05_experiment_registry.py [OUT_DIR]
"""

import sys
from pathlib import Path

from hankelorder import ExperimentSpec, list_experiments, run_experiment

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

for name, description, defaults in list_experiments():
    summary = run_experiment(ExperimentSpec(name), out_dir / f"{name}.csv")
    print(f"{summary.line()}")
    print(f"    {description}")

print(f"\nCSV artifacts written to {out_dir}")
