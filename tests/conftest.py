"""Every run draws the same Hypothesis examples: pytest passes
``--hypothesis-seed=0`` (pyproject.toml), and no example database is read
or written, so examples saved by an earlier run are not replayed.  Tests
with their own ``@seed`` keep it."""

from hypothesis import settings

settings.register_profile("deterministic", database=None)
settings.load_profile("deterministic")
