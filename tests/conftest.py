"""Test-session setup: hypothesis defaults for every property test
(deterministic, with no time limit per example and no example database, so a
run replays the same draws), and the source tree on PYTHONPATH, so the
`python -m belldyn.cli` subprocesses import the package under test as the
pytest process does through pyproject.toml's `pythonpath`."""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("deterministic", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("deterministic")

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
