"""Hypothesis defaults for every property test: deterministic, with no time
limit per example and no example database, so a run replays the same draws."""

from hypothesis import settings

settings.register_profile("deterministic", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("deterministic")
