"""Shared pytest configuration."""

from hypothesis import settings

# Every property test replays the same examples on each run, and none has a
# per-example deadline: wall time on small shared hosts varies too much.
settings.register_profile("fedagg", deadline=None, derandomize=True)
settings.load_profile("fedagg")
