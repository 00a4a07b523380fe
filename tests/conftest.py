"""Suite-wide hypothesis profile: every property test draws the same
examples on every run and keeps no example database."""

from hypothesis import settings

settings.register_profile("pimdse", derandomize=True, database=None, deadline=None)
settings.load_profile("pimdse")
