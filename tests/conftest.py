from hypothesis import settings

# Property tests draw the same examples on every run, with no per-example
# deadline: the suite must not flake on a slow or busy machine.
settings.register_profile("trajforge", derandomize=True, deadline=None, database=None)
settings.load_profile("trajforge")
