from hypothesis import settings

# Every run checks the same examples, with no example database and no
# per-example deadline, so a slow shared host cannot fail a property test.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
