"""Settings shared by the whole suite."""

try:
    from hypothesis import settings
except ImportError:  # the modules that use hypothesis skip themselves
    pass
else:
    # every run of one commit draws the same examples, keeps no example
    # database and sets no deadline; each test sets its own max_examples
    settings.register_profile("deltatower", deadline=None, database=None, derandomize=True)
    settings.load_profile("deltatower")
