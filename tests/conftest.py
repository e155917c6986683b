"""Shared test configuration.

Property tests run under one registered ``hypothesis`` profile: examples
are derived from each test's source (``derandomize``), so every run draws
the same inputs, and there is no per-example deadline, so a slow or
loaded machine cannot turn a passing example into a failure.
``hypothesis`` comes with the ``test`` extra of the package; without it
only the modules that import it fail to collect.
"""

try:
    from hypothesis import settings
except ImportError:  # only the modules that import hypothesis need it
    pass
else:
    settings.register_profile("floquet-lindblad", derandomize=True, deadline=None)
    settings.load_profile("floquet-lindblad")
