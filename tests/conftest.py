"""Shared test configuration.

Property tests run under one registered ``hypothesis`` profile: examples
are derived from each test's source (``derandomize``), so every run draws
the same inputs, and there is no per-example deadline, so a slow or
loaded machine cannot turn a passing example into a failure.
``hypothesis`` comes with the ``test`` extra of the package; without it
only the modules that import it fail to collect.

Every JSON report that the CLI writes in a test process is checked to
have the layout of ``json.dumps(indent=2, sort_keys=True)``.
"""

import json

import pytest

from floquet_lindblad import cli

try:
    from hypothesis import settings
except ImportError:  # only the modules that import hypothesis need it
    pass
else:
    settings.register_profile("floquet-lindblad", derandomize=True, deadline=None)
    settings.load_profile("floquet-lindblad")


@pytest.fixture(autouse=True)
def reports_keep_the_standard_layout(monkeypatch):
    """Each JSON report equals ``json.dumps(json.loads(report), indent=2,
    sort_keys=True)`` and a newline."""
    write = cli._json_report

    def checked(*args, **kwargs):
        report = write(*args, **kwargs)
        assert report == json.dumps(json.loads(report), indent=2, sort_keys=True) + "\n"
        return report

    monkeypatch.setattr(cli, "_json_report", checked)
