"""Every benchmark workload's report, written through ``cli.main``, against
its reference under ``perfbench/refs`` by the rules of
``perfbench/check.py``, so that a report that drifts from the reference
fails here before the benchmark runs it. The benchmark's files are only
read."""

import sys
from pathlib import Path

import pytest

from floquet_lindblad import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

from check import compare_reports  # noqa: E402
from worker import SETUP, WORKLOADS, argv_for  # noqa: E402


@pytest.mark.parametrize("name", [*WORKLOADS, "setup"])
def test_workload_report_matches_its_reference(tmp_path, name):
    out = tmp_path / "report"
    assert cli.main(argv_for(WORKLOADS.get(name, SETUP), str(out))) == 0
    reference = (BENCH / "refs" / f"{name}.out").read_bytes()
    assert compare_reports(out.read_bytes(), reference) == []
