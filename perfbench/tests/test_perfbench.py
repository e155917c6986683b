"""Tests of the benchmark's own reference checker and tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from check import compare_reports  # noqa: E402
from spans import Tracer, layer_metrics, per_layer_names  # noqa: E402
from worker import SETUP, WORKLOADS, argv_for, import_cli  # noqa: E402

REFS = BENCH / "refs"


def ref_bytes(name: str) -> bytes:
    return (REFS / f"{name}.out").read_bytes()


def edited(name: str, edit) -> bytes:
    doc = json.loads(ref_bytes(name))
    edit(doc)
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("name", ["setup", *WORKLOADS])
def test_reference_matches_itself(name):
    assert compare_reports(ref_bytes(name), ref_bytes(name)) == []


def test_rejects_flipped_verdict():
    def flip(doc):
        cumulative = doc["orders"][2]["cumulative"]
        cumulative["verdict"] = not cumulative["verdict"]

    errors = compare_reports(edited("analyze-ring5", flip), ref_bytes("analyze-ring5"))
    assert errors and "verdict" in errors[0]


def test_rejects_flipped_csv_verdict():
    lines = ref_bytes("scan-decay4").decode().splitlines(keepends=True)
    row = lines[1].split(",")
    row[3] = "false" if row[3] == "true" else "true"
    lines[1] = ",".join(row)
    errors = compare_reports("".join(lines).encode(), ref_bytes("scan-decay4"))
    assert errors and "verdict" in errors[0]


def test_rejects_eigenvalue_off_by_1e_6():
    def shift(doc):
        doc["orders"][1]["cumulative"]["spectrum"][0] += 1e-6

    errors = compare_reports(edited("analyze-ring5", shift), ref_bytes("analyze-ring5"))
    assert len(errors) == 1 and "spectrum[0]" in errors[0]


def test_accepts_roundoff_sized_changes():
    def nudge(doc):
        cumulative = doc["orders"][1]["cumulative"]
        cumulative["spectrum"][0] *= 1.0 + 1e-12
        cumulative["roundtrip_residual"] = 3e-14
        doc["orders"][1]["term"]["trace"] = -4e-16

    assert compare_reports(edited("analyze-ring5", nudge), ref_bytes("analyze-ring5")) == []


def test_rejects_roundoff_field_beyond_its_bound():
    def spoil(doc):
        doc["orders"][0]["cumulative"]["roundtrip_residual"] = 1e-6

    errors = compare_reports(edited("analyze-ring5", spoil), ref_bytes("analyze-ring5"))
    assert errors and "roundtrip_residual" in errors[0]


def test_rejects_changed_branch_failures():
    def spoil(doc):
        doc["branch_failures"] = [doc["tau_grid"][0]]

    errors = compare_reports(edited("exact-ring4", spoil), ref_bytes("exact-ring4"))
    assert errors == [".branch_failures: list length differs"]


def package_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("floquet_lindblad")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_traced_scan_restores_every_binding(tmp_path):
    cli = import_cli(str(BENCH.parent))
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "model": {"name": "A", "tau": 0.1, "h": 1.0, "gamma1": 0.5},
        "scan": {"parameter": "h", "start": 0.5, "stop": 2.0, "count": 6},
    }))
    before = package_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        from floquet_lindblad import liouvillianity

        assert liouvillianity.herm_eigs is not before[("floquet_lindblad.core", "herm_eigs")]
        code = cli.main(["scan", "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    metrics = layer_metrics(tracer.spans)
    assert metrics["cli.main.calls"] == 1
    assert metrics["liouvillianity.psd_report.calls"] == 6 * 3
    assert all(v >= 0.0 for k, v in metrics.items() if k.endswith("self_s"))
    # Spans opened on the CLI's pool threads hang under cli.main.
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "cli.main")
    assert {s.parent for s in tracer.spans if s.name == "magnus.bch_orders"} == {root}


def test_traced_report_is_byte_identical(tmp_path):
    cli = import_cli(str(BENCH.parent))
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert cli.main(argv_for(SETUP, str(plain))) == 0
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(argv_for(SETUP, str(traced))) == 0
    finally:
        tracer.uninstall()
    assert plain.read_bytes() == traced.read_bytes() == ref_bytes("setup")
    assert layer_metrics(tracer.spans)["pauli.pauli_coefficients.max_sites"] == 2


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    emitted = set(layer_metrics([])) | {"trace.overhead_s"}
    assert emitted == {name for name, _ in per_layer_names()}


def test_counts_branch_cut_errors_only():
    import_cli(str(BENCH.parent))
    from floquet_lindblad import core
    from floquet_lindblad.errors import BranchCutError

    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(BranchCutError):
            core.matrix_log_principal([[-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(Exception) as other:
            core.matrix_exp([[1.0, 0.0]])
        assert not isinstance(other.value, BranchCutError)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    assert metrics["core.matrix_log_principal.errors"] == 1
    assert metrics["core.matrix_exp.calls"] == 1
    assert metrics["core.matrix_exp.errors"] == 0
