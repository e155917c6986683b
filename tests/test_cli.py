"""Tests for the command-line interface: subcommand output, config
validation, overrides, determinism and exit codes."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from floquet_lindblad import (
    PAULI,
    HamiltonianTerm,
    JumpTerm,
    LindbladSegment,
    ModelParams,
    PiecewiseLiouvillian,
    analytic_reference,
    bch_orders,
    build_model,
    extract_dissipator,
    fm_general,
    psd_report,
)
from floquet_lindblad import cli
from floquet_lindblad.cli import CSV_HEADER, MAX_COUNT, build_parser, main


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def model_a_config(**overrides):
    document = {
        "schema_version": 1,
        "model": {"name": "A", "tau": 0.1, "h": 1.0, "gamma1": 1.0},
        "orders": [0, 1, 2],
    }
    document.update(overrides)
    return document


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RING3 = {"name": "C", "num_sites": 3, "tau": 0.2, "jz": 1.0, "gamma": 0.5}


@pytest.mark.parametrize(
    "command, document",
    [
        ("analyze", model_a_config()),
        ("analyze", {"schema_version": 1, "model": RING3, "orders": [0, 1, 2]}),
        ("scan", model_a_config(scan={"parameter": "tau", "start": 0.05, "stop": 0.2, "count": 3})),
        (
            "fit-modelc",
            {
                "schema_version": 1,
                "model": RING3,
                "orders": [0, 1, 2],
                "fit": {"start": 0.05, "stop": 0.2, "count": 3},
            },
        ),
        (
            "compare-exact",
            {
                "schema_version": 1,
                "model": RING3,
                "orders": [0, 1, 2],
                "compare": {"start": 0.05, "stop": 0.2, "count": 3, "num_periods": 2},
            },
        ),
    ],
    ids=["analyze", "analyze-ring3", "scan", "fit-modelc", "compare-exact"],
)
def test_cli_loads_no_scipy(tmp_path, command, document):
    """A run in a fresh interpreter imports no scipy module, no
    ``numpy.ma`` and no ``numpy.random`` (nor, through it, ``hashlib`` and
    OpenSSL's ``_hashlib``): the package needs numpy's core only, the exact
    path's matrix exponential and logarithm (with the stroboscopic section of
    ``compare-exact``, whose default initial state is read from a committed
    table) included. (``numpy.matrixlib``, which numpy loads itself, shares
    the ``numpy.ma`` prefix and is allowed.) Index sets are
    held as codes: ``analyze`` builds no more ``MultiIndex`` objects than
    the index strings it reports, and every other command builds none."""
    config = write_config(tmp_path, document)
    out = tmp_path / "out.txt"
    script = "\n".join(
        [
            "import sys",
            "from floquet_lindblad.cli import main",
            "from floquet_lindblad.pauli import MultiIndex",
            "built, check = [], MultiIndex.__post_init__",
            "MultiIndex.__post_init__ = lambda self: (built.append(self), check(self))[1]",
            f"assert main([{command!r}, '--config', {config!r}, '--out', {str(out)!r}]) == 0",
            "print(len(built))",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'",
            "             or m in ('numpy.ma', 'numpy.random', 'hashlib', '_hashlib')",
            "             or m.startswith(('numpy.ma.', 'numpy.random.'))))",
        ]
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    built, modules = result.stdout.split("\n")[:2]
    assert modules == "[]"
    text = out.read_text()
    reported = 0
    if command == "scan":
        assert text.split("\n")[0] == CSV_HEADER
    else:
        report = json.loads(text)
        assert report["metadata"]["command"] == command
        if command == "analyze":
            reported = sum(
                len(block["indices"])
                for record in report["orders"]
                for block in record["cumulative"]["block_structure"]["blocks"]
            )
    assert int(built) <= reported


def test_parser_takes_each_option_once_for_every_command(capsys):
    """One flat parser: the help names every command with its one-line
    description, every command takes the same options with their types,
    defaults and choices, and a usage error exits 2."""
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    for name, text in (
        ("analyze", "per-order certification report (JSON)"),
        ("scan", "one-parameter sweep (CSV)"),
        ("fit-modelc", "normalized eigenvalue fit for model C (JSON)"),
        ("compare-exact", "exact-vs-expansion comparison (JSON)"),
    ):
        assert any(line.split() == [name, *text.split()] for line in help_text.splitlines())
        args = build_parser().parse_args([name, "--config", "c.json"])
        assert vars(args) == {
            "command": name, "config": "c.json", "out": None,
            "tol_psd": None, "order": None, "flavor": None,
        }
    args = build_parser().parse_args(
        ["scan", "--config", "c", "--out", "o", "--tol-psd", "1e-3", "--order", "2",
         "--flavor", "vanvleck"]
    )
    assert (args.out, args.tol_psd, args.order, args.flavor) == ("o", 1e-3, 2, "vanvleck")
    for argv in ([], ["analyze"], ["bogus", "--config", "c"],
                 ["analyze", "--config", "c", "--flavor", "other"],
                 ["analyze", "--config", "c", "--order", "two"]):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


def test_analyze_reports_certification(tmp_path, capsys):
    """The analysis report carries spectra, verdicts and residuals that
    match a direct computation."""
    config = write_config(tmp_path, model_a_config())
    code, out, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 0 and err == ""
    document = json.loads(out)
    assert document["schema_version"] == 1
    assert document["metadata"]["command"] == "analyze"
    records = document["orders"]
    assert [record["order"] for record in records] == [0, 1, 2]

    params = ModelParams(name="A", tau=0.1, h=1.0, gamma1=1.0)
    expansion = bch_orders(build_model(params), 2)
    for record in records:
        dissipator = extract_dissipator(
            expansion.cumulative(record["order"])
        )
        report = psd_report(dissipator)
        cumulative = record["cumulative"]
        assert cumulative["verdict"] == report.is_liouvillian
        assert cumulative["min_eigenvalue"] == pytest.approx(
            report.min_eigenvalue, abs=1e-14
        )
        assert cumulative["breaking_degree"] == pytest.approx(
            report.breaking_degree, abs=1e-14
        )
        assert cumulative["roundtrip_residual"] < 1e-10
    assert [record["cumulative"]["verdict"] for record in records] == [
        True,
        False,
        False,
    ]
    expected = 0.5 * (1.0 - np.sqrt(1.0 + 4.0 * 0.01))
    assert records[1]["cumulative"]["min_eigenvalue"] == pytest.approx(
        expected, rel=1e-9
    )
    assert records[0]["term"]["trace_ok"] is None
    assert records[1]["term"]["trace_ok"] is True
    assert all(check["ok"] for check in document["bound_checks"])


def test_analyze_weight_limit_disables_roundtrip(tmp_path, capsys):
    """Capped extraction cannot certify a round trip, so the residual is
    reported as null."""
    config = write_config(tmp_path, model_a_config(weight_limit=2))
    code, out, _ = run_cli(capsys, ["analyze", "--config", config])
    assert code == 0
    document = json.loads(out)
    for record in document["orders"]:
        assert record["cumulative"]["roundtrip_residual"] is None


def test_scan_brackets_positivity_boundary(tmp_path, capsys):
    """Scanning the period of the alternating-channel model flips the
    verdict exactly where the closed-form boundary predicts."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"name": "B", "tau": 0.3, "gamma1": 1.0, "gamma2": 1.0},
            "orders": [2],
            "scan": {
                "parameter": "tau",
                "start": 1.05,
                "stop": 1.17,
                "count": 5,
            },
        },
    )
    code, out, _ = run_cli(capsys, ["scan", "--config", config])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    boundary = analytic_reference(
        ModelParams(name="B", tau=0.3, gamma1=1.0, gamma2=1.0), 2
    ).tau_max
    last_true = max(
        float(row[0]) for row in rows if row[3] == "true"
    )
    first_false = min(
        float(row[0]) for row in rows if row[3] == "false"
    )
    assert last_true < boundary < first_false
    for row in rows:
        assert row[1] == "2"
        if row[3] == "false":
            assert float(row[4]) == pytest.approx(-float(row[2]))
        else:
            assert float(row[4]) == 0.0


def test_scan_ring_coupling_always_breaks_at_second_order(tmp_path, capsys):
    """Any nonzero Ising coupling leaves the second-order matrix
    indefinite."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {
                "name": "C",
                "tau": 0.2,
                "num_sites": 3,
                "jz": 1.0,
                "gamma": 0.4,
            },
            "orders": [2],
            "scan": {
                "parameter": "jz",
                "start": 0.5,
                "stop": 1.5,
                "count": 4,
            },
        },
    )
    code, out, _ = run_cli(capsys, ["scan", "--config", config])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 4
    for row in rows:
        assert row[3] == "false"
        assert float(row[2]) < 0.0


def test_scan_rejects_parameter_of_other_model(tmp_path, capsys):
    """Only the sweeping model's own couplings can be scanned."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"name": "B", "tau": 0.3, "gamma1": 1.0, "gamma2": 1.0},
            "orders": [0],
            "scan": {"parameter": "h", "start": 0.0, "stop": 1.0, "count": 3},
        },
    )
    code, _, err = run_cli(capsys, ["scan", "--config", config])
    assert code == 2
    assert "scan.parameter" in err


def test_config_rejects_unknown_keys(tmp_path, capsys):
    """Unknown keys are rejected at the top level and inside sections."""
    config = write_config(tmp_path, model_a_config(bogus=1))
    code, _, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 2
    assert "top level: unknown key 'bogus'" in err

    document = model_a_config()
    document["model"]["spin"] = 2
    config = write_config(tmp_path, document, name="nested.json")
    code, _, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 2
    assert "unknown key 'spin'" in err


def test_config_requires_matching_schema_version(tmp_path, capsys):
    """A missing or different schema version is a configuration error."""
    document = model_a_config()
    del document["schema_version"]
    config = write_config(tmp_path, document)
    code, _, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 2 and "schema_version" in err

    config = write_config(
        tmp_path, model_a_config(schema_version=2), name="v2.json"
    )
    code, _, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 2 and "schema_version" in err


def test_config_error_paths(tmp_path, capsys):
    """Bad grids, missing sections, bad tolerances and unreadable or
    malformed files all exit with the configuration code."""
    decreasing = write_config(
        tmp_path,
        model_a_config(
            scan={"parameter": "h", "start": 1.0, "stop": 0.5, "count": 3}
        ),
        name="decreasing.json",
    )
    code, _, err = run_cli(capsys, ["scan", "--config", decreasing])
    assert code == 2 and "strictly increasing" in err

    missing_section = write_config(
        tmp_path, model_a_config(), name="nosection.json"
    )
    code, _, err = run_cli(capsys, ["scan", "--config", missing_section])
    assert code == 2 and "missing 'scan' section" in err

    bad_tol = write_config(
        tmp_path, model_a_config(tol_psd=-1.0), name="badtol.json"
    )
    code, _, err = run_cli(capsys, ["analyze", "--config", bad_tol])
    assert code == 2 and "tol_psd" in err

    bad_limit = write_config(
        tmp_path, model_a_config(weight_limit=1), name="badlimit.json"
    )
    code, _, err = run_cli(capsys, ["analyze", "--config", bad_limit])
    assert code == 2 and "weight_limit" in err

    code, _, err = run_cli(
        capsys, ["analyze", "--config", str(tmp_path / "absent.json")]
    )
    assert code == 2 and "cannot read config" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["analyze", "--config", str(broken)])
    assert code == 2 and "not valid JSON" in err


def test_unwritable_output_is_a_configuration_error(tmp_path, capsys):
    """An ``--out`` path that cannot be written exits with the configuration
    code and a one-line message, as an unreadable config does: no
    traceback, no file and no report on stdout."""
    config = write_config(tmp_path, model_a_config())
    target = tmp_path / "absent" / "report.json"
    code, out, err = run_cli(capsys, ["analyze", "--config", config, "--out", str(target)])
    assert code == 2
    assert err.startswith("config error: cannot write output: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert out == ""
    assert not target.parent.exists()


def test_kick_free_flavor_covers_two_orders(tmp_path, capsys):
    """The kick-free expansion rejects orders beyond one but runs at
    orders zero and one, reporting its Fourier cutoff."""
    config = write_config(
        tmp_path, model_a_config(flavor="vanvleck", orders=[0, 1, 2])
    )
    code, _, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 2 and "kick-free" in err

    config = write_config(
        tmp_path,
        model_a_config(flavor="vanvleck", orders=[0, 1]),
        name="vv.json",
    )
    code, out, _ = run_cli(capsys, ["analyze", "--config", config])
    assert code == 0
    document = json.loads(out)
    assert document["metadata"]["flavor"] == "vanvleck"
    assert document["metadata"]["m_max"] == 200


def test_flag_overrides(tmp_path, capsys):
    """Command-line flags override the configured orders, flavor and
    tolerance."""
    config = write_config(tmp_path, model_a_config())
    code, out, _ = run_cli(
        capsys, ["analyze", "--config", config, "--order", "1"]
    )
    assert code == 0
    document = json.loads(out)
    assert document["metadata"]["orders"] == [0, 1]

    code, out, _ = run_cli(
        capsys,
        ["analyze", "--config", config, "--order", "1", "--flavor", "vanvleck"],
    )
    assert code == 0
    assert json.loads(out)["metadata"]["flavor"] == "vanvleck"

    code, _, err = run_cli(
        capsys, ["analyze", "--config", config, "--flavor", "vanvleck"]
    )
    assert code == 2 and "kick-free" in err

    code, out, _ = run_cli(
        capsys, ["analyze", "--config", config, "--tol-psd", "1.0"]
    )
    assert code == 0
    document = json.loads(out)
    for record in document["orders"]:
        assert record["cumulative"]["verdict"] is True
        assert record["cumulative"]["psd_tol"] == 1.0


def test_fit_reproduces_reference_window(tmp_path, capsys):
    """The normalized eigenvalue fit lands on the reference cubic over
    the covered window."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {
                "name": "C",
                "tau": 0.1,
                "num_sites": 3,
                "jz": 1.0,
                "gamma": 0.02,
            },
            "orders": [2],
            "fit": {"start": 0.05, "stop": 0.45, "count": 9},
        },
    )
    code, out, _ = run_cli(capsys, ["fit-modelc", "--config", config])
    assert code == 0
    document = json.loads(out)
    assert document["fit_error"] is None
    assert document["warnings"] == []
    assert document["reference_coefficients"] == [-0.667, 0.0197, -3.08, 2.84]
    assert document["fit_coefficients"][0] == pytest.approx(-0.667, abs=0.015)
    assert document["max_abs_deviation_from_reference"] < 5e-3
    assert document["fit_rmse"] < 1e-3
    assert len(document["grid"]) == 9
    assert len(document["normalized_min_eigs"]) == 9
    assert all(value < 0.0 for value in document["normalized_min_eigs"])


def test_fit_normalized_curve_is_size_independent(tmp_path, capsys):
    """Normalizing by rate and ring size collapses different ring sizes
    onto one curve."""
    curves = {}
    for num_sites in (3, 4):
        config = write_config(
            tmp_path,
            {
                "schema_version": 1,
                "model": {
                    "name": "C",
                    "tau": 0.1,
                    "num_sites": num_sites,
                    "jz": 1.0,
                    "gamma": 0.02,
                },
                "orders": [2],
                "fit": {"start": 0.05, "stop": 0.45, "count": 5},
            },
            name=f"fit{num_sites}.json",
        )
        code, out, _ = run_cli(capsys, ["fit-modelc", "--config", config])
        assert code == 0
        curves[num_sites] = json.loads(out)["normalized_min_eigs"]
    np.testing.assert_allclose(curves[3], curves[4], atol=1e-8)


def test_fit_degenerate_normalization(tmp_path, capsys):
    """A vanishing rate makes the normalization degenerate; the report
    says so instead of fitting."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {
                "name": "C",
                "tau": 0.1,
                "num_sites": 3,
                "jz": 1.0,
                "gamma": 0.0,
            },
            "orders": [2],
            "fit": {"start": 0.05, "stop": 0.45, "count": 5},
        },
    )
    code, out, _ = run_cli(capsys, ["fit-modelc", "--config", config])
    assert code == 0
    document = json.loads(out)
    assert "degenerate normalization" in document["fit_error"]
    assert document["fit_coefficients"] is None
    assert document["fit_rmse"] is None


def test_fit_warns_outside_reference_window(tmp_path, capsys):
    """Grids leaving (0, 0.5) carry a warning."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {
                "name": "C",
                "tau": 0.1,
                "num_sites": 3,
                "jz": 1.0,
                "gamma": 0.02,
            },
            "orders": [2],
            "fit": {"start": 0.05, "stop": 0.6, "count": 5},
        },
    )
    code, out, _ = run_cli(capsys, ["fit-modelc", "--config", config])
    assert code == 0
    document = json.loads(out)
    assert len(document["warnings"]) == 1
    assert "0.5" in document["warnings"][0]


def test_fit_requires_model_c(tmp_path, capsys):
    """The fit subcommand refuses other models."""
    config = write_config(
        tmp_path,
        model_a_config(fit={"start": 0.05, "stop": 0.45, "count": 5}),
    )
    code, _, err = run_cli(capsys, ["fit-modelc", "--config", config])
    assert code == 2 and "model C" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--flavor", "vanvleck", "--order", "1"], "flavor"),
        (["--order", "1"], "orders"),
    ],
    ids=["vanvleck", "order-1"],
)
def test_fit_refuses_settings_it_cannot_honour(tmp_path, capsys, argv, option):
    """The fit takes the stroboscopic order-2 eigenvalue, so another flavor
    or an order list without 2 is refused with an error that names the
    option, instead of being reported in the metadata and ignored."""
    document = {
        "schema_version": 1,
        "model": {"name": "C", "tau": 0.1, "num_sites": 3, "jz": 1.0, "gamma": 0.02},
        "fit": {"start": 0.05, "stop": 0.45, "count": 5},
    }
    config = write_config(tmp_path, document)
    code, out, err = run_cli(capsys, ["fit-modelc", "--config", config, *argv])
    assert code == 2 and out == "" and err.startswith(f"config error: {option}:")
    code, out, _ = run_cli(capsys, ["fit-modelc", "--config", config])
    assert code == 0
    metadata = json.loads(out)["metadata"]
    assert (metadata["flavor"], metadata["orders"]) == ("fm", [0, 1, 2])


def test_compare_exact_slopes_single_site(tmp_path, capsys):
    """Residuals against the exact effective generator shrink with the
    expected power of the period for the single-site drive."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"name": "A", "tau": 0.1, "h": 1.0, "gamma1": 1.0},
            "orders": [0, 1],
            "compare": {"start": 0.02, "stop": 0.2, "count": 6},
        },
    )
    code, out, _ = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 0
    document = json.loads(out)
    assert document["branch_failures"] == []
    assert document["slopes"]["0"] == pytest.approx(1.0, abs=0.3)
    assert document["slopes"]["1"] == pytest.approx(2.0, abs=0.3)
    assert len(document["tau_grid"]) == 6
    for order in ("0", "1"):
        assert len(document["residuals"][order]) == 6
        assert all(value > 0.0 for value in document["residuals"][order])
    ratios = np.asarray(document["tau_grid"][1:]) / np.asarray(
        document["tau_grid"][:-1]
    )
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)


def test_compare_exact_third_power_for_ring(tmp_path, capsys):
    """The ring drive has a nonvanishing third-order correction, so the
    order-two residual decays with the third power."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {
                "name": "C",
                "tau": 0.1,
                "num_sites": 3,
                "jz": 1.0,
                "gamma": 0.5,
            },
            "orders": [2],
            "compare": {"start": 0.02, "stop": 0.2, "count": 5},
        },
    )
    code, out, _ = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 0
    document = json.loads(out)
    assert document["slopes"]["2"] == pytest.approx(3.0, abs=0.3)


def test_compare_exact_identical_segments(tmp_path, capsys):
    """With a vanishing field both segments share one generator, so the
    leading average is exact and residuals sit at roundoff."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"name": "A", "tau": 0.1, "h": 0.0, "gamma1": 1.0},
            "orders": [0],
            "compare": {"start": 0.05, "stop": 0.2, "count": 4},
        },
    )
    code, out, _ = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 0
    document = json.loads(out)
    assert all(value <= 1e-10 for value in document["residuals"]["0"])


def test_compare_exact_stroboscopic_section(tmp_path, capsys):
    """A custom initial state and period count shape the stroboscopic
    series; non-states and states of another dimension are rejected."""
    up_state = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"name": "A", "tau": 0.1, "h": 1.0, "gamma1": 1.0},
            "orders": [0, 1],
            "compare": {
                "start": 0.05,
                "stop": 0.2,
                "count": 4,
                "num_periods": 7,
                "initial_state": up_state,
            },
        },
    )
    code, out, _ = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 0
    document = json.loads(out)
    strobo = document["stroboscopic"]
    assert strobo["num_periods"] == 7
    for order in ("0", "1"):
        series = strobo["per_order"][order]
        assert len(series["distances"]) == 7
        assert series["max_distance"] == max(series["distances"])

    not_hermitian = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"name": "A", "tau": 0.1, "h": 1.0, "gamma1": 1.0},
            "orders": [0],
            "compare": {
                "start": 0.05,
                "stop": 0.2,
                "count": 2,
                "initial_state": not_hermitian,
            },
        },
        name="badstate.json",
    )
    code, _, err = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 2 and "initial_state" in err

    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"name": "C", "tau": 0.1, "num_sites": 3, "jz": 1.0},
            "orders": [0],
            "compare": {
                "start": 0.05,
                "stop": 0.2,
                "count": 2,
                "initial_state": up_state,
            },
        },
        name="smallstate.json",
    )
    code, out, err = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 2 and out == ""
    assert "initial_state" in err and "(8, 8)" in err


def test_compare_exact_refuses_a_state_that_is_not_positive(tmp_path, capsys):
    """A Hermitian unit-trace initial state with a negative eigenvalue is
    not a density matrix: a configuration error naming the field."""
    diagonal = np.diag([1.5, -0.5] + [0.0] * 6)
    state = [[[value, 0.0] for value in row] for row in diagonal.tolist()]
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"name": "C", "tau": 0.1, "num_sites": 3, "jz": 1.0, "gamma": 0.5},
            "orders": [0],
            "compare": {"start": 0.05, "stop": 0.2, "count": 2, "initial_state": state},
        },
    )
    code, out, err = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 2 and out == ""
    assert "compare.initial_state" in err and "positive semidefinite" in err


def test_compare_exact_model_d_four_sites_is_ill_conditioned(tmp_path, capsys):
    """Model D at L=4 fails the logarithm's eigenvector-condition guard at
    its first grid point: a numerical contract violation, exit 3."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"name": "D", "tau": 0.2, "num_sites": 4, "jx": 1.0, "gamma": 0.5},
            "orders": [0, 1, 2],
            "compare": {"start": 0.1, "stop": 0.2, "count": 2, "num_periods": 2},
        },
    )
    code, out, err = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 3 and out == ""
    assert "ConditioningError" in err and "eigenvector condition number" in err


def test_compare_exact_branch_ambiguity_everywhere(tmp_path, capsys):
    """A half-turn rotation per period makes the exact logarithm
    branch-ambiguous at the only grid point, so the run aborts with the
    dedicated exit code."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"name": "A", "tau": 0.1, "h": 1.0, "gamma1": 0.0},
            "orders": [0, 1],
            "compare": {
                "start": np.pi / 2.0,
                "stop": 2.0,
                "count": 1,
            },
        },
    )
    code, _, err = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 4
    assert "branch" in err


def test_output_file_and_byte_determinism(tmp_path, capsys):
    """Identical configurations produce byte-identical reports, written
    to the requested path with nothing on stdout."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {
                "name": "C",
                "tau": 0.2,
                "num_sites": 3,
                "jz": 0.7,
                "gamma": 0.4,
            },
            "orders": [0, 1, 2],
        },
    )
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, out, _ = run_cli(
        capsys, ["analyze", "--config", config, "--out", str(first)]
    )
    assert code == 0 and out == ""
    code, out, _ = run_cli(
        capsys, ["analyze", "--config", config, "--out", str(second)]
    )
    assert code == 0 and out == ""
    assert first.read_bytes() == second.read_bytes()
    json.loads(first.read_text(encoding="utf-8"))


RING = {"name": "C", "tau": 0.2, "num_sites": 3, "jz": 1.0, "gamma": 0.5}


@pytest.mark.parametrize(
    "command, section",
    [
        ("scan", {"scan": {"parameter": "gamma", "start": 0.1, "stop": 0.5, "count": 4}}),
        ("fit-modelc", {"fit": {"start": 0.05, "stop": 0.45, "count": 4}}),
        ("compare-exact", {"compare": {"start": 0.05, "stop": 0.2, "count": 3, "num_periods": 3}}),
    ],
)
def test_grid_commands_start_no_thread(monkeypatch, tmp_path, command, section):
    """``scan``, ``fit-modelc`` and ``compare-exact`` take their grid
    points in order on the calling thread, and two runs give
    byte-identical reports."""

    def refuse(self):
        raise AssertionError("thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    config = write_config(
        tmp_path, {"schema_version": 1, "model": RING, "orders": [0, 1, 2], **section}
    )
    reports = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.out"
        assert main([command, "--config", config, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] and reports[0]


def test_custom_drive_matches_named_model(tmp_path, capsys):
    """A custom segment specification replicating the single-site model
    yields the identical certification report."""
    sigma3 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    sigma1 = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    custom = {
        "schema_version": 1,
        "model": {
            "name": "custom",
            "num_sites": 1,
            "segments": [
                {
                    "duration": 0.1,
                    "hamiltonian_terms": [
                        {"matrix": sigma3, "sites": [0]}
                    ],
                },
                {
                    "duration": 0.1,
                    "jump_terms": [
                        {"rate": 1.0, "matrix": sigma1, "sites": [0]}
                    ],
                },
            ],
        },
        "orders": [0, 1, 2],
    }
    named_path = write_config(tmp_path, model_a_config(), name="named.json")
    custom_path = write_config(tmp_path, custom, name="custom.json")
    code, named_out, _ = run_cli(capsys, ["analyze", "--config", named_path])
    assert code == 0
    code, custom_out, _ = run_cli(capsys, ["analyze", "--config", custom_path])
    assert code == 0
    named_doc = json.loads(named_out)
    custom_doc = json.loads(custom_out)
    assert json.dumps(named_doc["orders"], sort_keys=True) == json.dumps(
        custom_doc["orders"], sort_keys=True
    )
    assert named_doc["tail_estimate"] == custom_doc["tail_estimate"]


def test_custom_two_segment_drive_with_unequal_durations(tmp_path, capsys):
    """Two segments of unequal duration are not a binary drive: the
    stroboscopic first order comes from the general piecewise formula."""
    sigma3 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    sigma1 = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    document = {
        "schema_version": 1,
        "model": {
            "name": "custom",
            "num_sites": 1,
            "segments": [
                {
                    "duration": 0.1,
                    "hamiltonian_terms": [
                        {"matrix": sigma3, "sites": [0]}
                    ],
                },
                {
                    "duration": 0.15,
                    "jump_terms": [
                        {"rate": 1.0, "matrix": sigma1, "sites": [0]}
                    ],
                },
            ],
        },
        "flavor": "fm",
        "orders": [0, 1],
    }
    config = write_config(tmp_path, document)
    code, out, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 0 and err == ""
    drive = PiecewiseLiouvillian(
        (
            LindbladSegment(0.1, (HamiltonianTerm(PAULI[3], (0,)),), ()),
            LindbladSegment(0.15, (), (JumpTerm(1.0, PAULI[1], (0,)),)),
        ),
        num_sites=1,
    )
    dissipator = extract_dissipator(fm_general(drive, 1).term(1))
    term = json.loads(out)["orders"][1]["term"]
    assert term["trace"] == pytest.approx(dissipator.trace(), abs=1e-14)
    assert term["min_eigenvalue"] == pytest.approx(
        psd_report(dissipator).min_eigenvalue, abs=1e-14
    )


def test_custom_drive_validation(tmp_path, capsys):
    """Custom drives reject malformed matrices and empty segments."""
    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {"name": "custom", "num_sites": 1, "segments": []},
            "orders": [0],
        },
    )
    code, _, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 2 and "segments" in err

    config = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "model": {
                "name": "custom",
                "num_sites": 1,
                "segments": [
                    {
                        "duration": 0.1,
                        "jump_terms": [
                            {
                                "rate": 1.0,
                                "matrix": [[1.0, 0.0]],
                                "sites": [0],
                            }
                        ],
                    }
                ],
            },
            "orders": [0],
        },
        name="badmatrix.json",
    )
    code, _, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 2 and "matrix" in err


IDENTITY_PAIRS = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize(
    "kind, term, message",
    [
        ("hamiltonian_terms", 5, "hamiltonian_terms[1]: expected an object"),
        (
            "hamiltonian_terms",
            {"matrix": IDENTITY_PAIRS, "rate": 1.0},
            "hamiltonian_terms[1]: unknown key 'rate'",
        ),
        (
            "hamiltonian_terms",
            {"sites": [0]},
            "hamiltonian_terms[1]: missing required key 'matrix'",
        ),
        (
            "hamiltonian_terms",
            {"matrix": "bad", "sites": "bad"},
            "hamiltonian_terms[1].matrix: not a numeric array: could not "
            "convert string to float: 'bad'",
        ),
        (
            "hamiltonian_terms",
            {"matrix": IDENTITY_PAIRS, "sites": [0, True]},
            "hamiltonian_terms[1].sites: expected a list of site integers",
        ),
        (
            "hamiltonian_terms",
            {"matrix": IDENTITY_PAIRS, "sites": [0, 1]},
            ": Hamiltonian term on sites (0, 1) must have shape (4, 4), got (2, 2)",
        ),
        ("jump_terms", [1], "jump_terms[1]: expected an object"),
        (
            "jump_terms",
            {"rate": 1.0, "matrix": IDENTITY_PAIRS, "bogus": 1},
            "jump_terms[1]: unknown key 'bogus'",
        ),
        (
            "jump_terms",
            {"rate": 1.0, "sites": [0]},
            "jump_terms[1]: missing required key 'matrix'",
        ),
        (
            "jump_terms",
            {"matrix": IDENTITY_PAIRS, "sites": [0]},
            "jump_terms[1]: missing required key 'rate'",
        ),
        (
            "jump_terms",
            {"rate": "fast", "matrix": "bad"},
            "jump_terms[1].rate: expected a number, got 'fast'",
        ),
        (
            "jump_terms",
            {"rate": 1.0, "matrix": IDENTITY_PAIRS, "sites": 0},
            "jump_terms[1].sites: expected a list of site integers",
        ),
        (
            "jump_terms",
            {"rate": 1.0, "matrix": IDENTITY_PAIRS, "sites": [0, 1]},
            ": jump operator on sites (0, 1) must have shape (4, 4), got (2, 2)",
        ),
        (
            "jump_terms",
            {"rate": -1.0, "matrix": IDENTITY_PAIRS, "sites": [0]},
            ": jump rate must be finite and nonnegative, got -1.0",
        ),
    ],
)
def test_custom_drive_term_messages(tmp_path, capsys, kind, term, message):
    """Each malformed custom-drive term, of either kind, is reported with
    its exact path and message; the first failing key is reported in the
    order rate, matrix, sites, and an error of the term class itself is
    reported at its segment."""
    valid = {"matrix": IDENTITY_PAIRS, "sites": [1]}
    if kind == "jump_terms":
        valid["rate"] = 1.0
    segments = [{"duration": 0.1}, {"duration": 0.2, kind: [valid, term]}]
    document = {
        "schema_version": 1,
        "model": {"name": "custom", "num_sites": 2, "segments": segments},
        "orders": [0],
    }
    code, out, err = run_cli(capsys, ["analyze", "--config", write_config(tmp_path, document)])
    assert (code, out) == (2, "")
    prefix = "model.segments[1]" + ("" if message.startswith(":") else ".")
    assert err == f"config error: {prefix}{message}\n"


def test_custom_drive_site_count_message(tmp_path, capsys):
    """An error of the drive itself is reported at the model section."""
    segments = [{"duration": 0.1}]
    document = {
        "schema_version": 1,
        "model": {"name": "custom", "num_sites": 7, "segments": segments},
        "orders": [0],
    }
    code, _, err = run_cli(capsys, ["analyze", "--config", write_config(tmp_path, document)])
    assert code == 2
    assert err == "config error: model: num_sites must be in 1..6, got 7\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stop", [0.0, -0.5])
def test_compare_exact_one_point_grid_needs_a_positive_stop(tmp_path, capsys, stop):
    """A geometric grid of one point skips the increasing check, but its
    stop must still be positive: a zero or negative stop is a
    configuration error naming ``compare.stop``, with no warning."""
    config = write_config(
        tmp_path, model_a_config(compare={"start": 0.1, "stop": stop, "count": 1})
    )
    code, out, err = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 2 and out == ""
    assert "compare.stop" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_matrices_are_configuration_errors(tmp_path, capsys, bad):
    """A NaN or infinite entry in an initial state or in a custom drive's
    Hamiltonian term exits 2 with the key that holds it, not with a
    failed linear-algebra routine."""
    state = [[[0.5, 0.0], [bad, 0.0]], [[bad, 0.0], [0.5, 0.0]]]
    document = model_a_config(
        compare={"start": 0.05, "stop": 0.2, "count": 2, "initial_state": state}
    )
    config = write_config(tmp_path, document, name="state.json")
    code, out, err = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 2 and out == ""
    assert "compare.initial_state" in err and "finite" in err

    field = [[[1.0, 0.0], [bad, 0.0]], [[bad, 0.0], [-1.0, 0.0]]]
    document = {
        "schema_version": 1,
        "model": {
            "name": "custom",
            "num_sites": 1,
            "segments": [
                {"duration": 0.1, "hamiltonian_terms": [{"matrix": field, "sites": [0]}]},
                {
                    "duration": 0.1,
                    "jump_terms": [{"rate": 1.0, "matrix": field, "sites": [0]}],
                },
            ],
        },
        "orders": [0, 1],
    }
    config = write_config(tmp_path, document, name="drive.json")
    code, out, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 2 and out == ""
    assert "segments[0].hamiltonian_terms[0].matrix" in err and "finite" in err


@pytest.mark.parametrize("key", ["start", "stop"])
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("command", ["scan", "fit-modelc", "compare-exact"])
def test_non_finite_grid_ends_are_configuration_errors(tmp_path, capsys, command, bad, key):
    """A grid end that is NaN or infinite (JSON ``NaN``, ``Infinity``)
    exits 2 naming the key, not 3 with a failed check at some point."""
    section = {"start": 0.05, "stop": 0.2, "count": 4, key: bad}
    name = {"scan": "scan", "fit-modelc": "fit", "compare-exact": "compare"}[command]
    if command == "scan":
        section["parameter"] = "gamma"
    document = {
        "schema_version": 1,
        "model": {"name": "C", "tau": 0.2, "num_sites": 3, "jz": 1.0, "gamma": 0.5},
        name: section,
    }
    code, out, err = run_cli(capsys, [command, "--config", write_config(tmp_path, document)])
    assert code == 2 and out == ""
    assert err.startswith(f"config error: {name}.{key}: must be finite")


@pytest.mark.parametrize("count", [MAX_COUNT + 1, 10**13])
@pytest.mark.parametrize(
    "command, key",
    [
        ("scan", "scan.count"),
        ("fit-modelc", "fit.count"),
        ("compare-exact", "compare.count"),
        ("compare-exact", "compare.num_periods"),
    ],
)
def test_oversized_counts_are_configuration_errors(monkeypatch, tmp_path, capsys, command, key, count):
    """A grid ``count`` or ``compare.num_periods`` above ``MAX_COUNT``
    exits 2 naming the key, before the run allocates its grid or builds
    its model: 10**13 ended in NumPy's memory error, a traceback."""
    name, field = key.split(".")
    section = {"start": 0.05, "stop": 0.2, "count": 4, field: count}
    if command == "scan":
        section["parameter"] = "gamma"
    document = {"schema_version": 1, "model": RING3, name: section}
    config = write_config(tmp_path, document)

    def refuse(params):
        raise AssertionError(f"built model {params.name}")

    monkeypatch.setattr(cli, "build_model", refuse)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, [command, "--config", config])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == f"config error: {key}: at most {MAX_COUNT}, got {count}\n"
    assert peak < 2**20


def three_segment_drive():
    """A custom one-site drive of three equal segments: not binary."""
    flip = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    segment = {"duration": 0.1, "jump_terms": [{"rate": 1.0, "matrix": flip, "sites": [0]}]}
    return {"name": "custom", "num_sites": 1, "segments": [segment] * 3}


@pytest.mark.parametrize(
    "command, document",
    [
        (
            "scan",
            {"flavor": "vanvleck", "model": RING3,
             "scan": {"parameter": "gamma", "start": 0.1, "stop": 0.5, "count": 3}},
        ),
        (
            "compare-exact",
            {"flavor": "vanvleck", "model": RING3,
             "compare": {"start": 0.05, "stop": 0.2, "count": 3}},
        ),
        ("analyze", {"model": three_segment_drive()}),
    ],
    ids=["scan-vanvleck", "compare-vanvleck", "analyze-three-segments"],
)
def test_orders_the_expansion_does_not_cover_exit_2(tmp_path, capsys, command, document):
    """Which orders an expansion covers is the expansion's own check:
    order 2 of the kick-free flavor, or of a drive that is not binary,
    exits 2 with a message on ``orders``, for every command."""
    document = {"schema_version": 1, "orders": [0, 1, 2], **document}
    code, out, err = run_cli(capsys, [command, "--config", write_config(tmp_path, document)])
    assert code == 2 and out == ""
    assert err.startswith("config error: orders: ") and err.endswith("cover 0..1, got 2\n")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_tol_psd_is_a_configuration_error(tmp_path, capsys, bad):
    """A NaN or infinite ``tol_psd``, from the file (JSON ``NaN``,
    ``Infinity``) or from ``--tol-psd``, exits 2: it would make every
    verdict false or true and write a report that is not strict JSON."""
    message = f"config error: tol_psd: must be finite, got {bad!r}"
    config = write_config(tmp_path, model_a_config(tol_psd=bad))
    code, out, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 2 and out == "" and err.startswith(message)

    config = write_config(tmp_path, model_a_config(), name="flag.json")
    code, out, err = run_cli(capsys, ["analyze", "--config", config, "--tol-psd", str(bad)])
    assert code == 2 and out == "" and err.startswith(message)


@pytest.mark.parametrize("bad", ["1", True])
def test_matrix_entries_must_be_json_numbers(tmp_path, capsys, bad):
    """A string or boolean entry in a custom drive's matrix or in an
    initial state exits 2 naming the key, as a scalar field would."""
    got = f"expected a number, got {bad!r}"
    state = [[[bad, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    document = model_a_config(
        compare={"start": 0.05, "stop": 0.2, "count": 2, "initial_state": state}
    )
    config = write_config(tmp_path, document, name="state.json")
    code, out, err = run_cli(capsys, ["compare-exact", "--config", config])
    assert code == 2 and out == ""
    assert f"compare.initial_state entry: {got}" in err

    field = [[[bad, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    document = {
        "schema_version": 1,
        "model": {
            "name": "custom",
            "num_sites": 1,
            "segments": [
                {"duration": 0.1, "hamiltonian_terms": [{"matrix": field, "sites": [0]}]},
                {"duration": 0.1, "jump_terms": [{"rate": 1.0, "matrix": IDENTITY_PAIRS}]},
            ],
        },
        "orders": [0, 1],
    }
    config = write_config(tmp_path, document, name="drive.json")
    code, out, err = run_cli(capsys, ["analyze", "--config", config])
    assert code == 2 and out == ""
    assert f"segments[0].hamiltonian_terms[0].matrix entry: {got}" in err


def _custom_drive(duration):
    """A one-site custom drive whose second segment lasts ``duration``."""
    field = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    flip = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    return {
        "name": "custom",
        "num_sites": 1,
        "segments": [
            {"duration": 0.1, "hamiltonian_terms": [{"matrix": field, "sites": [0]}]},
            {"duration": duration, "jump_terms": [{"rate": 1.0, "matrix": flip}]},
        ],
    }


@pytest.mark.parametrize(
    "model, message",
    [
        ({"tau": float("nan")}, "model: tau must be finite, got nan"),
        ({"tau": float("inf")}, "model: tau must be finite, got inf"),
        ({"jz": float("nan")}, "model: jz must be finite, got nan"),
        ({"gamma": float("inf")}, "model: gamma must be finite, got inf"),
        (_custom_drive(float("nan")), "model.segments[1]: segment duration must be finite, got nan"),
        (_custom_drive(float("inf")), "model.segments[1]: segment duration must be finite, got inf"),
    ],
    ids=["tau-nan", "tau-inf", "jz-nan", "gamma-inf", "duration-nan", "duration-inf"],
)
def test_non_finite_model_numbers_are_configuration_errors(tmp_path, capsys, model, message):
    """A NaN or infinite ``tau``, coupling, rate or segment duration (JSON
    ``NaN``, ``Infinity``) exits 2 naming it, with no traceback: not 3
    from a later check, and not 0 with an infinite segment certified."""
    if model.get("name") != "custom":
        model = {"name": "C", "tau": 0.2, "num_sites": 3, "jz": 1.0, "gamma": 0.5, **model}
    document = {"schema_version": 1, "model": model, "orders": [0, 1]}
    code, out, err = run_cli(capsys, ["analyze", "--config", write_config(tmp_path, document)])
    assert (code, out, err) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize(
    "command, model, section",
    [
        (
            "scan",
            {"name": "D", "tau": 0.2, "num_sites": 3, "jx": 1.0, "gamma": 0.5},
            {"scan": {"parameter": "gamma", "start": 0.0, "stop": 1e200, "count": 4}},
        ),
        (
            "fit-modelc",
            {"name": "C", "tau": 0.2, "num_sites": 3, "jz": 1.0, "gamma": 0.5},
            {"fit": {"start": 0.05, "stop": 1e200, "count": 4}},
        ),
    ],
    ids=["scan", "fit-modelc"],
)
def test_grids_whose_part_weights_overflow_are_configuration_errors(
    tmp_path, capsys, command, model, section
):
    """A finite grid end at which a graded part's weight (its coefficient
    times the value to its degree) overflows exits 2 naming the stop, with
    no traceback."""
    document = {"schema_version": 1, "model": model, **section}
    code, out, err = run_cli(capsys, [command, "--config", write_config(tmp_path, document)])
    name = next(iter(section))
    assert code == 2 and out == ""
    assert err == f"config error: {name}.stop: the expansion's part weights overflow on this grid\n"
