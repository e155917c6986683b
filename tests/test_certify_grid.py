"""The ``scan`` and ``fit-modelc`` grid against its per-point reference:
graded expansion parts, the linearity of every scannable parameter in
one segment generator, the work done once per run, and the scan's
configuration errors."""

import functools
import json
from dataclasses import replace

import numpy as np
import pytest

from floquet_lindblad import cli, magnus
from floquet_lindblad.lindblad import PiecewiseLiouvillian
from floquet_lindblad.liouvillianity import psd_report
from floquet_lindblad.models import PARAMETER_SEGMENTS, ModelParams, build_model
from floquet_lindblad.pauli import merge_pauli_terms

MODELS = {
    "A": {"name": "A", "tau": 0.2, "h": 1.0, "gamma1": 0.7},
    "B": {"name": "B", "tau": 0.2, "gamma1": 1.0, "gamma2": 0.5},
    "C3": {"name": "C", "tau": 0.2, "num_sites": 3, "jz": 1.0, "gamma": 0.5},
    "C4": {"name": "C", "tau": 0.2, "num_sites": 4, "jz": 1.0, "gamma": 0.5},
    "D3": {"name": "D", "tau": 0.2, "num_sites": 3, "jx": 1.0, "gamma": 0.5},
    "D4": {"name": "D", "tau": 0.2, "num_sites": 4, "jx": 1.0, "gamma": 0.5},
}

#: Every model with each of its scannable parameters.
SCANS = [
    (key, parameter)
    for key, model in MODELS.items()
    for parameter in cli.SCANNABLE[model["name"]]
]


def run_config(command, model, flavor="fm", orders=(0, 1, 2), **sections):
    raw = {
        "schema_version": 1,
        "model": model,
        "flavor": flavor,
        "orders": list(orders),
        **sections,
    }
    args = cli.build_parser().parse_args([command, "--config", "unused.json"])
    return cli.RunConfig(raw, args)


def reference_scan_rows(config, parameter, grid):
    """The per-point formulation of ``scan``: the model rebuilt at every
    grid value, then its expansion, the running decompositions of its
    order terms and one PSD report per requested cumulative order.
    Returns ``(param, order, min_eig, verdict, breaking_degree)`` rows."""
    rows = []
    for value in grid:
        params = replace(config.params, **{parameter: float(value)})
        expansion = config.expansion(build_model(params))
        decompositions = cli._running_decompositions(expansion.order_terms)
        for order, _, cumulative in decompositions:
            if order not in config.orders:
                continue
            dissipator = cumulative.dissipator.restricted(config.weight_limit)
            report = psd_report(dissipator, tol_psd=config.tol_psd)
            verdict = "true" if report.is_liouvillian else "false"
            rows.append(
                (
                    cli._format_float(value),
                    str(order),
                    report.min_eigenvalue,
                    verdict,
                    report.breaking_degree,
                )
            )
    return rows


def reference_fit_min_eigs(config, grid):
    """The per-point formulation of ``fit-modelc``: model C rebuilt at
    ``jz = product / tau`` for every grid product, its closed-form orders
    through two, and the smallest eigenvalue of the cumulative order-two
    matrix."""
    min_eigs = []
    for product in grid:
        params = replace(config.params, jz=float(product) / config.params.tau)
        expansion = magnus.bch_orders(build_model(params), 2)
        *_, (_, _, cumulative) = cli._running_decompositions(expansion.order_terms)
        dissipator = cumulative.dissipator.restricted(config.weight_limit)
        min_eigs.append(psd_report(dissipator, tol_psd=config.tol_psd).min_eigenvalue)
    return min_eigs


def scan_grid(parameter):
    """A grid that includes a zero coupling or rate (``tau`` must stay
    positive) and values past the models' positivity boundaries."""
    if parameter == "tau":
        return {"start": 0.05, "stop": 1.25, "count": 5}
    return {"start": 0.0, "stop": 1.6, "count": 5}


def assert_rows_agree(rows, expected):
    """``param``, ``order`` and ``verdict`` match exactly; ``min_eig`` and
    ``breaking_degree`` agree to 1e-12 times the column's largest magnitude
    in the reference."""
    assert len(rows) == len(expected)
    for column in (0, 1, 3):
        assert [row[column] for row in rows] == [row[column] for row in expected]
    for column in (2, 4):
        ours = np.array([float(row[column]) for row in rows])
        theirs = np.array([row[column] for row in expected])
        scale = np.max(np.abs(theirs))
        np.testing.assert_allclose(ours, theirs, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("flavor", ["fm", "vanvleck"])
@pytest.mark.parametrize("key, parameter", SCANS, ids=[f"{k}-{p}" for k, p in SCANS])
def test_scan_grid_matches_the_per_point_reference(key, parameter, flavor):
    """``scan``, which builds the expansion once at unit value of the
    parameter and weights its parts at every point, writes the rows of
    the model rebuilt at every point."""
    orders = (0, 1) if flavor == "vanvleck" else (0, 1, 2, 3)
    grid_section = {"parameter": parameter, **scan_grid(parameter)}
    config = run_config("scan", MODELS[key], flavor, orders, scan=grid_section)
    report = cli.cmd_scan(config)
    lines = report.splitlines()
    assert lines[0] == cli.CSV_HEADER
    grid = cli._parse_grid(config.scan_section, "scan")
    expected = reference_scan_rows(config, parameter, grid)
    assert_rows_agree([line.split(",") for line in lines[1:]], expected)


@pytest.mark.parametrize("weight_limit", [None, 2])
def test_fit_grid_matches_the_per_point_reference(weight_limit):
    """``fit-modelc`` writes the normalized smallest eigenvalues of model C
    rebuilt at every grid product, to 1e-12 of their largest magnitude."""
    model = {"name": "C", "tau": 0.2, "num_sites": 3, "jz": 1.0, "gamma": 0.5}
    fit = {"start": 0.05, "stop": 0.45, "count": 6}
    config = run_config("fit-modelc", model, fit=fit, weight_limit=weight_limit)
    document = json.loads(cli.cmd_fit_modelc(config))
    grid = np.array(document["grid"])
    scale = config.params.gamma * 2.0 ** (config.params.num_sites - 1)
    expected = np.array(reference_fit_min_eigs(config, grid)) / (scale * grid**2)
    normalized = np.array(document["normalized_min_eigs"])
    tolerance = 1e-12 * np.max(np.abs(expected))
    np.testing.assert_allclose(normalized, expected, rtol=0.0, atol=tolerance)


def difference_norm(a, b):
    """Frobenius norm of the difference of two sparse superoperators."""
    codes, values = merge_pauli_terms(
        np.concatenate([a.pauli_terms[0], b.pauli_terms[0]]),
        np.concatenate([a.pauli_terms[1], -b.pauli_terms[1]]),
    )
    return float(np.linalg.norm(values))


@pytest.mark.parametrize("key", MODELS)
def test_every_scannable_coupling_scales_one_segment_generator(key):
    """A coupling or rate ``p`` of a model multiplies the generator of its
    own segment by ``p`` and leaves the other one unchanged: the linearity
    the scan grid rests on. A parameter that entered nonlinearly, or into
    the other segment, fails here."""
    params = ModelParams(**MODELS[key])
    for parameter, segment in PARAMETER_SEGMENTS[params.name].items():
        unit = build_model(replace(params, **{parameter: 1.0})).segment_generators()
        for value in (0.0, 0.37, 1.0, 2.5):
            scaled = build_model(replace(params, **{parameter: value}))
            generators = scaled.segment_generators()
            expected = value * unit[segment]
            assert difference_norm(generators[segment], expected) <= (
                1e-14 * value * unit[segment].norm()
            )
            other = 1 - segment
            for ours, theirs in zip(generators[other].pauli_terms, unit[other].pauli_terms):
                np.testing.assert_array_equal(ours, theirs)


def closed_form_orders(drive):
    """The closed forms written as one commutator chain per order."""
    tau = drive.segments[0].duration
    first, second = drive.segment_generators()
    inner = magnus._commutator(second, first)
    return [
        0.5 * (first + second),
        (tau / 4.0) * inner,
        (tau**2 / 24.0) * magnus._commutator(second - first, inner),
        (tau**3 / 48.0) * magnus._commutator(first, magnus._commutator(second, -1.0 * inner)),
    ]


@pytest.mark.parametrize("key", MODELS)
def test_graded_parts_sum_to_the_closed_forms(key):
    """``bch_orders`` sums its graded parts into the closed forms of every
    order 0-3, to 1e-14 of each term's norm, and each part carries the
    commutator its word names, outermost generator first."""
    drive = build_model(ModelParams(**MODELS[key]))
    expansion = magnus.bch_orders(drive, 3)
    for term, expected in zip(expansion.order_terms, closed_form_orders(drive), strict=True):
        assert difference_norm(term, expected) <= 1e-14 * expected.norm()
    generators = drive.segment_generators()
    for order, parts in enumerate(expansion.parts):
        for _, word, part in parts:
            assert len(word) == order + 1
            chain = generators[word[-1]]
            for segment in reversed(word[:-1]):
                chain = magnus._commutator(generators[segment], chain)
            assert difference_norm(part, chain) == 0.0


@pytest.mark.parametrize("key", ["A", "D3"])
def test_van_vleck_parts_of_a_binary_drive(key):
    """The kick-free expansion of a binary drive has the order-0 parts
    ``c_s(0) L_s`` and one order-1 part, of degree one in each generator."""
    drive = build_model(ModelParams(**MODELS[key]))
    expansion = magnus.van_vleck_orders(drive, 1, m_max=20)
    (first, second), (pair,) = expansion.parts
    assert (first[:2], second[:2]) == ((0.5, (0,)), (0.5, (1,)))
    assert pair[1] == (1, 0)


def count_grid_work(monkeypatch):
    """Patch the segment generator build and the commutator to record
    their calls; returns the two lists."""
    builds, commutators = [], []
    build = PiecewiseLiouvillian._segment_generators.func

    def counted_build(self):
        builds.append(self)
        return build(self)

    cached = functools.cached_property(counted_build)
    cached.__set_name__(PiecewiseLiouvillian, "_segment_generators")
    monkeypatch.setattr(PiecewiseLiouvillian, "_segment_generators", cached)
    commutator = magnus._commutator

    def counted_commutator(a, b):
        commutators.append((a, b))
        return commutator(a, b)

    monkeypatch.setattr(magnus, "_commutator", counted_commutator)
    return builds, commutators


@pytest.mark.parametrize(
    "command, orders, section",
    [
        ("scan", [0, 1, 2, 3], {"scan": {"parameter": "gamma", "start": 0.0, "stop": 1.0}}),
        ("scan", [0, 1, 2], {"scan": {"parameter": "tau", "start": 0.1, "stop": 0.9}}),
        ("fit-modelc", [0, 1, 2], {"fit": {"start": 0.05, "stop": 0.45}}),
    ],
    ids=["scan-gamma", "scan-tau", "fit-modelc"],
)
def test_grid_commands_do_their_parameter_independent_work_once(
    monkeypatch, tmp_path, command, orders, section
):
    """One run builds the segment generators once and forms each
    commutator of the closed-form orders once, whatever the grid size, and
    two runs give byte-identical reports."""
    builds, commutators = count_grid_work(monkeypatch)
    name = next(iter(section))
    expected_commutators = {2: 3, 3: 4}[max(orders) if command == "scan" else 2]
    for count in (3, 6):
        reports = []
        for run in range(2):
            builds.clear()
            commutators.clear()
            path = tmp_path / "config.json"
            path.write_text(json.dumps({
                "schema_version": 1,
                "model": MODELS["C3"],
                "orders": orders,
                name: {**section[name], "count": count},
            }))
            out = tmp_path / f"out{run}"
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
            assert len(builds) == 1
            assert len(commutators) == expected_commutators
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


@pytest.mark.parametrize("key, parameter", [(k, p) for k, p in SCANS if p != "tau"])
def test_scan_refuses_a_negative_grid_and_names_the_parameter(tmp_path, capsys, key, parameter):
    """A grid starting below zero is refused with the parameter's name,
    coupling or rate alike."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "model": MODELS[key],
        "scan": {"parameter": parameter, "start": -0.5, "stop": 1.0, "count": 3},
    }))
    assert cli.main(["scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"scan.start: {parameter} grid must stay nonnegative" in err
    assert "rate grids" not in err
