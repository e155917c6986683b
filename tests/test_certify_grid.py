"""The graded pass against its per-point reference: the ``scan`` and
``fit-modelc`` grid against every point decomposed on its own, and
``analyze`` (the pass at one point, over the order terms) against every
order term decomposed on its own; graded expansion parts, the linearity
of every scannable parameter in one segment generator, the work done once
per run, the scan's configuration errors, the stacked pass against the
per-point pass on planted failures, its memory and the 6-site scan."""

import functools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from floquet_lindblad import cli, liouvillianity, magnus
from floquet_lindblad.core import (
    _hermiticity_stage,
    _raise_first,
    block_eigvalsh,
    coupled_components,
)
from floquet_lindblad.errors import HermiticityError, SupportsUndeclaredError
from floquet_lindblad.lindblad import PiecewiseLiouvillian, Superoperator
from floquet_lindblad.liouvillianity import (
    Decomposition,
    DissipatorMatrix,
    HamiltonianCoefficients,
    psd_report,
)
from floquet_lindblad.locality import block_partition, coefficient_bounds
from floquet_lindblad.magnus import EffectiveExpansion
from floquet_lindblad.models import PARAMETER_SEGMENTS, ModelParams, build_model
from floquet_lindblad.pauli import FrobeniusBasis, merge_pauli_terms

from test_reference_reports import compare_reports

MODELS = {
    "A": {"name": "A", "tau": 0.2, "h": 1.0, "gamma1": 0.7},
    "B": {"name": "B", "tau": 0.2, "gamma1": 1.0, "gamma2": 0.5},
    "C3": {"name": "C", "tau": 0.2, "num_sites": 3, "jz": 1.0, "gamma": 0.5},
    "C4": {"name": "C", "tau": 0.2, "num_sites": 4, "jz": 1.0, "gamma": 0.5},
    "D3": {"name": "D", "tau": 0.2, "num_sites": 3, "jx": 1.0, "gamma": 0.5},
    "D4": {"name": "D", "tau": 0.2, "num_sites": 4, "jx": 1.0, "gamma": 0.5},
}

#: Drives whose expansion is zero at every period.
ZERO_MODELS = {
    "A0": {"name": "A", "tau": 0.2, "h": 0.0, "gamma1": 0.0},
    "B0": {"name": "B", "tau": 0.2, "gamma1": 0.0, "gamma2": 0.0},
}

#: Every model with each of its scannable parameters, and the period scan
#: of each zero drive.
SCANS = [
    (key, parameter)
    for key, model in MODELS.items()
    for parameter in cli.SCANNABLE[model["name"]]
] + [(key, "tau") for key in ZERO_MODELS]


def run_config(command, model, flavor="fm", orders=(0, 1, 2), flags=(), **sections):
    raw = {
        "schema_version": 1,
        "model": model,
        "flavor": flavor,
        "orders": list(orders),
        **sections,
    }
    args = cli.build_parser().parse_args([command, "--config", "unused.json", *flags])
    return cli.RunConfig(raw, args)


def added(first, second):
    """The decomposition of the sum of two superoperators from theirs: the
    tables, ``h_j`` and ``[a_jk]`` are linear, so each adds."""
    a, b = first.dissipator, second.dissipator
    h = first.hamiltonian
    return Decomposition(
        HamiltonianCoefficients(h.index_set, h.values + second.hamiltonian.values, h.num_sites),
        DissipatorMatrix._of(a._codes, liouvillianity._sum(a._terms, b._terms), a.num_sites),
        liouvillianity._sum(first.table, second.table),
    )


def running_decompositions(terms):
    """``(order, term, cumulative)`` for every order term: each term is
    decomposed on its own, with every check, and the cumulative
    decompositions (signed tables included) are their running sums."""
    cumulative = None
    for order, term in enumerate(terms):
        term = liouvillianity.decompose(term)
        cumulative = term if cumulative is None else added(cumulative, term)
        yield order, term, cumulative


def reference_analyze(config):
    """The per-term formulation of ``analyze``: the running decompositions
    of the order terms; each requested cumulative matrix, restricted to
    the weight limit, certified by ``psd_report`` and partitioned by
    ``block_partition``, and each restricted order term by ``psd_report``
    at its default tolerance."""
    drive = config.drive()
    expansion = config.expansion(drive)
    records, max_abs = [], []
    for order, term, cumulative in running_decompositions(expansion.order_terms):
        max_abs.append(term.dissipator.max_abs())
        if order not in config.orders:
            continue
        dissipator = cumulative.dissipator.restricted(config.weight_limit)
        report = psd_report(dissipator, tol_psd=config.tol_psd)
        structure = block_partition(dissipator)
        term_matrix = term.dissipator.restricted(config.weight_limit)
        trace = term_matrix.trace()
        records.append({
            "order": order,
            "cumulative": {
                "spectrum": [float(v) for v in report.eigenvalues],
                "min_eigenvalue": report.min_eigenvalue,
                "verdict": report.is_liouvillian,
                "breaking_degree": report.breaking_degree,
                "psd_tol": report.tol,
                "block_structure": {
                    "d_n": structure.d_n,
                    "blocks": [
                        {
                            "indices": [str(index) for index in block.index_set],
                            "size": block.size,
                            "min_eigenvalue": block.min_eigenvalue(),
                        }
                        for block in structure.blocks
                    ],
                },
                "roundtrip_residual": (
                    cumulative.residual() if config.weight_limit is None else None
                ),
            },
            "term": {
                "trace": trace,
                "trace_ok": None if order == 0 else abs(trace) <= liouvillianity.TRACE_TOL,
                "min_eigenvalue": psd_report(term_matrix).min_eigenvalue,
            },
        })
    try:
        bound_checks = [
            {"order": check.order, "max_abs": check.max_abs, "bound": check.bound, "ok": check.ok}
            for check in coefficient_bounds(drive, max_abs)
            if check.order in config.orders
        ]
    except SupportsUndeclaredError:
        bound_checks = None
    document = {
        "schema_version": 1,
        "metadata": config.metadata("analyze"),
        "orders": records,
        "bound_checks": bound_checks,
        "tail_estimate": expansion.tail_estimate,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def reference_scan_rows(config, parameter, grid):
    """The per-point formulation of ``scan``: the model rebuilt at every
    grid value, then its expansion, the running decompositions of its
    order terms and one PSD report per requested cumulative order.
    Returns ``(param, order, min_eig, verdict, breaking_degree)`` rows."""
    rows = []
    for value in grid:
        params = replace(config.params, **{parameter: float(value)})
        expansion = config.expansion(build_model(params))
        for order, _, cumulative in running_decompositions(expansion.order_terms):
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
        *_, (_, _, cumulative) = running_decompositions(expansion.order_terms)
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
    model = {**MODELS, **ZERO_MODELS}[key]
    config = run_config("scan", model, flavor, orders, scan=grid_section)
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


def kick_free_model():
    """The custom three-segment 4-site drive of the ``kickfree-3seg4``
    benchmark workload: zz bonds, an x field, then lowering channels."""
    from test_reference_reports import BENCH

    return json.loads((BENCH / "workloads" / "kickfree-3seg4.json").read_text())["model"]


#: ``(model, flavor, orders, flags, other configuration keys)`` per case.
ANALYZE_CASES = {
    **{key: (model, "fm", (0, 1, 2, 3), (), {}) for key, model in MODELS.items()},
    "C5": (dict(MODELS["C4"], num_sites=5), "fm", (0, 1, 2), (), {}),
    "D5": (dict(MODELS["D4"], num_sites=5), "fm", (0, 1, 2), (), {}),
    **{key: (model, "fm", (0, 1, 2), (), {}) for key, model in ZERO_MODELS.items()},
    "A-vanvleck": (MODELS["A"], "vanvleck", (0, 1), (), {}),
    "custom-vanvleck": ("kick-free", "vanvleck", (0, 1), (), {}),
    "custom-fm-general": ("kick-free", "fm", (0, 1), (), {}),
    "C4-weight-limit": (MODELS["C4"], "fm", (0, 1, 2), (), {"weight_limit": 4}),
    "D4-weight-limit": (MODELS["D4"], "fm", (0, 1, 2, 3), (), {"weight_limit": 3}),
    "C3-tol-psd": (MODELS["C3"], "fm", (0, 1, 2), (), {"tol_psd": 1e-12}),
    "D3-tol-psd-flag": (MODELS["D3"], "fm", (0, 1, 2), ("--tol-psd", "1e-3"), {}),
    "B-orders-1-3": (MODELS["B"], "fm", (1, 3), (), {}),
    "D4-orders-1-3": (MODELS["D4"], "fm", (1, 3), (), {}),
    "C3-order-flag": (MODELS["C3"], "fm", (0,), ("--order", "2"), {}),
}


@pytest.mark.parametrize("case", ANALYZE_CASES)
def test_analyze_matches_the_per_term_reference(case):
    """``analyze``, which certifies the stacked order terms at one point,
    writes the report of every order term decomposed on its own and every
    cumulative matrix certified on its own: block index sets, ``d_n``,
    verdicts, ``trace_ok`` and bound ``ok`` exactly, other numbers to 1e-9
    of their field's scale, roundoff fields at most 1e-9."""
    model, flavor, orders, flags, raw = ANALYZE_CASES[case]
    model = kick_free_model() if model == "kick-free" else model
    config = run_config("analyze", model, flavor, orders, flags, **raw)
    report = cli.cmd_analyze(config)
    reference = reference_analyze(config)
    assert compare_reports(report.encode(), reference.encode()) == []
    document = json.loads(report)
    assert [record["order"] for record in document["orders"]] == list(config.orders)


def test_analyze_decomposes_and_certifies_no_matrix_on_its_own(monkeypatch):
    """``analyze`` writes its report with ``decompose`` and ``psd_report``
    raising: it runs the graded pass alone."""
    config = run_config("analyze", MODELS["D4"], orders=(0, 1, 2, 3))
    expected = cli.cmd_analyze(config)

    def refuse(*args, **kwargs):
        raise AssertionError("analyze takes no per-matrix path")

    monkeypatch.setattr(liouvillianity, "decompose", refuse)
    monkeypatch.setattr(liouvillianity, "psd_report", refuse)
    assert cli.cmd_analyze(config) == expected


def hermitian_cases():
    """Every scan of ``SCANS`` in both flavors, and every ``analyze`` case."""
    for flavor in ("fm", "vanvleck"):
        for key, parameter in SCANS:
            yield pytest.param("scan", key, parameter, flavor, id=f"scan-{key}-{parameter}-{flavor}")
    for case in ANALYZE_CASES:
        yield pytest.param("analyze", case, None, None, id=f"analyze-{case}")


@pytest.mark.parametrize("command, key, parameter, flavor", hermitian_cases())
def test_every_selection_is_hermitian_bit_for_bit(monkeypatch, command, key, parameter, flavor):
    """The graded pass runs no Hermiticity check on a selection's stacked
    ``[a_jk]``, because it cannot fail: every stack it certifies equals its
    conjugate transpose exactly, entry ``(r, c)`` against ``(c, r)``."""
    stacks = []
    reports = liouvillianity._reports

    def recorded(spectra, deltas, peaks, tol_psd, nonzeros, size):
        stacks.append((*nonzeros, size))
        return reports(spectra, deltas, peaks, tol_psd, nonzeros, size)

    monkeypatch.setattr(liouvillianity, "_reports", recorded)
    if command == "scan":
        orders = (0, 1) if flavor == "vanvleck" else (0, 1, 2, 3)
        section = {"parameter": parameter, **scan_grid(parameter)}
        model = {**MODELS, **ZERO_MODELS}[key]
        cli.cmd_scan(run_config("scan", model, flavor, orders, scan=section))
    else:
        model, flavor, orders, flags, raw = ANALYZE_CASES[key]
        model = kick_free_model() if model == "kick-free" else model
        cli.cmd_analyze(run_config("analyze", model, flavor, orders, flags, **raw))
    assert stacks
    for rows, cols, values, size in stacks:
        keys = rows * size + cols
        order = np.argsort(keys)
        adjoint = order[np.searchsorted(keys[order], cols * size + rows)]
        assert np.array_equal(keys[adjoint], cols * size + rows)
        assert np.array_equal(values[:, adjoint], values.conj())


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
    their calls; returns the two lists, and a count of the signed tables
    read (one per decomposed superoperator) and of the ``eigvalsh`` calls."""
    solves = {"tables": 0, "eigvalsh": 0}
    for name, module, attribute in (
        ("tables", liouvillianity, "_signed_table"),
        ("eigvalsh", np.linalg, "eigvalsh"),
    ):
        function = getattr(module, attribute)

        def counted(*args, name=name, function=function):
            solves[name] += 1
            return function(*args)

        monkeypatch.setattr(module, attribute, counted)
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
    return builds, commutators, solves


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
    """One run builds the segment generators once, forms each commutator
    of the closed-form orders once and decomposes each graded part once,
    whatever the grid size; it makes as many ``eigvalsh`` calls at 3
    points as at 6; and two runs give byte-identical reports."""
    builds, commutators, solves = count_grid_work(monkeypatch)
    name = next(iter(section))
    expected_commutators = {2: 3, 3: 4}[max(orders) if command == "scan" else 2]
    expected_parts = {2: 5, 3: 6}[max(orders) if command == "scan" else 2]
    eigensolves = []
    for count in (3, 6):
        reports = []
        for run in range(2):
            builds.clear()
            commutators.clear()
            solves.update(tables=0, eigvalsh=0)
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
            assert solves["tables"] == expected_parts
            eigensolves.append(solves["eigvalsh"])
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
    assert eigensolves[0] == eigensolves[-1] > 0


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


def scaled_terms(unit, segment, value):
    """The order terms of ``unit`` with the generator of segment ``segment``
    times ``value`` (every duration, if None): each part weighted by its
    coefficient times ``value`` to its degree in that generator."""

    def degree(word):
        return len(word) - 1 if segment is None else word.count(segment)

    return tuple(
        magnus._sum_parts(p, [c * value ** degree(w) for c, w, _ in p], unit.drive.dim)
        for p in unit.parts
    )


def oracle_certify_grid(config, unit, parameter, grid, orders):
    """The per-point grid pass over the unit expansion ``unit``: each point's
    order terms are weighted sums of the parts, and each point is decomposed
    and certified on its own, in grid order."""
    segment = PARAMETER_SEGMENTS[config.params.name].get(parameter)
    for value in grid:
        terms = scaled_terms(unit, segment, float(value))
        yield [
            psd_report(
                cumulative.dissipator.restricted(config.weight_limit),
                tol_psd=config.tol_psd,
            )
            for order, _, cumulative in running_decompositions(terms)
            if order in orders
        ]


def outcome(points):
    """The reports of every point, or the error (type and message) raised
    instead, and the number of points reported before it."""
    reports = []
    try:
        for point in points:
            reports.append(point)
    except Exception as error:
        return len(reports), type(error), str(error)
    return reports


def one_report(command, config):
    """The report of ``command`` as the only point of a pass, for
    :func:`outcome`."""
    yield command(config)


def planted(unit, order, position, codes, values):
    """``unit`` with ``values`` added to part ``position`` of ``order`` at the
    doubled Pauli ``codes``."""
    parts = [list(p) for p in unit.parts]
    coefficient, word, superop = parts[order][position]
    terms = [np.concatenate(pair) for pair in zip(superop.pauli_terms, (codes, values))]
    part = Superoperator.from_pauli_terms(*merge_pauli_terms(*terms), superop.system_dim)
    parts[order][position] = (coefficient, word, part)
    return replace(unit, parts=tuple(map(tuple, parts)))


#: Doubled codes of X and Z on the first of three sites, which anticommute
#: and carry no Y, so their signed-table entries are their coefficients.
X0, Z0, SIZE = 16, 48, 4**3


def residue_plant(size):
    """``t[j, 0] = size`` and ``t[0, j] = -size`` under the dissipator
    ``1e4 * 1`` on every non-identity index with its trace-preserving first
    row and column: a valid GKLS form whose table norm raises the
    validation scale far above its coherent part."""
    indices = FrobeniusBasis(3).indices(min_weight=1)
    dissipator = DissipatorMatrix(indices, 1e4 * np.eye(SIZE - 1), 3)
    form = liouvillianity._form_parts(None, dissipator)
    codes, values = liouvillianity._form_superop(*form, 3).pauli_terms
    return np.append(codes, [X0 * SIZE, X0]), np.append(values, [size, -size])


PLANTS = {
    # A real diagonal table entry: K gains an identity part.
    "trace": (1, 0, lambda e: ([X0 * SIZE + X0], [e])),
    # t[j, 0] = e, t[0, j] = -e: K keeps zero, t - t^dag does not.
    "hermiticity": (1, 0, lambda e: ([X0 * SIZE, X0], [e, -e])),
    # An anti-Hermitian pair of anticommuting inner entries.
    "raw-skew": (2, 0, lambda e: ([X0 * SIZE + Z0, Z0 * SIZE + X0], [1j * e, 1j * e])),
    # The same first row and column defect under a large valid form.
    "residue": (1, 0, residue_plant),
    "nan": (1, 0, lambda e: ([X0 * SIZE + X0], [np.nan])),
    "inf": (1, 0, lambda e: ([X0 * SIZE + X0], [np.inf])),
}


@pytest.mark.parametrize("command", ["scan", "analyze"])
@pytest.mark.parametrize(
    "plant, size, error, first",
    [
        ("trace", 1e-6, "not trace preserving", 3),
        ("hermiticity", 1e-7, "not Hermiticity preserving", 4),
        ("raw-skew", 3e-9, "extracted coefficient matrix deviates from Hermiticity by 3.600e-12", 3),
        ("residue", 1e-6, "hamiltonian coefficients have imaginary residue 1.061e-08", 3),
        ("nan", None, "not trace preserving", 0),
        ("inf", None, "not trace preserving", 0),
        ("trace", 1e-8, None, None),
        ("hermiticity", 1e-9, None, None),
    ],
)
def test_stacked_grid_raises_what_the_per_point_pass_raises(
    monkeypatch, plant, size, error, first, command
):
    """A perturbed part of model D's unit expansion (L=3, ``gamma`` from 0
    to 1.6) fails one check of ``decompose`` from grid point ``first`` on,
    the earlier points passing it. The stacked pass raises the error of the
    per-point pass, or writes its reports when no point fails. ``analyze``
    of the order terms at the grid's last point raises the error of the
    per-term pass there, or writes its report."""
    scan = {"parameter": "gamma", "start": 0.0, "stop": 1.6, "count": 9}
    config = run_config("scan", MODELS["D3"], scan=scan)
    grid = cli._parse_grid(config.scan_section, "scan")
    unit = config.expansion(build_model(replace(config.params, gamma=1.0)))
    order, position, terms = PLANTS[plant]
    codes, values = terms(size)
    unit = planted(unit, order, position, np.array(codes), np.array(values, dtype=complex))
    if command == "analyze":
        with np.errstate(invalid="ignore"):
            terms = scaled_terms(unit, PARAMETER_SEGMENTS["D"]["gamma"], grid[-1])
            expansion = EffectiveExpansion(unit.flavor, terms, unit.drive)
            monkeypatch.setattr(config, "expansion", lambda drive: expansion)
            expected = outcome(one_report(reference_analyze, config))
            written = outcome(one_report(cli.cmd_analyze, config))
        if error is None:
            assert compare_reports(written[0].encode(), expected[0].encode()) == []
        else:
            assert isinstance(expected, tuple) and written == expected
        return
    with np.errstate(invalid="ignore"):
        expected = outcome(oracle_certify_grid(config, unit, "gamma", grid, config.orders))
        stacked = outcome(cli._certify_grid(config, unit, "gamma", grid, config.orders, "scan"))
    if error is None:
        assert len(stacked) == len(expected) == grid.size
        for ours, theirs in zip(stacked, expected):
            for report, reference in zip(ours, theirs):
                assert report.is_liouvillian == reference.is_liouvillian
                assert report.min_eigenvalue == pytest.approx(reference.min_eigenvalue, abs=1e-12)
        return
    assert expected[0] == first and error in expected[2]
    assert stacked[1:] == expected[1:]


def test_stacked_certification_is_the_per_matrix_report():
    """Matrices on the same positions, certified together on one layout
    that joins the entries above any one's structural tolerance, get each
    matrix's ``psd_report``; the Hermiticity stage of a stack raises the
    error that ``psd_report`` raises for its first non-Hermitian matrix."""
    config = run_config("scan", MODELS["C3"], orders=(0, 1, 2))
    expansion = config.expansion(config.drive())
    keys, values = liouvillianity.decompose(expansion.cumulative(2)).dissipator._terms
    stack = values * np.array([[0.0], [0.5], [1.0], [2.0]])
    stack[1, 0] = 3.0  # the diagonal of the first index set grows
    matrices = [liouvillianity._matrix((keys, row), 3) for row in stack]
    rows, cols, _ = matrices[0]._nonzeros
    above = np.max(np.abs(stack) / [[m.structural_tol()] for m in matrices], axis=0)
    layout = coupled_components(rows, cols, above, 1.0)[0]
    stacks, deltas = layout.bounded_split(rows, cols, stack)
    spectra = block_eigvalsh(stacks)
    peaks = np.max(np.abs(stack), axis=1)
    reports = liouvillianity._reports(spectra, deltas, peaks, None, (rows, cols, stack), SIZE - 1)
    for report, matrix in zip(reports, matrices):
        alone = psd_report(matrix)
        assert report.is_liouvillian == alone.is_liouvillian
        assert report.tol == alone.tol
        np.testing.assert_allclose(report.eigenvalues, alone.eigenvalues, rtol=0, atol=1e-14)
    skewed = stack.copy()
    skewed[2, 1] += 1e-3j
    skewed[3, 1] += 1e-2j
    with pytest.raises(HermiticityError) as alone:
        psd_report(liouvillianity._matrix((keys, skewed[2]), 3))
    matrices = [liouvillianity._matrix((keys, row), 3) for row in skewed]
    skews = np.array([matrix._skew for matrix in matrices])
    peaks = np.array([matrix.max_abs() for matrix in matrices])
    with pytest.raises(HermiticityError) as stacked:
        _raise_first([_hermiticity_stage(skews, peaks)])
    assert str(stacked.value) == str(alone.value)


def scan_peak(count, orders):
    """The traced peak of the scan pass of model D at L=4 over ``count``
    ``gamma`` points, after one untraced run for caches."""
    scan = {"parameter": "gamma", "start": 0.0, "stop": 1.6, "count": count}
    config = run_config("scan", MODELS["D4"], orders=orders, scan=scan)
    grid = cli._parse_grid(config.scan_section, "scan")
    unit = config.expansion(build_model(replace(config.params, gamma=1.0)))

    def run():
        for _ in cli._certify_grid(config, unit, "gamma", grid, config.orders, "scan"):
            pass

    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_the_grid():
    """The scan pass takes the grid a chunk at a time. For model D at L=4
    through order 3 a chunk holds fewer than 16 points, and the traced
    peak at 160 points is that at 16."""
    peaks = [scan_peak(count, (0, 1, 2, 3)) for count in (16, 160)]
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("key, parameter", [("D3", "jx"), ("D4", "tau")])
def test_scan_reports_do_not_depend_on_the_chunks(monkeypatch, key, parameter):
    """One point per chunk and one chunk for the whole grid write the same
    report, bit for bit: a point's sums are added a part at a time (a
    matrix product of the weights and the parts would differ in the last
    digits on these grids), and every chunk is certified on the blocks of
    the whole grid."""
    scan = {"parameter": parameter, **scan_grid(parameter)}
    config = run_config("scan", MODELS[key], orders=(0, 1, 2, 3), scan=scan)
    reports = []
    for budget in (1, 2**40):
        monkeypatch.setattr(liouvillianity, "_GRID_BYTES", budget)
        reports.append(cli.cmd_scan(config))
    assert reports[0] == reports[1]


def test_six_site_scan_certifies_from_nonzeros(monkeypatch, tmp_path, capsys):
    """A 16-point ``gamma`` scan of model D at L=6 through order 3 runs
    through ``cli.main`` with every dense superoperator, dense coefficient
    view and 2L-site transform forbidden, and writes the rows of the model
    rebuilt at a point, at three of its points."""
    from test_pauli_expansion import forbid_materialization

    model = {"name": "D", "tau": 0.2, "num_sites": 6, "jx": 1.0, "gamma": 0.5}
    scan = {"parameter": "gamma", "start": 0.0, "stop": 1.5, "count": 16}
    document = {"schema_version": 1, "model": model, "orders": [0, 1, 2, 3], "scan": scan}
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(document))
    forbid_materialization(monkeypatch, 6)
    assert cli.main(["scan", "--config", str(path)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 16 * 4
    config = run_config("scan", model, orders=(0, 1, 2, 3), scan=scan)
    grid = cli._parse_grid(config.scan_section, "scan")
    for point in (0, 7, 15):
        expected = reference_scan_rows(config, "gamma", grid[point : point + 1])
        assert_rows_agree(rows[4 * point : 4 * point + 4], expected)
