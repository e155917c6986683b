"""The Pauli-native expansion against dense references: sparse segment
generators, the one product kernel, the expansion flavors, table-space
validation, and the L=6 and CLI envelopes that never form a dense
superoperator."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_lindblad import (
    DimensionMismatchError,
    HamiltonianTerm,
    JumpTerm,
    LindbladSegment,
    PiecewiseLiouvillian,
    Superoperator,
    bch_orders,
    fm_general,
    is_hermiticity_preserving,
    is_trace_preserving,
    pauli_coefficients,
    van_vleck_orders,
)
from floquet_lindblad import lindblad, liouvillianity, locality, pauli
from floquet_lindblad.cli import main
from floquet_lindblad.locality import drive_locality, max_weight_bound
from floquet_lindblad.models import ModelParams, build_model
from floquet_lindblad.pauli import (
    code_weights,
    matrix_from_pauli_terms,
    pauli_commutator,
)

from dense_reference import dense_generators, liouvillian_superop


def random_matrix(rng, dim, hermitian):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return raw + raw.conj().T if hermitian else raw


def random_segment(rng, num_sites, full_space):
    """Random 1-2-site Hamiltonian and jump terms; with ``full_space``
    one more term without a declared support, a Hamiltonian or a jump."""
    hamiltonian_terms, jump_terms = [], []

    def support():
        size = rng.integers(1, min(2, num_sites) + 1)
        return tuple(int(s) for s in rng.choice(num_sites, size, replace=False))

    for _ in range(rng.integers(0, 3)):
        sites = support()
        hamiltonian_terms.append(
            HamiltonianTerm(random_matrix(rng, 2 ** len(sites), True), sites)
        )
    for _ in range(rng.integers(0, 3)):
        sites = support()
        jump_terms.append(
            JumpTerm(
                rng.uniform(0.1, 1.0),
                random_matrix(rng, 2 ** len(sites), False),
                sites,
            )
        )
    if full_space:
        matrix = random_matrix(rng, 2**num_sites, rng.integers(2) == 0)
        if np.allclose(matrix, matrix.conj().T):
            hamiltonian_terms.append(HamiltonianTerm(matrix, None))
        else:
            jump_terms.append(JumpTerm(rng.uniform(0.1, 1.0), matrix, None))
    return LindbladSegment(
        rng.uniform(0.05, 0.3), tuple(hamiltonian_terms), tuple(jump_terms)
    )


def random_drive(seed, num_sites, segments, full_space):
    rng = np.random.default_rng(seed)
    drawn = [
        random_segment(rng, num_sites, full_space and s == 0)
        for s in range(segments)
    ]
    return PiecewiseLiouvillian(tuple(drawn), num_sites)


def commutator(a, b):
    return a @ b - b @ a


def assert_term_close(term, expected, scale):
    """``term.matrix`` equals ``expected`` to 1e-12 relative to
    ``scale``, the norm the term is formed at (a product of generator
    norms), so that a cancelling term is held to the same roundoff."""
    difference = np.linalg.norm(term.matrix - expected)
    assert difference <= 1e-12 * max(scale, np.linalg.norm(expected))
    assert term.norm() == pytest.approx(np.linalg.norm(expected), abs=1e-12 * scale)


def harmonic_weights(drive, m):
    """``c_s(m)`` of the ``magnus`` docstring, written out."""
    period = drive.period
    return [
        (1j / (2.0 * np.pi * m))
        * (np.exp(-2j * np.pi * m * end / period) - np.exp(-2j * np.pi * m * start / period))
        for start, end in drive.segment_windows
    ]


drives = st.builds(
    random_drive,
    seed=st.integers(0, 2**32 - 1),
    num_sites=st.integers(1, 3),
    segments=st.integers(2, 3),
    full_space=st.booleans(),
)


@given(drives)
@settings(max_examples=25)
def test_segment_tables_match_the_dense_transform(drive):
    """Every segment generator's sparse Pauli sum is the doubled-space
    transform of the dense Kronecker reference."""
    for generator, dense in zip(drive.segment_generators(), dense_generators(drive)):
        reference = pauli_coefficients(dense, 2 * drive.num_sites)
        codes, values = generator.pauli_terms
        assert np.all(np.diff(codes) > 0) and np.all(values != 0)
        sparse = np.zeros_like(reference)
        sparse[codes] = values
        assert np.max(np.abs(sparse - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_input_cutoff_is_relative_to_each_operator():
    """A rate of 1e-20 survives; roundoff-sized coefficients do not."""
    tiny = PiecewiseLiouvillian(
        (LindbladSegment(0.1, (), (JumpTerm(1e-20, pauli.PAULI[1], (0,)),)),), 1
    )
    (generator,) = tiny.segment_generators()
    dense = dense_generators(tiny)[0]
    assert generator.norm() == pytest.approx(np.linalg.norm(dense), rel=1e-12)
    assert generator.norm() > 0.0
    noisy = pauli.PAULI[3] + 1e-17 * pauli.PAULI[1]
    field = PiecewiseLiouvillian(
        (LindbladSegment(0.1, (HamiltonianTerm(noisy, (0,)),), ()),), 1
    )
    codes, _ = field.segment_generators()[0].pauli_terms
    assert codes.size == 2


GENERATOR_DRIVES = [
    pytest.param(
        build_model(
            ModelParams(name=name, tau=0.2, num_sites=num_sites, gamma=0.5, **{coupling: 1.0})
        ),
        id=f"{name}-L{num_sites}",
    )
    for name, coupling in (("C", "jz"), ("D", "jx"))
    for num_sites in (3, 4, 5, 6)
] + [
    pytest.param(random_drive(seed, 3, 2, False), id=f"custom-{seed}")
    for seed in range(4)
]


@pytest.mark.parametrize("drive", GENERATOR_DRIVES)
def test_segment_generators_transform_each_term_on_its_own_sites(monkeypatch, drive):
    """Declared-support terms are never embedded in the full space, and
    no Pauli transform runs on more sites than a term's support; at
    L <= 4 the kept codes are those of the dense route."""

    def refuse(*args, **kwargs):
        raise AssertionError("term embedded in the full space")

    transformed = []

    def counted(matrix, num_sites):
        transformed.append(num_sites)
        return pauli_coefficients(matrix, num_sites)

    drive = PiecewiseLiouvillian(drive.segments, drive.num_sites)  # nothing cached
    support = max(
        len(term.sites)
        for segment in drive.segments
        for term in segment.hamiltonian_terms + segment.jump_terms
    )
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "embed_local", refuse)
        patch.setattr(pauli, "embed_local", refuse)
        patch.setattr(lindblad, "pauli_coefficients", counted)
        patch.setattr(pauli, "pauli_coefficients", counted)
        generators = drive.segment_generators()
    assert transformed and max(transformed) <= support
    if drive.num_sites > 4:
        return
    for generator, dense in zip(generators, dense_generators(drive)):
        magnitudes = np.abs(pauli_coefficients(dense, 2 * drive.num_sites))
        expected = np.flatnonzero(magnitudes > 1e-12 * magnitudes.max())
        np.testing.assert_array_equal(generator.pauli_terms[0], expected)


@given(drives)
@settings(max_examples=25)
def test_expansion_flavors_match_dense_commutators(drive):
    """``fm_general`` and ``van_vleck_orders`` terms and the tail
    estimate equal the magnus-docstring formulas evaluated on the dense
    segment matrices; so do the closed-form ``bch_orders`` on the same
    drive with equal durations."""
    generators = dense_generators(drive)
    norms = [np.linalg.norm(g) for g in generators]
    period, durations = drive.period, [s.duration for s in drive.segments]
    average = sum(t * g for t, g in zip(durations, generators)) / period
    pairs = [(a, b) for a in range(len(generators)) for b in range(a)]
    first_scale = period * max(norms) ** 2 * len(pairs)

    stroboscopic = fm_general(drive, 1)
    assert_term_close(stroboscopic.term(0), average, max(norms))
    expected = sum(
        durations[a] * durations[b] * commutator(generators[a], generators[b])
        for a, b in pairs
    ) / (2.0 * period)
    assert_term_close(stroboscopic.term(1), expected, first_scale)

    m_max, omega = 5, 2.0 * np.pi / period
    kick_free = van_vleck_orders(drive, 1, m_max=m_max)
    assert_term_close(kick_free.term(0), average, max(norms))
    harmonic_terms = []
    for m in range(1, m_max + 1):
        plus = sum(c * g for c, g in zip(harmonic_weights(drive, m), generators))
        minus = sum(c * g for c, g in zip(harmonic_weights(drive, -m), generators))
        harmonic_terms.append(commutator(minus, plus) / (1j * m * omega))
    assert_term_close(kick_free.term(1), sum(harmonic_terms), first_scale)
    tail = 2.0 * max(np.linalg.norm(t) for t in harmonic_terms[-2:])
    assert kick_free.tail_estimate == pytest.approx(tail, rel=1e-12, abs=1e-12 * first_scale)

    binary = PiecewiseLiouvillian(
        tuple(
            LindbladSegment(durations[0], s.hamiltonian_terms, s.jump_terms)
            for s in drive.segments[:2]
        ),
        drive.num_sites,
    )
    first, second = dense_generators(binary)
    tau, scale = durations[0], max(np.linalg.norm(first), np.linalg.norm(second))
    inner = commutator(second, first)
    references = [
        0.5 * (first + second),
        (tau / 4.0) * inner,
        (tau**2 / 24.0) * commutator(second - first, inner),
        (tau**3 / 48.0) * commutator(first, commutator(second, commutator(first, second))),
    ]
    closed = bch_orders(binary, 3)
    for order, reference in enumerate(references):
        assert_term_close(
            closed.term(order), reference, tau**order * (2.0 * scale) ** (order + 1)
        )


@pytest.mark.parametrize("count", [3, 256])
def test_commutator_kernel_sparse_and_dense_branches(monkeypatch, count):
    """Both branches of ``pauli_commutator`` give the dense commutator:
    3x3 strings on 6 sites go pair by pair, 256x256 through the
    transforms."""
    rng = np.random.default_rng(count)
    sites = 6
    sums = []
    for _ in range(2):
        codes = np.sort(rng.choice(4**sites, count, replace=False))
        sums.append((codes, rng.standard_normal(count) + 1j * rng.standard_normal(count)))
    dense = [matrix_from_pauli_terms(*s, sites) for s in sums]
    calls = []
    monkeypatch.setattr(
        pauli, "pauli_coefficients",
        lambda *a: calls.append(a) or pauli_coefficients(*a),
    )
    codes, values = pauli_commutator(*sums, sites)
    assert bool(calls) == (count == 256)
    reference = pauli_coefficients(commutator(*dense), sites)
    result = np.zeros_like(reference)
    result[codes] = values
    assert np.max(np.abs(result - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_sparse_arithmetic_matches_dense():
    """``+``, ``-``, scalar ``*`` and ``norm`` on sparse forms agree with
    the materialized matrices, a mixed sum is dense, and malformed Pauli
    terms are rejected."""
    first, second = build_model(
        ModelParams(name="D", tau=0.2, num_sites=3, jx=1.0, gamma=0.5)
    ).segment_generators()
    a, b = first.matrix, second.matrix
    for result, expected in (
        (first + second, a + b),
        (first - second, a - b),
        (0.3j * first, 0.3j * a),
        (first * 0.0, 0.0 * a),
    ):
        assert result.pauli_terms is not None
        np.testing.assert_allclose(result.matrix, expected, atol=1e-13)
        assert result.norm() == pytest.approx(np.linalg.norm(expected), abs=1e-13)
    mixed = first + Superoperator(b, 8)
    assert mixed.pauli_terms is None
    np.testing.assert_allclose(mixed.matrix, a + b, atol=1e-13)
    for codes, values, dim in (
        ([3, 1], [1.0, 1.0], 2),
        ([1, 1], [1.0, 1.0], 2),
        ([16], [1.0], 2),
        ([-1], [1.0], 2),
        ([1, 2], [1.0], 2),
        ([1], [1.0], 3),
    ):
        with pytest.raises(DimensionMismatchError):
            Superoperator.from_pauli_terms(np.array(codes), np.array(values), dim)


def sparse_form(superop):
    """The sparse Pauli form of a dense superoperator."""
    num_sites = superop.system_dim.bit_length() - 1
    coefficients = pauli_coefficients(superop.matrix, 2 * num_sites)
    codes = np.flatnonzero(coefficients)
    return Superoperator.from_pauli_terms(codes, coefficients[codes], superop.system_dim)


def table_defects(superop):
    """``||K||_F``, ``||t - t^dag||_F`` and the validation scale ``max(1,
    ||t||_F / 4^L)`` of the signed table ``t`` of ``superop``."""
    table, num_sites = liouvillianity._signed_table(superop)
    sums = liouvillianity._linear_sums(table, num_sites)
    gram, skew, norm = (np.linalg.norm(sums[key][1]) for key in ("gram", "skew", "table"))
    return gram, skew, max(1.0, norm / 4**num_sites)


def verdict_cases():
    for name, coupling in (("C", "jz"), ("D", "jx")):
        for num_sites in (3, 4):
            params = ModelParams(
                name=name, tau=0.2, num_sites=num_sites, gamma=0.5, **{coupling: 1.0}
            )
            for order, term in enumerate(bch_orders(build_model(params), 3).order_terms):
                yield f"{name}{num_sites}-order{order}", term
    rng = np.random.default_rng(11)
    for num_sites in (1, 2):
        dim = 2**num_sites
        yield f"random{num_sites}", sparse_form(
            Superoperator(random_matrix(rng, dim * dim, False), dim)
        )
        gkls = liouvillian_superop(
            random_matrix(rng, dim, True), [(0.7, random_matrix(rng, dim, False))]
        )
        shifted = gkls + Superoperator(0.3j * np.eye(dim * dim), dim)
        yield f"gkls-plus-identity{num_sites}", sparse_form(shifted)


SPARSE_CASES = list(verdict_cases())
# The dense form of every case takes the same one path through its table.
DENSE_CASES = [
    (f"{name}-dense", Superoperator(term.matrix, term.system_dim))
    for name, term in SPARSE_CASES
]


@pytest.mark.parametrize("name, term", SPARSE_CASES + DENSE_CASES)
def test_table_verdicts_agree_with_the_dense_validators(name, term):
    """Table-space trace and Hermiticity verdicts agree with the dense
    predicates; the trace defect is the dense residual and the
    Hermiticity defect bounds the dense entry defect from above.
    Extraction accepts exactly what the dense predicates accept, and a
    dense input decomposes as its sparse form does."""
    trace_defect, hermiticity_defect, scale = table_defects(term)
    tol = liouvillianity.VALIDATION_TOL
    trace_ok = is_trace_preserving(term, tol)
    hermiticity_ok = is_hermiticity_preserving(term, tol)
    assert (trace_defect <= tol * scale) == trace_ok
    assert (hermiticity_defect <= tol * scale) == hermiticity_ok
    dim = term.system_dim
    matrix = term.matrix
    residual = np.linalg.norm(np.eye(dim).reshape(-1) @ matrix)
    assert trace_defect == pytest.approx(residual, rel=1e-12, abs=1e-13)
    blocks = matrix.reshape(dim, dim, dim, dim)
    entry_defect = np.max(np.abs(blocks - blocks.transpose(1, 0, 3, 2).conj()))
    assert hermiticity_defect >= entry_defect - 1e-13
    assert scale <= max(1.0, np.max(np.abs(matrix)))
    accepted = trace_ok and hermiticity_ok
    assert accepted != name.startswith(("random", "gkls"))
    if not accepted:
        with pytest.raises(liouvillianity.NotLindbladCandidateError):
            liouvillianity.extract_dissipator(term)
        return
    liouvillianity.extract_dissipator(term)
    if name.endswith("-dense"):
        dense = liouvillianity.decompose(term)
        sparse = liouvillianity.decompose(dict(SPARSE_CASES)[name[: -len("-dense")]])
        atol = 1e-13 * max(1.0, sparse.dissipator.max_abs())
        np.testing.assert_allclose(
            dense.dissipator.entries, sparse.dissipator.entries, rtol=0, atol=atol
        )
        np.testing.assert_allclose(
            dense.hamiltonian.values, sparse.hamiltonian.values, rtol=0, atol=atol
        )


def forbid_materialization(monkeypatch, num_sites):
    """Make any lazy ``.matrix``, any dense segment superoperator, any
    dense view of a coefficient matrix, any Pauli transform on more than
    ``num_sites`` sites and any scatter of a Pauli sum on the doubled
    system's ``2 num_sites`` sites or more raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense superoperator materialized")

    monkeypatch.setattr(lindblad, "matrix_from_pauli_terms", refuse)
    monkeypatch.setattr(
        PiecewiseLiouvillian, "segment_superops", property(refuse)
    )
    monkeypatch.setattr(liouvillianity.DissipatorMatrix, "entries", property(refuse))

    def local_only(matrix, sites):
        if sites > num_sites:
            raise AssertionError(f"{sites}-site Pauli transform")
        return pauli_coefficients(matrix, sites)

    for module in (lindblad, liouvillianity, pauli):
        monkeypatch.setattr(module, "pauli_coefficients", local_only)

    def below_system_size(codes, values, sites):
        if sites >= 2 * num_sites:
            raise AssertionError(f"{sites}-site Pauli scatter")
        return matrix_from_pauli_terms(codes, values, sites)

    for module in (liouvillianity, locality, pauli):
        monkeypatch.setattr(module, "matrix_from_pauli_terms", below_system_size)


@pytest.mark.parametrize(
    "name, coupling, counts",
    [("C", "jz", (19, 24, 66, 48)), ("D", "jx", (49, 72, 210, 336))],
)
def test_six_site_orders_stay_sparse_and_local(monkeypatch, name, coupling, counts):
    """At L=6 ``bch_orders(drive, 3)`` builds without any dense
    superoperator. The nonzero counts are exact: the inputs carry no
    roundoff coefficients (the relative input cutoff), commuting string
    pairs drop out of every commutator exactly, and no cancellation in
    these models leaves a roundoff residue. Every code obeys the
    order's weight bound, and every term passes table validation."""
    forbid_materialization(monkeypatch, 6)
    drive = build_model(
        ModelParams(name=name, tau=0.2, num_sites=6, gamma=0.5, **{coupling: 1.0})
    )
    expansion = bch_orders(drive, 3)
    locality = drive_locality(drive)
    weights = code_weights(6)
    for order, (term, count) in enumerate(zip(expansion.order_terms, counts)):
        codes, _ = term.pauli_terms
        assert codes.size == count
        doubled = weights[codes // 4**6] + weights[codes % 4**6]
        assert doubled.max() <= max_weight_bound(order, locality)
        trace_defect, hermiticity_defect, scale = table_defects(term)
        assert trace_defect <= 1e-12 * scale
        assert hermiticity_defect <= 1e-12 * scale


#: Per order of the 6-site ``analyze`` report (tau 0.2, coupling 1,
#: gamma 0.5): verdict, d_n, block sizes, and the cumulative and term
#: minimum eigenvalues, recorded once from the dense certification path.
SIX_SITE_ANALYZE = {
    "C": [
        (True, 6, {1}, 0.0, 0.0),
        (False, 18, {3}, -1.191300234460844, -4.525483399593899),
        (False, 36, {2, 4}, -0.4885147435579364, -1.0300644532791856),
    ],
    "D": [
        (True, 12, {2}, 0.0, 0.0),
        (False, 24, {4}, -0.3081318457076026, -1.5999999999999983),
        (False, 72, {5, 7}, -0.12242724972678977, -0.3216602066212942),
    ],
}


def sparse_distance(first, second):
    """Frobenius distance of two sparse sums ``(codes, values)``."""
    codes = np.concatenate([first[0], second[0]])
    values = np.concatenate([first[1], -second[1]])
    return np.linalg.norm(pauli.merge_pauli_terms(codes, values)[1])


@pytest.mark.parametrize("name, coupling", [("C", "jz"), ("D", "jx")])
def test_six_site_analyze_certifies_from_nonzeros(
    monkeypatch, tmp_path, capsys, name, coupling
):
    """L=6 ``analyze`` through ``cli.main`` with every dense
    superoperator, dense coefficient view and 2L-site transform
    forbidden: verdicts, ``d_n``, block sizes and minimum eigenvalues as
    the dense path gave them, and the cumulative sums of the stacked
    order terms equal to the direct cumulative decompositions."""
    forbid_materialization(monkeypatch, 6)
    model = {"name": name, "num_sites": 6, "tau": 0.2, coupling: 1.0, "gamma": 0.5}
    path = tmp_path / "analyze.json"
    path.write_text(json.dumps({"schema_version": 1, "model": model}))
    assert main(["analyze", "--config", str(path)]) == 0
    records = json.loads(capsys.readouterr().out)["orders"]
    assert [record["order"] for record in records] == [0, 1, 2]
    for record, expected in zip(records, SIX_SITE_ANALYZE[name]):
        verdict, d_n, sizes, cumulative_min, term_min = expected
        cumulative = record["cumulative"]
        assert cumulative["verdict"] is verdict
        assert cumulative["block_structure"]["d_n"] == d_n
        blocks = cumulative["block_structure"]["blocks"]
        assert {block["size"] for block in blocks} == sizes
        assert len(cumulative["spectrum"]) == 4**6 - 1
        assert cumulative["min_eigenvalue"] == pytest.approx(cumulative_min, rel=1e-9)
        assert record["term"]["min_eigenvalue"] == pytest.approx(term_min, rel=1e-9)
        assert cumulative["roundtrip_residual"] <= 1e-12
    params = ModelParams(name=name, tau=0.2, num_sites=6, gamma=0.5, **{coupling: 1.0})
    expansion = bch_orders(build_model(params), 2)
    from test_block_certification import cumulative_sums

    for order, sums in enumerate(cumulative_sums(expansion)):
        direct = liouvillianity.decompose(expansion.cumulative(order))
        scale = max(1.0, np.linalg.norm(direct.table[1]))
        assert sparse_distance(sums["table"], direct.table) <= 1e-12 * scale
        assert sparse_distance(sums["dissipator"], direct.dissipator._terms) <= 1e-12 * scale
        hamiltonian = liouvillianity._hamiltonian(sums["coherent"], 6)
        np.testing.assert_allclose(
            hamiltonian.values, direct.hamiltonian.values, rtol=0.0, atol=1e-12 * scale
        )


def test_cli_analyze_and_scan_form_no_dense_superoperator(monkeypatch, tmp_path, capsys):
    """``analyze`` and ``scan`` at L=3 run with every dense
    materialization and 2L-site transform forbidden."""
    forbid_materialization(monkeypatch, 3)
    model = {"name": "D", "num_sites": 3, "tau": 0.2, "jx": 1.0, "gamma": 0.5}
    for command, extra in (
        ("analyze", {}),
        ("scan", {"scan": {"parameter": "gamma", "start": 0.1, "stop": 0.5, "count": 3}}),
    ):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({"schema_version": 1, "model": model, **extra}))
        assert main([command, "--config", str(path)]) == 0
    assert capsys.readouterr().out


def test_order_term_matrix_is_scattered_in_place():
    """The dense matrix of model D's order-2 term at L=5 (1024 x 1024)
    is written in place from its Pauli sum: the allocations of ``.matrix``
    peak under twice the bytes of the matrix."""
    params = ModelParams(name="D", tau=0.2, num_sites=5, jx=1.0, gamma=0.5)
    term = bch_orders(build_model(params), 2).term(2)
    tracemalloc.start()
    try:
        matrix = term.matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.shape == (1024, 1024)
    assert peak < 2 * matrix.nbytes
