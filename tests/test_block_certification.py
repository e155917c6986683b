"""Tests for block-wise certification and per-term decomposition: the
block spectrum against dense eigensolves, the rule that falls back to
one dense block, and the cumulative sums of the stacked order terms
against direct extraction of each cumulative generator."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from floquet_lindblad import (
    DimensionMismatchError,
    DissipatorMatrix,
    HamiltonianCoefficients,
    HamiltonianTerm,
    HermiticityError,
    JumpTerm,
    LindbladSegment,
    ModelParams,
    MultiIndex,
    PAULI,
    PiecewiseLiouvillian,
    bch_orders,
    block_partition,
    build_model,
    coefficient_bound_check,
    extract_dissipator,
    extract_hamiltonian,
    herm_eigs,
    psd_report,
    triangular_split,
    van_vleck_orders,
)
from floquet_lindblad import liouvillianity
from floquet_lindblad.cli import main
from floquet_lindblad.liouvillianity import decompose
from floquet_lindblad.locality import coefficient_bounds

ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
LOWERING = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def ring_expansion(name, num_sites):
    coupling = {"C": {"jz": 1.0}, "D": {"jx": 1.0}}[name]
    params = ModelParams(
        name=name, tau=0.2, num_sites=num_sites, gamma=0.5, **coupling
    )
    return bch_orders(build_model(params), 2)


def kick_free_expansion(num_sites=3):
    """Van Vleck orders of a three-segment ring drive: zz bonds, an x
    field, then lowering channels."""
    bonds = tuple(
        HamiltonianTerm(ZZ, (site, (site + 1) % num_sites))
        for site in range(num_sites)
    )
    field = tuple(
        HamiltonianTerm(0.7 * PAULI[1], (site,)) for site in range(num_sites)
    )
    channels = tuple(
        JumpTerm(0.5, LOWERING, (site,)) for site in range(num_sites)
    )
    drive = PiecewiseLiouvillian(
        (
            LindbladSegment(0.1, bonds),
            LindbladSegment(0.15, field),
            LindbladSegment(0.2, (), channels),
        ),
        num_sites,
    )
    return van_vleck_orders(drive, 1, m_max=50)


EXPANSIONS = {
    "C3": lambda: ring_expansion("C", 3),
    "C4": lambda: ring_expansion("C", 4),
    "D3": lambda: ring_expansion("D", 3),
    "D4": lambda: ring_expansion("D", 4),
    "kickfree3": kick_free_expansion,
}


def expansion_matrices(expansion, weight_limit):
    """Term and cumulative dissipator matrices of every order."""
    for order in range(expansion.max_order + 1):
        for superop in (expansion.term(order), expansion.cumulative(order)):
            yield extract_dissipator(superop, weight_limit=weight_limit)


@pytest.mark.parametrize("weight_limit", [None, 4])
@pytest.mark.parametrize("case", sorted(EXPANSIONS))
def test_block_spectrum_matches_dense(case, weight_limit):
    """Spectrum, minimum, verdict, negative count and block minima from
    the block eigensolve equal the dense ones to 1e-12 relative."""
    for dissipator in expansion_matrices(EXPANSIONS[case](), weight_limit):
        scale = max(1.0, dissipator.max_abs())
        dense, _ = herm_eigs(dissipator.entries)
        report = psd_report(dissipator)
        np.testing.assert_allclose(
            report.eigenvalues, dense, rtol=0.0, atol=1e-12 * scale
        )
        assert report.min_eigenvalue == pytest.approx(
            dense[0], abs=1e-12 * scale
        )
        assert report.is_liouvillian == (dense[0] >= -report.tol)

        split = triangular_split(
            dissipator, weight_threshold=dissipator.num_sites
        )
        structural = dissipator.structural_tol()
        assert split.negative_count == np.count_nonzero(dense < -structural)

        for block in block_partition(dissipator).blocks:
            block_dense, _ = herm_eigs(block.entries)
            assert block.min_eigenvalue() == pytest.approx(
                block_dense[0], abs=1e-12 * scale
            )


def dense_table(table, num_sites):
    """The signed table held as nonzeros ``(codes, values)``, scattered
    into its dense ``4^L x 4^L`` array."""
    codes, values = table
    dense = np.zeros(16**num_sites, dtype=complex)
    dense[codes] = values
    return dense.reshape(4**num_sites, 4**num_sites)


def cumulative_sums(expansion):
    """The sums of :func:`liouvillianity._linear_sums` of the cumulative
    generator of every order, as ``analyze`` takes them: the order terms
    stacked at unit weight, added a term at a time."""
    terms = [[term] for term in expansion.order_terms]
    sums, *_ = liouvillianity._graded_pass(terms, np.ones((1, len(terms))), [], None, None)
    for order in range(len(terms)):
        yield {key: (codes, sum(values[: order + 1])) for key, (codes, values) in sums.items()}


@pytest.mark.parametrize("case", sorted(EXPANSIONS))
def test_summed_term_decompositions_match_cumulative_extraction(case):
    """The cumulative sums of the stacked order terms equal direct
    extraction of each cumulative generator, full and weight-limited; the
    summed table is the cumulative generator's, and round trips."""
    expansion = EXPANSIONS[case]()
    num_sites = expansion.drive.num_sites
    for order, sums in enumerate(cumulative_sums(expansion)):
        cumulative = expansion.cumulative(order)
        table = dense_table(decompose(cumulative).table, num_sites)
        np.testing.assert_allclose(
            dense_table(sums["table"], num_sites), table, rtol=0.0,
            atol=1e-12 * max(1.0, float(np.max(np.abs(table)))),
        )
        dissipator = liouvillianity._matrix(sums["dissipator"], num_sites)
        hamiltonian = liouvillianity._hamiltonian(sums["coherent"], num_sites)
        summed = liouvillianity.Decomposition(hamiltonian, dissipator, sums["table"])
        assert summed.residual() <= 1e-12
        direct = extract_dissipator(cumulative)
        scale = max(1.0, direct.max_abs())
        assert dissipator.index_set == direct.index_set
        np.testing.assert_allclose(
            dissipator.entries, direct.entries, rtol=0.0, atol=1e-12 * scale
        )
        expected = extract_hamiltonian(cumulative)
        assert hamiltonian.index_set == expected.index_set
        np.testing.assert_allclose(
            hamiltonian.values, expected.values, rtol=0.0,
            atol=1e-12 * max(1.0, float(np.max(np.abs(expected.values)))),
        )
        limited = extract_dissipator(cumulative, weight_limit=3)
        sliced = dissipator.restricted(3)
        assert sliced.index_set == limited.index_set
        assert sliced.weight_limit == limited.weight_limit == 3
        np.testing.assert_allclose(
            sliced.entries, limited.entries, rtol=0.0, atol=1e-12 * scale
        )
    for order in range(expansion.max_order + 1):
        np.testing.assert_array_equal(
            decompose(expansion.term(order)).dissipator.restricted(4).entries,
            extract_dissipator(expansion.term(order), weight_limit=4).entries,
        )


@pytest.mark.parametrize("weight_limit", [None, 2])
def test_bound_checks_take_the_full_term_matrices(
    tmp_path, capsys, weight_limit
):
    """The analyze report's bound checks come from the full term
    matrices, whatever the weight limit of the certification, and equal
    the public check."""
    config = {
        "schema_version": 1,
        "model": {"name": "C", "num_sites": 3, "tau": 0.2, "jz": 1.0,
                  "gamma": 0.5},
        "orders": [0, 1, 2],
        "weight_limit": weight_limit,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["analyze", "--config", str(path)]) == 0
    reported = json.loads(capsys.readouterr().out)["bound_checks"]
    expansion = ring_expansion("C", 3)
    reference = coefficient_bound_check(expansion)
    assert [check["max_abs"] for check in reported] == [
        check.max_abs for check in reference
    ]
    max_abs = [
        decompose(expansion.term(order)).dissipator.max_abs()
        for order in range(3)
    ]
    assert coefficient_bounds(expansion.drive, max_abs) == reference


def test_hamiltonian_coefficient_lookup():
    """Coefficient lookup by multi-index returns the stored value."""
    hamiltonian = extract_hamiltonian(ring_expansion("C", 3).cumulative(1))
    for position, index in enumerate(hamiltonian.index_set):
        assert hamiltonian.coefficient(index) == hamiltonian.values[position]


def test_lookups_reject_an_index_outside_the_set():
    """Position, entry and coefficient lookups raise the package's
    DimensionMismatchError for an index outside the set: one on fewer
    sites that shares its code with an index in the set, and ones that
    the weight limit cut away (one of them sharing its code with a kept
    index)."""
    expansion = ring_expansion("C", 3)
    dissipator = extract_dissipator(expansion.cumulative(1))
    hamiltonian = extract_hamiltonian(expansion.cumulative(1))
    restricted = dissipator.restricted(2)
    cut = HamiltonianCoefficients(restricted.index_set, np.ones(restricted.size), 3)
    for matrix, coefficients, outside, twin in (
        (dissipator, hamiltonian, MultiIndex((1, 1)), MultiIndex((0, 1, 1))),
        (restricted, cut, MultiIndex((1, 1, 0)), None),
        (restricted, cut, MultiIndex((0, 1)), MultiIndex((0, 0, 1))),
    ):
        assert twin is None or twin.code == outside.code and twin in matrix.index_set
        inside = matrix.index_set[0]
        for lookup in (
            lambda: matrix.position(outside),
            lambda: matrix.entry(outside, inside),
            lambda: matrix.entry(inside, outside),
            lambda: coefficients.coefficient(outside),
        ):
            with pytest.raises(DimensionMismatchError):
                lookup()


@pytest.mark.parametrize(
    "index_set",
    [
        (MultiIndex((3,)),),
        (MultiIndex((0, 1)), MultiIndex((1, 0)), MultiIndex((0, 1))),
        ((0, 1),),
    ],
    ids=["other-site-count", "repeated", "plain-tuple"],
)
def test_constructors_reject_malformed_index_sets(index_set):
    """Both public constructors reject an index on another number of
    sites (its code would read as another index: ``z`` as ``iz``), a
    repeated index and an entry that is no ``MultiIndex``."""
    size = len(index_set)
    with pytest.raises(DimensionMismatchError):
        HamiltonianCoefficients(index_set, np.ones(size), 2)
    with pytest.raises(DimensionMismatchError):
        DissipatorMatrix(index_set, np.eye(size), 2)


def planted_matrix(sizes, padding, noise, seed):
    """Random Hermitian blocks of the given sizes on a random permutation
    of ``sum(sizes) + padding`` indices, plus Hermitian noise of entries
    up to ``noise`` everywhere."""
    rng = np.random.default_rng(seed)
    count = sum(sizes) + padding
    order = rng.permutation(count)
    entries = np.zeros((count, count), dtype=complex)
    start = 0
    for size in sizes:
        raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
            (size, size)
        )
        positions = order[start : start + size]
        entries[np.ix_(positions, positions)] = raw + raw.conj().T
        start += size
    raw = rng.uniform(-1.0, 1.0, (count, count)) + 1j * rng.uniform(
        -1.0, 1.0, (count, count)
    )
    entries += noise * 0.5 * (raw + raw.conj().T) / np.sqrt(2.0)
    indices = tuple(
        MultiIndex.from_code(code, 3) for code in range(1, count + 1)
    )
    return DissipatorMatrix(indices, entries, 3)


@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    padding=st.integers(0, 6),
    noise_exponent=st.sampled_from([None, -16, -14, -13]),
    seed=st.integers(0, 2**32 - 1),
)
def test_planted_blocks_under_noise_give_the_dense_spectrum(
    sizes, padding, noise_exponent, seed
):
    """Blocks planted on permuted indices, with noise below the
    structural-zero tolerance, certify like the dense solve."""
    noise = 0.0 if noise_exponent is None else 10.0**noise_exponent
    dissipator = planted_matrix(sizes, padding, noise, seed)
    scale = max(1.0, dissipator.max_abs())
    dense, _ = herm_eigs(dissipator.entries)
    report = psd_report(dissipator)
    np.testing.assert_allclose(
        report.eigenvalues, dense, rtol=0.0, atol=1e-12 * scale
    )
    assert report.is_liouvillian == (dense[0] >= -report.tol)
    structure = block_partition(dissipator)
    assert structure.d_n <= sum(sizes)
    for block in structure.blocks:
        assert block.min_eigenvalue() == pytest.approx(
            herm_eigs(block.entries)[0][0], abs=1e-12 * scale
        )


def sub_tolerance_couplings(count, epsilon, with_block):
    """``count`` indices all coupled by ``-epsilon`` (smallest eigenvalue
    ``-(count - 1) epsilon``), optionally next to one planted 2 x 2 block
    that sets the scale to one."""
    entries = -epsilon * (np.ones((count, count)) - np.eye(count))
    if with_block:
        block = np.array([[1.0, 0.5], [0.5, 1.0]])
        entries = np.block(
            [
                [block, np.zeros((2, count))],
                [np.zeros((count, 2)), entries],
            ]
        )
    size = entries.shape[0]
    indices = tuple(MultiIndex.from_code(code, 3) for code in range(1, size + 1))
    return DissipatorMatrix(indices, entries.astype(complex), 3)


def test_zero_tolerance_falls_back_to_the_dense_solve():
    """With ``tol_psd = 0`` a pair coupled below the structural
    tolerance decides the verdict; the report equals the dense one."""
    epsilon = 5e-13
    dissipator = sub_tolerance_couplings(2, epsilon, with_block=False)
    assert block_partition(dissipator).d_n == 0
    dense, _ = herm_eigs(dissipator.entries)
    report = psd_report(dissipator, tol_psd=0.0)
    np.testing.assert_allclose(report.eigenvalues, dense, rtol=1e-12)
    assert report.min_eigenvalue == pytest.approx(-epsilon, rel=1e-12)
    assert not report.is_liouvillian
    assert report.breaking_degree == pytest.approx(epsilon, rel=1e-12)


@pytest.mark.parametrize("tol_psd", [1e-11, 1e-6])
def test_dropped_row_sums_against_the_tolerance(tol_psd):
    """Thirty indices coupled below the structural tolerance drop row
    sums of 2.6e-11. Against ``tol_psd = 1e-11`` that decides the
    verdict, and the report is the dense one; against ``1e-6`` the block
    spectrum stands, within those row sums of the dense spectrum."""
    count, epsilon = 30, 9e-13
    dissipator = sub_tolerance_couplings(count, epsilon, with_block=True)
    dropped = (count - 1) * epsilon
    dense, _ = herm_eigs(dissipator.entries)
    report = psd_report(dissipator, tol_psd=tol_psd)
    assert report.is_liouvillian == (dense[0] >= -tol_psd)
    np.testing.assert_allclose(report.eigenvalues, dense, rtol=0.0, atol=dropped)
    if dropped > 1e-3 * tol_psd:
        assert not report.is_liouvillian
        np.testing.assert_allclose(report.eigenvalues, dense, rtol=1e-12)
    else:
        assert report.is_liouvillian
        assert np.count_nonzero(report.eigenvalues == 0.0) == count


def test_hermiticity_is_judged_at_the_global_scale():
    """A block of small entries whose own asymmetry is large is accepted
    when the whole matrix is Hermitian at its largest entry, and a
    matrix that is not is rejected as the dense solve rejects it."""
    entries = np.zeros((4, 4), dtype=complex)
    entries[:2, :2] = [[1.0, 0.5], [0.5, 1.0]]
    entries[2, 3], entries[3, 2] = 1e-11, 1.5e-11
    dissipator = DissipatorMatrix(
        tuple(MultiIndex.from_code(code, 2) for code in range(1, 5)),
        entries,
        2,
    )
    dense, _ = herm_eigs(entries)
    np.testing.assert_allclose(
        psd_report(dissipator).eigenvalues, dense, rtol=0.0, atol=1e-15
    )
    skewed = entries.copy()
    skewed[0, 1] = 0.6
    with pytest.raises(HermiticityError):
        herm_eigs(skewed)
    with pytest.raises(HermiticityError):
        psd_report(DissipatorMatrix(dissipator.index_set, skewed, 2))


@pytest.mark.parametrize(
    "positions",
    [[(0, 1), (1, 0)], [(2, 2)], [(p, q) for p in range(4) for q in range(4)]],
)
def test_non_finite_entries_are_never_certified(positions):
    """A NaN entry joins a solved block, so the block solve either
    refuses it, as LAPACK may refuse the dense matrix, or its NaN
    eigenvalue becomes the minimum: the matrix is never certified."""
    entries = np.diag([1.0, 2.0, 3.0, 0.0]).astype(complex)
    for position in positions:
        entries[position] = np.nan
    dissipator = DissipatorMatrix(
        tuple(MultiIndex.from_code(code, 2) for code in range(1, 5)),
        entries,
        2,
    )
    try:
        report = psd_report(dissipator)
    except np.linalg.LinAlgError:
        return
    assert np.isnan(report.min_eigenvalue)
    assert not report.is_liouvillian
    assert report.eigenvalues.size == 4


@pytest.mark.parametrize("position", [(1, 1), (1, 4), (4, 1), (7, 7)])
def test_a_nan_block_leaves_its_stack_neighbours_exact(position):
    """Three interleaved blocks of three share one stack. A NaN entry in
    the middle one gives it only NaN eigenvalues, in
    ``psd_report`` and ``block_partition`` alike, while the other two
    keep the eigenvalues of their own one-block solve bit for bit."""
    rng = np.random.default_rng(3)
    entries = np.zeros((9, 9), dtype=complex)
    for first in range(3):
        block = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        entries[first::3, first::3] = block + block.conj().T
    entries[position] = np.nan
    dissipator = DissipatorMatrix(
        tuple(MultiIndex.from_code(code, 2) for code in range(1, 10)), entries, 2
    )
    report = psd_report(dissipator)
    layout, stacks, values, _ = dissipator._blocks(dissipator.structural_tol())
    assert [group.tolist() for group in layout.groups] == [[[0, 3, 6], [1, 4, 7], [2, 5, 8]]]
    structure = block_partition(dissipator)
    for (positions, _, got), block in zip(layout.unstack(stacks, values), structure.blocks):
        assert [dissipator.position(index) for index in block.index_set] == positions.tolist()
        if positions[0] == 1:
            assert np.isnan(got).all() and np.isnan(block.eigenvalues).all()
            continue
        dense = entries[np.ix_(positions, positions)]
        alone = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))
        np.testing.assert_array_equal(got, alone)
        np.testing.assert_array_equal(block.eigenvalues, alone)
    assert np.isnan(report.min_eigenvalue) and not report.is_liouvillian
