"""Certification from nonzeros against the dense formulas it replaced:
decomposition, the cumulative round-trip residuals of ``analyze``,
weight restriction, the block partition with its dense fallback, and
non-finite entries, on models C and D and on random custom drives with at
most four sites."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_lindblad import (
    DissipatorMatrix,
    ModelParams,
    bch_orders,
    build_model,
    fm_general,
    herm_eigs,
    psd_report,
)
from floquet_lindblad.liouvillianity import Decomposition, decompose, order_certificates
from floquet_lindblad.locality import block_partition
from floquet_lindblad.magnus import is_binary_drive
from floquet_lindblad.pauli import code_two_counts, quadratic_product_coefficients

from test_pauli_expansion import random_drive


def model_drive(name, num_sites):
    coupling = {"C": "jz", "D": "jx"}[name]
    params = ModelParams(name=name, tau=0.2, num_sites=num_sites, gamma=0.5, **{coupling: 1.0})
    return build_model(params)


drives = st.one_of(
    st.builds(model_drive, st.sampled_from(["C", "D"]), st.integers(3, 4)),
    st.builds(
        random_drive,
        st.integers(0, 2**32 - 1),
        st.integers(2, 3),
        st.integers(2, 3),
        st.booleans(),
    ),
)


def term_decompositions(drive):
    if is_binary_drive(drive):
        expansion = bch_orders(drive, 2)
    else:
        expansion = fm_general(drive, 1)
    return expansion, [decompose(term) for term in expansion.order_terms]


# The dense formulas, as they stood before the tables were held as nonzeros.


def dense_table(superop):
    """The signed table ``t[j, k]`` of a sparse superoperator, dense."""
    num_sites = superop.system_dim.bit_length() - 1
    table = scattered(superop.pauli_terms, num_sites)
    return table * (-1.0) ** code_two_counts(num_sites)


def scattered(table, num_sites):
    codes, values = table
    dense = np.zeros(16**num_sites, dtype=complex)
    dense[codes] = values
    return dense.reshape(4**num_sites, 4**num_sites)


def dense_decomposition(table, num_sites):
    """``(h, [a_jk])`` of a dense signed table."""
    entries = table[1:, 1:]
    entries = 0.5 * (entries + entries.conj().T)
    codes = np.arange(1, 4**num_sites)
    gram = quadratic_product_coefficients(codes, entries, num_sites)
    raw = 1j * (table[1:, 0] / np.sqrt(2**num_sites) + 0.5 * gram[1:])
    return raw.real, entries


def dense_form_table(values, dissipator):
    """The dense signed table of ``(h, [a_jk])``, ``h`` over every
    weight >= 1 code."""
    num_sites, entries = dissipator.num_sites, dissipator.entries
    codes = np.array([index.code for index in dissipator.index_set])
    h_coeffs = np.concatenate([[0.0], values])
    table = np.zeros((4**num_sites, 4**num_sites), dtype=complex)
    rows, cols = np.nonzero(entries)
    np.add.at(table, (codes[rows], codes[cols]), entries[rows, cols])
    half_k = 0.5 * quadratic_product_coefficients(codes, entries, num_sites)
    table[:, 0] += np.sqrt(2**num_sites) * (-1j * h_coeffs - half_k)
    table[0, :] += np.sqrt(2**num_sites) * (1j * h_coeffs - half_k)
    return table


def dense_residual(table, form):
    return np.linalg.norm(table - form) / max(1.0, np.linalg.norm(table))


def dense_restricted(dissipator, weight_limit):
    weights = np.array([index.weight for index in dissipator.index_set])
    kept = np.nonzero(weights <= max(weight_limit - 1, 0))[0]
    pair_weights = weights[kept][:, None] + weights[kept][None, :]
    entries = np.where(
        pair_weights <= weight_limit, dissipator.entries[np.ix_(kept, kept)], 0.0
    )
    return tuple(dissipator.index_set[p] for p in kept), entries


def dense_components(matrix, tol):
    """Depth-first components of the entries above ``tol`` and the largest
    row sum outside their blocks."""
    magnitudes = np.abs(matrix)
    adjacency = ~(magnitudes <= tol)
    adjacency |= adjacency.T
    in_support = np.any(adjacency, axis=1)
    visited = ~in_support
    components = []
    for start in np.nonzero(in_support)[0]:
        if visited[start]:
            continue
        visited[start] = True
        stack, component = [start], []
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in np.nonzero(adjacency[node] & ~visited)[0]:
                visited[neighbor] = True
                stack.append(neighbor)
        positions = np.array(sorted(component), dtype=np.int64)
        magnitudes[np.ix_(positions, positions)] = 0.0
        components.append(positions)
    delta = float(np.max(np.sum(magnitudes, axis=1))) if magnitudes.size else 0.0
    return components, delta


def dense_block_report(dissipator, tol_psd=None):
    """Spectrum, components, blocks and block values of the dense block
    certification, and whether it fell back to the dense solve."""
    entries = dissipator.entries
    scale = max(1.0, float(np.max(np.abs(entries))) if entries.size else 0.0)
    if tol_psd is None:
        tol_psd = 1e-9 * scale
    components, delta = dense_components(entries, 1e-12 * scale)
    solved = list(components)
    fallback = delta > 1e-3 * tol_psd
    if fallback:
        solved.append(np.arange(dissipator.size))
    blocks = [entries[np.ix_(c, c)] for c in solved]
    values = [np.linalg.eigvalsh(0.5 * (b + b.conj().T)) for b in blocks]
    spectrum = values[len(components):] or values
    uncoupled = dissipator.size - sum(v.size for v in spectrum)
    eigenvalues = np.sort(np.concatenate([np.zeros(uncoupled), *spectrum]))
    return eigenvalues, components, blocks[: len(components)], values, fallback


def assert_reports_match(dissipator, tol_psd=None):
    """``psd_report``, the partition behind it and ``block_partition``
    equal the dense block certification bit for bit; returns whether it
    fell back."""
    eigenvalues, components, blocks, values, fallback = dense_block_report(
        dissipator, tol_psd
    )
    report = psd_report(dissipator, tol_psd)
    layout, stacks, stacked_values, _ = dissipator._blocks(dissipator.structural_tol())
    unstacked = layout.unstack(stacks, stacked_values)
    got_components = [positions for positions, _, _ in unstacked]
    got_blocks = [block for _, block, _ in unstacked]
    got_values = [block_values for _, _, block_values in unstacked]
    np.testing.assert_array_equal(report.eigenvalues, eigenvalues)
    assert report.min_eigenvalue == (eigenvalues[0] if eigenvalues.size else 0.0)
    assert len(got_components) == len(components)
    for got, expected in zip(got_components, components):
        np.testing.assert_array_equal(got, expected)
    for got, expected in zip(got_blocks, blocks):
        np.testing.assert_array_equal(got, expected)
    for got, expected in zip(got_values, values):
        np.testing.assert_array_equal(got, expected)
    structure = block_partition(dissipator)
    assert structure.d_n == sum(c.size for c in components)
    for block in structure.blocks:
        positions = [dissipator.position(index) for index in block.index_set]
        np.testing.assert_array_equal(
            block.entries, dissipator.entries[np.ix_(positions, positions)]
        )
    return fallback


@settings(max_examples=25)
@given(drive=drives)
def test_decomposition_and_running_sums_match_the_dense_tables(drive):
    """Each term's nonzero table, ``h_j`` and ``[a_jk]`` equal the dense
    formulas bit for bit. The cumulative residuals of ``analyze``, taken
    from the running sums of the terms' tables, ``h_j`` and ``[a_jk]``,
    match the dense residual of the summed dense arrays; so do residuals
    of a term against the cumulative generator's table."""
    num_sites = drive.num_sites
    expansion, terms = term_decompositions(drive)
    _, certificates = order_certificates(expansion, range(len(terms)), None, None)
    tables, values, entries = 0.0, 0.0, 0.0
    for order, (term, certificate) in enumerate(zip(terms, certificates)):
        table = dense_table(expansion.order_terms[order])
        np.testing.assert_array_equal(scattered(term.table, num_sites), table)
        term_values, term_entries = dense_decomposition(table, num_sites)
        np.testing.assert_array_equal(term.hamiltonian.values, term_values)
        np.testing.assert_array_equal(term.dissipator.entries, term_entries)
        tables, values, entries = tables + table, values + term_values, entries + term_entries
        summed = DissipatorMatrix(term.dissipator.index_set, entries, num_sites)
        expected = dense_residual(tables, dense_form_table(values, summed))
        assert certificate[2] == pytest.approx(expected, rel=1e-12, abs=1e-15)
        against = decompose(expansion.cumulative(order)).table
        residual = Decomposition(term.hamiltonian, term.dissipator, against).residual()
        expected = dense_residual(
            scattered(against, num_sites),
            dense_form_table(term.hamiltonian.values, term.dissipator),
        )
        assert residual == pytest.approx(expected, rel=1e-12, abs=1e-15)


@settings(max_examples=25)
@given(drive=drives)
def test_restriction_and_block_certification_match_the_dense_path(drive):
    """``restricted`` at every weight limit and the block certification
    of every term and cumulative generator, full and restricted, equal the
    dense formulas bit for bit."""
    expansion, terms = term_decompositions(drive)
    for order, term in enumerate(terms):
        summed = decompose(expansion.cumulative(order))
        for dissipator in (term.dissipator, summed.dissipator):
            assert_reports_match(dissipator)
            for weight_limit in range(2, 2 * drive.num_sites + 1):
                restricted = dissipator.restricted(weight_limit)
                index_set, entries = dense_restricted(dissipator, weight_limit)
                assert restricted.index_set == index_set
                assert restricted.weight_limit == weight_limit
                np.testing.assert_array_equal(restricted.entries, entries)
                assert restricted.trace() == float(np.real(np.trace(entries)))
                assert_reports_match(restricted)


def planted(dissipator, seed, magnitude):
    """The dissipator plus Hermitian pairs of entries of ``magnitude``
    coupling random index pairs, mostly across its blocks."""
    rng = np.random.default_rng(seed)
    entries = np.array(dissipator.entries)
    rows = rng.integers(0, dissipator.size, 8)
    cols = rng.integers(0, dissipator.size, 8)
    phases = np.exp(2j * np.pi * rng.random(8))
    entries[rows, cols] += magnitude * phases
    entries[cols, rows] += magnitude * phases.conj()
    return DissipatorMatrix(dissipator.index_set, entries, dissipator.num_sites)


@settings(max_examples=20)
@given(
    name=st.sampled_from(["C", "D"]),
    num_sites=st.integers(3, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_planted_couplings_below_the_tolerance_force_the_dense_solve(
    name, num_sites, seed
):
    """Couplings planted across the blocks below the structural tolerance
    are dropped from the partition. Against a ``tol_psd`` below
    ``1e-3 / delta`` they force the one-block solve, and the report is the
    dense one bit for bit; against the default tolerance they do not."""
    _, terms = term_decompositions(model_drive(name, num_sites))
    for term in terms:
        dissipator = term.dissipator
        magnitude = 0.2 * dissipator.structural_tol()
        matrix = planted(dissipator, seed, magnitude)
        assert assert_reports_match(matrix, tol_psd=1e-3 * magnitude)
        assert not assert_reports_match(matrix)
        dense, _ = herm_eigs(matrix.entries)
        np.testing.assert_allclose(
            psd_report(matrix, tol_psd=1e-3 * magnitude).eigenvalues,
            dense,
            rtol=0.0,
            atol=1e-12 * max(1.0, matrix.max_abs()),
        )


@settings(max_examples=20)
@given(
    name=st.sampled_from(["C", "D"]),
    order=st.integers(0, 2),
    position=st.integers(0, 2**32 - 1),
    mirrored=st.booleans(),
    value=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_non_finite_entries_of_a_term_are_never_certified(
    name, order, position, mirrored, value
):
    """A NaN or an infinity written into a term's coefficient matrix,
    with or without its mirror entry, is kept as a nonzero, and its block
    has only NaN eigenvalues (LAPACK alone may return finite ones): the
    minimum is NaN and the matrix is never certified, even though an
    infinite entry makes the structural and PSD tolerances infinite."""
    term = term_decompositions(model_drive(name, 3))[1][order].dissipator
    entries = np.array(term.entries)
    row, col = divmod(position % term.size**2, term.size)
    entries[row, col] = value
    if mirrored:
        entries[col, row] = value
    with np.errstate(invalid="ignore"):
        dissipator = DissipatorMatrix(term.index_set, entries, term.num_sites)
        report = psd_report(dissipator)
        blocks = block_partition(dissipator).blocks
    assert np.array_equal(dissipator.entries[row, col], value, equal_nan=True)
    assert np.isnan(report.min_eigenvalue)
    assert not report.is_liouvillian
    assert report.eigenvalues.size == dissipator.size
    assert any(np.isnan(block.eigenvalues).all() for block in blocks)
