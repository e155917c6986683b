"""Tests for the dense linear-algebra kernel: vectorization, Frobenius
inner products, Kronecker products, Hermitian eigensolves, and the
matrix exponential and principal logarithm."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_lindblad import (
    BranchCutError,
    ConditioningError,
    DimensionMismatchError,
    HermiticityError,
    devectorize,
    frobenius_inner,
    hermiticity_defect,
    herm_eigs,
    kron,
    matrix_exp,
    matrix_log_principal,
    vectorize,
)
from floquet_lindblad.core import (
    BlockLayout,
    block_eigvalsh,
    block_logs,
    component_labels,
    coupled_components,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_complex(rng, dim):
    """Dense complex square matrix with standard normal entries."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
        (dim, dim)
    )


def test_vectorize_identity_is_basis_rows():
    """vectorize flattens row major, so I_2 becomes (1, 0, 0, 1)."""
    np.testing.assert_allclose(
        vectorize(np.eye(2)), np.array([1.0, 0.0, 0.0, 1.0])
    )


def test_vectorize_sandwich_homomorphism():
    """vectorize(A rho B) equals (A kron B^T) vectorize(rho)."""
    rng = np.random.default_rng(3)
    for dim in (2, 4):
        for _ in range(50):
            a = random_complex(rng, dim)
            rho = random_complex(rng, dim)
            b = random_complex(rng, dim)
            direct = vectorize(a @ rho @ b)
            lifted = kron(a, b.T) @ vectorize(rho)
            np.testing.assert_allclose(direct, lifted, atol=1e-12)


def test_devectorize_inverts_vectorize():
    """devectorize is the exact inverse of vectorize on 3x3 input."""
    rng = np.random.default_rng(5)
    rho = random_complex(rng, 3)
    np.testing.assert_allclose(devectorize(vectorize(rho)), rho)


def test_devectorize_rejects_non_square_length():
    """A vector whose length is not a perfect square is rejected."""
    with pytest.raises(DimensionMismatchError):
        devectorize(np.zeros(5))


def test_frobenius_inner_of_identity_counts_dimension():
    """<I, I> equals the matrix dimension."""
    assert frobenius_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0)


def test_frobenius_inner_of_orthogonal_paulis_vanishes():
    """Distinct normalized Pauli matrices are Frobenius orthogonal."""
    value = frobenius_inner(SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2))
    assert abs(value) == pytest.approx(0.0, abs=1e-15)


def test_frobenius_inner_is_antilinear_in_first_argument():
    """<alpha A, B> equals conj(alpha) <A, B>."""
    rng = np.random.default_rng(7)
    a = random_complex(rng, 2)
    b = random_complex(rng, 2)
    alpha = 0.3 - 1.7j
    assert frobenius_inner(alpha * a, b) == pytest.approx(
        np.conj(alpha) * frobenius_inner(a, b)
    )


def test_kron_of_identities_is_identity():
    """I_2 kron I_2 equals I_4."""
    np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_of_sigma_z_pair_is_diagonal_signs():
    """sigma_z kron sigma_z equals diag(1, -1, -1, 1)."""
    np.testing.assert_allclose(
        kron(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0])
    )


def test_kron_mixed_product_identity():
    """(A kron B)(C kron D) equals AC kron BD for random factors."""
    rng = np.random.default_rng(11)
    a, b, c, d = (random_complex(rng, 2) for _ in range(4))
    np.testing.assert_allclose(
        kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12
    )


def test_hermiticity_defect_measures_max_deviation():
    """The defect is the max-norm distance from the adjoint."""
    matrix = np.array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, 3.0]])
    assert hermiticity_defect(matrix) == pytest.approx(0.0)
    matrix[0, 1] += 0.5
    assert hermiticity_defect(matrix) == pytest.approx(0.5)


def test_herm_eigs_sorts_ascending():
    """diag(2, -1) yields eigenvalues (-1, 2)."""
    eigenvalues, _ = herm_eigs(np.diag([2.0, -1.0]))
    np.testing.assert_allclose(eigenvalues, [-1.0, 2.0])


def test_herm_eigs_pauli_x_spectrum():
    """sigma_x has eigenvalues (-1, 1)."""
    eigenvalues, _ = herm_eigs(SIGMA_X)
    np.testing.assert_allclose(eigenvalues, [-1.0, 1.0], atol=1e-15)


def test_herm_eigs_rank_one_projector_spectrum():
    """diag(1, 0, 0, 0) has spectrum (0, 0, 0, 1)."""
    eigenvalues, _ = herm_eigs(np.diag([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(eigenvalues, [0.0, 0.0, 0.0, 1.0])


def test_herm_eigs_residual_and_phase_are_deterministic():
    """Eigenpairs satisfy the residual bound with pinned vector phases."""
    rng = np.random.default_rng(13)
    raw = random_complex(rng, 6)
    matrix = raw + raw.conj().T
    eigenvalues, vectors = herm_eigs(matrix)
    scale = np.linalg.norm(matrix)
    for col in range(6):
        residual = np.linalg.norm(
            matrix @ vectors[:, col] - eigenvalues[col] * vectors[:, col]
        )
        assert residual <= 1e-9 * scale
    again_values, again_vectors = herm_eigs(matrix.copy())
    np.testing.assert_allclose(again_values, eigenvalues)
    np.testing.assert_allclose(again_vectors, vectors)


def _check_pinned_phases(matrix):
    """``herm_eigs``'s vectors are ``eigh``'s, each column divided by the
    phase of its first component above 1e-12 of its largest, and that
    component comes out real and positive."""
    _, vectors = herm_eigs(matrix)
    _, reference = np.linalg.eigh(0.5 * (matrix + matrix.conj().T))
    for vec, col in zip(vectors.T, reference.T):
        magnitudes = np.abs(col)
        first = np.flatnonzero(magnitudes > 1e-12 * magnitudes.max())[0]
        pinned = col * abs(col[first]) / col[first]
        np.testing.assert_allclose(vec, pinned, rtol=0.0, atol=1e-15)
        assert vec[first].real > 0.0
        assert abs(vec[first].imag) <= 1e-15 * vec[first].real
    return vectors


def test_herm_eigs_pins_the_first_significant_component():
    """The phase rule on complex, real and degenerate input, and on
    eigenvectors whose leading components are roundoff, which do not
    count."""
    rng = np.random.default_rng(29)
    raw = random_complex(rng, 5)
    _check_pinned_phases(raw + raw.conj().T)
    _check_pinned_phases(raw.real + raw.real.T)
    _check_pinned_phases(np.kron(np.diag([1.0, 2.0]), np.ones((2, 2))))
    raw[:2, 0] *= 1e-15
    basis, _ = np.linalg.qr(raw)
    matrix = basis @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) @ basis.conj().T
    leading = _check_pinned_phases(0.5 * (matrix + matrix.conj().T))[:, 0]
    assert np.abs(leading[:2]).max() < 1e-12 * np.abs(leading).max()
    pinned = basis[:, 0] * abs(basis[2, 0]) / basis[2, 0]
    np.testing.assert_allclose(leading, pinned, atol=1e-12)


def test_herm_eigs_rejects_non_hermitian():
    """Input beyond the Hermiticity tolerance raises."""
    with pytest.raises(HermiticityError):
        herm_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_exp_of_zero_is_identity():
    """exp(0) equals I."""
    np.testing.assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_pauli_rotation_closed_form():
    """exp(i pi sigma_x / 2) equals i sigma_x."""
    np.testing.assert_allclose(
        matrix_exp(0.5j * np.pi * SIGMA_X), 1j * SIGMA_X, atol=1e-12
    )


def test_matrix_exp_inverse_identity():
    """exp(M) exp(-M) equals I for random bounded matrices."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        matrix = random_complex(rng, 4)
        matrix *= 5.0 / np.linalg.norm(matrix)
        product = matrix_exp(matrix) @ matrix_exp(-matrix)
        np.testing.assert_allclose(product, np.eye(4), atol=1e-10)


#: 1-norms that take every Padé degree of ``matrix_exp`` (3, 5, 7, 9 and
#: 13 in turn) and, at 50, four squarings.
EXP_NORMS = (1e-3, 0.1, 0.5, 1.5, 5.0, 50.0)


def scipy_expm(stack):
    """``scipy.linalg.expm`` of every matrix of a stack, each on its own,
    with a zero row and column appended (which leaves the 1-norm and the
    leading block of the exponential as they are). The padding keeps a
    2 x 2 matrix on scipy's general Padé path: its 2 x 2 closed form loses
    about 5e-12 of the largest entry at 1-norm 50 (seen against 50-digit
    arithmetic)."""
    size = stack.shape[-1]
    padded = np.zeros(stack.shape[:-2] + (size + 1, size + 1), stack.dtype)
    padded[..., :size, :size] = stack
    return np.stack([scipy.linalg.expm(m)[:size, :size] for m in padded])


def stack_with_norms(rng, size, norms, complex_entries):
    """Random matrices of size ``size``, one per 1-norm in ``norms``."""
    stack = rng.standard_normal((len(norms), size, size))
    if complex_entries:
        stack = stack + 1j * rng.standard_normal(stack.shape)
    ones = np.abs(stack).sum(axis=1).max(axis=1)
    return stack * (np.asarray(norms) / ones)[:, None, None]


def assert_close_to_scipy(result, stack):
    expected = scipy_expm(stack)
    scale = np.abs(expected).max(axis=(1, 2), initial=0.0)
    error = np.abs(result - expected).max(axis=(1, 2), initial=0.0)
    assert np.all(error <= 1e-12 * scale), error / scale


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("size", [1, 2, 4, 16, 64])
def test_matrix_exp_stack_matches_scipy(size, complex_entries):
    """Every matrix of a stack of one norm agrees with scipy's expm to
    1e-12 of its largest entry, at every degree and with squarings; real
    input stays real."""
    rng = np.random.default_rng(size)
    for norm in EXP_NORMS:
        stack = stack_with_norms(rng, size, [norm] * 3, complex_entries)
        result = matrix_exp(stack)
        assert result.shape == stack.shape
        assert result.dtype == (np.complex128 if complex_entries else np.float64)
        assert_close_to_scipy(result, stack)


def test_matrix_exp_mixed_norms_and_square_input():
    """A stack that mixes small and large norms (degree 13, a different
    number of squarings per matrix) agrees with scipy matrix by matrix,
    and a 2-D matrix comes back 2-D, equal to its one-matrix stack."""
    rng = np.random.default_rng(23)
    stack = stack_with_norms(rng, 8, [1e-3, 0.3, 5.0, 12.0, 50.0], True)
    assert_close_to_scipy(matrix_exp(stack), stack)
    single = matrix_exp(stack[3])
    assert single.shape == (8, 8)
    np.testing.assert_array_equal(single, matrix_exp(stack[3:4])[0])
    assert_close_to_scipy(single[None], stack[3:4])


def test_matrix_exp_empty_and_integer_input():
    """Empty stacks pass through with their shape; integer input is
    exponentiated as float64."""
    assert matrix_exp(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    assert matrix_exp(np.zeros((2, 0, 0), dtype=complex)).shape == (2, 0, 0)
    integers = np.array([[0, 1], [-2, 3]])
    result = matrix_exp(integers)
    assert result.dtype == np.float64
    np.testing.assert_array_equal(result, matrix_exp(integers.astype(float)))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (4, 2, 3), (1, 2, 2, 2)])
def test_matrix_exp_rejects_non_square(shape):
    with pytest.raises(DimensionMismatchError):
        matrix_exp(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrix_exp_non_finite_entry_stays_in_its_matrix(bad):
    """A non-finite entry gives its own matrix a non-finite exponential,
    without an error or warning, and leaves the rest of the stack as it
    is without that matrix."""
    rng = np.random.default_rng(29)
    stack = stack_with_norms(rng, 4, [0.1, 20.0, 0.5], True)
    spoiled = stack.copy()
    spoiled[1, 2, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = matrix_exp(spoiled)
    assert not np.isfinite(result[1]).all()
    np.testing.assert_array_equal(result[[0, 2]], matrix_exp(stack[[0, 2]]))


def test_matrix_log_of_identity_is_zero():
    """log(I) equals the zero matrix."""
    np.testing.assert_allclose(
        matrix_log_principal(np.eye(4)), np.zeros((4, 4)), atol=1e-12
    )


def test_matrix_log_inverts_exp_for_generators():
    """log(exp(L tau)) / tau recovers L at small tau."""
    rng = np.random.default_rng(19)
    generator = random_complex(rng, 4)
    tau = 0.01
    recovered = matrix_log_principal(matrix_exp(generator * tau)) / tau
    np.testing.assert_allclose(recovered, generator, atol=1e-8)


def test_matrix_log_rejects_negative_axis_eigenvalue():
    """An eigenvalue on the negative real axis is a branch ambiguity."""
    with pytest.raises(BranchCutError):
        matrix_log_principal(np.diag([-1.0, 1.0]))


def test_matrix_log_rejects_zero_eigenvalue():
    """A singular matrix has no logarithm."""
    with pytest.raises(BranchCutError):
        matrix_log_principal(np.diag([0.0, 1.0]))


def test_matrix_log_rejects_near_defective_input():
    """A nearly defective matrix fails the conditioning guard."""
    matrix = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ConditioningError):
        matrix_log_principal(matrix)


def planted_points(rng, count):
    """Block-diagonal propagators at ``count`` points, as two stacks
    ``(count, 3, 2, 2)`` and ``(count, 2, 3, 3)``: exponentials of small
    random generators, well conditioned and far from the branch cut."""
    return [
        matrix_exp(0.3 * (rng.standard_normal((count * k, m, m)) + 1j * rng.standard_normal((count * k, m, m)))).reshape(count, k, m, m)
        for k, m in ((3, 2), (2, 3))
    ]


def test_stacked_logs_flag_a_branch_ambiguous_point_alone():
    """A point with an eigenvalue on the negative real axis, or a zero
    one, gets NaN logarithms; every other point's logarithms equal, bit
    for bit, those of that point on its own."""
    stacks = planted_points(np.random.default_rng(41), 5)
    stacks[0][1, 2] = np.diag([-1.0, 0.5])
    stacks[1][3, 0] = np.diag([0.0, 1.0, 2.0])
    logs = block_logs(stacks)
    for point in range(5):
        if point in (1, 3):
            assert all(np.isnan(log[point]).all() for log in logs)
            continue
        alone = block_logs([stack[point] for stack in stacks])
        for log, single in zip(logs, alone):
            np.testing.assert_array_equal(log[point], single)


def test_stacked_logs_raise_for_the_first_ill_conditioned_point():
    """An ill-conditioned point that is not branch ambiguous raises
    ``ConditioningError`` with the condition number of the first such point
    in order, as that point on its own does; an ambiguous point is not
    judged. When every point is ambiguous, the first one's
    ``BranchCutError`` is raised."""
    stacks = planted_points(np.random.default_rng(43), 4)
    stacks[0][0, 1] = [[1.0, 1.0], [0.0, 1.0 + 1e-14]]
    stacks[0][0, 0] = np.diag([-1.0, 0.5])
    stacks[1][2, 1] = [[1.0, 1.0, 0.0], [0.0, 1.0 + 1e-12, 0.0], [0.0, 0.0, 1.0]]
    stacks[0][3, 2] = [[1.0, 1.0], [0.0, 1.0 + 1e-13]]
    with pytest.raises(ConditioningError) as alone:
        block_logs([stack[2] for stack in stacks])
    with pytest.raises(ConditioningError) as stacked:
        block_logs(stacks)
    assert str(stacked.value) == str(alone.value)
    turned = [stack[:2].copy() for stack in stacks]
    turned[1][:, 0] = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(BranchCutError) as alone:
        block_logs([stack[0] for stack in turned])
    with pytest.raises(BranchCutError) as stacked:
        block_logs(turned)
    assert str(stacked.value) == str(alone.value)


def same_bits(ours, theirs):
    """Equal shapes and equal bytes: ``-0.0`` is not ``0.0``, and NaN is NaN."""
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def counting(monkeypatch, name):
    """The stack sizes passed to ``np.linalg.<name>`` from now on."""
    sizes, solver = [], getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return sizes


def signed_zero_twins():
    """A matrix with an exact zero off its diagonal, and its twin with ``-0.0`` there."""
    plus = np.diag([1.0, 0.5, 2.0]).astype(complex)
    minus = plus.copy()
    minus[0, 1] = -0.0
    return plus, minus


def test_matrix_exp_solves_each_distinct_matrix_once(monkeypatch):
    """A stack with repeated matrices (NaN ones and ``+0.0``/``-0.0`` twins
    among them) takes one solve per distinct matrix, bit for bit, and each
    exponential equals, bit for bit, the one-matrix call's, without a
    ``RuntimeWarning``; an empty stack keeps its shape."""
    base = stack_with_norms(np.random.default_rng(47), 3, [0.1, 20.0, 0.5], True)
    spoiled = base[1].copy()
    spoiled[2, 0] = np.nan
    plus, minus = signed_zero_twins()
    stack = np.stack([base[0], spoiled, base[1], plus, base[0], minus, spoiled, base[2], plus])
    solves = counting(monkeypatch, "solve")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = matrix_exp(stack)
    assert sum(solves) == 6
    for matrix, exponential in zip(stack, result):
        assert same_bits(exponential, matrix_exp(matrix))
    assert matrix_exp(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_block_logs_solve_each_distinct_block_once(monkeypatch):
    """Stacks of points with blocks repeated within and across points (a
    repeated branch-ambiguous block and ``+0.0``/``-0.0`` twins among them)
    take one ``eig`` over each stack's distinct blocks. Every point's
    logarithms equal, bit for bit, those of the point on its own, without a
    ``RuntimeWarning``; the points with the ambiguous block get NaN, as
    they raise on their own. A group of no blocks is accepted."""
    stacks = planted_points(np.random.default_rng(53), 5)
    stacks[0][:, 0] = stacks[0][0, 0]
    stacks[0][1, 2] = stacks[0][3, 1]
    stacks[0][2, 1] = stacks[0][4, 2] = np.diag([-1.0, 0.5])
    plus, minus = signed_zero_twins()
    stacks[1][0, 1] = stacks[1][3, 1] = plus
    stacks[1][3, 0] = minus
    eigs = counting(monkeypatch, "eig")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        logs = block_logs(stacks)
        assert eigs == [9, 9]
        for point in range(5):
            if point in (2, 4):
                assert all(np.isnan(log[point]).all() for log in logs)
                with pytest.raises(BranchCutError):
                    block_logs([stack[point] for stack in stacks])
                continue
            alone = block_logs([stack[point] for stack in stacks])
            assert all(same_bits(log[point], one) for log, one in zip(logs, alone))
    empty = [np.zeros((5, 0, 4, 4), dtype=complex), *stacks]
    assert all(map(same_bits, block_logs(empty)[1:], logs))
    assert same_bits(block_logs([empty[0][0], stacks[1][0]])[1], logs[1][0])


@pytest.mark.parametrize("defect", ["nan", "ill-conditioned", "ambiguous"])
def test_block_logs_with_repeated_blocks_raise_as_the_point_alone(defect):
    """A repeated NaN block raises NumPy's ``LinAlgError``, a repeated
    ill-conditioned block the ``ConditioningError`` of its first point, and
    an ambiguous block repeated at every point the first point's
    ``BranchCutError``, each with the message the point raises on its own."""
    stacks = planted_points(np.random.default_rng(59), 4)
    block = {
        "nan": np.full((2, 2), np.nan),
        "ill-conditioned": np.array([[1.0, 1.0], [0.0, 1.0 + 1e-14]]),
        "ambiguous": np.diag([-1.0, 0.5]),
    }[defect]
    points = range(4) if defect == "ambiguous" else (1, 3)
    for point in points:
        stacks[0][point, 0] = stacks[0][point, 2] = block
    error = np.linalg.LinAlgError if defect == "nan" else (ConditioningError, BranchCutError)
    with pytest.raises(error) as alone:
        block_logs([stack[points[0]] for stack in stacks])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(type(alone.value)) as stacked:
            block_logs(stacks)
    assert str(stacked.value) == str(alone.value)


@given(
    widths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    count=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    poisoned=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_stacked_eigvalsh_is_the_one_block_solve(widths, count, seed, poisoned):
    """``block_eigvalsh`` of stacks of random (not Hermitian) blocks
    equals ``eigvalsh`` of each block's Hermitian part on its own, bit for
    bit, and a block holding a NaN gets only NaN."""
    rng = np.random.default_rng(seed)
    stacks = [
        rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))
        for m in widths
    ]
    for stack in stacks:
        for block in stack[rng.random(count) < poisoned]:
            block[tuple(rng.integers(len(block), size=2))] = np.nan
    for stack, values in zip(stacks, block_eigvalsh(stacks)):
        assert values.shape == stack.shape[:-1]
        for block, got in zip(stack, values):
            if np.isnan(block).any():
                assert np.isnan(got).all()
            else:
                expected = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
                np.testing.assert_array_equal(got, expected)


def closure(matrix, tol):
    """Reachability over the entries above ``tol`` (NaN included), every
    node reaching itself, by Warshall's algorithm."""
    edges = ~(np.abs(matrix) <= tol)
    reach = edges | edges.T | np.eye(len(matrix), dtype=bool)
    for k in range(len(matrix)):
        reach |= reach[:, k, None] & reach[None, k, :]
    return reach


def brute_force_components(matrix, tol):
    """Components of the edge graph by dense transitive closure
    (Warshall), ordered by first position, and the largest absolute row
    sum outside their diagonal blocks."""
    magnitudes = np.abs(matrix)
    edges = ~(magnitudes <= tol)
    supported = (edges | edges.T).any(axis=1)
    reach = closure(matrix, tol)
    components = []
    for start in np.flatnonzero(supported):
        members = np.flatnonzero(reach[start])
        if members[0] == start:
            components.append(members)
    same_block = reach & supported[:, None] & supported[None, :]
    outside = np.where(same_block, 0.0, magnitudes)
    delta = float(outside.sum(axis=1).max()) if matrix.size else 0.0
    return components, delta


def coupled_cases():
    rng = np.random.default_rng(5)
    yield np.zeros((0, 0))
    yield np.zeros((4, 4))
    for size in (1, 2, 5, 9, 14):
        for density in (0.05, 0.15, 0.4):
            matrix = random_complex(rng, size) * (rng.random((size, size)) < density)
            # Sub-tolerance entries stay out of the graph but count in delta.
            matrix += 1e-9 * (rng.random((size, size)) < 0.3)
            yield matrix
    planted = np.zeros((6, 6), dtype=complex)
    planted[0, 0] = 1.0  # a diagonal entry alone makes a block
    planted[4, 2] = np.nan
    planted[3, 5] = 1e-6  # exactly the tolerance: no edge
    planted[3, 1] = 2e-7
    yield planted


@pytest.mark.parametrize("matrix", list(coupled_cases()))
def test_coupled_components_match_a_dense_closure(matrix):
    """Components of the nonzeros in order of first position with
    ascending positions, indices without an edge left out, a NaN entry
    counted as an edge, and delta the largest absolute row sum outside
    the blocks; the blocks scattered from the nonzeros are the dense
    principal blocks, and every node's label (edgeless nodes included)
    names its closure, numbered by smallest member."""
    tol = 1e-6
    rows, cols = np.nonzero(matrix)
    values = matrix[rows, cols]
    layout, stacks, delta = coupled_components(rows, cols, values, tol)
    unstacked = layout.unstack(stacks)
    components = [component for component, _ in unstacked]
    expected, expected_delta = brute_force_components(matrix, tol)
    for component, block in unstacked:
        np.testing.assert_array_equal(block, matrix[np.ix_(component, component)])
    edges = ~(np.abs(values) <= tol)
    labels = component_labels(rows[edges], cols[edges], len(matrix))
    reach = closure(matrix, tol)
    smallest = np.array([np.flatnonzero(row)[0] for row in reach], dtype=np.int64)
    np.testing.assert_array_equal(labels, np.unique(smallest, return_inverse=True)[1])
    assert len(components) == len(expected)
    for component, reference in zip(components, expected):
        assert component.dtype == np.int64
        np.testing.assert_array_equal(component, reference)
        assert np.all(np.diff(component) > 0)
    firsts = [component[0] for component in components]
    assert firsts == sorted(firsts)
    assert delta == pytest.approx(expected_delta, rel=1e-12, abs=0.0)
    if np.isnan(matrix).any():
        assert [list(c) for c in components] == [[0], [2, 4]]
        assert delta == pytest.approx(1e-6 + 2e-7)


@given(
    size=st.integers(0, 12),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    partition=st.sampled_from(["all", "some", "whole"]),
    with_nan=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_principal_blocks_are_the_dense_slices(size, density, seed, partition, with_nan):
    """Blocks scattered from the nonzeros of a sparse Hermitian matrix,
    listed in any order, are bit for bit ``M[ix_(c, c)]`` for the blocks
    ``c`` of a layout: a random partition of every index, part of one,
    or the single all-index block of the dense fallback; a NaN entry
    lands where it stands, and the entries outside every block are
    exactly those masked."""
    rng = np.random.default_rng(seed)
    upper = np.triu(random_complex(rng, size) * (rng.random((size, size)) < density), 1)
    diagonal = rng.standard_normal(size) * (rng.random(size) < density)
    matrix = upper + upper.conj().T + np.diag(diagonal)
    if with_nan and size:
        matrix[tuple(rng.integers(size, size=2))] = np.nan
    rows, cols = np.nonzero(matrix)
    order = rng.permutation(rows.size)
    rows, cols = rows[order], cols[order]
    labels = np.zeros(size, dtype=np.int64)
    if partition != "whole":
        labels = rng.integers(0, max(1, size), size)
        kept = np.unique(labels)
        if partition == "some":
            labels[~np.isin(labels, kept[rng.random(kept.size) < 0.5])] = -1
    layout = BlockLayout(labels)
    stacks, outside = layout.split(rows, cols, matrix[rows, cols])
    np.testing.assert_array_equal(
        outside, (labels[rows] != labels[cols]) | (labels[rows] < 0)
    )
    unstacked = layout.unstack(stacks)
    components = [component for component, _ in unstacked]
    blocks = [block for _, block in unstacked]
    expected = [np.flatnonzero(labels == label) for label in set(labels) - {-1}]
    assert [c.tolist() for c in components] == sorted(c.tolist() for c in expected)
    assert len(blocks) == len(components)
    for block, component in zip(blocks, components):
        assert block.dtype == complex
        np.testing.assert_array_equal(block, matrix[np.ix_(component, component)])
