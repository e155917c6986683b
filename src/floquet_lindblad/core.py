"""Dense linear-algebra kernels shared by the whole package.

Conventions
-----------
* Density matrices are flattened row major: ``vectorize(M)`` is
  ``M.reshape(d * d)`` in C order, so the matrix product ``A @ rho @ B``
  turns into ``kron(A, B.T) @ vectorize(rho)``.
* Hermitian eigendecompositions are deterministic: eigenvalues ascend and
  each eigenvector's first significant component is rotated to be real
  and positive.
* All functions accept and return plain ``numpy`` arrays; inputs are
  never mutated. A matrix given by its nonzeros is three arrays
  ``(rows, cols, values)``; every other entry is zero.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .errors import (
    BranchCutError,
    ConditioningError,
    DimensionMismatchError,
    HermiticityError,
)

__all__ = [
    "HERMITICITY_RTOL",
    "vectorize",
    "devectorize",
    "frobenius_inner",
    "kron",
    "hermiticity_defect",
    "herm_eigs",
    "matrix_exp",
    "matrix_log_principal",
]

#: Relative Hermiticity tolerance (max-norm) used by :func:`herm_eigs`.
HERMITICITY_RTOL = 1e-10

#: Angular distance from the negative real axis below which a matrix
#: logarithm is considered branch ambiguous.
BRANCH_ANGLE_TOL = 1e-6

#: Eigenvector condition number above which the similarity-transform
#: logarithm is considered unreliable.
LOG_CONDITION_LIMIT = 1e10

#: Bytes that a chunked pass may stack per point (at least one point a
#: chunk): ``compare-exact`` one block group's propagators, ``scan`` and
#: ``fit-modelc`` one order term's sums, the kick-free sum one harmonic's.
_GRID_BYTES = 2**17


def _require_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(
            f"{name} must be square, got shape {arr.shape}"
        )
    return arr


def vectorize(matrix: np.ndarray) -> np.ndarray:
    """Flatten a d x d matrix into a length d^2 vector, row major."""
    arr = _require_square(matrix)
    return arr.reshape(-1).copy()


def devectorize(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`: reshape a length d^2 vector to d x d.

    :raises DimensionMismatchError: if the length is not a perfect square.
    """
    vec = np.asarray(vector)
    if vec.ndim != 1:
        raise DimensionMismatchError(
            f"expected a 1-D vector, got shape {vec.shape}"
        )
    dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise DimensionMismatchError(
            f"vector length {vec.size} is not a perfect square"
        )
    return vec.reshape(dim, dim).copy()


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Frobenius inner product Tr[a^dagger b] of two same-shaped square
    matrices (antilinear in the first argument)."""
    a_arr = _require_square(a, "a")
    b_arr = _require_square(b, "b")
    if a_arr.shape != b_arr.shape:
        raise DimensionMismatchError(
            f"shape mismatch {a_arr.shape} vs {b_arr.shape}"
        )
    return complex(np.vdot(a_arr, b_arr))


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    if not factors:
        raise DimensionMismatchError("kron needs at least one factor")
    out = np.asarray(factors[0])
    for factor in factors[1:]:
        out = np.kron(out, np.asarray(factor))
    return out


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max-norm of M - M^dagger, the absolute deviation from Hermiticity."""
    arr = _require_square(matrix)
    return float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0


def _combine(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``weights @ rows``, a row of ``rows`` at a time, so that each result
    row does not depend on the other rows of ``weights`` (BLAS may)."""
    return sum(weight[:, None] * row for weight, row in zip(weights.T, rows))


def _raise_first(stages) -> None:
    """Raise the error of the first point that fails a check, at its first
    failing one. ``stages`` lists the checks in order as ``(failed, error,
    message, *values)``: a flag per point (or one), and the exception class
    and message format for a point's values."""
    stages = list(stages)
    if any(np.any(stage[0]) for stage in stages):
        failed = np.array([np.reshape(stage[0], -1) for stage in stages], dtype=bool)
        point = np.flatnonzero(failed.any(axis=0))[0]
        _, error, message, *values = stages[np.argmax(failed[:, point])]
        raise error(message.format(*(np.reshape(v, -1)[point] for v in values)))


def _hermiticity_stage(defect, scale, rtol: float = HERMITICITY_RTOL) -> tuple:
    """The stage of :func:`_raise_first` that the Hermiticity ``defect`` of
    each matrix is within ``rtol`` times its largest entry ``scale``."""
    return ((scale > 0.0) & (defect > rtol * scale), HermiticityError,
            "matrix deviates from Hermiticity by {:.3e} (limit {:.3e})", defect, rtol * scale)


def component_labels(rows: np.ndarray, cols: np.ndarray, size: int) -> np.ndarray:
    """Component label of every node ``0..size-1`` of the undirected graph
    with edges ``(rows[i], cols[i])``, numbered in the order of each
    component's smallest node; a node without edges is its own component.

    Every root is hooked under the smallest root it shares an edge with,
    then each node is pointed at its root, until no edge joins two roots.
    """
    parent = np.arange(size)
    while True:
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
        ends = parent[rows], parent[cols]
        low, high = np.minimum(*ends), np.maximum(*ends)
        joined = low < high
        if not joined.any():
            return np.unique(parent, return_inverse=True)[1]
        np.minimum.at(parent, high[joined], low[joined])


class BlockLayout:
    """The indices ``0..size-1`` split into blocks by integer ``labels``:
    equal labels share a block, and a negative label puts an index in
    none. Blocks of equal size ``m`` form one stack ``(k, m, m)``, ordered
    by label; row ``i`` of ``groups[g]`` holds the indices of block ``i``
    of stack ``g`` in the order of the block's rows. They ascend unless an
    index permutation ``shift`` is given. Then each orbit of ``shift`` over
    a stack's blocks is walked from its first block, and each next block
    takes the image of the previous one's row; so every block of a matrix
    that ``shift`` leaves invariant equals the first block of its orbit,
    entry for entry."""

    def __init__(self, labels: np.ndarray, shift: np.ndarray | None = None) -> None:
        self.labels = labels
        inside = np.flatnonzero(labels >= 0)
        members = inside[np.argsort(labels[inside], kind="stable")]
        counts = np.bincount(labels[inside])
        counts = counts[counts > 0]
        starts = np.cumsum(counts) - counts
        # Stacks are views of one flat buffer; entry (a, b) of a block
        # sits at _row[a] + _pos[b], with _pos the place inside the block.
        self.groups, self._bounds = [], [0]
        self._row, self._pos = np.empty((2, labels.size), dtype=np.int64)
        # Distinct sizes by bincount: np.unique's hash path imports numpy.ma.
        for width in np.flatnonzero(np.bincount(counts)).tolist():
            indices = members[starts[counts == width][:, None] + np.arange(width)]
            if shift is not None:
                place = {label: i for i, label in enumerate(labels[indices[:, 0]].tolist())}
                onto = [place.get(image[0], -1) if (image == image[0]).all() else -1
                        for image in labels[shift[indices]]]
                reached = np.zeros(len(onto), dtype=bool)
                for block in range(len(onto)):
                    reached[block] = True
                    while (image := onto[block]) >= 0 and not reached[image]:
                        indices[image], reached[image] = shift[indices[block]], True
                        block = image
            self._pos[indices] = np.arange(width)
            places = width * np.arange(indices.size).reshape(indices.shape)
            self._row[indices] = self._bounds[-1] + places
            self._bounds.append(self._bounds[-1] + width * indices.size)
            self.groups.append(indices)

    def split(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
        """The blocks of the matrix with ``values`` at ``(rows, cols)`` and
        zeros elsewhere, one stack per group, filled by one scatter, and
        the mask of the entries outside every block; leading axes of the
        values (matrices on the same positions) lead the stacks."""
        label = self.labels[rows]
        inside = (label == self.labels[cols]) & (label >= 0)
        lead = np.shape(values)[:-1]
        flat = np.zeros(lead + (self._bounds[-1],), dtype=complex)
        flat[..., self._row[rows[inside]] + self._pos[cols[inside]]] = values[..., inside]
        stacks = [
            flat[..., start:end].reshape(lead + indices.shape + indices.shape[1:])
            for indices, start, end in zip(self.groups, self._bounds, self._bounds[1:])
        ]
        return stacks, ~inside

    def bounded_split(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
        """:meth:`split`, with ``delta`` in place of the mask: the largest
        absolute row sum of the entries outside the blocks, one per matrix.
        For a Hermitian matrix, Weyl's inequality puts every eigenvalue of
        the block-diagonal part within ``delta`` of the matrix's."""
        stacks, outside = self.split(rows, cols, values)
        sums = np.zeros(np.shape(values)[:-1] + (self.labels.size,))
        np.add.at(sums.T, rows[outside], np.abs(values[..., outside]).T)
        delta = sums.max(axis=-1, initial=0.0)
        return stacks, (delta if delta.ndim else float(delta))

    def unstack(self, *per_group) -> list[tuple]:
        """Every block as a tuple of its indices (its row of ``groups``) and
        its row in each of ``per_group`` (lists with one array per group,
        such as the stacks), in the order of the blocks' first indices."""
        blocks = [block for group in zip(self.groups, *per_group) for block in zip(*group)]
        return sorted(blocks, key=lambda block: block[0][0])


def coupled_components(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, tol: float
) -> tuple[BlockLayout, list[np.ndarray], float]:
    """The :class:`BlockLayout` of the connected components of the graph
    whose edges are the nonzeros ``values`` at ``(rows, cols)`` above
    ``tol`` in magnitude, and the stacks of its blocks.

    A non-finite entry is an edge too, so it lands in a solved block and
    its NaN reaches the spectrum. Indices without any edge (in their row
    or column) belong to no block.

    :return: ``(layout, stacks, delta)``, with ``delta`` as in
        :meth:`BlockLayout.bounded_split`.
    """
    magnitudes = np.abs(values)
    edges = ~(magnitudes <= tol) | np.isinf(magnitudes)
    size = 1 + max(rows.max(initial=-1), cols.max(initial=-1))
    labels = component_labels(rows[edges], cols[edges], size)
    touched = np.zeros(size, dtype=bool)
    touched[rows[edges]] = touched[cols[edges]] = True
    labels[~touched] = -1
    layout = BlockLayout(labels)
    return (layout, *layout.bounded_split(rows, cols, values))


def block_eigvalsh(stacks) -> list[np.ndarray]:
    """Ascending eigenvalues of the Hermitian part of every block of each
    stack ``(k, m, m)``, in one call per stack. As in :func:`matrix_exp`,
    a block with a non-finite entry is solved as zeros and then gets only
    NaN: LAPACK may return finite values for it, or fail."""
    values = []
    for stack in stacks:
        finite = np.isfinite(stack).all(axis=(-2, -1))
        blocks = np.where(finite[..., None, None], stack, 0.0)
        solved = np.linalg.eigvalsh(0.5 * (blocks + blocks.conj().swapaxes(-1, -2)))
        solved[~finite] = np.nan
        values.append(solved)
    return values


def herm_eigs(
    matrix: np.ndarray, rtol: float = HERMITICITY_RTOL
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic eigendecomposition of a Hermitian matrix.

    The input must be Hermitian to within ``rtol`` relative to its largest
    entry; it is then symmetrized before the dense solve so roundoff in the
    caller cannot leak into the spectrum. Eigenvalues come back ascending.
    Each eigenvector is normalized and its first component of significant
    magnitude is made real and positive, which pins the overall phase.

    :param matrix: square Hermitian candidate.
    :param rtol: relative Hermiticity tolerance (max norm).
    :return: ``(eigenvalues, eigenvectors)`` with eigenvectors in columns.
    :raises HermiticityError: if the Hermiticity check fails.
    """
    arr = np.asarray(_require_square(matrix), dtype=complex)
    scale = np.max(np.abs(arr), initial=0.0)
    _raise_first([_hermiticity_stage(hermiticity_defect(arr), scale, rtol)])
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (arr + arr.conj().T))
    if not arr.size:
        return eigenvalues, eigenvectors
    magnitudes = np.abs(eigenvectors)
    peaks = np.max(magnitudes, axis=0)
    first = np.argmax(magnitudes > 1e-12 * peaks, axis=0)
    anchors = eigenvectors[first, np.arange(len(first))]
    return eigenvalues, eigenvectors / (anchors / np.abs(anchors))


def _distinct(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct matrices of a stack ``(k, m, m)``, told apart by their
    bytes (``-0.0`` is not ``0.0``; a NaN matches only the same bits), and
    the position of each matrix among them."""
    if not stack.size:
        return stack[:1], np.zeros(len(stack), dtype=np.int64)
    flat = np.ascontiguousarray(stack).reshape(len(stack), -1)
    keys = flat.view(np.dtype((np.void, flat.dtype.itemsize * flat.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if len(first) == len(stack):  # all distinct: no copy
        return stack, np.arange(len(stack))
    return stack[first], inverse


#: Padé degrees of :func:`matrix_exp`, each with the largest 1-norm for
#: which it reaches double precision (Higham 2005, Table 2.3).
_PADE_THETAS = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}


def matrix_exp(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix, or of each matrix in a
    stack of shape ``(k, m, m)``; real and integer input gives float64.

    Padé scaling and squaring (N. J. Higham, SIAM J. Matrix Anal. Appl.
    26, 1179 (2005)), for the whole stack at once: each matrix ``A`` gets
    the lowest degree adequate for its own 1-norm, and at degree 13 its own
    scaling ``2^-s`` so that its norm is at most ``theta_13``. The matrices
    of one degree take batched products and one batched solve, and each is
    then squared ``s`` times. So every matrix's exponential is the one it
    has on its own, and equal matrices (bit for bit) are solved once. A
    matrix with a non-finite entry gives NaN.
    """
    arr = np.asarray(matrix)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatchError(
            f"matrix must be square or a stack of square matrices, got shape {arr.shape}"
        )
    shape = arr.shape
    arr = (arr[None] if arr.ndim == 2 else arr).astype(np.result_type(arr, 1.0), copy=False)
    arr, inverse = _distinct(arr)
    norms = np.abs(arr).sum(axis=1).max(axis=1, initial=0.0)
    finite = np.isfinite(norms)
    norms[~finite] = 0.0
    thetas = list(_PADE_THETAS.values())
    degrees = np.array(list(_PADE_THETAS))[np.searchsorted(thetas[:-1], norms)]
    squarings = np.ceil(np.log2(np.maximum(norms / thetas[-1], 1.0))).astype(np.int64)
    a = np.where(finite[:, None, None], arr, 0.0)
    a /= 2.0 ** squarings[:, None, None]
    result = np.empty_like(a)
    for degree in np.flatnonzero(np.bincount(degrees)).tolist():  # np.unique imports numpy.ma
        # Numerator coefficients b_j = (2m - j)! m! / ((2m)! j! (m - j)!), rescaled
        # to integers; the denominator has the same ones with alternating signs.
        b = [float(factorial(2 * degree - j) // (factorial(j) * factorial(degree - j)))
             for j in range(degree + 1)]
        chosen = degrees == degree
        x = a[chosen]
        powers = [np.eye(a.shape[-1]), x @ x]  # I, A^2, A^4, ...; degree 13 stops at A^6
        while len(powers) < (7 if degree == 13 else degree) // 2 + 1:
            powers.append(powers[-1] @ powers[1])
        odd = sum(c * p for c, p in zip(b[1::2], powers))
        even = sum(c * p for c, p in zip(b[0::2], powers))
        if degree == 13:
            odd = odd + powers[3] @ sum(c * p for c, p in zip(b[9::2], powers[1:]))
            even = even + powers[3] @ sum(c * p for c, p in zip(b[8::2], powers[1:]))
        odd = x @ odd
        del powers, x  # not held through the solve, where the memory peaks
        result[chosen] = np.linalg.solve(even - odd, even + odd)
    for done in range(squarings.max(initial=0)):
        more = squarings > done
        result[more] = result[more] @ result[more]
    result[~finite] = np.nan
    return result[inverse].reshape(shape)


def block_exps(stacks) -> list[np.ndarray]:
    """:func:`matrix_exp` of every block of each stack ``(..., k, m, m)``,
    in one call per stack."""
    return [matrix_exp(s.reshape(-1, *s.shape[-2:])).reshape(s.shape) for s in stacks]


def matrix_log_principal(
    matrix: np.ndarray,
    branch_tol: float = BRANCH_ANGLE_TOL,
    condition_limit: float = LOG_CONDITION_LIMIT,
) -> np.ndarray:
    """Principal matrix logarithm via diagonalization, with the guard
    rails of :func:`block_logs` (the matrix is its one block).

    :raises BranchCutError: for the branch ambiguity case.
    :raises ConditioningError: for the ill-conditioned case.
    """
    return block_logs([_require_square(matrix)[None]], branch_tol, condition_limit)[0][0]


def block_logs(
    stacks: list[np.ndarray],
    branch_tol: float = BRANCH_ANGLE_TOL,
    condition_limit: float = LOG_CONDITION_LIMIT,
) -> list[np.ndarray]:
    """Principal logarithms of block-diagonal matrices, given as stacks of
    equal-size blocks, ``(k, m, m)`` for one matrix or ``(p, k, m, m)`` for
    ``p`` of them; one eigensolve, one SVD and one inverse per stack, each
    over the stack's distinct blocks (equal bit for bit), whose results are
    then gathered to every block, so a block's are those it has on its own.

    Each block is diagonalized, the principal scalar logarithm is applied
    to the eigenvalues, and the similarity transform is undone. Two failure
    modes of a matrix are detected rather than silently producing a wrong
    branch:

    * an eigenvalue at zero (relative to the largest modulus), or within
      ``branch_tol`` angular distance of the negative real axis, makes
      the principal branch ambiguous: the matrix's logarithms are NaN;
    * a block-diagonal eigenvector matrix with condition number (largest
      singular value over all blocks over the smallest) above
      ``condition_limit`` makes the transform numerically untrustworthy.

    :raises BranchCutError: if every matrix is branch ambiguous.
    :raises ConditioningError: for the first other ill-conditioned one.
    """
    shapes = [np.shape(stack) for stack in stacks]
    # Per stack: its distinct blocks' eig, and each block's place among them (p, k).
    solved = []
    for stack, shape in zip(stacks, shapes):
        blocks, where = _distinct(np.asarray(stack, complex).reshape(-1, *shape[-2:]))
        solved.append((*np.linalg.eig(blocks), where.reshape(int(np.prod(shape[:-3])), -1)))
    eigenvalues = np.concatenate([w[i].reshape(len(i), -1) for w, _, i in solved], axis=1)
    moduli = np.abs(eigenvalues)
    scale = moduli.max(axis=1, initial=0.0)
    zero = (scale == 0.0) | np.any(moduli <= 1e-300 * np.maximum(scale, 1.0)[:, None], axis=1)
    off_axis = np.pi - np.abs(np.angle(eigenvalues))
    ambiguous = zero | np.any(off_axis < branch_tol, axis=1)
    if ambiguous.all() and zero[0]:
        raise BranchCutError(
            "matrix has a zero (or numerically zero) eigenvalue; "
            "no logarithm exists"
        )
    if ambiguous.all():
        raise BranchCutError(
            f"eigenvalue within {np.min(off_axis[0]):.3e} rad of the negative real "
            f"axis (limit {branch_tol:.3e}); principal branch is ambiguous"
        )
    singular = [np.linalg.svd(v, compute_uv=False)[i].reshape(len(i), -1) for _, v, i in solved]
    singular = np.concatenate(singular, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = singular.max(axis=1) / singular.min(axis=1)
    unreliable = ~ambiguous & ~(condition <= condition_limit)
    if unreliable.any():
        raise ConditioningError(
            f"eigenvector condition number {condition[np.argmax(unreliable)]:.3e} "
            f"exceeds {condition_limit:.3e}; logarithm unreliable"
        )
    logs, kept = [], ~ambiguous
    for shape, (w, v, where) in zip(shapes, solved):
        used = np.bincount(where[kept].ravel(), minlength=len(v)) > 0
        log = np.full(v.shape, np.nan, dtype=complex)
        log[used] = (v[used] * np.log(w[used])[..., None, :]) @ np.linalg.inv(v[used])
        logs.append(np.where(kept[:, None, None, None], log[where], np.nan).reshape(shape))
    return logs
