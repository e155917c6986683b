"""Dissipator extraction and Liouvillianity certification.

Any trace- and Hermiticity-preserving superoperator ``S`` on ``L`` sites
decomposes uniquely as

    S rho = -i [H, rho]
            + sum_{j,k != 0} a_jk (F_j rho F_k
                                   - (1/2) {F_k F_j, rho})

over the normalized Pauli basis, with ``H`` Hermitian traceless and
``[a_jk]`` a Hermitian coefficient matrix. ``S`` generates a completely
positive flow exactly when ``[a_jk]`` is positive semidefinite; the
magnitude of its most negative eigenvalue is the breaking degree.

This module alone knows the signed table (row-major vectorization,
``d = 2^L``) ``t[j, k] = (-1)^(#2s in k) c[(j, k)]``, with ``c`` the
Pauli coefficients of ``S`` on the doubled (2L-site) space. With
``K = sum_jk a_jk F_k F_j``, the form ``(H, [a_jk])`` has ``t[j, k] =
a_jk``, ``t[j, 0] = sqrt(d) (-i h_j - K_j / 2)``, ``t[0, k] = sqrt(d)
(i h_k - K_k / 2)`` and ``t[0, 0] = -sqrt(d) K_0``. Extraction reads
``a_jk`` and ``h_j``; one writer, :func:`_form_table`, writes ``t`` for
every GKLS form the package builds, and the basis is orthonormal, so the
round-trip residual compares tables. Every superoperator reaches it one
way: its doubled Pauli sum (a sparse one's own terms, with no 2L-site
transform; a dense one's from one transform) becomes the table's
nonzeros, validated there: trace
preservation is ``K(t) = sum_jk t[j, k] F_k F_j = 0`` and Hermiticity
preservation is ``t = t^dag``.

The table and ``[a_jk]`` are held as their nonzeros (codes, or flat
positions, with values), never as ``4^L x 4^L`` arrays:
:attr:`DissipatorMatrix.entries` is a dense view, built on first use.
Index sets are held as their codes; the ``index_set`` of
:class:`MultiIndex` objects is built on first read, so certification
builds none.

When the expansion order ``n`` and drive locality ``k`` are known, the
locality theory guarantees ``a_jk = 0`` for ``n_j + n_k > (n+1)k - n``;
``weight_limit`` prunes the index set accordingly and zeroes entries
beyond the cap.

Both ``a_jk`` and ``h_j`` are linear in ``S``: :func:`decompose` gets
both from one signed table. The package certifies an expansion one way,
:func:`_graded_pass`, which decomposes each summand once and weights the
decompositions: :func:`graded_reports` weights an expansion's graded
parts over a whole grid (``scan``, ``fit-modelc``), and
:func:`order_certificates` adds its order terms at one point
(``analyze``). Positive semidefiniteness is
certified block by block, over the connected components of the nonzeros
of ``[a_jk]`` (:func:`psd_report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _GRID_BYTES, BlockLayout, _combine, _hermiticity_stage, _raise_first
from .core import block_eigvalsh, coupled_components, herm_eigs
from .errors import (
    DecompositionInconsistencyError,
    DimensionMismatchError,
    HermiticityError,
    NotLindbladCandidateError,
)
from .lindblad import Superoperator, _num_sites, _pauli_terms, liouvillian_superop
from .magnus import EffectiveExpansion
from .pauli import (
    MultiIndex,
    _string_products,
    _transpose_signs,
    code_weights,
    indices_of,
    matrix_from_pauli_terms,
    merge_pauli_terms,
    pauli_coefficients,
    stack_pauli_terms,
)

__all__ = [
    "DissipatorMatrix",
    "HamiltonianCoefficients",
    "LiouvillianityReport",
    "PerOrderCheck",
    "SignedChannel",
    "SignedLindbladForm",
    "extract_dissipator",
    "extract_hamiltonian",
    "psd_report",
    "canonical_decomposition",
    "per_order_checks",
    "roundtrip_residual",
]

#: Validation tolerance for the structural prerequisites.
VALIDATION_TOL = 1e-8

#: Relative PSD tolerance entering the default Liouvillianity verdict.
PSD_RTOL = 1e-9

#: Relative magnitude below which canonical channels are dropped.
CHANNEL_DROP_RTOL = 1e-12

#: Relative magnitude below which entries count as structural zeros.
STRUCTURAL_ZERO_RTOL = 1e-12

#: The block spectrum certifies a PSD verdict only while the entries it
#: drops stay below this fraction of the PSD tolerance (in row sums).
BLOCK_DROP_RATIO = 1e-3


class _Indexed:
    """An index set held as its codes, ``_codes`` (int64) on ``num_sites``
    sites; ``index_set`` is built from them on first read. Looking up an
    index outside the set raises :class:`DimensionMismatchError`, also
    one on another number of sites whose code is in the set."""

    @classmethod
    def _of(cls, codes: np.ndarray, *fields):
        """The instance over ``codes``, unchecked, with the public
        constructor's other arguments ``fields``."""
        held = cls.__new__(cls)
        held._hold(codes, *fields)
        return held

    @staticmethod
    def _checked(index_set, data, num_sites: int, dtype, axes: int):
        """A public constructor's codes and ``data``, an array with
        ``axes`` axes of the index set's size.

        :raises DimensionMismatchError: for an entry that is no index on
            ``num_sites`` sites, a repeated index or data of another shape."""
        on_sites = [i for i in index_set if isinstance(i, MultiIndex) and i.num_sites == num_sites]
        codes = [index.code for index in on_sites]
        arr, shape = np.asarray(data, dtype=dtype), (len(index_set),) * axes
        if len(set(codes)) != len(index_set) or arr.shape != shape:
            raise DimensionMismatchError(
                f"need {len(index_set)} distinct indices on {num_sites} sites and "
                f"data of shape {shape}, got {len(set(codes))} and {arr.shape}"
            )
        return np.array(codes, dtype=np.int64), arr

    @cached_property
    def index_set(self) -> tuple[MultiIndex, ...]:
        return indices_of(self._codes, self.num_sites)

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {code: p for p, code in enumerate(self._codes.tolist())}

    def _position(self, index: MultiIndex) -> int:
        on_sites = isinstance(index, MultiIndex) and index.num_sites == self.num_sites
        position = self._positions.get(index.code) if on_sites else None
        if position is None:
            raise DimensionMismatchError(f"index {index} not in index set")
        return position


class DissipatorMatrix(_Indexed):
    """Hermitian coefficient matrix ``[a_jk]`` over a retained index set,
    held as its codes (``index_set`` is built on first read).

    ``entries[p, q]`` couples ``index_set[p]`` to ``index_set[q]``.
    ``weight_limit`` records the pair-weight cap used during extraction
    (None for a full extraction). The matrix is held as its nonzeros (a
    NaN is one); ``entries`` is a read-only dense view, built once on
    first use. Treated as immutable.
    """

    def __init__(
        self,
        index_set: tuple[MultiIndex, ...],
        entries: np.ndarray,
        num_sites: int,
        weight_limit: int | None = None,
    ) -> None:
        codes, arr = self._checked(index_set, entries, num_sites, complex, 2)
        keys = np.flatnonzero(arr)
        self._hold(codes, (keys, arr.reshape(-1)[keys]), num_sites, weight_limit)

    def _hold(self, codes, terms, num_sites, weight_limit=None) -> None:
        """``terms = (keys, values)``: ``values`` at the ascending distinct
        flat positions ``keys`` (``row * size + col``), with no dense array."""
        self._codes, self._terms = codes, terms
        self.num_sites, self.weight_limit = num_sites, weight_limit

    @property
    def size(self) -> int:
        return self._codes.size

    @cached_property
    def _nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)``, row major."""
        keys, values = self._terms
        return (*np.divmod(keys, max(self.size, 1)), values)

    @cached_property
    def entries(self) -> np.ndarray:
        dense = np.zeros(self.size * self.size, dtype=complex)
        keys, values = self._terms
        dense[keys] = values
        dense.flags.writeable = False
        return dense.reshape(self.size, self.size)

    def max_abs(self) -> float:
        return self._max_abs

    @cached_property
    def _max_abs(self) -> float:
        values = self._terms[1]
        return float(np.max(np.abs(values))) if values.size else 0.0

    @cached_property
    def _skew(self) -> float:
        """``max|a - a^dag|``, the Hermiticity defect."""
        _, skew = _adjoint_sum(*self._terms, self.size, -1.0)
        return float(np.max(np.abs(skew))) if skew.size else 0.0

    def position(self, index: MultiIndex) -> int:
        """Row position of a multi-index within the index set."""
        return self._position(index)

    def entry(self, row: MultiIndex, col: MultiIndex) -> complex:
        """Coefficient ``a_jk`` for a pair of multi-indices."""
        key = self.position(row) * self.size + self.position(col)
        keys, values = self._terms
        slot = np.searchsorted(keys, key)
        return complex(values[slot]) if key in keys[slot : slot + 1] else 0j

    def trace(self) -> float:
        rows, cols, values = self._nonzeros
        diagonal = np.zeros(self.size, dtype=complex)
        diagonal[rows[rows == cols]] = values[rows == cols]
        return float(np.real(np.sum(diagonal)))

    def structural_tol(self) -> float:
        """Magnitude at or below which an entry counts as a structural
        zero: ``1e-12 * max(1, max|a|)``."""
        return float(_structural_tol(self.max_abs()))

    def restricted(self, weight_limit: int | None) -> "DissipatorMatrix":
        """The matrix that :func:`extract_dissipator` returns for
        ``weight_limit``, sliced out of this full extraction: indices of
        weight up to ``weight_limit - 1``, with the entries whose pair
        weight exceeds the cap set to exact zeros."""
        if weight_limit is None:
            return self
        weights = code_weights(self.num_sites)[self._codes]
        cap = max(weight_limit - 1, 0)
        kept = np.flatnonzero(weights <= cap)
        rows, cols, values = self._nonzeros
        stays = (weights[rows] <= cap) & (weights[cols] <= cap)
        stays &= weights[rows] + weights[cols] <= weight_limit
        rows, cols = np.searchsorted(kept, [rows[stays], cols[stays]])
        return DissipatorMatrix._of(
            self._codes[kept],
            (rows * kept.size + cols, values[stays]),
            self.num_sites,
            weight_limit,
        )

    def _blocks(self, tol: float):
        """``(layout, stacks, eigenvalues, delta)``: the
        :func:`~floquet_lindblad.core.coupled_components` of the entries
        above ``tol`` and the :func:`~floquet_lindblad.core.block_eigvalsh`
        of its stacks. Hermiticity is checked once, for the whole matrix at
        its largest entry (as :func:`herm_eigs` does), so a block of small
        entries is never judged on its own scale.

        :raises HermiticityError: if the Hermiticity check fails.
        """
        _raise_first([_hermiticity_stage(self._skew, self.max_abs())])
        layout, stacks, delta = coupled_components(*self._nonzeros, tol)
        return layout, stacks, block_eigvalsh(stacks), delta


class HamiltonianCoefficients(_Indexed):
    """Real coefficients ``h_j`` of the coherent part over weight >= 1
    indices, held as their codes (``index_set`` is built on first read):
    ``H = sum_j h_j F_j``. Treated as immutable."""

    def __init__(
        self, index_set: tuple[MultiIndex, ...], values: np.ndarray, num_sites: int
    ) -> None:
        self._hold(*self._checked(index_set, values, num_sites, float, 1), num_sites)

    def _hold(self, codes, values, num_sites) -> None:
        self._codes, self.values, self.num_sites = codes, values, num_sites

    def coefficient(self, index: MultiIndex) -> float:
        return float(self.values[self._position(index)])

    def to_matrix(self) -> np.ndarray:
        """Dense Hermitian matrix ``sum_j h_j F_j``."""
        return matrix_from_pauli_terms(self._codes, self.values, self.num_sites)


@dataclass(frozen=True)
class LiouvillianityReport:
    """PSD verdict for a dissipator matrix.

    ``breaking_degree`` is zero when the verdict is positive and the
    magnitude of the most negative eigenvalue otherwise, so
    ``breaking_degree == 0`` exactly matches ``is_liouvillian``.
    """

    eigenvalues: np.ndarray
    min_eigenvalue: float
    tol: float
    is_liouvillian: bool
    breaking_degree: float


@dataclass(frozen=True)
class SignedChannel:
    """One canonical channel: a scaled jump operator and its sign."""

    sign: int
    operator: np.ndarray
    magnitude: float


@dataclass(frozen=True)
class SignedLindbladForm:
    """Canonical signed form: Hermitian part plus signed channels.

    The generator it represents is

        S rho = -i [H, rho]
                + sum_i s_i (A_i rho A_i^dag
                             - (1/2) {A_i^dag A_i, rho})

    with ``s_i`` in ``{+1, -1}`` and ``A_i`` the (already scaled)
    channel operators.
    """

    hamiltonian_matrix: np.ndarray | None
    channels: tuple[SignedChannel, ...]
    num_sites: int

    @property
    def negative_channels(self) -> tuple[SignedChannel, ...]:
        return tuple(c for c in self.channels if c.sign < 0)

    def to_superoperator(self) -> Superoperator:
        """Reassemble the superoperator of the signed form."""
        jumps = [
            (float(channel.sign), channel.operator)
            for channel in self.channels
        ]
        return liouvillian_superop(
            self.hamiltonian_matrix, jumps, system_dim=2**self.num_sites
        )


def _structural_tol(peak):
    """:meth:`DissipatorMatrix.structural_tol` of matrices whose largest
    entries are ``peak``."""
    return STRUCTURAL_ZERO_RTOL * np.fmax(1.0, peak)


def _sum(*parts: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The sparse sum of ``(keys, values)`` parts, added in order."""
    keys, values = zip(*parts)
    return merge_pauli_terms(np.concatenate(keys), np.concatenate(values))


def _adjoint_sum(keys, values, size: int, sign: float):
    """The nonzeros of ``M + sign M^dag`` for the ``size x size`` matrix
    ``M`` with ``values`` at the flat positions ``keys``."""
    rows, cols = np.divmod(keys, max(size, 1))
    return _sum((keys, values), (cols * size + rows, sign * values.conj()))


def _gram(dissipator: "DissipatorMatrix") -> tuple[np.ndarray, np.ndarray]:
    """The sparse Pauli sum of ``K = sum_jk a_jk F_k F_j``, added in the
    order of :func:`~floquet_lindblad.pauli.quadratic_product_coefficients`
    (by column)."""
    rows, cols, values = dissipator._nonzeros
    order = np.lexsort((rows, cols))
    left, right = dissipator._codes[[cols[order], rows[order]]]
    return merge_pauli_terms(
        *_string_products(left, right, values[order], dissipator.num_sites, False)
    )


def _linear_sums(table, num_sites: int, dissipator=None, coherent: bool = True) -> dict:
    """The sparse sums linear in a superoperator, from its signed table
    ``t``, unchecked: ``table``; ``gram``, ``K = sum_jk t[j, k] F_k F_j``,
    the residual of trace preservation; ``skew``, ``t - t^dag``; unless
    ``dissipator`` is given, the Hermitian part of the inner entries,
    ``[a_jk]``; if ``coherent``, ``1j (t[j, 0] / sqrt(d) + K_j / 2)`` with
    ``K`` of ``[a_jk]`` by L-site code ``j >= 1``, the ``h_j`` with a residue
    as imaginary parts. A weighted sum of tables has their weighted sums."""
    size = 4**num_sites
    codes, values = table
    rows, cols = np.divmod(codes, size)
    sums = dict(
        table=table,
        gram=merge_pauli_terms(*_string_products(cols, rows, values, num_sites, False)),
        skew=_adjoint_sum(codes, values, size, -1.0),
    )
    if dissipator is None:
        inner = (rows > 0) & (cols > 0)
        keys = (rows[inner] - 1) * (size - 1) + cols[inner] - 1
        keys, summed = _adjoint_sum(keys, values[inner], size - 1, 1.0)
        dissipator = _matrix((keys, 0.5 * summed), num_sites)
        sums["dissipator"] = dissipator._terms
    if coherent:
        raw = np.zeros(size, dtype=complex)
        column = codes % size == 0
        raw[codes[column] // size] = values[column] / np.sqrt(2.0**num_sites)
        gram_codes, gram_values = _gram(dissipator)
        raw[gram_codes] += 0.5 * gram_values
        nonzero = 1 + np.flatnonzero(raw[1:])
        sums["coherent"] = nonzero, 1j * raw[nonzero]
    return sums


def _matrix(terms, num_sites: int) -> DissipatorMatrix:
    """The ``[a_jk]`` of ``terms`` over every non-identity index."""
    return DissipatorMatrix._of(np.arange(1, 4**num_sites), terms, num_sites)


def _checks(sums: dict, num_sites: int) -> dict:
    """The checks of :func:`decompose` on :func:`_linear_sums`, by name in
    order, as stages of :func:`~floquet_lindblad.core._raise_first` with a
    flag per sum (values with leading axes are sums on the same codes):
    ``trace`` and ``Hermiticity``, ``||K||_F`` and ``||t - t^dag||_F`` within
    ``1e-8 max(1, ||t||_F / 4^L)`` (at most ``max(1, max|S|)``); ``inner``,
    the raw ``[a_jk]`` (the inner entries) Hermitian within ``max(1e-10
    max|a|, 1e-12)``; with ``coherent``, ``residue``: the ``h_j`` real within
    ``1e-8 max(1, max|h|)``."""
    size = 4**num_sites
    gram, skew, table = (np.linalg.norm(sums[k][1], axis=-1) for k in ("gram", "skew", "table"))
    limit = VALIDATION_TOL * np.fmax(1.0, table / size)
    checks = {
        what: (~(defect <= limit), NotLindbladCandidateError,
               f"superoperator is not {what} preserving within {VALIDATION_TOL:g}")
        for defect, what in ((gram, "trace"), (skew, "Hermiticity"))
    }
    raw_skew, peak = (
        np.max(np.abs(v[..., (c >= size) & (c % size > 0)]), axis=-1, initial=0.0)
        for c, v in (sums["skew"], sums["table"])
    )
    checks["inner"] = (raw_skew > np.maximum(1e-10 * peak, 1e-12), HermiticityError,
                       "extracted coefficient matrix deviates from Hermiticity by {:.3e}", raw_skew)
    if "coherent" in sums:
        coherent = sums["coherent"][1]
        residue, scale = (
            np.max(np.abs(v), axis=-1, initial=0.0) for v in (coherent.imag, coherent)
        )
        checks["residue"] = (residue > VALIDATION_TOL * np.fmax(1.0, scale),
                             DecompositionInconsistencyError,
                             "hamiltonian coefficients have imaginary residue {:.3e}", residue)
    return checks


def _hamiltonian(coherent, num_sites: int) -> HamiltonianCoefficients:
    """The ``h_j``: the real parts of the ``coherent`` sum of
    :func:`_linear_sums`."""
    values = np.zeros(4**num_sites - 1)
    values[coherent[0] - 1] = coherent[1].real
    return HamiltonianCoefficients._of(np.arange(1, 4**num_sites), values, num_sites)


def _signed_table(superop: Superoperator) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """The signed table ``t`` of ``superop`` (module docstring) as its
    nonzeros ``(codes, values)``, from its doubled Pauli sum, unchecked."""
    num_sites = _num_sites(superop)
    codes, values = _pauli_terms(superop)
    return (codes, values * _transpose_signs(codes, num_sites)), num_sites


def _form_parts(hamiltonian, dissipator: DissipatorMatrix):
    """:func:`_form_table`'s inputs for ``(H, [a_jk])``, with ``H`` given
    as coefficients, as a dense matrix (through its Pauli coefficients) or
    as None."""
    num_sites = dissipator.num_sites
    h = np.empty(0, dtype=np.int64), np.empty(0, dtype=complex)
    if isinstance(hamiltonian, HamiltonianCoefficients):
        if hamiltonian.num_sites != num_sites:
            raise DimensionMismatchError(
                f"hamiltonian on {hamiltonian.num_sites} sites, not {num_sites}"
            )
        h = hamiltonian._codes, hamiltonian.values
    elif hamiltonian is not None:
        coefficients = pauli_coefficients(hamiltonian, num_sites)
        h = np.flatnonzero(coefficients), coefficients[coefficients != 0]
    rows, cols, values = dissipator._nonzeros
    codes = dissipator._codes
    return h, [(codes[rows] * 4**num_sites + codes[cols], values)], [_gram(dissipator)]


def _form_table(h, a, gram, num_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of the signed table of a GKLS form: ``h`` is the
    L-site Pauli sum of ``H``, ``a`` lists parts ``(j 4^L + k, a_jk)`` and
    ``gram`` parts of ``K``, unmerged (equal codes add). The identity part
    of ``H`` cancels in ``t[0, 0]``."""
    size, root = 4**num_sites, np.sqrt(2.0**num_sites)
    h_codes, h_values = h
    codes = [h_codes * size, h_codes, *(c for c, _ in a)]
    values = [-1j * root * h_values, 1j * root * h_values, *(v for _, v in a)]
    for k_codes, k_values in gram:
        codes += [k_codes * size, k_codes]
        values += [-0.5 * root * k_values] * 2
    return merge_pauli_terms(np.concatenate(codes), np.concatenate(values))


def _form_superop(h, a, gram, num_sites: int) -> Superoperator:
    """The sparse superoperator of the table :func:`_form_table` writes."""
    codes, signed = _form_table(h, a, gram, num_sites)
    return Superoperator.from_pauli_terms(
        codes, signed * _transpose_signs(codes, num_sites), 2**num_sites
    )


@dataclass(frozen=True)
class Decomposition:
    """The decomposition ``(h_j, [a_jk])`` of one superoperator and its
    signed table, held as its nonzeros ``(codes, values)``."""

    hamiltonian: HamiltonianCoefficients
    dissipator: DissipatorMatrix
    table: tuple[np.ndarray, np.ndarray]

    def residual(self) -> float:
        """:func:`roundtrip_residual` of the decomposed superoperator."""
        codes, values = self.table
        form_codes, form_values = _form_table(
            *_form_parts(self.hamiltonian, self.dissipator), self.dissipator.num_sites
        )
        _, difference = _sum((codes, values), (form_codes, -form_values))
        scale = max(1.0, float(np.linalg.norm(values)))
        return float(np.linalg.norm(difference)) / scale


def decompose(superop: Superoperator) -> Decomposition:
    """Full ``[a_jk]`` and ``h_j`` of ``superop`` from one signed table,
    with the checks of :func:`extract_dissipator` and
    :func:`extract_hamiltonian` (validation included)."""
    table, num_sites = _signed_table(superop)
    sums = _linear_sums(table, num_sites)
    _raise_first(_checks(sums, num_sites).values())
    dissipator = _matrix(sums["dissipator"], num_sites)
    return Decomposition(_hamiltonian(sums["coherent"], num_sites), dissipator, table)


def _graded_pass(parts, weights, selections, weight_limit, tol_psd):
    """The certification of weighted sums of superoperators, the one pass
    behind :func:`graded_reports` and :func:`order_certificates`. ``parts``
    lists the superoperators of each order, and a row of ``weights`` gives
    one point: its order-n term is the weighted sum of order n's parts, and
    a selection ``(first, last)`` of orders is the sum of their terms,
    restricted to ``weight_limit``. Each part is decomposed once, unchecked,
    and a point's sums are the weighted sums of the parts', added a part at
    a time.

    A first pass over chunks of rows (each row stacking at most
    ``core._GRID_BYTES`` of one part's sums) runs every check of
    :func:`decompose` on every order term, as reductions over the rows; the
    first failing row raises at its first failing check. A selection's
    ``[a_jk]`` needs no Hermiticity check: each part's is ``0.5 (M +
    M^dag)``, conjugate-symmetric bit for bit, and real weights keep it so.
    A selection's blocks join the entries above their row's structural
    tolerance at any row, so a report depends on the grid only in roundoff.

    :return: ``(sums, cut, layouts, chunks)``: the stacked sums of the
        parts, the restricted index set (a :class:`DissipatorMatrix` whose
        values are column positions in the sums), each selection's
        :class:`~floquet_lindblad.core.BlockLayout`, and an iterator that
        certifies a chunk at a time: ``(reports, spectra)``, each one list
        per selection, of the chunk's :func:`psd_report` and of its
        :func:`~floquet_lindblad.core.block_eigvalsh` arrays ``(p, k, m)``.
    """
    superops = [superop for order in parts for superop in order]
    of_order = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    num_sites = _num_sites(superops[0])
    per_part = [_linear_sums(_signed_table(superop)[0], num_sites) for superop in superops]
    sums = {key: stack_pauli_terms([part[key] for part in per_part]) for key in per_part[0]}
    keys, values = sums["dissipator"]
    cut = _matrix((keys, np.arange(keys.size)), num_sites).restricted(weight_limit)
    rows, cols, kept = cut._nonzeros
    values, size = values[:, kept], cut.size
    width = sum(v.shape[1] for _, v in sums.values())  # 0 when every part is zero
    step = max(1, _GRID_BYTES // (16 * max(1, width)))
    chunks = [weights[start : start + step] for start in range(0, len(weights), step)]
    masks = [(of_order >= first) & (of_order <= last) for first, last in selections]
    above = [0.0] * len(selections)  # per entry, its largest |a| / structural tolerance
    for chunk in chunks:
        stages = []
        for order in range(len(parts)):
            term = {k: (c, _combine(chunk[:, of_order == order], v[of_order == order]))
                    for k, (c, v) in sums.items()}
            stages += _checks(term, num_sites).values()
            for s, ((_, last), mask) in enumerate(zip(selections, masks)):
                if last == order:
                    a = _combine(chunk[:, mask], values[mask])
                    peak = np.max(np.abs(a), axis=1, initial=0.0)
                    ratio = np.abs(a) / _structural_tol(peak)[:, None]
                    above[s] = np.maximum(above[s], np.max(ratio, axis=0, initial=0.0))
        _raise_first(stages)
    layouts = [coupled_components(rows, cols, peaks, 1.0)[0] for peaks in above]

    def certified():
        for chunk in chunks:
            reports, spectra = [], []
            for layout, mask in zip(layouts, masks):
                a = _combine(chunk[:, mask], values[mask])
                stacks, deltas = layout.bounded_split(rows, cols, a)
                peaks = np.max(np.abs(a), axis=1, initial=0.0)
                spectra.append(block_eigvalsh(stacks))
                reports.append(_reports(spectra[-1], deltas, peaks, tol_psd, (rows, cols, a), size))
            yield reports, spectra

    return sums, cut, layouts, certified()


def graded_reports(expansion: EffectiveExpansion, weights, orders, weight_limit, tol_psd):
    """For each row of ``weights``, the :func:`psd_report` of the cumulative
    generators of ``orders`` (restricted to ``weight_limit``) when the
    expansion's graded parts take the row's weights: :func:`_graded_pass`
    over the grid, certifying a chunk at a time."""
    parts = [[superop for *_, superop in order] for order in expansion.parts]
    *_, chunks = _graded_pass(parts, weights, [(0, n) for n in orders], weight_limit, tol_psd)
    for reports, _ in chunks:
        yield from zip(*reports)


def order_certificates(expansion: EffectiveExpansion, orders, weight_limit, tol_psd):
    """What ``analyze`` reports: :func:`_graded_pass` at one point, whose
    parts are the expansion's order terms at unit weight.

    :return: the largest entry of every order term's full ``[a_jk]``, and
        per order of ``orders`` a tuple ``(report, blocks, residual,
        term_report, term_trace)``: the :func:`psd_report` of the cumulative
        generator restricted to ``weight_limit``, its blocks as ``(indices,
        eigenvalues)`` in the order of their first index, its
        :func:`roundtrip_residual` (None under a ``weight_limit``), and the
        order term's own restricted report and trace.
    """
    terms = [[term] for term in expansion.order_terms]
    selections = sorted({(0, n) for n in orders} | {(n, n) for n in orders})
    ones = np.ones((1, len(terms)))
    sums, cut, layouts, chunks = _graded_pass(terms, ones, selections, weight_limit, tol_psd)
    ((reports, spectra),) = chunks
    keys, values = sums["dissipator"]
    num_sites, certificates = cut.num_sites, []
    for order in orders:
        s, t = selections.index((0, order)), selections.index((order, order))
        points = layouts[s].unstack([eigenvalues[0] for eigenvalues in spectra[s]])
        blocks = [(indices_of(cut._codes[block], num_sites), vals) for block, vals in points]
        residual = None
        if weight_limit is None:
            row = {k: (c, sum(v[: order + 1])) for k, (c, v) in sums.items()}
            hamiltonian = _hamiltonian(row["coherent"], num_sites)
            dissipator = _matrix(row["dissipator"], num_sites)
            residual = Decomposition(hamiltonian, dissipator, row["table"]).residual()
        term = _matrix((keys, values[order]), num_sites).restricted(weight_limit)
        certificates.append((reports[s][0], blocks, residual, reports[t][0], term.trace()))
    return [float(v) for v in np.max(np.abs(values), axis=1, initial=0.0)], certificates


def extract_dissipator(
    superop: Superoperator,
    weight_limit: int | None = None,
    validate: bool = True,
) -> DissipatorMatrix:
    """Extract the Hermitian coefficient matrix ``[a_jk]``.

    :param superop: the superoperator to decompose.
    :param weight_limit: optional pair-weight cap ``n_j + n_k``; retained
        indices then have weight in ``1..weight_limit-1`` and entries
        beyond the cap are set to exact zeros. None keeps every weight.
    :param validate: check trace and Hermiticity preservation first.
    :raises NotLindbladCandidateError: if validation fails.
    :raises HermiticityError: if the extracted (full) matrix is not
        Hermitian within tolerance (signals a corrupted input).
    """
    table, num_sites = _signed_table(superop)
    sums = _linear_sums(table, num_sites, coherent=False)
    checks = _checks(sums, num_sites)
    names = ("trace", "Hermiticity", "inner") if validate else ("inner",)
    _raise_first([checks[name] for name in names])
    return _matrix(sums["dissipator"], num_sites).restricted(weight_limit)


def extract_hamiltonian(
    superop: Superoperator,
    dissipator: DissipatorMatrix | None = None,
    validate: bool = True,
) -> HamiltonianCoefficients:
    """Extract the coherent coefficients ``h_j`` of the decomposition.

    :param dissipator: pass a previously extracted matrix to reuse it;
        it must be a full (not weight-limited) extraction so the
        correction term is complete.
    :raises DecompositionInconsistencyError: if any coefficient has an
        imaginary residue beyond tolerance, signalling an input outside
        the decomposable class.
    """
    table, num_sites = _signed_table(superop)
    sums = _linear_sums(table, num_sites, dissipator)
    checks = _checks(sums, num_sites)
    names = ("trace", "Hermiticity") if validate else ()
    names += ("inner",) if dissipator is None else ()
    _raise_first([checks[name] for name in names])
    if dissipator is not None and dissipator.weight_limit is not None:
        raise DimensionMismatchError(
            "hamiltonian extraction needs a full dissipator matrix, "
            "got a weight-limited one"
        )
    _raise_first([checks["residue"]])
    return _hamiltonian(sums["coherent"], num_sites)


def psd_report(
    dissipator: DissipatorMatrix, tol_psd: float | None = None
) -> LiouvillianityReport:
    """Certify positive semidefiniteness of a coefficient matrix.

    The default tolerance is ``1e-9 * max(1, max|a|)``; eigenvalues above
    ``-tol`` count as nonnegative. The spectrum is solved block by block,
    over the connected components of the entries above
    :meth:`DissipatorMatrix.structural_tol`: it is the ascending union of
    the block eigenvalues and one exact zero per index outside every block.
    Let delta be the largest absolute row sum of the entries outside the
    blocks: each value is within delta of the dense eigenvalue (Weyl). When
    delta exceeds ``1e-3 * tol_psd`` that bound no longer settles the
    verdict, and the spectrum comes from one block holding every index
    instead: the dense solve. A NaN eigenvalue (from a non-finite entry)
    becomes the minimum, so it never passes.
    """
    _, _, values, delta = dissipator._blocks(dissipator.structural_tol())
    rows, cols, entries = dissipator._nonzeros
    spectra = [eigenvalues[None] for eigenvalues in values]
    nonzeros = rows, cols, entries[None]
    peaks = [dissipator.max_abs()]
    (report,) = _reports(spectra, [delta], peaks, tol_psd, nonzeros, dissipator.size)
    return report


def _reports(spectra, deltas, peaks, tol_psd, nonzeros, size: int) -> list:
    """The :func:`psd_report` of each of a stack of ``size x size``
    matrices, ``nonzeros = (rows, cols, values)`` with values ``(p, nnz)``,
    from their block eigenvalues ``spectra`` (one ``(p, k, m)`` array per
    stack), their ``deltas`` and their largest entries ``peaks``."""
    rows, cols, values = nonzeros
    reports = []
    for point, (delta, peak) in enumerate(zip(deltas, peaks)):
        tol = PSD_RTOL * max(1.0, peak) if tol_psd is None else tol_psd
        spectrum = [eigenvalues[point].reshape(-1) for eigenvalues in spectra]
        if delta > BLOCK_DROP_RATIO * tol:
            whole = BlockLayout(np.zeros(size, dtype=np.int64))
            spectrum = [block_eigvalsh(whole.split(rows, cols, values[point])[0])[0].reshape(-1)]
        uncoupled = size - sum(part.size for part in spectrum)
        eigenvalues = np.sort(np.concatenate([np.zeros(uncoupled), *spectrum]))
        min_eig = float(np.min(eigenvalues)) if eigenvalues.size else 0.0
        ok = bool(min_eig >= -tol)
        breaking = 0.0 if ok else -min_eig
        reports.append(LiouvillianityReport(eigenvalues, min_eig, float(tol), ok, breaking))
    return reports


def canonical_decomposition(
    dissipator: DissipatorMatrix,
    hamiltonian: HamiltonianCoefficients | None = None,
) -> SignedLindbladForm:
    """Diagonalize ``[a_jk]`` into signed canonical channels.

    Each eigenpair ``(lam, v)`` with ``|lam|`` above the drop threshold
    becomes one channel ``A = sqrt(|lam|) sum_p v_p F_p`` with sign
    ``sign(lam)``; eigenvalues within ``1e-12`` (relative) of zero are
    dropped.
    """
    scale = max(1.0, dissipator.max_abs())
    eigenvalues, eigenvectors = herm_eigs(dissipator.entries)
    channels = []
    for position in range(eigenvalues.size):
        lam = float(eigenvalues[position])
        if abs(lam) <= CHANNEL_DROP_RTOL * scale:
            continue
        operator = np.sqrt(abs(lam)) * matrix_from_pauli_terms(
            dissipator._codes, eigenvectors[:, position], dissipator.num_sites
        )
        channels.append(
            SignedChannel(
                sign=1 if lam > 0 else -1,
                operator=operator,
                magnitude=abs(lam),
            )
        )
    h_matrix = hamiltonian.to_matrix() if hamiltonian is not None else None
    return SignedLindbladForm(h_matrix, tuple(channels), dissipator.num_sites)


@dataclass(frozen=True)
class PerOrderCheck:
    """Structural record for one expansion order.

    ``trace_ok`` is None at order zero (where the trace is positive by
    construction) and otherwise states whether ``|Tr a|`` is below the
    absolute tolerance ``1e-9``. ``report`` is the PSD verdict of the
    order's own dissipator matrix.
    """

    order: int
    dissipator: DissipatorMatrix
    trace: float
    trace_ok: bool | None
    report: LiouvillianityReport


#: Absolute tolerance on per-order dissipator traces (orders >= 1).
TRACE_TOL = 1e-9


def per_order_checks(
    expansion: EffectiveExpansion, weight_limit: int | None = None
) -> tuple[PerOrderCheck, ...]:
    """Per-order structural checks of an expansion.

    For every computed order the order term's own dissipator matrix is
    extracted; orders one and above must have vanishing trace, and the
    order-zero matrix must be positive semidefinite (it is a convex
    average of instantaneous dissipators).
    """
    checks = []
    for order in range(expansion.max_order + 1):
        dissipator = extract_dissipator(expansion.term(order), weight_limit=weight_limit)
        trace = dissipator.trace()
        trace_ok = None if order == 0 else abs(trace) <= TRACE_TOL
        checks.append(PerOrderCheck(order, dissipator, trace, trace_ok, psd_report(dissipator)))
    return tuple(checks)


def roundtrip_residual(
    superop: Superoperator,
    hamiltonian: HamiltonianCoefficients,
    dissipator: DissipatorMatrix,
) -> float:
    """Relative Frobenius residual between ``superop`` and the
    superoperator of ``(H, [a_jk])``, measured between their tables.

    :raises DimensionMismatchError: if the three act on different sites.
    """
    table, num_sites = _signed_table(superop)
    if num_sites != dissipator.num_sites:
        raise DimensionMismatchError(
            f"superoperator on {num_sites} sites, not {dissipator.num_sites}"
        )
    return Decomposition(hamiltonian, dissipator, table).residual()
