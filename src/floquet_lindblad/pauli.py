"""Multi-site Pauli strings and the normalized Frobenius operator basis.

The basis element attached to a multi-index ``j = (j_0, ..., j_{L-1})``
with ``j_l`` in ``{0, 1, 2, 3}`` is::

    F_j = 2^(-L/2) * sigma^{j_0} x sigma^{j_1} x ... x sigma^{j_{L-1}}

where ``x`` is the Kronecker product, site 0 is the leftmost factor and
``sigma^0`` is the identity. These elements are Hermitian and orthonormal
in the Frobenius inner product, so any operator on ``L`` spin-1/2 sites
expands as ``M = sum_j c_j F_j`` with ``c_j = Tr[F_j M]``.

Codes
-----
A multi-index is packed into an integer code ``sum_l j_l * 4^(L-1-l)``
(site 0 most significant). The fast transforms below return coefficient
arrays indexed by code, which keeps superoperator-sized transforms (2L
sites) cheap: one unitary 4 x 4 contraction per site instead of a dense
inner product per basis element.

Sparse sums
-----------
A sparse Pauli sum is a pair ``(codes, values)`` of ascending distinct
codes and nonzero coefficients. :func:`pauli_commutator` takes the
commutator of two by digit lookup, one per site and pair of strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidIndexError

__all__ = [
    "PAULI",
    "PAULI_PRODUCT_INDEX",
    "PAULI_PRODUCT_PHASE",
    "MultiIndex",
    "FrobeniusBasis",
    "pauli_string",
    "pauli_coefficients",
    "matrix_from_pauli_coefficients",
    "quadratic_product_coefficients",
    "pauli_commutator",
    "embed_local",
    "code_weights",
    "code_two_counts",
]

#: The four single-site Pauli matrices, indexed 0..3.
PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def _build_product_tables() -> tuple[np.ndarray, np.ndarray]:
    """Multiplication table of the single-site Pauli group.

    ``sigma^a sigma^b = phase[a, b] * sigma^{index[a, b]}`` with the phase
    in ``{1, -1, 1j, -1j}``.
    """
    index = np.zeros((4, 4), dtype=np.int64)
    phase = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            product = PAULI[a] @ PAULI[b]
            for c in range(4):
                overlap = np.trace(PAULI[c].conj().T @ product) / 2.0
                if abs(overlap) > 0.5:
                    index[a, b] = c
                    phase[a, b] = complex(overlap)
                    break
    return index, phase


PAULI_PRODUCT_INDEX, PAULI_PRODUCT_PHASE = _build_product_tables()

#: ``PAULI_PRODUCT_PHASE[a, b] = 1j ** _PHASE_POWER[4 a + b]``, while
#: ``PAULI_PRODUCT_INDEX[a, b] = a ^ b``, so whole codes multiply by XOR.
_PHASE_POWER = (np.rint(np.angle(PAULI_PRODUCT_PHASE) / (np.pi / 2)) % 4).astype(
    np.uint8
).reshape(-1)

#: ``1j ** p`` for a product, ``1j ** p - 1j ** -p`` for a commutator.
_PHASES = {False: 1j ** np.arange(4), True: np.array([0, 2j, 0, -2j])}

#: One digit lookup of :func:`pauli_commutator` costs about as much as this
#: many multiply-adds of a dense product (equal times at 2.6e6 string
#: pairs on 10 sites, measured on a 2-core VM with OpenBLAS). Checked on
#: random strings at 4, 6, 8 and 10 sites: the pairs stay faster up to
#: about 120, 8, 2.5 and 0.9 times the pair count where this rule turns
#: dense, so on fewer sites it turns dense early, at a cost of at most
#: 1 ms a commutator on 6 sites or fewer and 2.7x on 8.
_LOOKUP_COST = 40

#: Per-site transform with rows (1/sqrt(2)) vec(conj(sigma^p)); unitary.
_SITE_TRANSFORM = (PAULI.conj().reshape(4, 4) / np.sqrt(2.0)).copy()


@dataclass(frozen=True, order=True)
class MultiIndex:
    """A Pauli multi-index: one entry in {0, 1, 2, 3} per site.

    Instances are immutable, hashable and ordered lexicographically by
    their site tuple, which coincides with ordering by code.
    """

    sites: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.sites, tuple):
            object.__setattr__(self, "sites", tuple(self.sites))
        if len(self.sites) == 0:
            raise InvalidIndexError("multi-index needs at least one site")
        for entry in self.sites:
            if not isinstance(entry, (int, np.integer)) or not 0 <= int(entry) <= 3:
                raise InvalidIndexError(
                    f"multi-index entries must be integers in 0..3, got {entry!r}"
                )
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))

    @classmethod
    def from_code(cls, code: int, num_sites: int) -> "MultiIndex":
        """Unpack an integer code (site 0 most significant)."""
        if not 0 <= code < 4**num_sites:
            raise InvalidIndexError(
                f"code {code} out of range for {num_sites} sites"
            )
        digits = []
        for position in range(num_sites):
            shift = 2 * (num_sites - 1 - position)
            digits.append((code >> shift) & 3)
        return cls(tuple(digits))

    @classmethod
    def single_site(
        cls, site: int, pauli: int, num_sites: int
    ) -> "MultiIndex":
        """The weight-one index with ``pauli`` at ``site``, identity elsewhere."""
        if not 0 <= site < num_sites:
            raise InvalidIndexError(f"site {site} out of range")
        digits = [0] * num_sites
        digits[site] = pauli
        return cls(tuple(digits))

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def weight(self) -> int:
        """Number of non-identity entries."""
        return sum(1 for s in self.sites if s != 0)

    @property
    def code(self) -> int:
        """Integer packing with site 0 as the most significant digit."""
        value = 0
        for entry in self.sites:
            value = (value << 2) | entry
        return value

    @property
    def two_count(self) -> int:
        """Number of sites carrying sigma^2 (entries equal to 2)."""
        return sum(1 for s in self.sites if s == 2)

    def concat(self, other: "MultiIndex") -> "MultiIndex":
        """Concatenate site tuples (used for doubled-space indices)."""
        return MultiIndex(self.sites + other.sites)

    def __str__(self) -> str:
        labels = {0: "i", 1: "x", 2: "y", 3: "z"}
        return "".join(labels[s] for s in self.sites)


def pauli_string(
    indices: "MultiIndex | Sequence[int]", num_sites: int | None = None
) -> np.ndarray:
    """Normalized Pauli string ``F_j`` for a multi-index.

    :param indices: a :class:`MultiIndex` or a plain sequence of entries.
    :param num_sites: optional length check against the index.
    """
    index = indices if isinstance(indices, MultiIndex) else MultiIndex(tuple(indices))
    if num_sites is not None and index.num_sites != num_sites:
        raise DimensionMismatchError(
            f"index has {index.num_sites} sites, expected {num_sites}"
        )
    out = np.array([[1.0 + 0.0j]])
    for entry in index.sites:
        out = np.kron(out, PAULI[entry])
    return out * (2.0 ** (-index.num_sites / 2.0))


@dataclass(frozen=True)
class FrobeniusBasis:
    """The full normalized Pauli basis on ``num_sites`` spin-1/2 sites."""

    num_sites: int

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise DimensionMismatchError("num_sites must be at least 1")

    @property
    def dim(self) -> int:
        """Hilbert space dimension 2^L."""
        return 2**self.num_sites

    @property
    def size(self) -> int:
        """Number of basis elements 4^L."""
        return 4**self.num_sites

    def element(self, index: "MultiIndex | int") -> np.ndarray:
        """Basis element for a multi-index or integer code."""
        if isinstance(index, (int, np.integer)):
            index = MultiIndex.from_code(int(index), self.num_sites)
        return pauli_string(index, self.num_sites)

    def indices(
        self, min_weight: int = 0, max_weight: int | None = None
    ) -> tuple[MultiIndex, ...]:
        """All multi-indices with weight in ``[min_weight, max_weight]``,
        ordered by code."""
        cap = self.num_sites if max_weight is None else max_weight
        weights = code_weights(self.num_sites)
        selected = np.nonzero((weights >= min_weight) & (weights <= cap))[0]
        return tuple(
            MultiIndex.from_code(int(code), self.num_sites) for code in selected
        )

    @cached_property
    def weights(self) -> np.ndarray:
        """Weight of every code, indexed by code."""
        return code_weights(self.num_sites)


# One table at a time: on 12 sites it takes 200 MB.
@lru_cache(maxsize=1)
def _code_digits(num_sites: int) -> np.ndarray:
    """The ``L`` base-4 digits of every code, ``(L, 4^L)``, one row per
    site (least significant first)."""
    codes = np.arange(4**num_sites, dtype=np.int64)
    digits = np.empty((num_sites, codes.size), dtype=np.uint8)
    for position, row in enumerate(digits):
        row[:] = (codes >> (2 * position)) & 3
    return digits


@lru_cache(maxsize=None)
def code_weights(num_sites: int) -> np.ndarray:
    """Array over all 4^L codes giving each index's weight."""
    return np.sum(_code_digits(num_sites) != 0, axis=0, dtype=np.int64)


@lru_cache(maxsize=None)
def code_two_counts(num_sites: int) -> np.ndarray:
    """Array over all 4^L codes counting sigma^2 entries per index."""
    return np.sum(_code_digits(num_sites) == 2, axis=0, dtype=np.int64)


def _as_site_tensor(matrix: np.ndarray, num_sites: int) -> np.ndarray:
    dim = 2**num_sites
    arr = np.asarray(matrix, dtype=complex)
    if arr.shape != (dim, dim):
        raise DimensionMismatchError(
            f"expected shape {(dim, dim)} for {num_sites} sites, got {arr.shape}"
        )
    return arr


def pauli_coefficients(matrix: np.ndarray, num_sites: int) -> np.ndarray:
    """Coefficients ``c[code(j)] = Tr[F_j M]`` for all 4^L basis elements.

    Runs in ``O(L 4^(L+1))`` by applying one unitary 4 x 4 transform per
    site instead of 4^L dense traces. The returned array is indexed by
    code.
    """
    arr = _as_site_tensor(matrix, num_sites)
    tensor = arr.reshape((2,) * (2 * num_sites))
    interleave = [
        axis for site in range(num_sites) for axis in (site, num_sites + site)
    ]
    tensor = tensor.transpose(interleave).reshape((4,) * num_sites)
    for axis in range(num_sites):
        tensor = np.moveaxis(
            np.tensordot(_SITE_TRANSFORM, tensor, axes=([1], [axis])), 0, axis
        )
    return tensor.reshape(-1)


def matrix_from_pauli_coefficients(
    coefficients: np.ndarray, num_sites: int
) -> np.ndarray:
    """Inverse of :func:`pauli_coefficients`: assemble ``sum_j c_j F_j``.
    Axes after the first are carried along, ``(4^L, ...) -> (2^L, 2^L, ...)``."""
    coeffs = np.asarray(coefficients, dtype=complex)
    if coeffs.shape[:1] != (4**num_sites,):
        raise DimensionMismatchError(
            f"expected {4 ** num_sites} coefficients, got shape {coeffs.shape}"
        )
    batch = coeffs.shape[1:]
    tensor = coeffs.reshape((4,) * num_sites + batch)
    inverse = _SITE_TRANSFORM.conj().T
    for axis in range(num_sites):
        tensor = np.moveaxis(
            np.tensordot(inverse, tensor, axes=([1], [axis])), 0, axis
        )
    # Site digits (i_l, j_l) in pairs, reordered to all i, then all j.
    tensor = tensor.reshape((2, 2) * num_sites + batch)
    columns = range(1, 2 * num_sites, 2)
    tensor = np.moveaxis(tensor, columns, range(num_sites, 2 * num_sites))
    return tensor.reshape((2**num_sites,) * 2 + batch)


def quadratic_product_coefficients(
    codes: np.ndarray, entries: np.ndarray, num_sites: int
) -> np.ndarray:
    """Pauli coefficients of ``K = sum_{jk} entries[j, k] F_k F_j``.

    ``codes`` lists the multi-index codes behind the rows/columns of
    ``entries``. Products of two basis elements are again (phased) basis
    elements, ``F_k F_j = 2^(-L/2) prod_l phase(k_l, j_l) F_{k*j}``, so
    the assembly reduces to table lookups. Returns the coefficient array
    of ``K`` indexed by code.

    :param codes: integer array of shape ``(n,)``.
    :param entries: coefficient matrix of shape ``(n, n)``.
    :param num_sites: number of sites ``L``.
    """
    codes = np.asarray(codes, dtype=np.int64)
    entries = np.asarray(entries, dtype=complex)
    if entries.shape != (codes.size, codes.size):
        raise DimensionMismatchError(
            f"entries shape {entries.shape} does not match {codes.size} codes"
        )
    k_pos, j_pos = np.nonzero(entries.T != 0)
    coefficients = np.zeros(4**num_sites, dtype=complex)
    np.add.at(
        coefficients,
        *_string_products(
            codes[k_pos], codes[j_pos], entries[j_pos, k_pos], num_sites, False
        ),
    )
    return coefficients


def merge_pauli_terms(
    codes: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The sparse sum of listed terms: equal codes added, exact zeros
    dropped. A list as long as its code range is summed in that range."""
    direct = codes.size and codes.max() < codes.size
    slots, inverse = (None, codes) if direct else np.unique(codes, return_inverse=True)
    sums = np.zeros(codes.max() + 1 if direct else slots.size, dtype=complex)
    np.add.at(sums, inverse, values)
    kept = np.flatnonzero(sums)
    return (kept if direct else slots[kept]), sums[kept]


def _string_products(left, right, weights, num_sites: int, commutator: bool):
    """Codes and values of ``weights[i] F_left[i] F_right[i]`` (or of the
    commutators), not merged: ``F_a F_b = 2^(-L/2) prod_l 1j^p(a_l, b_l)
    F_(a ^ b)``."""
    left, right = np.broadcast_arrays(left, right)
    power = np.zeros(left.shape, dtype=np.uint8)  # only p mod 4 matters
    for shift in range(0, 2 * num_sites, 2):
        power += _PHASE_POWER[(((left >> shift) & 3) << 2) | ((right >> shift) & 3)]
    values = weights * (_PHASES[commutator] * 2.0 ** (-num_sites / 2.0))[power & 3]
    return (left ^ right).reshape(-1), values.reshape(-1)


def pauli_commutator(
    left: tuple[np.ndarray, np.ndarray],
    right: tuple[np.ndarray, np.ndarray],
    num_sites: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The sparse sum of ``[A, B]`` from those of ``A`` and ``B``: one
    digit lookup per site and pair of strings, ``2^16`` pairs per pass;
    commuting pairs drop out exactly. When the lookups would cost more
    than the ``8^L`` multiply-adds of a dense product, the commutator is
    taken densely instead, through the transforms."""
    (left_codes, left_values), (right_codes, right_values) = left, right
    if _LOOKUP_COST * num_sites * left_codes.size * right_codes.size > 8**num_sites:
        a = matrix_from_pauli_terms(left_codes, left_values, num_sites)
        b = matrix_from_pauli_terms(right_codes, right_values, num_sites)
        coefficients = pauli_coefficients(a @ b - b @ a, num_sites)
        codes = np.flatnonzero(coefficients)
        return codes, coefficients[codes]
    return _merged_passes(
        left_codes.size,
        right_codes.size,
        lambda rows: _string_products(
            left_codes[rows, None],
            right_codes,
            left_values[rows, None] * right_values,
            num_sites,
            True,
        ),
    )


def pauli_transfer(
    codes: np.ndarray, values: np.ndarray, num_sites: int
) -> tuple[np.ndarray, np.ndarray]:
    """The transfer matrix ``R[a, b] = Tr[F_a S(F_b)]`` on ``num_sites``
    sites of ``S = sum_i values[i] F_codes[i]`` on twice as many, as a
    sparse sum over positions ``a 4^L + b``. Row-major ``F_j x F_k`` maps
    ``F_b`` to ``F_j F_b F_k^T``, and ``F_k^T`` is ``F_k`` times ``-1``
    per ``sigma^2``: two passes of string products."""
    size = 4**num_sites
    left, right = np.divmod(codes, size)
    weights = values * (1 - 2 * (code_two_counts(num_sites)[right] & 1))
    columns = np.arange(size)

    def entries(rows):
        middle, partial = _string_products(
            left[rows, None], columns, weights[rows, None], num_sites, False
        )
        outer = np.repeat(right[rows], size)
        targets, products = _string_products(middle, outer, partial, num_sites, False)
        return targets * size + np.tile(columns, outer.size // size), products

    return _merged_passes(codes.size, size, entries)


def _merged_passes(count: int, width: int, terms):
    """The sparse sum of ``terms(rows)`` over slices of ``count`` rows of
    ``width`` terms each, ``2^16`` terms per pass."""
    parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=complex))]
    step = max(1, 2**16 // max(1, width))
    for start in range(0, count, step):
        parts.append(merge_pauli_terms(*terms(slice(start, start + step))))
    codes, values = zip(*parts)
    return merge_pauli_terms(np.concatenate(codes), np.concatenate(values))


def matrix_from_pauli_terms(
    codes: np.ndarray, values: np.ndarray, num_sites: int
) -> np.ndarray:
    """The dense matrix of a sparse Pauli sum (one inverse transform)."""
    coefficients = np.zeros(4**num_sites, dtype=complex)
    coefficients[codes] = values
    return matrix_from_pauli_coefficients(coefficients, num_sites)


def embed_local(
    operator: np.ndarray, sites: Iterable[int], num_sites: int
) -> np.ndarray:
    """Embed a local operator on ``sites`` into the full L-site space.

    :param operator: a ``2^m x 2^m`` matrix acting on the ordered tuple
        ``sites`` (first tensor factor of ``operator`` is ``sites[0]``).
    :param sites: distinct site labels in ``0..num_sites-1``.
    :param num_sites: total number of sites.
    """
    site_list = _checked_sites(sites, num_sites)
    count = len(site_list)
    local_dim = 2**count
    arr = np.asarray(operator, dtype=complex)
    if arr.shape != (local_dim, local_dim):
        raise DimensionMismatchError(
            f"operator shape {arr.shape} does not match {count} sites"
        )
    rest = [s for s in range(num_sites) if s not in site_list]
    order = site_list + rest
    full = np.kron(arr, np.eye(2 ** len(rest), dtype=complex))
    tensor = full.reshape((2,) * (2 * num_sites))
    inverse = np.argsort(order)
    perm = list(inverse) + [num_sites + int(p) for p in inverse]
    dim = 2**num_sites
    return tensor.transpose(perm).reshape(dim, dim)


def _checked_sites(sites: Iterable[int], num_sites: int) -> list[int]:
    site_list = [int(s) for s in sites]
    if len(set(site_list)) != len(site_list):
        raise InvalidIndexError(f"duplicate sites in {site_list}")
    for site in site_list:
        if not 0 <= site < num_sites:
            raise InvalidIndexError(f"site {site} out of range for {num_sites} sites")
    return site_list


def _embedded_codes(sites: Iterable[int], num_sites: int) -> np.ndarray:
    """The L-site code of every code on the ordered tuple ``sites``
    (indexed by local code), identity on the other sites: the index of
    ``F_j`` embedded by :func:`embed_local`."""
    site_list = _checked_sites(sites, num_sites)
    local = np.arange(4 ** len(site_list))
    codes = np.zeros_like(local)
    for position, site in enumerate(reversed(site_list)):
        codes |= ((local >> 2 * position) & 3) << 2 * (num_sites - 1 - site)
    return codes
