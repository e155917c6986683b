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
inner product per basis element. The way back is one scatter,
:func:`matrix_from_pauli_terms`, behind every dense matrix built here.

Sparse sums
-----------
A sparse Pauli sum is a pair ``(codes, values)`` of ascending distinct
codes and nonzero coefficients. :func:`pauli_commutator` takes the
commutator of two pair by pair, each phase from the codes' X and Z bit
masks (:func:`_masks`; Aaronson & Gottesman, PRA 70, 052328 (2004)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidIndexError

__all__ = [
    "PAULI",
    "MultiIndex",
    "FrobeniusBasis",
    "pauli_string",
    "pauli_coefficients",
    "matrix_from_pauli_coefficients",
    "embed_local",
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

#: ``1j ** p`` for a product, ``1j ** p - 1j ** -p`` for a commutator.
_PHASES = {False: 1j ** np.arange(4), True: np.array([0, 2j, 0, -2j])}

#: :func:`pauli_commutator` turns dense once ``_LOOKUP_COST * L`` per pair
#: of strings exceeds the ``8^L`` multiply-adds of a dense product. The
#: value was measured against the former per-site digit lookup (equal
#: times at 3.2e6 pairs on 10 sites, 2-core VM, OpenBLAS). The mask rule
#: made pairs cheaper: they now win up to about 35, 3.5 and 2 times the
#: switch's pair count at 6, 8 and 10 sites, and past 256 times at 4. A
#: new value would move the roundoff of reports that cross the switch.
_LOOKUP_COST = 33

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

    def __str__(self) -> str:
        labels = {0: "i", 1: "x", 2: "y", 3: "z"}
        return "".join(labels[s] for s in self.sites)


def indices_of(codes: Iterable[int], num_sites: int) -> tuple[MultiIndex, ...]:
    """The multi-indices of ``codes`` on ``num_sites`` sites, in order."""
    return tuple(MultiIndex.from_code(int(code), num_sites) for code in codes)


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
        return indices_of(selected, self.num_sites)

    @cached_property
    def weights(self) -> np.ndarray:
        """Weight of every code, indexed by code."""
        return code_weights(self.num_sites)


def _masks(codes, num_sites: int):
    """X and Z bit masks of codes on ``num_sites`` sites: bit ``2l`` is set
    where digit ``l`` is 1 or 2 (X), 2 or 3 (Z); ``F = 1j^#Y X^x Z^z /
    2^(L/2)`` with ``#Y = popcount(x & z)``. The masks of ``a ^ b`` are
    the XORs of those of ``a`` and ``b``."""
    even = (4**num_sites - 1) // 3
    return (codes ^ codes >> 1) & even, (codes >> 1) & even


def _transpose_signs(codes, num_sites: int) -> np.ndarray:
    """``(-1)^#Y`` of each code's last ``num_sites`` digits: ``F^T = (-1)^#Y F``."""
    x, z = _masks(codes, num_sites)
    return 1.0 - 2.0 * (np.bitwise_count(x & z) & 1)


@lru_cache(maxsize=None)
def code_weights(num_sites: int) -> np.ndarray:
    """Array over all 4^L codes giving each index's weight."""
    x, z = _masks(np.arange(4**num_sites), num_sites)
    return np.bitwise_count(x | z).astype(np.int64)


@lru_cache(maxsize=None)
def code_two_counts(num_sites: int) -> np.ndarray:
    """Array over all 4^L codes counting sigma^2 entries per index."""
    x, z = _masks(np.arange(4**num_sites), num_sites)
    return np.bitwise_count(x & z).astype(np.int64)


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
    tensor = tensor.transpose(interleave)
    for site in range(num_sites):
        tensor = _SITE_TRANSFORM @ tensor.reshape(4**site, 4, -1)
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
    return matrix_from_pauli_terms(np.arange(4**num_sites), coeffs, num_sites)


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


def stack_pauli_terms(terms) -> tuple[np.ndarray, np.ndarray]:
    """Sparse sums ``(codes, values)`` on the union of their codes: the
    ascending codes and one row of values per sum, zero where it lacks a
    code."""
    codes, where = np.unique(np.concatenate([c for c, _ in terms]), return_inverse=True)
    values = np.zeros((len(terms), codes.size), dtype=complex)
    rows = np.repeat(np.arange(len(terms)), [c.size for c, _ in terms])
    values[rows, where] = np.concatenate([v for _, v in terms])
    return codes, values


def _string_products(left, right, weights, num_sites: int, commutator: bool):
    """Codes and values of ``weights[i] F_left[i] F_right[i]`` (or of the
    commutators), not merged: ``F_a F_b = 1j^p F_(a ^ b) / 2^(L/2)``, ``p =
    #Y(a) + #Y(b) - #Y(a ^ b) + 2 popcount(z_a & x_b)`` mod 4 (uint8 wraps)."""
    (xa, za), (xb, zb) = _masks(left, num_sites), _masks(right, num_sites)
    power = np.bitwise_count(xa & za) + np.bitwise_count(xb & zb)
    power -= np.bitwise_count((xa ^ xb) & (za ^ zb))
    power += 2 * np.bitwise_count(za & xb)
    values = weights * (_PHASES[commutator] * 2.0 ** (-num_sites / 2.0))[power & 3]
    return (left ^ right).reshape(-1), values.reshape(-1)


def pauli_commutator(
    left: tuple[np.ndarray, np.ndarray],
    right: tuple[np.ndarray, np.ndarray],
    num_sites: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The sparse sum of ``[A, B]`` from those of ``A`` and ``B``: one
    mask-rule phase per pair of strings, ``2^16`` pairs per pass;
    commuting pairs drop out exactly. Past the pair count that
    ``_LOOKUP_COST`` sets against the ``8^L`` multiply-adds of a dense
    product, the commutator is taken densely instead: two scatters, the
    products and one transform."""
    (left_codes, left_values), (right_codes, right_values) = left, right
    if _LOOKUP_COST * num_sites * left_codes.size * right_codes.size > 8**num_sites:
        a, b = (matrix_from_pauli_terms(*terms, num_sites) for terms in (left, right))
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
    weights = values * _transpose_signs(right, num_sites)
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
    """The dense matrix of a sparse Pauli sum, by direct scatter: ``F_j``
    maps column ``c`` to row ``c ^ x`` with value ``i^#Y (-1)^popcount(c &
    z) / 2^(L/2)``, ``x`` and ``z`` the masks of :func:`_masks` with bit
    ``2p`` moved to bit ``p``. The strings sharing an ``x`` fill one
    generalized diagonal, a Walsh-Hadamard transform over ``z``, taken
    in place for all diagonals at once. This is the package's one map
    from Pauli coefficients to matrices: axes of ``values`` after the
    first are carried along, ``(n, ...) -> (2^L, 2^L, ...)``."""
    batch = np.shape(values)[1:]
    x, z = _masks(np.asarray(codes, dtype=np.int64), num_sites)
    phases = (_PHASES[False] * 2.0 ** (-num_sites / 2.0))[np.bitwise_count(x & z) & 3]
    x, z = (sum((mask >> p) & (1 << p) for p in range(num_sites)) for mask in (x, z))
    diagonals = np.flatnonzero(np.bincount(x))  # np.unique(x) imports numpy.ma
    dim = 2**num_sites
    where = np.searchsorted(diagonals, x), z
    columns = np.zeros((diagonals.size, dim) + batch, dtype=complex)
    columns[where] = values
    grid = np.zeros((diagonals.size, dim), dtype=complex)
    grid[where] = phases
    columns *= grid.reshape(grid.shape + (1,) * len(batch))  # no temporary of the values' size
    for stride in (2**bit for bit in range(num_sites)):  # one butterfly per bit
        pairs = columns.reshape((-1, 2, stride) + batch)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(low, pairs[:, 1], out=pairs[:, 1])
    out, index = np.zeros((dim, dim) + batch, dtype=complex), np.arange(dim)
    out[diagonals[:, None] ^ index, index] = columns
    return out


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
