"""Piecewise-constant Lindblad drives and their vectorized superoperators.

A density matrix evolves under ``d rho / dt = L(t) rho`` with the GKLS
generator

    L rho = -i [H, rho]
            + sum_i gamma_i (L_i rho L_i^dag
                             - (1/2) {L_i^dag L_i, rho}).

With row-major vectorization (``vec(A rho B) = (A x B^T) vec(rho)``) the
generator becomes the matrix

    S = -i (H x I - I x H^T)
        + sum_i gamma_i (L_i x conj(L_i)
                         - (1/2) (L_i^dag L_i x I + I x L_i^T conj(L_i))).

It is built one way, as a sparse doubled Pauli sum: the L-site Pauli
coefficients of ``H``, each ``L_i`` and each ``L_i^dag L_i`` are written
into the signed table of :mod:`floquet_lindblad.liouvillianity`, and the
dense matrix is scattered from the sum on first use.

Drives are piecewise constant over one period: each
:class:`LindbladSegment` holds a duration plus Hamiltonian and jump terms
with declared site supports, and a :class:`PiecewiseLiouvillian` strings
segments together (half-open in time: segment boundaries belong to the
next segment). The supported envelope is at most 6 sites (Hilbert space
dimension 64).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import devectorize, vectorize
from .errors import DimensionMismatchError
from .pauli import (
    _embedded_codes,
    embed_local,
    matrix_from_pauli_terms,
    merge_pauli_terms,
    pauli_coefficients,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .liouvillianity import DissipatorMatrix, HamiltonianCoefficients

__all__ = [
    "MAX_NUM_SITES",
    "HamiltonianTerm",
    "JumpTerm",
    "LindbladSegment",
    "PiecewiseLiouvillian",
    "Superoperator",
    "liouvillian_superop",
    "lindblad_form_superop",
    "apply_superop",
    "is_trace_preserving",
    "is_hermiticity_preserving",
]

#: Largest supported number of spin-1/2 sites (Hilbert dimension 2^6).
MAX_NUM_SITES = 6

#: L-site Pauli coefficients of a segment's ``H``, ``L_i`` or
#: ``L_i^dag L_i`` at or below this fraction of that operator's own
#: largest one are transform roundoff, dropped from the sparse build.
INPUT_RTOL = 1e-14


def _check_term(
    matrix: np.ndarray, sites: tuple[int, ...] | None, what: str
) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(
            f"{what} must be square, got shape {arr.shape}"
        )
    if sites is not None:
        expected = 2 ** len(sites)
        if arr.shape != (expected, expected):
            raise DimensionMismatchError(
                f"{what} on sites {sites} must have shape "
                f"{(expected, expected)}, got {arr.shape}"
            )
    if not np.isfinite(arr).all():
        raise DimensionMismatchError(f"{what} has non-finite entries")
    return arr


def _embed_term(
    matrix: np.ndarray, sites: tuple[int, ...] | None, num_sites: int
) -> np.ndarray:
    dim = 2**num_sites
    if sites is None:
        if matrix.shape != (dim, dim):
            raise DimensionMismatchError(
                f"term without declared support must act on the full "
                f"space, expected shape {(dim, dim)}, got {matrix.shape}"
            )
        return matrix
    return embed_local(matrix, sites, num_sites)


class _Term:
    """The site normalization, matrix check and embedding of a term
    class, whose matrix ``_what`` names in errors."""

    def __post_init__(self) -> None:
        sites = self.sites
        if sites is not None:
            sites = tuple(int(s) for s in sites)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "matrix", _check_term(self.matrix, sites, self._what))

    def embedded(self, num_sites: int) -> np.ndarray:
        return _embed_term(self.matrix, self.sites, num_sites)


@dataclass(frozen=True)
class HamiltonianTerm(_Term):
    """One Hamiltonian summand with an optionally declared site support.

    ``matrix`` acts on the ordered tuple ``sites`` (its first tensor
    factor is ``sites[0]``) and must be Hermitian. ``sites=None`` marks a
    full-space matrix with undeclared support; structure checks that need
    supports reject such terms.
    """

    matrix: np.ndarray
    sites: tuple[int, ...] | None
    _what = "Hamiltonian term"


@dataclass(frozen=True)
class JumpTerm(_Term):
    """One jump channel: operator, nonnegative rate, optional support."""

    rate: float
    matrix: np.ndarray
    sites: tuple[int, ...] | None
    _what = "jump operator"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "rate", float(self.rate))
        if not 0.0 <= self.rate < np.inf:
            raise DimensionMismatchError(
                f"jump rate must be finite and nonnegative, got {self.rate}"
            )


@dataclass(frozen=True)
class LindbladSegment:
    """A constant GKLS generator held for a fixed duration."""

    duration: float
    hamiltonian_terms: tuple[HamiltonianTerm, ...] = ()
    jump_terms: tuple[JumpTerm, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "duration", float(self.duration))
        object.__setattr__(
            self, "hamiltonian_terms", tuple(self.hamiltonian_terms)
        )
        object.__setattr__(self, "jump_terms", tuple(self.jump_terms))
        if not np.isfinite(self.duration):
            raise DimensionMismatchError(f"segment duration must be finite, got {self.duration}")
        if self.duration <= 0.0:
            raise DimensionMismatchError(
                f"segment duration must be positive, got {self.duration}"
            )

    def hamiltonian(self, num_sites: int) -> np.ndarray:
        """Total Hamiltonian embedded in the full space."""
        dim = 2**num_sites
        total = np.zeros((dim, dim), dtype=complex)
        for term in self.hamiltonian_terms:
            total += term.embedded(num_sites)
        return total

    def jumps(self, num_sites: int) -> tuple[tuple[float, np.ndarray], ...]:
        """Rate and embedded operator for every jump channel."""
        return tuple(
            (term.rate, term.embedded(num_sites)) for term in self.jump_terms
        )


class Superoperator:
    """A superoperator on a ``system_dim``-dimensional system.

    ``matrix`` acts on row-major vectorized density matrices. A sparse
    superoperator (:meth:`from_pauli_terms`) materializes it on first
    use, once; ``+``, ``-``, scalar ``*`` and :meth:`norm` stay sparse
    when every operand is. Treated as immutable.
    """

    def __init__(self, matrix: np.ndarray, system_dim: int) -> None:
        arr = np.asarray(matrix, dtype=complex)
        expected = system_dim**2
        if arr.shape != (expected, expected):
            raise DimensionMismatchError(
                f"superoperator for dimension {system_dim} must have "
                f"shape {(expected, expected)}, got {arr.shape}"
            )
        self._matrix, self.system_dim = arr, system_dim
        #: ``(codes, values)`` of a sparse superoperator, else None.
        self.pauli_terms: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_pauli_terms(
        cls, codes: np.ndarray, values: np.ndarray, system_dim: int
    ) -> "Superoperator":
        """``sum_i values[i] F_codes[i]`` over the doubled (2L-site) Pauli
        basis, ``system_dim = 2^L``, codes ascending and distinct; the
        code of ``F_j x F_k`` is ``code(j) 4^L + code(k)``."""
        codes = np.asarray(codes, dtype=np.int64)
        values = np.asarray(values, dtype=complex)
        if system_dim < 2 or system_dim & (system_dim - 1):
            raise DimensionMismatchError(f"dimension {system_dim} is not 2^L")
        if codes.ndim != 1 or codes.shape != values.shape or (
            codes.size and (codes[0] < 0 or codes[-1] >= system_dim**4)
        ) or (codes[1:] <= codes[:-1]).any():
            raise DimensionMismatchError(
                "Pauli terms need ascending distinct codes below 4^(2L), "
                "one value each"
            )
        superop = cls.__new__(cls)
        superop._matrix, superop.system_dim = None, system_dim
        superop.pauli_terms = (codes, values)
        return superop

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            sites = 2 * _num_sites(self)
            self._matrix = matrix_from_pauli_terms(*self.pauli_terms, sites)
        return self._matrix

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply to a density matrix, returning a matrix."""
        return apply_superop(self, rho)

    def __add__(self, other: "Superoperator") -> "Superoperator":
        return _weighted_sum((1.0, 1.0), (self, other), self.system_dim)

    def __sub__(self, other: "Superoperator") -> "Superoperator":
        return _weighted_sum((1.0, -1.0), (self, other), self.system_dim)

    def __mul__(self, scalar: complex) -> "Superoperator":
        return _weighted_sum((scalar,), (self,), self.system_dim)

    __rmul__ = __mul__

    def norm(self) -> float:
        """Frobenius norm of the matrix (the 2-norm of a sparse one's
        values: the Pauli basis is orthonormal)."""
        if self.pauli_terms is not None:
            return float(np.linalg.norm(self.pauli_terms[1]))
        return float(np.linalg.norm(self.matrix))


def _num_sites(superop: Superoperator) -> int:
    """The number of sites L of a superoperator on ``2^L``-dimensional
    states; another dimension raises :class:`DimensionMismatchError`."""
    dim = int(superop.system_dim)
    if dim < 1 or dim & (dim - 1):
        raise DimensionMismatchError(f"system dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def _pauli_terms(superop: Superoperator) -> tuple[np.ndarray, np.ndarray]:
    """The doubled Pauli sum ``(codes, values)`` of any superoperator: a
    sparse one's own terms, a dense one's nonzero coefficients from one
    2L-site transform."""
    if superop.pauli_terms is not None:
        return superop.pauli_terms
    sites = 2 * _num_sites(superop)
    coefficients = pauli_coefficients(superop.matrix, sites)
    codes = np.flatnonzero(coefficients)
    return codes, coefficients[codes]


def _weighted_sum(weights, superops, system_dim: int) -> Superoperator:
    """``sum_i weights[i] superops[i]``: sparse, scaled in place and merged
    once, when every summand is sparse, else dense."""
    for superop in superops:
        if superop.system_dim != system_dim:
            raise DimensionMismatchError(
                f"system dimensions differ: {system_dim} vs {superop.system_dim}"
            )
    parts = [superop.pauli_terms for superop in superops]
    if None in parts:
        matrix = sum(w * superop.matrix for w, superop in zip(weights, superops))
        return Superoperator(matrix, system_dim)
    codes = np.concatenate([np.empty(0, dtype=np.int64)] + [c for c, _ in parts])
    values = np.concatenate([np.empty(0, dtype=complex)] + [v for _, v in parts])
    start = 0
    for weight, (part, _) in zip(weights, parts):
        values[start : start + part.size] *= weight  # in place: no copies
        start += part.size
    return Superoperator.from_pauli_terms(*merge_pauli_terms(codes, values), system_dim)


@dataclass(frozen=True)
class PiecewiseLiouvillian:
    """A time-periodic drive made of constant segments.

    Segment ``s`` is active on the half-open window
    ``[t_s, t_s + duration_s)``; the period is the sum of durations.
    """

    segments: tuple[LindbladSegment, ...]
    num_sites: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise DimensionMismatchError("drive needs at least one segment")
        if not 1 <= self.num_sites <= MAX_NUM_SITES:
            raise DimensionMismatchError(
                f"num_sites must be in 1..{MAX_NUM_SITES}, got {self.num_sites}"
            )

    @property
    def period(self) -> float:
        return float(sum(seg.duration for seg in self.segments))

    @property
    def dim(self) -> int:
        return 2**self.num_sites

    @cached_property
    def segment_superops(self) -> tuple[Superoperator, ...]:
        """:meth:`segment_generators` as dense superoperators."""
        return tuple(
            Superoperator(generator.matrix, self.dim)
            for generator in self.segment_generators()
        )

    def segment_generators(self) -> tuple[Superoperator, ...]:
        """The constant generator of every segment as a sparse doubled
        Pauli sum, built once, each term transformed on its own sites."""
        return self._segment_generators

    @cached_property
    def _segment_generators(self) -> tuple[Superoperator, ...]:
        return tuple(
            _generator(
                self.num_sites,
                [(term.matrix, term.sites) for term in seg.hamiltonian_terms],
                [(jump.rate, jump.matrix, jump.sites) for jump in seg.jump_terms],
            )
            for seg in self.segments
        )

    @cached_property
    def segment_windows(self) -> tuple[tuple[float, float], ...]:
        """Start and end time of every segment within one period."""
        windows = []
        start = 0.0
        for seg in self.segments:
            windows.append((start, start + seg.duration))
            start += seg.duration
        return tuple(windows)


def _significant(num_sites: int, terms):
    """Codes and values of the L-site Pauli coefficients of the sum of
    the ``(matrix, sites)`` terms above ``INPUT_RTOL`` times their largest
    magnitude. Each term is transformed on its own sites (all of them if
    undeclared), as ``Tr[(F_j x 1) (M x 1)] = 2^((L-k)/2) Tr[F_j M]``."""
    total = np.zeros(4**num_sites, dtype=complex)
    for matrix, support in terms:
        if support is None:  # every site, in order: indexed by code
            total += pauli_coefficients(_embed_term(matrix, None, num_sites), num_sites)
        else:
            scale = 2.0 ** ((num_sites - len(support)) / 2)
            codes = _embedded_codes(support, num_sites)
            total[codes] += scale * pauli_coefficients(matrix, len(support))
    magnitudes = np.abs(total)
    codes = np.flatnonzero(magnitudes > INPUT_RTOL * magnitudes.max())
    return codes, total[codes]


def _generator(num_sites: int, hamiltonian_terms, jumps) -> Superoperator:
    """The sparse GKLS generator of Hamiltonian terms ``(matrix, sites)``
    and jumps ``(rate, matrix, sites)``: from the significant coefficients
    ``h``, ``u``, ``g`` of ``H``, each ``L`` and each ``L^dag L``, the
    table writer gets ``a_jk = sum rate u_j conj(u_k)`` (identity index
    included) and ``K = sum rate g``."""
    # liouvillianity owns the table layout and imports this module.
    from .liouvillianity import _form_superop

    size = 4**num_sites
    a, gram = [], []
    for rate, matrix, sites in jumps:
        u_codes, u = _significant(num_sites, [(matrix, sites)])
        a.append((
            (u_codes[:, None] * size + u_codes).reshape(-1),
            rate * np.outer(u, u.conj()).reshape(-1),
        ))
        g_codes, g = _significant(num_sites, [(matrix.conj().T @ matrix, sites)])
        gram.append((g_codes, rate * g))
    return _form_superop(_significant(num_sites, hamiltonian_terms), a, gram, num_sites)


def liouvillian_superop(
    hamiltonian: np.ndarray | None,
    jumps: Sequence[tuple[float, np.ndarray]] = (),
    *,
    system_dim: int | None = None,
) -> Superoperator:
    """Vectorized GKLS generator for a Hamiltonian and jump channels, as
    a sparse doubled Pauli sum.

    :param hamiltonian: Hermitian matrix or None for no coherent part.
    :param jumps: pairs ``(rate, operator)``. Rates may carry either sign;
        negative values build the formal signed form used by the canonical
        decomposition.
    :param system_dim: required if ``hamiltonian`` is None.
    :raises DimensionMismatchError: for a dimension other than ``2^L``
        (``L >= 1``), mismatched shapes, or a non-finite entry or rate.
    """
    if hamiltonian is None:
        if system_dim is None:
            raise DimensionMismatchError(
                "system_dim is required when hamiltonian is None"
            )
        dim, coherent = int(system_dim), []
    else:
        hamiltonian = _check_term(hamiltonian, None, "hamiltonian")
        dim, coherent = len(hamiltonian), [(hamiltonian, None)]
        if system_dim is not None and system_dim != dim:
            raise DimensionMismatchError(
                f"system_dim {system_dim} does not match hamiltonian "
                f"dimension {dim}"
            )
    if dim < 2 or dim & (dim - 1):
        raise DimensionMismatchError(f"dimension {dim} is not 2^L")
    terms = []
    for rate, operator in jumps:
        op = _check_term(operator, None, "jump operator")
        if op.shape != (dim, dim) or not np.isfinite(rate):
            raise DimensionMismatchError(
                f"a jump needs a finite rate and shape {(dim, dim)}, got {rate}, {op.shape}"
            )
        terms.append((rate, op, None))
    return _generator(dim.bit_length() - 1, coherent, terms)


def lindblad_form_superop(
    hamiltonian: "HamiltonianCoefficients | np.ndarray | None",
    dissipator: "DissipatorMatrix",
) -> Superoperator:
    """Assemble the superoperator of a GKLS-basis form ``(H, [a_jk])``.

        S = -i (H x I - I x H^T)
            + sum_jk a_jk (F_j x conj(F_k)
                           - (1/2) (F_k F_j x I + I x (F_k F_j)^T))

    over the normalized Pauli strings ``F`` of the dissipator's index
    set, as a sparse doubled Pauli sum written into the signed table
    (:mod:`floquet_lindblad.liouvillianity`).

    :param hamiltonian: extracted coefficients, a dense matrix (its
        identity part drops out), or None for no coherent part.
    :param dissipator: the coefficient matrix ``[a_jk]``.
    :raises DimensionMismatchError: if ``hamiltonian`` acts on other
        sites than ``dissipator``.
    """
    from .liouvillianity import _form_parts, _form_superop

    return _form_superop(*_form_parts(hamiltonian, dissipator), dissipator.num_sites)


def apply_superop(superop: Superoperator, rho: np.ndarray) -> np.ndarray:
    """Apply a superoperator to a density matrix."""
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (superop.system_dim, superop.system_dim):
        raise DimensionMismatchError(
            f"state shape {arr.shape} does not match system dimension "
            f"{superop.system_dim}"
        )
    return devectorize(superop.matrix @ vectorize(arr))


def is_trace_preserving(superop: Superoperator, tol: float = 1e-10) -> bool:
    """Whether ``Tr[S rho] = 0`` for all states: the vectorized identity
    must annihilate the superoperator from the left, relative to its scale."""
    identity_vec = vectorize(np.eye(superop.system_dim, dtype=complex))
    residual = float(np.linalg.norm(identity_vec.conj() @ superop.matrix))
    scale = max(1.0, float(np.max(np.abs(superop.matrix))))
    return residual <= tol * scale


def is_hermiticity_preserving(superop: Superoperator, tol: float = 1e-8) -> bool:
    """Whether the superoperator maps Hermitian matrices to Hermitian
    matrices.

    With row-major vectorization this holds exactly when
    ``S[(i,j),(k,l)] = conj S[(j,i),(l,k)]`` for all indices; the largest
    violation must stay within ``tol`` relative to the largest entry.
    """
    dim = superop.system_dim
    blocks = superop.matrix.reshape(dim, dim, dim, dim)
    # One first index i at a time keeps the temporaries at 1/dim of S.
    defect = max(
        float(np.max(np.abs(row - blocks[:, i].transpose(0, 2, 1).conj())))
        for i, row in enumerate(blocks)
    )
    scale = max(1.0, float(np.max(np.abs(superop.matrix))))
    return defect <= tol * scale
