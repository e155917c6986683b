"""Structure theorems for expansion-order dissipator matrices.

For a k-local drive (Hamiltonian terms on at most k sites, jump
operators on at most k/2 sites) the order-n dissipator matrix obeys:

* sparsity: ``a_jk = 0`` whenever ``n_j + n_k > (n+1)k - n`` (weights of
  the Pauli multi-indices);
* bounded participation: the number ``d_n`` of indices touched at order
  n is at most ``C(L, w) 4^w`` with ``w = (n+1)k - n`` (capped at L);
* triangular form: ordering indices by weight with threshold
  ``t = ceil((n+1)k/2 - n/2)`` makes the high-by-high weight block
  vanish, giving the block form ``[[A, B], [B^dag, 0]]``; whenever the
  off-diagonal block ``B`` is nonzero the matrix has at least rank(B)
  negative eigenvalues;
* coefficient growth: ``max |a^(i)| <= (2 k J T)^i / (i+1) * J * i! * 2^L``
  where J is the extensiveness constant of the drive (largest per-site
  sum of superoperator term norms over one period, terms taken on the
  doubled system).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, factorial
from typing import Sequence

import numpy as np

from .core import herm_eigs
from .errors import (
    DimensionMismatchError,
    StructureViolationError,
    SupportsUndeclaredError,
)
from .lindblad import (
    HamiltonianTerm,
    JumpTerm,
    PiecewiseLiouvillian,
    liouvillian_superop,
)
from .liouvillianity import DissipatorMatrix, extract_dissipator, psd_report
from .magnus import EffectiveExpansion
from .pauli import MultiIndex, code_weights, indices_of, matrix_from_pauli_terms

__all__ = [
    "max_weight_bound",
    "triangular_threshold",
    "d_n_bound",
    "SparsityReport",
    "sparsity_check",
    "Block",
    "BlockStructure",
    "block_partition",
    "TriangularSplit",
    "triangular_split",
    "coefficient_bound",
    "CoefficientBoundCheck",
    "coefficient_bound_check",
    "drive_locality",
    "extensiveness",
]

#: Relative singular-value cutoff for numerical ranks.
RANK_RTOL = 1e-10


def max_weight_bound(order: int, locality_k: int) -> int:
    """Largest pair weight ``n_j + n_k`` allowed at a given order."""
    if order < 0 or locality_k < 1:
        raise DimensionMismatchError(
            f"need order >= 0 and locality >= 1, got {order}, {locality_k}"
        )
    return (order + 1) * locality_k - order

def triangular_threshold(order: int, locality_k: int) -> int:
    """Default weight threshold of the triangular split,
    ``ceil((n+1)k/2 - n/2)``."""
    return ceil(((order + 1) * locality_k - order) / 2)


def d_n_bound(num_sites: int, order: int, locality_k: int) -> int:
    """Bound ``C(L, w) 4^w`` on the number of participating indices."""
    w = min(max_weight_bound(order, locality_k), num_sites)
    return comb(num_sites, w) * 4**w


@dataclass(frozen=True)
class SparsityReport:
    """Outcome of the sparsity theorem check."""

    ok: bool
    bound: int
    max_violation: float
    violating_pairs: int


def sparsity_check(
    dissipator: DissipatorMatrix,
    order: int,
    locality_k: int,
    tol: float | None = None,
) -> SparsityReport:
    """Verify that entries beyond the pair-weight bound vanish.

    :param tol: absolute magnitude treated as zero; defaults to
        ``1e-12 * max(1, max|a|)``.
    """
    if tol is None:
        tol = dissipator.structural_tol()
    bound = max_weight_bound(order, locality_k)
    weights = code_weights(dissipator.num_sites)[dissipator._codes]
    rows, cols, values = dissipator._nonzeros
    magnitudes = np.abs(values[weights[rows] + weights[cols] > bound])
    violating = int(np.count_nonzero(magnitudes > tol))
    if tol < 0.0:  # the exact zeros beyond the bound violate too
        count = np.bincount(weights)
        pairs = np.add.outer(*[np.arange(count.size)] * 2) > bound
        violating += int(count @ pairs @ count) - magnitudes.size
    return SparsityReport(
        ok=violating == 0,
        bound=bound,
        max_violation=float(np.max(magnitudes, initial=0.0)),
        violating_pairs=violating,
    )


@dataclass(frozen=True)
class Block:
    """One connected block of a dissipator matrix.

    ``eigenvalues`` (ascending) are stored by :func:`block_partition`,
    which solves every block once; a block built without them solves
    its entries when asked.
    """

    index_set: tuple[MultiIndex, ...]
    entries: np.ndarray
    eigenvalues: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.index_set)

    def min_eigenvalue(self) -> float:
        if self.eigenvalues is None:
            return float(herm_eigs(self.entries)[0][0])
        return float(self.eigenvalues[0])


@dataclass(frozen=True)
class BlockStructure:
    """Partition of the support of a dissipator matrix into connected
    blocks (indices coupled through nonzero entries).

    ``d_n`` counts every index appearing in the support; indices with an
    all-zero row are excluded.
    """

    blocks: tuple[Block, ...]
    d_n: int
    num_sites: int

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue over all blocks (0.0 for empty support,
        matching the full matrix's value on its kernel)."""
        if not self.blocks:
            return 0.0
        return min(block.min_eigenvalue() for block in self.blocks)


def block_partition(
    dissipator: DissipatorMatrix, tol: float | None = None
) -> BlockStructure:
    """Split the support into connected components.

    Two indices are connected when their coupling entry is above ``tol``
    in magnitude (default ``1e-12 * max(1, max|a|)``). Components come
    back sorted by their smallest index code, with indices inside a
    block likewise code-sorted. Every block is solved once and keeps
    its eigenvalues.
    """
    if tol is None:
        tol = dissipator.structural_tol()
    layout, stacks, values, _ = dissipator._blocks(tol)
    codes, num_sites = dissipator._codes, dissipator.num_sites
    ordered = sorted(layout.unstack(stacks, values), key=lambda block: codes[block[0][0]])
    blocks = tuple(
        Block(
            index_set=indices_of(codes[positions], num_sites),
            entries=block,
            eigenvalues=eigenvalues,
        )
        for positions, block, eigenvalues in ordered
    )
    return BlockStructure(
        blocks=blocks,
        d_n=sum(block.size for block in blocks),
        num_sites=num_sites,
    )


@dataclass(frozen=True)
class TriangularSplit:
    """Weight-ordered block form ``[[A, B], [B^dag, 0]]`` of a dissipator
    matrix.

    ``rank_b`` is the numerical rank of the off-diagonal block; whenever
    it is positive the full matrix is guaranteed at least that many
    negative eigenvalues, and ``negative_count`` reports how many it
    actually has: eigenvalues below ``-tol`` in the spectrum of
    ``psd_report(dissipator, tol_psd=tol)``, which is solved block by
    block unless the dropped entries could move an eigenvalue by more
    than ``1e-3 * tol``.
    """

    threshold: int
    low_indices: tuple[MultiIndex, ...]
    high_indices: tuple[MultiIndex, ...]
    a_block: np.ndarray
    b_block: np.ndarray
    e_n: int
    rank_b: int
    negative_count: int

    @property
    def certified(self) -> bool:
        """Whether the negative-eigenvalue guarantee is met."""
        return self.negative_count >= self.rank_b


def triangular_split(
    dissipator: DissipatorMatrix,
    weight_threshold: int | None = None,
    order: int | None = None,
    locality_k: int | None = None,
    tol: float | None = None,
) -> TriangularSplit:
    """Split a dissipator matrix by index weight and certify negativity.

    Indices of weight up to the threshold form the ``A`` block, the rest
    the (required-zero) lower-right block. The threshold defaults to
    ``ceil((n+1)k/2 - n/2)`` when ``order`` and ``locality_k`` are given.

    :raises StructureViolationError: if the high-by-high block carries an
        entry above ``tol``.
    """
    if weight_threshold is None:
        if order is None or locality_k is None:
            raise DimensionMismatchError(
                "pass weight_threshold or both order and locality_k"
            )
        weight_threshold = triangular_threshold(order, locality_k)
    if tol is None:
        tol = dissipator.structural_tol()
    weights = code_weights(dissipator.num_sites)[dissipator._codes]
    low = np.nonzero(weights <= weight_threshold)[0]
    high = np.nonzero(weights > weight_threshold)[0]
    lower_right = dissipator.entries[np.ix_(high, high)]
    if lower_right.size and float(np.max(np.abs(lower_right))) > tol:
        raise StructureViolationError(
            "high-weight diagonal block has entries up to "
            f"{float(np.max(np.abs(lower_right))):.3e} above tolerance "
            f"{tol:.3e} at threshold {weight_threshold}"
        )
    a_block = dissipator.entries[np.ix_(low, low)]
    b_block = dissipator.entries[np.ix_(low, high)]
    if b_block.size:
        singular_values = np.linalg.svd(b_block, compute_uv=False)
        relative = RANK_RTOL * (
            float(singular_values[0]) if singular_values.size else 0.0
        )
        # Floor the cutoff at the structural-zero tolerance so that a
        # coupling block made of pure roundoff reports rank zero instead
        # of counting its noise-level singular values.
        cutoff = max(relative, tol)
        rank_b = int(np.count_nonzero(singular_values > cutoff))
    else:
        rank_b = 0
    eigenvalues = psd_report(dissipator, tol_psd=tol).eigenvalues
    negative_count = int(np.count_nonzero(eigenvalues < -tol))
    return TriangularSplit(
        threshold=int(weight_threshold),
        low_indices=indices_of(dissipator._codes[low], dissipator.num_sites),
        high_indices=indices_of(dissipator._codes[high], dissipator.num_sites),
        a_block=a_block,
        b_block=b_block,
        e_n=int(low.size),
        rank_b=rank_b,
        negative_count=negative_count,
    )


def drive_locality(drive: PiecewiseLiouvillian) -> int:
    """Locality constant k: Hamiltonian terms touch at most k sites and
    jump operators at most k/2.

    :raises SupportsUndeclaredError: if any term lacks a declared support.
    """
    k = 1
    for segment in drive.segments:
        for term in segment.hamiltonian_terms:
            if term.sites is None:
                raise SupportsUndeclaredError(
                    "Hamiltonian term has no declared site support"
                )
            k = max(k, len(term.sites))
        for term in segment.jump_terms:
            if term.sites is None:
                raise SupportsUndeclaredError(
                    "jump term has no declared site support"
                )
            k = max(k, 2 * len(term.sites))
    return k


def _term_superop_norm(term: HamiltonianTerm | JumpTerm) -> float:
    """Spectral norm of one term's superoperator on its local doubled
    space, made dense there."""
    sites = len(term.sites)
    if isinstance(term, HamiltonianTerm):
        local = liouvillian_superop(term.matrix, ())
    else:
        local = liouvillian_superop(None, [(term.rate, term.matrix)], system_dim=2**sites)
    matrix = matrix_from_pauli_terms(*local.pauli_terms, 2 * sites)
    return float(np.linalg.norm(matrix, ord=2))


def extensiveness(drive: PiecewiseLiouvillian) -> float:
    """Extensiveness constant J: the largest, over sites, sum of term
    superoperator norms touching that site across all segments.

    Each term counts once with the spectral norm of its full local
    superoperator (commutator or dissipator), whose doubled-system
    support covers both copies of the term's sites; real and fictitious
    copies of a site therefore see identical sums and the maximum over
    the doubled system equals the maximum over physical sites.

    :raises SupportsUndeclaredError: if any term lacks a declared support.
    """
    per_site = np.zeros(drive.num_sites)
    norms = {}  # one norm per distinct local term
    for segment in drive.segments:
        for term in (*segment.hamiltonian_terms, *segment.jump_terms):
            if term.sites is None:
                raise SupportsUndeclaredError(
                    "term has no declared site support"
                )
            key = (getattr(term, "rate", None), term.matrix.shape, term.matrix.tobytes())
            if key not in norms:
                norms[key] = _term_superop_norm(term)
            for site in term.sites:
                per_site[site] += norms[key]
    return float(np.max(per_site)) if per_site.size else 0.0


def coefficient_bound(
    order: int,
    locality_k: int,
    extensiveness_j: float,
    period: float,
    num_sites: int,
) -> float:
    """Growth bound ``(2kJT)^i / (i+1) * J * i! * 2^L`` on the largest
    entry of the order-i dissipator term."""
    i = order
    return (
        (2.0 * locality_k * extensiveness_j * period) ** i
        / (i + 1.0)
        * extensiveness_j
        * factorial(i)
        * 2.0**num_sites
    )


@dataclass(frozen=True)
class CoefficientBoundCheck:
    """Comparison of one order's largest coefficient against the bound."""

    order: int
    max_abs: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.max_abs <= self.bound


def coefficient_bound_check(
    expansion: EffectiveExpansion,
    locality_k: int | None = None,
    extensiveness_j: float | None = None,
) -> tuple[CoefficientBoundCheck, ...]:
    """Check every computed order term against the coefficient bound.

    Locality and extensiveness default to the values computed from the
    expansion's drive.
    """
    max_abs = [
        extract_dissipator(expansion.term(order)).max_abs()
        for order in range(expansion.max_order + 1)
    ]
    return coefficient_bounds(
        expansion.drive, max_abs, locality_k, extensiveness_j
    )


def coefficient_bounds(
    drive: PiecewiseLiouvillian,
    max_abs: Sequence[float],
    locality_k: int | None = None,
    extensiveness_j: float | None = None,
) -> tuple[CoefficientBoundCheck, ...]:
    """:func:`coefficient_bound_check` from the largest entry of every
    order term's full dissipator matrix, ``max_abs[order]``, already
    extracted."""
    if locality_k is None:
        locality_k = drive_locality(drive)
    if extensiveness_j is None:
        extensiveness_j = extensiveness(drive)
    return tuple(
        CoefficientBoundCheck(
            order=order,
            max_abs=value,
            bound=coefficient_bound(
                order,
                locality_k,
                extensiveness_j,
                drive.period,
                drive.num_sites,
            ),
        )
        for order, value in enumerate(max_abs)
    )
