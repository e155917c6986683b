"""High-frequency expansions of the one-period effective generator.

Two flavors are implemented.

Stroboscopic (Baker-Campbell-Hausdorff) flavor: the effective generator
is defined through the one-period propagator,
``exp(L_eff T) = product of exp(L_s tau_s)`` with the earliest segment
rightmost. For a binary drive with equal segment durations ``tau`` the
closed-form orders are

    L^(0) = (L_1 + L_2) / 2
    L^(1) = (tau / 4)  [L_2, L_1]
    L^(2) = (tau^2 / 24) [L_2 - L_1, [L_2, L_1]]
    L^(3) = (tau^3 / 48) [L_1, [L_2, [L_1, L_2]]]

and for a general piecewise drive the first two orders are

    L^(0) = (1 / T) sum_a tau_a L_a
    L^(1) = (1 / 2T) sum_{a > b} tau_a tau_b [L_a, L_b].

Kick-free (van Vleck) flavor: built from the Fourier components
``L_m = (1/T) integral_0^T L(t) exp(-i 2 pi m t / T) dt``,

    L^(0) = L_0
    L^(1) = sum_{m >= 1} [L_{-m}, L_m] / (i m omega),  omega = 2 pi / T,

truncated at ``m_max`` with a reported cutoff-error estimate of twice the
larger Frobenius norm of the last two retained harmonic terms
(``m = m_max - 1`` and ``m_max``; two, because the alternate harmonics
of binary-like drives vanish). The ``1/(i m omega)`` weight is the
unique constant for which the first-order term is trace- and
Hermiticity-preserving and reduces, for purely coherent drives, to the
standard kick-free correction ``sum_{m >= 1} [H_m, H_{-m}] / (m omega)``
of the effective Hamiltonian; a real weight would produce a term that is
odd under the Hermiticity adjoint and therefore maps Hermitian matrices
to anti-Hermitian ones whenever it is nonzero. For a binary drive every
``L_m`` with ``m != 0`` is proportional to ``L_2 - L_1``, so the
first-order van Vleck term vanishes identically there.

Both first orders are one sum over segment pairs,
``sum_{a > b} W_ab [L_a, L_b]``, with each commutator formed once. The
stroboscopic weights are ``tau_a tau_b / 2T``. Every harmonic is a scalar
combination ``L_m = sum_s c_s(m) L_s`` of the segment generators, so the
van Vleck weights are
``sum_{m <= m_max} 2 Im(conj(c_a(m)) c_b(m)) / (m omega)`` and the cutoff
costs scalar work only. :func:`fourier_component` is kept as the public
reference the tests check this sum against.

Every term is a sparse doubled Pauli sum (a sparse
:class:`~floquet_lindblad.lindblad.Superoperator`), formed from the sparse
segment generators by merging sums and by the one commutator kernel
:func:`~floquet_lindblad.pauli.pauli_commutator`; its ``.matrix`` is built
on first use.

The exact path (:func:`floquet_propagator`, :func:`exact_effective`)
works in the L-site Pauli transfer basis, ``R[a, b] = Tr[F_a S(F_b)]``,
where composition, ``exp`` and ``log`` stay matrix operations and a local
generator is sparse and block diagonal (:class:`TransferBlocks`). Only
the returned vec-basis superoperators are dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import block_logs, component_labels, kron, matrix_exp
from .errors import DimensionMismatchError, UnsupportedOrderError
from .lindblad import PiecewiseLiouvillian, Superoperator, _pauli_terms, _weighted_sum
from .pauli import PAULI, pauli_commutator, pauli_transfer

__all__ = [
    "EffectiveExpansion",
    "bch_orders",
    "fm_general",
    "fourier_component",
    "van_vleck_orders",
    "floquet_propagator",
    "exact_effective",
]

#: Default Fourier cutoff for the van Vleck first-order sum.
DEFAULT_M_MAX = 200

FLAVOR_STROBOSCOPIC = "fm"
FLAVOR_VAN_VLECK = "vanvleck"


@dataclass(frozen=True)
class EffectiveExpansion:
    """Per-order terms of an effective-generator expansion.

    ``order_terms[i]`` is the order-``i`` term ``L^(i)``; the cumulative
    generator through order ``n`` is their sum. ``tail_estimate`` is only
    set for the van Vleck flavor and estimates the Fourier cutoff error
    of the first-order term.
    """

    flavor: str
    order_terms: tuple[Superoperator, ...]
    drive: PiecewiseLiouvillian
    tail_estimate: float | None = None

    @property
    def max_order(self) -> int:
        return len(self.order_terms) - 1

    def term(self, order: int) -> Superoperator:
        """The order-``order`` term of the expansion."""
        if not 0 <= order <= self.max_order:
            raise UnsupportedOrderError(
                f"order {order} outside computed range 0..{self.max_order}"
            )
        return self.order_terms[order]

    def cumulative(self, order: int | None = None) -> Superoperator:
        """Sum of the terms through ``order`` (default: all computed)."""
        cap = self.max_order if order is None else order
        if not 0 <= cap <= self.max_order:
            raise UnsupportedOrderError(
                f"order {cap} outside computed range 0..{self.max_order}"
            )
        terms = self.order_terms[: cap + 1]
        return _weighted_sum([1.0] * len(terms), terms, self.drive.dim)


def _commutator(a: Superoperator, b: Superoperator) -> Superoperator:
    """``[a, b]`` of two sparse superoperators."""
    doubled_sites = 2 * (a.system_dim.bit_length() - 1)
    return Superoperator.from_pauli_terms(
        *pauli_commutator(a.pauli_terms, b.pauli_terms, doubled_sites),
        a.system_dim,
    )


def is_binary_drive(drive: PiecewiseLiouvillian) -> bool:
    """Whether the closed-form orders of :func:`bch_orders` apply: the
    drive has exactly two segments of equal duration."""
    if len(drive.segments) != 2:
        return False
    tau1, tau2 = (segment.duration for segment in drive.segments)
    return abs(tau1 - tau2) <= 1e-12 * max(tau1, tau2)


def _segment_coefficients(drive: PiecewiseLiouvillian, m: int) -> np.ndarray:
    """The weights ``c_s(m)`` of ``L_m = sum_s c_s(m) L_s``, one per
    segment, as given in :func:`fourier_component`."""
    period = drive.period
    if m == 0:
        return np.array([seg.duration for seg in drive.segments]) / period
    start, end = np.array(drive.segment_windows).T
    return (1j / (2.0 * np.pi * m)) * (
        np.exp(-2j * np.pi * m * end / period)
        - np.exp(-2j * np.pi * m * start / period)
    )


def _harmonic(drive: PiecewiseLiouvillian, generators, m: int) -> Superoperator:
    """The Fourier component ``L_m = sum_s c_s(m) L_s``."""
    return _weighted_sum(_segment_coefficients(drive, m), generators, drive.dim)


def _pair_sums(
    drive: PiecewiseLiouvillian,
    generators: tuple[Superoperator, ...],
    weights: np.ndarray,
) -> Iterator[Superoperator]:
    """``sum_{a > b} weights[k, a, b] [L_a, L_b]`` for every row ``k``,
    one row at a time, forming each segment commutator once."""
    pairs = [(a, b) for a in range(len(generators)) for b in range(a)]
    commutators = [_commutator(generators[a], generators[b]) for a, b in pairs]
    for row in weights:
        yield _weighted_sum([row[a, b] for a, b in pairs], commutators, drive.dim)


def bch_orders(
    drive: PiecewiseLiouvillian, max_order: int = 2
) -> EffectiveExpansion:
    """Closed-form stroboscopic orders for a binary equal-duration drive.

    Supports orders 0 through 3.

    :raises UnsupportedOrderError: for ``max_order`` outside 0..3.
    :raises DimensionMismatchError: if the drive is not binary with equal
        segment durations.
    """
    if not 0 <= max_order <= 3:
        raise UnsupportedOrderError(
            f"closed-form orders cover 0..3, got {max_order}"
        )
    if not is_binary_drive(drive):
        durations = [segment.duration for segment in drive.segments]
        raise DimensionMismatchError(
            f"closed-form orders need two equal durations, got {durations}"
        )
    tau = drive.segments[0].duration
    first, second = drive.segment_generators()
    inner = _commutator(second, first)
    terms = [0.5 * (first + second)]
    if max_order >= 1:
        terms.append((tau / 4.0) * inner)
    if max_order >= 2:
        terms.append((tau**2 / 24.0) * _commutator(second - first, inner))
    if max_order >= 3:
        terms.append(
            (tau**3 / 48.0)
            * _commutator(first, _commutator(second, -1.0 * inner))
        )
    return EffectiveExpansion(FLAVOR_STROBOSCOPIC, tuple(terms), drive)


def fm_general(
    drive: PiecewiseLiouvillian, max_order: int = 1
) -> EffectiveExpansion:
    """Stroboscopic orders 0 and 1 for an arbitrary piecewise drive."""
    if not 0 <= max_order <= 1:
        raise UnsupportedOrderError(
            f"general piecewise orders cover 0..1, got {max_order}"
        )
    generators = drive.segment_generators()
    terms = [_harmonic(drive, generators, 0)]
    if max_order >= 1:
        durations = np.array([seg.duration for seg in drive.segments])
        weights = np.outer(durations, durations) / (2.0 * drive.period)
        terms.append(next(_pair_sums(drive, generators, weights[None])))
    return EffectiveExpansion(FLAVOR_STROBOSCOPIC, tuple(terms), drive)


def fourier_component(drive: PiecewiseLiouvillian, m: int) -> Superoperator:
    """Fourier component ``L_m = (1/T) int_0^T L(t) e^{-i 2 pi m t / T} dt``.

    For the piecewise drive the integral evaluates per segment to

        L_m = sum_s L_s (i / (2 pi m)) (e^{-i 2 pi m t_end / T}
                                        - e^{-i 2 pi m t_start / T})

    for ``m != 0``, and to the duration-weighted average for ``m = 0``.
    """
    return _harmonic(drive, drive.segment_generators(), m)


def van_vleck_orders(
    drive: PiecewiseLiouvillian,
    max_order: int = 1,
    m_max: int = DEFAULT_M_MAX,
) -> EffectiveExpansion:
    """Kick-free orders 0 and 1 from truncated Fourier sums.

    :param m_max: cutoff of the first-order sum over harmonics.
    """
    if not 0 <= max_order <= 1:
        raise UnsupportedOrderError(
            f"kick-free orders cover 0..1, got {max_order}"
        )
    if m_max < 1:
        raise UnsupportedOrderError(f"m_max must be positive, got {m_max}")
    generators = drive.segment_generators()
    terms = [_harmonic(drive, generators, 0)]
    tail_estimate: float | None = None
    if max_order >= 1:
        harmonics = np.arange(1, m_max + 1)
        c = np.array([_segment_coefficients(drive, m) for m in harmonics])
        # w[m - 1, a, b] = w_ab(m), the weight of [L_a, L_b] in harmonic m.
        w = (
            2.0
            * np.imag(c.conj()[:, :, None] * c[:, None, :])
            / (harmonics * 2.0 * np.pi / drive.period)[:, None, None]
        )
        # The truncated sum, then the last (at most two) harmonic terms.
        rows = _pair_sums(
            drive, generators, np.concatenate([w.sum(axis=0)[None], w[-2:]])
        )
        terms.append(next(rows))
        tail_estimate = 2.0 * max(map(Superoperator.norm, rows))
    return EffectiveExpansion(
        FLAVOR_VAN_VLECK, tuple(terms), drive, tail_estimate=tail_estimate
    )


def transfer(superop: Superoperator) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~floquet_lindblad.pauli.pauli_transfer` of the doubled Pauli
    sum of a superoperator; a dense one takes the one 2L-site transform
    that extraction takes."""
    return pauli_transfer(*_pauli_terms(superop), superop.system_dim.bit_length() - 1)


class TransferBlocks:
    """The L-site Pauli indices of a drive, split into the connected
    components of the union of the transfer patterns of its segment
    generators and of ``others`` (no entry is dropped by a threshold).

    These matrices, and their products, exponentials and logarithms, are
    block diagonal in the split. Blocks of equal size ``m`` form one
    stack ``(k, m, m)``; row ``i`` of ``groups[g]`` holds the ascending
    indices of block ``i`` of stack ``g``.
    """

    def __init__(self, drive: PiecewiseLiouvillian, others=()) -> None:
        self.drive, size = drive, 4**drive.num_sites
        self.generators = [transfer(g) for g in drive.segment_generators()]
        self.others = [transfer(other) for other in others]
        patterns = [codes for codes, _ in self.generators + self.others]
        rows, cols = np.divmod(np.concatenate(patterns), size)
        self._labels = component_labels(rows, cols, size)
        counts = np.bincount(self._labels)
        members = np.argsort(self._labels, kind="stable")
        starts = np.cumsum(counts) - counts
        # Stacks are views of one flat buffer; entry (a, b) of a block
        # sits at _row[a] + _pos[b], with _pos the place inside the block.
        self.groups, self._bounds = [], [0]
        self._row, self._pos = np.empty((2, size), dtype=np.int64)
        for width in np.unique(counts):
            components = np.flatnonzero(counts == width)
            indices = members[starts[components, None] + np.arange(width)]
            self._pos[indices] = np.arange(width)
            self._row[indices] = self._bounds[-1] + width * np.arange(
                indices.size
            ).reshape(indices.shape)
            self._bounds.append(self._bounds[-1] + width * indices.size)
            self.groups.append(indices)

    def split(self, matrix: tuple[np.ndarray, np.ndarray]):
        """The blocks of a transfer matrix, one stack per group, and the
        squared Frobenius norm of its entries outside them."""
        codes, values = matrix
        rows, cols = np.divmod(codes, 4**self.drive.num_sites)
        inside = self._labels[rows] == self._labels[cols]
        flat = np.zeros(self._bounds[-1], dtype=complex)
        flat[self._row[rows[inside]] + self._pos[cols[inside]]] = values[inside]
        stacks = [
            flat[start:end].reshape(indices.shape + indices.shape[1:])
            for indices, start, end in zip(self.groups, self._bounds, self._bounds[1:])
        ]
        return stacks, float(np.sum(np.abs(values[~inside]) ** 2))

    def propagator(self, scale: float = 1.0) -> list[np.ndarray]:
        """Blocks of the one-period propagator: ordered product of segment
        exponentials, earliest segment rightmost, every duration times
        ``scale``."""
        step = None
        for segment, generator in zip(self.drive.segments, self.generators):
            duration = scale * segment.duration
            factors = [matrix_exp(b * duration) for b in self.split(generator)[0]]
            step = factors if step is None else list(map(np.matmul, factors, step))
        return step

    def apply(self, stacks: list[np.ndarray], vectors: np.ndarray) -> np.ndarray:
        """The block-diagonal transfer matrix of ``stacks`` times the
        Pauli vectors ``vectors`` (along their first axis)."""
        out = np.empty_like(vectors)
        for indices, blocks in zip(self.groups, stacks):
            out[indices] = np.einsum("kij,kj...->ki...", blocks, vectors[indices])
        return out

    def superoperator(self, stacks: list[np.ndarray]) -> Superoperator:
        """The dense vec-basis superoperator ``V R V^dag`` of the
        block-diagonal transfer matrix ``R`` of ``stacks``."""
        sites = self.drive.num_sites
        # Column b of V is vec(F_b): vec(sigma^p) / sqrt 2 per site, with the
        # row digits reordered from (i_l, j_l) pairs to all i, then all j.
        axes = [*range(0, 2 * sites, 2), *range(1, 2 * sites, 2), 2 * sites]
        basis = kron(*[PAULI.reshape(4, 4).T / np.sqrt(2.0)] * sites)
        basis = basis.reshape((2,) * 2 * sites + (-1,)).transpose(axes)
        basis = basis.reshape(4**sites, -1)
        matrix = basis @ self.apply(stacks, basis.conj().T)
        return Superoperator(matrix, self.drive.dim)


def floquet_propagator(drive: PiecewiseLiouvillian) -> Superoperator:
    """One-period propagator: ordered product of segment exponentials,
    earliest segment rightmost."""
    blocks = TransferBlocks(drive)
    return blocks.superoperator(blocks.propagator())


def exact_effective(drive: PiecewiseLiouvillian) -> Superoperator:
    """Exact effective generator ``(1/T) log`` of the period propagator.

    Uses the principal matrix logarithm; propagates its branch-cut and
    conditioning errors unchanged.
    """
    blocks = TransferBlocks(drive)
    logs = block_logs(blocks.propagator())
    return blocks.superoperator([log / drive.period for log in logs])
