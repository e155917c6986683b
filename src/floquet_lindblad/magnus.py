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
from functools import reduce

import numpy as np

from .core import _GRID_BYTES, BlockLayout, block_exps, block_logs, component_labels
from .errors import DimensionMismatchError, UnsupportedOrderError
from .lindblad import (
    PiecewiseLiouvillian, Superoperator, _num_sites, _pauli_terms, _weighted_sum
)
from .pauli import matrix_from_pauli_terms, pauli_commutator, pauli_transfer

__all__ = [
    "DEFAULT_M_MAX",
    "FLAVOR_STROBOSCOPIC",
    "FLAVOR_VAN_VLECK",
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
    of the first-order term. ``L^(i)`` is the weighted sum of the parts
    ``(coefficient, word, superop)`` in ``parts[i]``: ``superop`` is the
    nested commutator of the segment generators listed in ``word``,
    outermost first (``(1, 1, 0)`` is ``[L_1, [L_1, L_0]]``), or one
    generator.
    """

    flavor: str
    order_terms: tuple[Superoperator, ...]
    drive: PiecewiseLiouvillian
    tail_estimate: float | None = None
    parts: tuple = ()

    @classmethod
    def of_parts(cls, flavor, parts, drive, tail_estimate=None):
        """The expansion whose order terms are the sums of ``parts``."""
        terms = tuple(_sum_parts(p, [c for c, *_ in p], drive.dim) for p in parts)
        return cls(flavor, terms, drive, tail_estimate, tuple(map(tuple, parts)))

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

    def part_weights(self, segment: int | None, values) -> np.ndarray:
        """The weight of every part, in order, when the generator of segment
        ``segment`` is multiplied by each of ``values`` (or every duration,
        if ``segment`` is None), one row per value: the part's coefficient
        times the value to the part's degree in that generator (to its
        order, for durations). A weight may overflow to inf."""
        coefficients, degrees = np.array([
            (c, len(word) - 1 if segment is None else word.count(segment))
            for parts in self.parts for c, word, _ in parts
        ]).T
        with np.errstate(over="ignore", invalid="ignore"):
            return coefficients * np.asarray(values, dtype=float)[:, None] ** degrees


def _sum_parts(parts, weights, system_dim: int) -> Superoperator:
    """``sum weights[i] superop_i`` over the parts ``(_, _, superop_i)``."""
    return _weighted_sum(weights, [superop for *_, superop in parts], system_dim)


def _commutator(a: Superoperator, b: Superoperator) -> Superoperator:
    """``[a, b]`` of two sparse superoperators."""
    return Superoperator.from_pauli_terms(
        *pauli_commutator(a.pauli_terms, b.pauli_terms, 2 * _num_sites(a)),
        a.system_dim,
    )


def is_binary_drive(drive: PiecewiseLiouvillian) -> bool:
    """Whether the closed-form orders of :func:`bch_orders` apply: the
    drive has exactly two segments of equal duration."""
    if len(drive.segments) != 2:
        return False
    tau1, tau2 = (segment.duration for segment in drive.segments)
    return abs(tau1 - tau2) <= 1e-12 * max(tau1, tau2)


def _segment_coefficients(drive: PiecewiseLiouvillian, m) -> np.ndarray:
    """The weights ``c_s(m)`` of ``L_m = sum_s c_s(m) L_s``, one per
    segment, as given in :func:`fourier_component`; for an array of
    nonzero harmonics ``m``, one row per harmonic."""
    period = drive.period
    if np.ndim(m) == 0 and m == 0:
        return np.array([seg.duration for seg in drive.segments]) / period
    start, end = np.array(drive.segment_windows).T
    m = np.asarray(m)[..., None]
    return (1j / (2.0 * np.pi * m)) * (
        np.exp(-2j * np.pi * m * end / period)
        - np.exp(-2j * np.pi * m * start / period)
    )


def _segment_parts(drive: PiecewiseLiouvillian, generators):
    """The parts ``(c_s(0), (s,), L_s)`` of the time average ``L_0``."""
    coefficients = _segment_coefficients(drive, 0)
    return [(c, (s,), g) for s, (c, g) in enumerate(zip(coefficients, generators))]


def _pair_parts(generators: tuple[Superoperator, ...], weights: np.ndarray):
    """The parts ``(weights[k, a, b], (a, b), [L_a, L_b])``, ``a > b``, of
    every row ``k``, forming each segment commutator once."""
    pairs = [(a, b) for a in range(len(generators)) for b in range(a)]
    commutators = [_commutator(generators[a], generators[b]) for a, b in pairs]
    return [[(row[p], p, c) for p, c in zip(pairs, commutators)] for row in weights]


def bch_orders(
    drive: PiecewiseLiouvillian, max_order: int = 2
) -> EffectiveExpansion:
    """Closed-form stroboscopic orders for a binary equal-duration drive.

    Supports orders 0 through 3. With ``X``, ``Y`` the first and second
    segment generators, the orders are sums of parts graded by their
    degree in ``Y``, each commutator formed once:

        L^(0) = X / 2 + Y / 2
        L^(1) = (tau / 4) [Y, X]
        L^(2) = (tau^2 / 24) [Y, [Y, X]] - (tau^2 / 24) [X, [Y, X]]
        L^(3) = -(tau^3 / 48) [X, [Y, [Y, X]]]

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
    parts = [[(0.5, (0,), first), (0.5, (1,), second)]]
    if max_order >= 1:
        inner = _commutator(second, first)
        parts.append([(tau / 4.0, (1, 0), inner)])
    if max_order >= 2:
        outer = _commutator(second, inner)
        parts.append(
            [
                (tau**2 / 24.0, (1, 1, 0), outer),
                (-(tau**2) / 24.0, (0, 1, 0), _commutator(first, inner)),
            ]
        )
    if max_order >= 3:
        outermost = _commutator(first, outer)
        parts.append([(-(tau**3) / 48.0, (0, 1, 1, 0), outermost)])
    return EffectiveExpansion.of_parts(FLAVOR_STROBOSCOPIC, parts, drive)


def fm_general(
    drive: PiecewiseLiouvillian, max_order: int = 1
) -> EffectiveExpansion:
    """Stroboscopic orders 0 and 1 for an arbitrary piecewise drive."""
    if not 0 <= max_order <= 1:
        raise UnsupportedOrderError(
            f"general piecewise orders cover 0..1, got {max_order}"
        )
    generators = drive.segment_generators()
    parts = [_segment_parts(drive, generators)]
    if max_order >= 1:
        durations = np.array([seg.duration for seg in drive.segments])
        weights = np.outer(durations, durations) / (2.0 * drive.period)
        parts += _pair_parts(generators, weights[None])
    return EffectiveExpansion.of_parts(FLAVOR_STROBOSCOPIC, parts, drive)


def fourier_component(drive: PiecewiseLiouvillian, m: int) -> Superoperator:
    """Fourier component ``L_m = (1/T) int_0^T L(t) e^{-i 2 pi m t / T} dt``.

    For the piecewise drive the integral evaluates per segment to

        L_m = sum_s L_s (i / (2 pi m)) (e^{-i 2 pi m t_end / T}
                                        - e^{-i 2 pi m t_start / T})

    for ``m != 0``, and to the duration-weighted average for ``m = 0``.
    """
    generators = drive.segment_generators()
    return _weighted_sum(_segment_coefficients(drive, m), generators, drive.dim)


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
    parts = [_segment_parts(drive, generators)]
    tail_estimate: float | None = None
    if max_order >= 1:
        def weights(start: int, stop: int) -> np.ndarray:
            # w[m - start, a, b] = w_ab(m), the weight of [L_a, L_b] in harmonic m.
            harmonics = np.arange(start, stop)
            c = _segment_coefficients(drive, harmonics)
            w = 2.0 * np.imag(c.conj()[:, :, None] * c[:, None, :])
            return w / (harmonics * 2.0 * np.pi / drive.period)[:, None, None]
        # The truncated sum, a chunk of harmonics at a time, then the last
        # (at most two) harmonic terms.
        step = max(1, _GRID_BYTES // (16 * len(generators) ** 2))
        chunks = range(1, m_max + 1, step)
        total = reduce(np.add, (weights(m, min(m + step, m_max + 1)).sum(axis=0) for m in chunks))
        summed, *last = _pair_parts(
            generators, np.concatenate([total[None], weights(max(1, m_max - 1), m_max + 1)])
        )
        parts.append(summed)
        tail_estimate = 2.0 * max(
            _sum_parts(row, [c for c, *_ in row], drive.dim).norm() for row in last
        )
    return EffectiveExpansion.of_parts(
        FLAVOR_VAN_VLECK, parts, drive, tail_estimate=tail_estimate
    )


def transfer(superop: Superoperator) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~floquet_lindblad.pauli.pauli_transfer` of the doubled Pauli
    sum of a superoperator; a dense one takes the one 2L-site transform
    that extraction takes."""
    return pauli_transfer(*_pauli_terms(superop), _num_sites(superop))


class TransferBlocks:
    """The L-site Pauli indices of a drive, split into the connected
    components of the union of the transfer patterns of its segment
    generators and of ``others`` (no entry is dropped by a threshold).

    These matrices, and their products, exponentials and logarithms, are
    block diagonal in the split, whose stacks ``groups`` lays out as
    :class:`~floquet_lindblad.core.BlockLayout` does, its rows oriented by
    the cyclic site shift (a rotation of the codes' base-4 digits).
    ``segment_blocks[s]`` holds the stacks of the generator of segment
    ``s``.
    """

    def __init__(self, drive: PiecewiseLiouvillian, others=()) -> None:
        self.drive, size = drive, 4**drive.num_sites
        generators = [transfer(g) for g in drive.segment_generators()]
        self.others = [transfer(other) for other in others]
        patterns = [codes for codes, _ in generators + self.others]
        rows, cols = np.divmod(np.concatenate(patterns), size)
        shift = np.arange(size).reshape(4, -1).T.ravel()
        self._layout = BlockLayout(component_labels(rows, cols, size), shift)
        self.groups = self._layout.groups
        self.segment_blocks = [self.split(generator)[0] for generator in generators]

    def split(self, matrix: tuple[np.ndarray, np.ndarray]):
        """The blocks of a transfer matrix, one stack per group, and the
        squared Frobenius norm of its entries outside them; leading axes of
        the values (matrices on the same codes) lead both."""
        codes, values = matrix
        rows, cols = np.divmod(codes, 4**self.drive.num_sites)
        stacks, outside = self._layout.split(rows, cols, values)
        return stacks, np.sum(np.abs(values[..., outside]) ** 2, axis=-1)

    def propagator(self, scale: float | np.ndarray = 1.0) -> list[np.ndarray]:
        """Blocks of the one-period propagator: ordered product of segment
        exponentials, earliest segment rightmost, every duration times
        ``scale``; an array of ``p`` scales gives stacks ``(p, k, m, m)``."""
        scales = np.reshape(scale, (-1, 1, 1, 1))
        step = None
        for segment, stacks in zip(self.drive.segments, self.segment_blocks):
            factors = block_exps(b * (scales * segment.duration) for b in stacks)
            step = factors if step is None else list(map(np.matmul, factors, step))
        return step if np.ndim(scale) else [stack[0] for stack in step]

    def apply(self, stacks: list[np.ndarray], vectors: np.ndarray) -> np.ndarray:
        """The block-diagonal transfer matrix of ``stacks`` times the Pauli
        vectors ``vectors`` (along their last axis), one to one along the
        leading axes of both."""
        out = np.empty_like(vectors)
        for indices, blocks in zip(self.groups, stacks):
            out[..., indices] = np.einsum("...kij,...kj->...ki", blocks, vectors[..., indices])
        return out

    def superoperator(self, stacks: list[np.ndarray]) -> Superoperator:
        """The dense vec-basis superoperator ``V R V^dag`` of the
        block-diagonal transfer matrix ``R`` of ``stacks``, column ``b`` of
        ``V`` being vec(F_b). The scatter of coefficients ``C`` is ``V C``,
        so ``V R V^dag`` is the scatter of ``(V R^dag)^dag``."""
        sites, size = self.drive.num_sites, 4**self.drive.num_sites
        matrix = np.zeros((size, size), dtype=complex)  # R^dag
        for indices, blocks in zip(self.groups, stacks):
            matrix[indices[:, :, None], indices[:, None, :]] = blocks.conj().swapaxes(1, 2)
        codes = np.arange(size)
        matrix = matrix_from_pauli_terms(codes, matrix, sites).reshape(size, size).conj().T
        matrix = matrix_from_pauli_terms(codes, matrix, sites).reshape(size, size)
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
