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
magnitude of the last retained term. The ``1/(i m omega)`` weight is the
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
costs scalar work only. The dense :func:`fourier_component` is kept as
the public reference the tests check this sum against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import matrix_exp, matrix_log_principal
from .errors import DimensionMismatchError, UnsupportedOrderError
from .lindblad import PiecewiseLiouvillian, Superoperator

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
        total = self.order_terms[0]
        for term in self.order_terms[1 : cap + 1]:
            total = total + term
        return total


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


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


def _harmonic(drive: PiecewiseLiouvillian, m: int) -> np.ndarray:
    """The dense Fourier component ``L_m = sum_s c_s(m) L_s``."""
    pairs = zip(_segment_coefficients(drive, m), drive.segment_superops)
    return sum(c * superop.matrix for c, superop in pairs)


def _pair_sums(drive: PiecewiseLiouvillian, weights: np.ndarray) -> np.ndarray:
    """``sum_{a > b} weights[k, a, b] [L_a, L_b]`` for every row ``k``,
    forming each segment commutator once."""
    matrices = [s.matrix for s in drive.segment_superops]
    sums = np.zeros((len(weights),) + matrices[0].shape, dtype=complex)
    for a in range(len(matrices)):
        for b in range(a):
            commutator = _commutator(matrices[a], matrices[b])
            sums += weights[:, a, b, None, None] * commutator
    return sums


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
    first, second = (s.matrix for s in drive.segment_superops)
    inner = _commutator(second, first)
    terms = [0.5 * (first + second)]
    if max_order >= 1:
        terms.append((tau / 4.0) * inner)
    if max_order >= 2:
        terms.append((tau**2 / 24.0) * _commutator(second - first, inner))
    if max_order >= 3:
        terms.append(
            (tau**3 / 48.0)
            * _commutator(first, _commutator(second, -inner))
        )
    superops = tuple(Superoperator(t, drive.dim) for t in terms)
    return EffectiveExpansion(FLAVOR_STROBOSCOPIC, superops, drive)


def fm_general(
    drive: PiecewiseLiouvillian, max_order: int = 1
) -> EffectiveExpansion:
    """Stroboscopic orders 0 and 1 for an arbitrary piecewise drive."""
    if not 0 <= max_order <= 1:
        raise UnsupportedOrderError(
            f"general piecewise orders cover 0..1, got {max_order}"
        )
    terms = [_harmonic(drive, 0)]
    if max_order >= 1:
        durations = np.array([seg.duration for seg in drive.segments])
        weights = np.outer(durations, durations) / (2.0 * drive.period)
        terms.append(_pair_sums(drive, weights[None])[0])
    superops = tuple(Superoperator(t, drive.dim) for t in terms)
    return EffectiveExpansion(FLAVOR_STROBOSCOPIC, superops, drive)


def fourier_component(drive: PiecewiseLiouvillian, m: int) -> Superoperator:
    """Fourier component ``L_m = (1/T) int_0^T L(t) e^{-i 2 pi m t / T} dt``.

    For the piecewise drive the integral evaluates per segment to

        L_m = sum_s L_s (i / (2 pi m)) (e^{-i 2 pi m t_end / T}
                                        - e^{-i 2 pi m t_start / T})

    for ``m != 0``, and to the duration-weighted average for ``m = 0``.
    """
    return Superoperator(_harmonic(drive, m), drive.dim)


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
    terms = [_harmonic(drive, 0)]
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
        first, *tail = _pair_sums(
            drive, np.concatenate([w.sum(axis=0)[None], w[-2:]])
        )
        terms.append(first)
        tail_estimate = 2.0 * max(float(np.linalg.norm(t)) for t in tail)
    superops = tuple(Superoperator(t, drive.dim) for t in terms)
    return EffectiveExpansion(
        FLAVOR_VAN_VLECK, superops, drive, tail_estimate=tail_estimate
    )


def floquet_propagator(drive: PiecewiseLiouvillian) -> Superoperator:
    """One-period propagator: ordered product of segment exponentials,
    earliest segment rightmost."""
    out = np.eye(drive.dim**2, dtype=complex)
    for segment, superop in zip(drive.segments, drive.segment_superops):
        out = matrix_exp(superop.matrix * segment.duration) @ out
    return Superoperator(out, drive.dim)


def exact_effective(drive: PiecewiseLiouvillian) -> Superoperator:
    """Exact effective generator ``(1/T) log`` of the period propagator.

    Uses the principal matrix logarithm; propagates its branch-cut and
    conditioning errors unchanged.
    """
    propagator = floquet_propagator(drive)
    log = matrix_log_principal(propagator.matrix)
    return Superoperator(log / drive.period, drive.dim)
