"""Built-in benchmark drives and their closed-form references.

Four binary drives with equal segment durations ``tau`` (period
``T = 2 tau``), all on spin-1/2 sites:

* Model A (single site): coherent segment ``h sigma^3`` alternating with
  a dephasing-type channel ``sigma^1`` at rate ``gamma1``. Its
  third-order stroboscopic term vanishes identically (the double
  commutator of the channel with ``[L_1, L_2]`` is proportional to the
  field generator), so its order-2 truncation error is ``O(tau^4)``.
* Model B (single site): channel ``(sigma^1 + sigma^3)/sqrt(2)`` at rate
  ``gamma2`` alternating with channel ``sigma^1`` at rate ``gamma1``.
* Model C (ring of L >= 3 sites): Ising coupling
  ``J_z sum_l sigma^3_l sigma^3_{l+1}`` alternating with per-site
  channels ``sigma^1_l`` at rate ``gamma``.
* Model D (ring of L >= 3 sites): Ising coupling
  ``J_x sum_l sigma^1_l sigma^1_{l+1}`` alternating with per-site decay
  ``sigma^-_l`` at rate ``gamma``.

``analytic_reference`` returns the closed-form dissipator blocks of the
leading expansion orders, the extremal eigenvalues where closed forms
exist, and auxiliary quantities (the positivity-boundary period of model
B, the cubic fit of model C's order-2 extremal eigenvalue).

For model D at order one, a previously tabulated variant of the block
circulates whose diagonal omits the one-half duty factor of the
time-averaged dissipator; its trace contradicts the vanishing-trace
identity obeyed by every order term beyond the zeroth. The corrected
block (primary fields) satisfies all structural identities and matches
the extraction; the tabulated variant and its companion eigenvalue
formula are retained in separate fields for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatchError, NoReferenceError
from .lindblad import (
    HamiltonianTerm,
    JumpTerm,
    LindbladSegment,
    MAX_NUM_SITES,
    PiecewiseLiouvillian,
)
from .pauli import MultiIndex, PAULI

__all__ = [
    "ModelParams",
    "ReferenceBlock",
    "ReferenceResult",
    "build_model",
    "analytic_reference",
]

_SIGMA_MINUS = 0.5 * (PAULI[1] - 1j * PAULI[2])

#: Each model's segments, first to last, each a list of terms
#: ``(kind, operator, parameter)``: a Hamiltonian ``operator`` times the
#: coupling ``parameter``, or a jump ``operator`` at the rate
#: ``parameter``. A k-site operator acts on sites ``l, ..., l+k-1``
#: (mod L), once for every site ``l``.
_SEGMENTS = {
    "A": (
        [("hamiltonian_terms", PAULI[3], "h")],
        [("jump_terms", PAULI[1], "gamma1")],
    ),
    "B": (
        [("jump_terms", (PAULI[1] + PAULI[3]) / np.sqrt(2.0), "gamma2")],
        [("jump_terms", PAULI[1], "gamma1")],
    ),
    "C": (
        [("hamiltonian_terms", np.kron(PAULI[3], PAULI[3]), "jz")],
        [("jump_terms", PAULI[1], "gamma")],
    ),
    "D": (
        [("hamiltonian_terms", np.kron(PAULI[1], PAULI[1]), "jx")],
        [("jump_terms", _SIGMA_MINUS, "gamma")],
    ),
}


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one built-in model.

    Only the couplings of the named model may be nonzero; the rest must
    stay at their zero defaults.
    """

    name: str
    tau: float
    num_sites: int = 1
    h: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma: float = 0.0
    jz: float = 0.0
    jx: float = 0.0

    def __post_init__(self) -> None:
        if self.name not in _SEGMENTS:
            raise DimensionMismatchError(
                f"unknown model {self.name!r}, expected A, B, C or D"
            )
        # The couplings are the fields after name, tau and num_sites.
        couplings = [f.name for f in fields(self)][3:]
        for field_name in ("tau", *couplings):
            if not np.isfinite(value := getattr(self, field_name)):
                raise DimensionMismatchError(f"{field_name} must be finite, got {value}")
        if self.tau <= 0.0:
            raise DimensionMismatchError(
                f"tau must be positive, got {self.tau}"
            )
        used = PARAMETER_SEGMENTS[self.name]
        for field_name in couplings:
            value = getattr(self, field_name)
            if field_name not in used and value != 0.0:
                raise DimensionMismatchError(
                    f"model {self.name} does not use {field_name}, "
                    f"got {value}"
                )
        for rate_name in _parameter_segments(self.name, "jump_terms"):
            if getattr(self, rate_name) < 0.0:
                raise DimensionMismatchError(
                    f"{rate_name} must be nonnegative"
                )
        if self.name in ("A", "B") and self.num_sites != 1:
            raise DimensionMismatchError(
                f"model {self.name} is single site, got "
                f"num_sites={self.num_sites}"
            )
        if self.name in ("C", "D") and not 3 <= self.num_sites <= MAX_NUM_SITES:
            raise DimensionMismatchError(
                f"model {self.name} needs a ring of 3..{MAX_NUM_SITES} "
                f"sites, got {self.num_sites}"
            )

    @property
    def period(self) -> float:
        return 2.0 * self.tau


def _parameter_segments(name: str, kind: str) -> dict[str, int]:
    """The parameters of model ``name``'s ``kind`` terms, in field order,
    each with the segment whose generator it scales."""
    segments = enumerate(_SEGMENTS[name])
    found = {p: pos for pos, terms in segments for k, _, p in terms if k == kind}
    return {f.name: found[f.name] for f in fields(ModelParams) if f.name in found}


#: The couplings, then the rates, of each model, each in field order and
#: with the segment (0 first, 1 second) whose generator it scales
#: linearly; ``tau`` scales every duration instead.
PARAMETER_SEGMENTS = {
    name: {
        **_parameter_segments(name, "hamiltonian_terms"),
        **_parameter_segments(name, "jump_terms"),
    }
    for name in _SEGMENTS
}


def build_model(params: ModelParams) -> PiecewiseLiouvillian:
    """Construct the piecewise drive for a parameter set."""
    num_sites = params.num_sites
    segments = []
    for terms in _SEGMENTS[params.name]:
        built = {"hamiltonian_terms": [], "jump_terms": []}
        for kind, operator, parameter in terms:
            value = getattr(params, parameter)
            width = len(operator).bit_length() - 1
            for site in range(num_sites):
                sites = tuple((site + k) % num_sites for k in range(width))
                built[kind].append(
                    JumpTerm(value, operator, sites)
                    if kind == "jump_terms"
                    else HamiltonianTerm(value * operator, sites)
                )
        segments.append(LindbladSegment(params.tau, **built))
    return PiecewiseLiouvillian(tuple(segments), num_sites)


@dataclass(frozen=True)
class ReferenceBlock:
    """A closed-form block: coefficient matrix over listed indices."""

    index_set: tuple[MultiIndex, ...]
    matrix: np.ndarray


@dataclass(frozen=True)
class ReferenceResult:
    """Closed-form reference data for one model at one cumulative order.

    ``blocks`` lists the closed-form blocks over their index sets. They
    need not exhaust the populated support: the ring models develop
    additional neighbor-string couplings at second order that carry no
    closed form here. ``min_eigenvalue`` is the closed form of the
    smallest dissipator eigenvalue where one exists.
    """

    model: str
    order: int
    blocks: tuple[ReferenceBlock, ...]
    min_eigenvalue: float | None
    tau_max: float | None = None
    fit_coefficients: tuple[float, ...] | None = None
    fit_rmse: float | None = None
    fit_domain: tuple[float, float] | None = None
    tabulated_blocks: tuple[ReferenceBlock, ...] | None = None
    tabulated_min_eigenvalue: float | None = None


#: Model C's tabulated cubic fit of its normalized order-2 smallest
#: eigenvalue: coefficients in ascending powers, RMSE and ``tau`` window.
MODEL_C_FIT = ((-0.667, 0.0197, -3.08, 2.84), 3.25e-4, (0.0, 0.5))


def _single_site_indices() -> tuple[MultiIndex, ...]:
    return (
        MultiIndex((1,)),
        MultiIndex((2,)),
        MultiIndex((3,)),
    )


def _reference_a(params: ModelParams, order: int) -> ReferenceResult:
    gamma1 = params.gamma1
    phase = params.h * params.tau
    alpha1 = -phase
    alpha2 = 2.0 * phase**2 / 3.0
    if order == 0:
        matrix = gamma1 * np.diag([1.0, 0.0, 0.0])
        min_eig = 0.0
    elif order == 1:
        matrix = gamma1 * np.array(
            [[1.0, alpha1, 0.0], [alpha1, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        min_eig = 0.5 * gamma1 * (1.0 - np.sqrt(1.0 + 4.0 * phase**2))
    else:
        matrix = gamma1 * np.array(
            [
                [1.0 - alpha2, alpha1, 0.0],
                [alpha1, alpha2, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        min_eig = (
            0.5
            * gamma1
            * (
                1.0
                - np.sqrt(
                    1.0 + 4.0 * phase**2 / 3.0 + 16.0 * phase**4 / 9.0
                )
            )
        )
    block = ReferenceBlock(_single_site_indices(), matrix.astype(complex))
    return ReferenceResult("A", order, (block,), float(min_eig))


def _reference_b(params: ModelParams, order: int) -> ReferenceResult:
    gamma1 = params.gamma1
    gamma2 = params.gamma2
    tau = params.tau
    alpha = gamma1 * gamma2 * tau**2 / 6.0 if order >= 2 else 0.0
    matrix = np.array(
        [
            [0.5 * gamma2 + gamma1 + alpha * gamma2, 0.0, 0.5 * gamma2 + alpha * gamma1],
            [0.0, 0.0, 0.0],
            [0.5 * gamma2 + alpha * gamma1, 0.0, 0.5 * gamma2 - alpha * gamma2],
        ]
    )
    if order < 2:
        min_eig = 0.0
    else:
        inner = gamma1**2 * gamma2**2 * tau**2 * (
            gamma1**2 * tau**2 + gamma2**2 * tau**2 + 12.0
        ) + 9.0 * (gamma1**2 + gamma2**2)
        min_eig = min(
            0.0, 0.5 * (gamma1 + gamma2) - np.sqrt(inner) / 6.0
        )
    squares = gamma1**2 + gamma2**2
    if gamma1 > 0.0 and gamma2 > 0.0:
        tau_max = float(
            np.sqrt(
                6.0
                * (np.sqrt(1.0 + squares / (2.0 * gamma1 * gamma2)) - 1.0)
                / squares
            )
        )
    else:
        tau_max = None
    block = ReferenceBlock(_single_site_indices(), matrix.astype(complex))
    return ReferenceResult(
        "B", order, (block,), float(min_eig), tau_max=tau_max
    )


def _ring_index(
    assignments: dict[int, int], num_sites: int
) -> MultiIndex:
    digits = [0] * num_sites
    for site, value in assignments.items():
        digits[site % num_sites] = value
    return MultiIndex(tuple(digits))


def _reference_c(params: ModelParams, order: int) -> ReferenceResult:
    num_sites = params.num_sites
    gamma_tilde = 2.0 ** (num_sites - 1) * params.gamma
    phase = params.jz * params.tau
    alpha1 = -phase if order >= 1 else 0.0
    alpha2 = 2.0 * phase**2 / 3.0 if order >= 2 else 0.0
    matrix = gamma_tilde * np.array(
        [
            [1.0 - 2.0 * alpha2, alpha1, alpha1, -alpha2],
            [alpha1, alpha2, alpha2, 0.0],
            [alpha1, alpha2, alpha2, 0.0],
            [-alpha2, 0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )
    blocks = []
    for site in range(num_sites):
        index_set = (
            _ring_index({site: 1}, num_sites),
            _ring_index({site: 2, site - 1: 3}, num_sites),
            _ring_index({site: 2, site + 1: 3}, num_sites),
            _ring_index({site - 1: 3, site: 1, site + 1: 3}, num_sites),
        )
        blocks.append(ReferenceBlock(index_set, matrix))
    if order == 0:
        min_eig: float | None = 0.0
    elif order == 1:
        min_eig = (
            params.gamma
            * 2.0 ** (num_sites - 2)
            * (1.0 - np.sqrt(1.0 + 8.0 * phase**2))
        )
    else:
        min_eig = None
    fit, rmse, domain = MODEL_C_FIT if order == 2 else (None, None, None)
    return ReferenceResult(
        "C",
        order,
        tuple(blocks),
        min_eig,
        fit_coefficients=fit,
        fit_rmse=rmse,
        fit_domain=domain,
    )


def _reference_d(params: ModelParams, order: int) -> ReferenceResult:
    num_sites = params.num_sites
    scale = params.gamma * 2.0 ** (num_sites - 3)
    beta = params.jx * params.tau
    diag = np.array([[1.0, 1.0j], [-1.0j, 1.0]], dtype=complex)
    if order == 0:
        matrix = scale * diag
        blocks = []
        for site in range(num_sites):
            index_set = (
                _ring_index({site: 1}, num_sites),
                _ring_index({site: 2}, num_sites),
            )
            blocks.append(ReferenceBlock(index_set, matrix))
        return ReferenceResult("D", 0, tuple(blocks), 0.0)
    coupling = np.array(
        [
            [-1.0j * beta, -1.0j * beta],
            [-beta, -beta],
        ],
        dtype=complex,
    )
    corrected = np.zeros((4, 4), dtype=complex)
    corrected[:2, :2] = diag
    corrected[:2, 2:] = coupling
    corrected[2:, :2] = coupling.conj().T
    corrected = scale * corrected
    tabulated = corrected.copy()
    tabulated[:2, :2] *= 2.0
    blocks = []
    tabulated_blocks = []
    for site in range(num_sites):
        index_set = (
            _ring_index({site: 1}, num_sites),
            _ring_index({site: 2}, num_sites),
            _ring_index({site - 1: 1, site: 3}, num_sites),
            _ring_index({site: 3, site + 1: 1}, num_sites),
        )
        blocks.append(ReferenceBlock(index_set, corrected))
        tabulated_blocks.append(ReferenceBlock(index_set, tabulated))
    min_eig = scale * (1.0 - np.sqrt(1.0 + 4.0 * beta**2))
    tabulated_min = (
        params.gamma
        * 2.0 ** (num_sites - 2)
        * (1.0 - np.sqrt(1.0 + beta**2))
    )
    return ReferenceResult(
        "D",
        1,
        tuple(blocks),
        float(min_eig),
        tabulated_blocks=tuple(tabulated_blocks),
        tabulated_min_eigenvalue=float(tabulated_min),
    )


def analytic_reference(params: ModelParams, order: int) -> ReferenceResult:
    """Closed-form reference for a model at a cumulative order.

    Coverage: models A, B and C at orders 0..2, model D at orders 0..1.

    :raises NoReferenceError: outside the covered combinations.
    """
    covered = {"A": 2, "B": 2, "C": 2, "D": 1}[params.name]
    if not 0 <= order <= covered:
        raise NoReferenceError(
            f"no closed-form reference for model {params.name} at order "
            f"{order} (covered: 0..{covered})"
        )
    if params.name == "A":
        return _reference_a(params, order)
    if params.name == "B":
        return _reference_b(params, order)
    if params.name == "C":
        return _reference_c(params, order)
    return _reference_d(params, order)
