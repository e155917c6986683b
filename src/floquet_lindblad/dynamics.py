"""Dynamical probes: stroboscopic accuracy, complete positivity,
stationary states and unraveling feasibility.

The complete-positivity probe reshuffles a propagator into its Choi
matrix; a negative Choi eigenvalue beyond tolerance certifies that the
map is not completely positive at that time. Stationary-state analysis
inspects the generator's kernel. Unraveling feasibility asks whether
the canonical signed form supports a jump process: every channel of
negative sign must be negligible and the effective non-Hermitian drift
must have a real spectrum up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import block_exps, herm_eigs, matrix_exp, vectorize
from .errors import DimensionMismatchError
from .lindblad import MAX_NUM_SITES, PiecewiseLiouvillian, Superoperator
from .liouvillianity import SignedLindbladForm
from .magnus import TransferBlocks
from .pauli import matrix_from_pauli_coefficients, pauli_coefficients

__all__ = [
    "trace_distance",
    "random_density_matrix",
    "StroboscopicComparison",
    "stroboscopic_compare",
    "choi_matrix",
    "choi_min_eig",
    "cp_grid_times",
    "choi_min_eig_series",
    "StationaryReport",
    "ness_report",
    "TrajectoryFeasibility",
    "trajectory_feasibility",
]

_DEFAULT_STATE_SEED = 11

#: Periods whose distances are taken together; bounds a long series' memory.
_PERIOD_CHUNK = 32


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance ``0.5 * ||rho - sigma||_1`` of two square matrices of one shape."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape != sigma.shape:
        raise DimensionMismatchError(f"trace distance of shapes {rho.shape} and {sigma.shape}")
    singular = np.linalg.svd(rho - sigma, compute_uv=False)
    return float(0.5 * np.sum(singular))


def random_density_matrix(
    dim: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """A full-rank random density matrix (Wishart construction), drawn from
    ``rng`` or else ``default_rng(11)``, whose normals for ``dim <= 64`` are
    read from the package's table ``_default_state_normals.npy``."""
    if dim < 0:
        raise DimensionMismatchError(f"dimension must be nonnegative, got {dim}")
    if rng is None and dim <= 2**MAX_NUM_SITES:
        normals = np.load(Path(__file__).with_name("_default_state_normals.npy"))
        real, imag = normals[: 2 * dim * dim].reshape(2, dim, dim)
        raw = real + 1j * imag
    else:
        rng = np.random.default_rng(_DEFAULT_STATE_SEED) if rng is None else rng
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    state = raw @ raw.conj().T
    return state / np.trace(state).real


@dataclass(frozen=True)
class StroboscopicComparison:
    """Trace distances between exact and effective stroboscopic states."""

    distances: tuple[float, ...]
    max_distance: float


def stroboscopic_compare(
    drive: PiecewiseLiouvillian,
    effective: Superoperator,
    num_periods: int = 20,
    initial_state: np.ndarray | None = None,
) -> StroboscopicComparison:
    """Compare exact and effective evolution at multiples of the period.

    Evolves one initial state with the exact one-period propagator and
    with ``exp(effective * T)``, recording the trace distance after each
    of ``num_periods`` periods.

    :raises DimensionMismatchError: if ``initial_state`` is not
        ``drive.dim x drive.dim``, or ``num_periods`` is negative.
    """
    blocks = TransferBlocks(drive, [effective])
    generator = [stack[None] for stack in blocks.split(blocks.others[0])[0]]
    step = blocks.propagator()
    return stroboscopic_compares(blocks, step, generator, num_periods, initial_state)[0]


def stroboscopic_compares(
    blocks: TransferBlocks,
    exact_step: list[np.ndarray],
    generators: list[np.ndarray],
    num_periods: int = 20,
    initial_state: np.ndarray | None = None,
) -> list[StroboscopicComparison]:
    """:func:`stroboscopic_compare` for ``n`` effective generators with blocks
    ``generators`` (stacks ``(n, k, m, m)``) and the exact step's blocks: all
    states evolve together as L-site Pauli vectors, and each chunk of
    periods takes one inverse Pauli transform and one stacked SVD."""
    drive = blocks.drive
    dim, sites = drive.dim, drive.num_sites
    if num_periods < 0:
        raise DimensionMismatchError(f"num_periods must be nonnegative, got {num_periods}")
    if initial_state is None:
        initial_state = random_density_matrix(dim)
    elif np.shape(initial_state) != (dim, dim):
        raise DimensionMismatchError(
            f"initial state shape {np.shape(initial_state)} is not {(dim, dim)}"
        )
    exponents = block_exps(g * drive.period for g in generators)
    steps = [np.concatenate([step[None], e]) for step, e in zip(exact_step, exponents)]
    count = len(generators[0])
    vectors = np.tile(pauli_coefficients(initial_state, sites), (count + 1, 1))
    # differences[:, i, p] is period start + p + 1 of generator i; one buffer
    # serves every chunk, and each chunk's matrices die with its SVD.
    differences = np.empty((4**sites, count, min(_PERIOD_CHUNK, num_periods)), complex)
    distances = np.empty((count, num_periods))
    for start in range(0, num_periods, _PERIOD_CHUNK):
        chunk = differences[:, :, : num_periods - start]
        for period in range(chunk.shape[-1]):
            vectors = blocks.apply(steps, vectors)
            chunk[:, :, period] = (vectors[0] - vectors[1:]).T
        matrices = matrix_from_pauli_coefficients(chunk.reshape(4**sites, -1), sites)
        singular = np.linalg.svd(np.moveaxis(matrices, -1, 0), compute_uv=False)
        del matrices
        distances[:, start : start + _PERIOD_CHUNK] = 0.5 * singular.sum(-1).reshape(count, -1)
    rows = [tuple(map(float, row)) for row in distances]
    return [StroboscopicComparison(row, max(row, default=0.0)) for row in rows]


def choi_matrix(superop: Superoperator) -> np.ndarray:
    """Choi matrix of a superoperator acting on vectorized matrices.

    With the row-major vectorization convention, the Choi matrix is the
    reshuffle ``C[(i, j), (k, l)] = S[(j, l), (i, k)]``; the identity
    map yields the unnormalized maximally entangled projector.
    """
    dim = superop.system_dim
    tensor = superop.matrix.reshape(dim, dim, dim, dim)
    return tensor.transpose(2, 0, 3, 1).reshape(dim * dim, dim * dim)


def choi_min_eig(superop: Superoperator, rtol: float = 1e-8) -> float:
    """Smallest eigenvalue of the Choi matrix of a superoperator."""
    eigenvalues, _ = herm_eigs(choi_matrix(superop), rtol=rtol)
    return float(eigenvalues[0])


def cp_grid_times(
    period: float, count: int = 200, multiple: float = 5.0
) -> np.ndarray:
    """Evenly spaced probe times in ``(0, multiple * period]``."""
    return np.linspace(0.0, multiple * period, count + 1)[1:]


def choi_min_eig_series(
    generator: Superoperator, times: np.ndarray, rtol: float = 1e-8
) -> np.ndarray:
    """Smallest Choi eigenvalue of ``exp(generator * t)`` over times."""
    values = np.empty(len(times))
    for position, time in enumerate(times):
        propagator = Superoperator(
            matrix_exp(generator.matrix * float(time)),
            generator.system_dim,
        )
        values[position] = choi_min_eig(propagator, rtol=rtol)
    return values


@dataclass(frozen=True)
class StationaryReport:
    """Kernel analysis of a candidate generator.

    ``states`` holds the Hermitized, trace-normalized kernel vectors
    whose trace was not negligible. ``exists`` certifies at least one
    such state together with a non-positive spectral abscissa.
    """

    eigenvalues: np.ndarray
    zero_mode_count: int
    max_real_part: float
    states: tuple[np.ndarray, ...]
    exists: bool
    trace_preservation_residual: float


def ness_report(
    superop: Superoperator, zero_tol: float | None = None
) -> StationaryReport:
    """Locate stationary states of a superoperator generator."""
    matrix = superop.matrix
    dim = superop.system_dim
    scale = float(np.linalg.norm(matrix))
    if zero_tol is None:
        zero_tol = 1e-8 * max(1.0, scale)
    eigenvalues, vectors = np.linalg.eig(matrix)
    order = np.argsort(np.abs(eigenvalues))
    zero_positions = [
        position
        for position in order
        if np.abs(eigenvalues[position]) <= zero_tol
    ]
    states = []
    for position in zero_positions:
        candidate = vectors[:, position].reshape(dim, dim)
        candidate = 0.5 * (candidate + candidate.conj().T)
        trace = np.trace(candidate)
        if np.abs(trace) < 1e-10:
            continue
        states.append(candidate / trace)
    max_real = float(np.max(eigenvalues.real))
    identity_row = vectorize(np.eye(dim)).conj() @ matrix
    residual = float(np.linalg.norm(identity_row))
    exists = bool(states) and max_real <= zero_tol
    return StationaryReport(
        eigenvalues=eigenvalues,
        zero_mode_count=len(zero_positions),
        max_real_part=max_real,
        states=tuple(states),
        exists=exists,
        trace_preservation_residual=residual,
    )


@dataclass(frozen=True)
class TrajectoryFeasibility:
    """Whether a signed canonical form supports a jump unraveling."""

    feasible: bool
    negative_channel_norms: tuple[float, ...]
    max_imag_drift_eigenvalue: float


def trajectory_feasibility(
    form: SignedLindbladForm,
    imag_tol: float = 1e-9,
    channel_norm_tol: float = 1e-8,
) -> TrajectoryFeasibility:
    """Test feasibility of a quantum-jump unraveling of a signed form.

    Feasible means every negative-sign channel is negligible in
    Frobenius norm and the effective drift
    ``H - (i/2) sum_i s_i A_i^dag A_i`` has eigenvalues whose imaginary
    parts do not exceed ``imag_tol`` (no runaway norm growth between
    jumps).
    """
    dim = 2**form.num_sites
    negative_norms = tuple(
        float(np.linalg.norm(channel.operator))
        for channel in form.negative_channels
    )
    hamiltonian = (
        form.hamiltonian_matrix
        if form.hamiltonian_matrix is not None
        else np.zeros((dim, dim), dtype=complex)
    )
    drift = hamiltonian.astype(complex).copy()
    for channel in form.channels:
        operator = channel.operator
        drift = drift - 0.5j * channel.sign * (operator.conj().T @ operator)
    eigenvalues = np.linalg.eigvals(drift)
    max_imag = float(np.max(eigenvalues.imag)) if dim else 0.0
    feasible = (
        all(norm <= channel_norm_tol for norm in negative_norms)
        and max_imag <= imag_tol
    )
    return TrajectoryFeasibility(
        feasible=feasible,
        negative_channel_norms=negative_norms,
        max_imag_drift_eigenvalue=max_imag,
    )
