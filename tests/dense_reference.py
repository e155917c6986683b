"""The dense Kronecker GKLS builder, kept as the tests' independent
reference for the package's sparse signed-table construction.

With row-major vectorization (``vec(A rho B) = (A x B^T) vec(rho)``) the
generator with Hamiltonian ``H`` and jumps ``(gamma_i, L_i)`` is

    S = -i (H x I - I x H^T)
        + sum_i gamma_i (L_i x conj(L_i)
                         - (1/2) (L_i^dag L_i x I + I x L_i^T conj(L_i))).
"""

import numpy as np

from floquet_lindblad import DimensionMismatchError, Superoperator


def liouvillian_superop(hamiltonian, jumps=(), *, system_dim=None):
    """Vectorized GKLS generator, as a dense :class:`Superoperator`."""
    if hamiltonian is None:
        if system_dim is None:
            raise DimensionMismatchError(
                "system_dim is required when hamiltonian is None"
            )
        dim = system_dim
    else:
        hamiltonian = np.asarray(hamiltonian, dtype=complex)
        dim = hamiltonian.shape[0]
        if hamiltonian.shape != (dim, dim):
            raise DimensionMismatchError(
                f"hamiltonian must be square, got {hamiltonian.shape}"
            )
        if system_dim is not None and system_dim != dim:
            raise DimensionMismatchError(
                f"system_dim {system_dim} does not match hamiltonian "
                f"dimension {dim}"
            )
    identity = np.eye(dim, dtype=complex)
    total = np.zeros((dim * dim, dim * dim), dtype=complex)
    if hamiltonian is not None:
        total += -1j * (
            np.kron(hamiltonian, identity) - np.kron(identity, hamiltonian.T)
        )
    for rate, operator in jumps:
        op = np.asarray(operator, dtype=complex)
        if op.shape != (dim, dim):
            raise DimensionMismatchError(
                f"jump operator shape {op.shape} does not match dimension {dim}"
            )
        gram = op.conj().T @ op
        total += rate * (
            np.kron(op, op.conj())
            - 0.5 * (np.kron(gram, identity) + np.kron(identity, gram.T))
        )
    return Superoperator(total, dim)


def dense_generators(drive):
    """Every segment's generator as a dense matrix, built from its
    embedded Hamiltonian and jumps."""
    return [
        liouvillian_superop(
            seg.hamiltonian(drive.num_sites),
            seg.jumps(drive.num_sites),
            system_dim=drive.dim,
        ).matrix
        for seg in drive.segments
    ]


def signed_form_superop(form):
    """The dense generator of a :class:`SignedLindbladForm`."""
    jumps = [(float(channel.sign), channel.operator) for channel in form.channels]
    return liouvillian_superop(
        form.hamiltonian_matrix, jumps, system_dim=2**form.num_sites
    )
