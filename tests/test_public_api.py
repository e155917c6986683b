"""Tests of the package surface: each public name is declared once, in
its module's ``__all__``, and the package republishes exactly those."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import floquet_lindblad

#: The package's public names, sorted.
PUBLIC = """
Block BlockStructure BranchCutError CoefficientBoundCheck ConditioningError
ConfigError DEFAULT_M_MAX DecompositionInconsistencyError DimensionMismatchError
DissipatorMatrix EffectiveExpansion FLAVOR_STROBOSCOPIC FLAVOR_VAN_VLECK
FloquetLindbladError FrobeniusBasis HERMITICITY_RTOL HamiltonianCoefficients
HamiltonianTerm HermiticityError InvalidIndexError JumpTerm LindbladSegment
LiouvillianityReport MAX_NUM_SITES ModelParams MultiIndex NoReferenceError
NotLindbladCandidateError PAULI PerOrderCheck PiecewiseLiouvillian ReferenceBlock
ReferenceResult SignedChannel SignedLindbladForm SparsityReport StationaryReport
StroboscopicComparison StructureViolationError Superoperator
SupportsUndeclaredError TrajectoryFeasibility TriangularSplit
UnsupportedOrderError __version__ analytic_reference apply_superop bch_orders
block_partition build_model canonical_decomposition choi_matrix choi_min_eig
choi_min_eig_series coefficient_bound coefficient_bound_check cp_grid_times
d_n_bound devectorize drive_locality embed_local exact_effective extensiveness
extract_dissipator extract_hamiltonian floquet_propagator fm_general
fourier_component frobenius_inner herm_eigs hermiticity_defect
is_hermiticity_preserving is_trace_preserving kron lindblad_form_superop
liouvillian_superop matrix_exp matrix_from_pauli_coefficients
matrix_log_principal max_weight_bound ness_report pauli_coefficients
pauli_string per_order_checks psd_report random_density_matrix
roundtrip_residual sparsity_check stroboscopic_compare trace_distance
trajectory_feasibility triangular_split triangular_threshold van_vleck_orders
vectorize
""".split()

MODULES = [
    importlib.import_module(f"floquet_lindblad.{info.name}")
    for info in pkgutil.iter_modules(floquet_lindblad.__path__)
]
#: The modules the package republishes: all but the command line.
LIBRARY = [module for module in MODULES if module.__name__ != "floquet_lindblad.cli"]


def test_the_public_names_are_unchanged():
    assert len(PUBLIC) == 95
    assert sorted(floquet_lindblad.__all__) == PUBLIC


def test_each_public_name_is_declared_by_one_module():
    """The package's names other than ``__version__`` are its modules'
    ``__all__`` put together, no name in two of them, and each is the very
    object its module holds."""
    declared = [name for module in LIBRARY for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert sorted(declared) == sorted(set(PUBLIC) - {"__version__"})
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(floquet_lindblad, name) is getattr(module, name)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_star_import_binds_exactly_the_module_all(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)


def test_the_version_is_declared_once():
    """``pyproject.toml`` reads the version from the package."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    attr = project["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "floquet_lindblad.__version__"
    assert isinstance(floquet_lindblad.__version__, str)
