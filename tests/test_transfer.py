"""The exact path in the L-site Pauli transfer basis against dense
references: transfer matrices, block propagators and logarithms, the
block-wise log guards, the ``compare-exact`` residual and its per-point
reference, the work done once per run, the stacked stroboscopic
distances, and the L=6 envelope without a dense superoperator."""

import functools
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_lindblad import (
    BranchCutError,
    ConditioningError,
    MultiIndex,
    exact_effective,
    floquet_propagator,
    matrix_from_pauli_coefficients,
    pauli_coefficients,
    pauli_string,
)
from floquet_lindblad import cli, dynamics, lindblad, magnus
from floquet_lindblad.core import block_logs, matrix_exp
from floquet_lindblad.lindblad import PiecewiseLiouvillian
from floquet_lindblad.magnus import TransferBlocks, transfer
from floquet_lindblad.models import ModelParams, build_model
from test_pauli_expansion import dense_generators, random_drive

MODELS = [
    ModelParams(name="A", tau=0.2, h=1.0, gamma1=0.7),
    ModelParams(name="B", tau=0.2, gamma1=1.0, gamma2=0.5),
    ModelParams(name="C", tau=0.2, num_sites=3, jz=1.0, gamma=0.5),
    ModelParams(name="C", tau=0.2, num_sites=4, jz=1.0, gamma=0.5),
    ModelParams(name="D", tau=0.2, num_sites=3, jx=1.0, gamma=0.5),
]


def vec_basis(num_sites):
    """The unitary whose column ``b`` is the row-major ``vec(F_b)``."""
    return np.array(
        [
            pauli_string(MultiIndex.from_code(code, num_sites)).reshape(-1)
            for code in range(4**num_sites)
        ]
    ).T


def dense_transfer(matrix, num_sites):
    """``R[a, b] = Tr[F_a S(F_b)] = vec(F_a)^dag S vec(F_b)``."""
    basis = vec_basis(num_sites)
    return basis.conj().T @ matrix @ basis


def as_dense(sparse_transfer, num_sites):
    codes, values = sparse_transfer
    out = np.zeros(16**num_sites, dtype=complex)
    out[codes] = values
    return out.reshape(4**num_sites, 4**num_sites)


def dense_propagator(drive):
    out = np.eye(drive.dim**2, dtype=complex)
    for segment, generator in zip(drive.segments, dense_generators(drive)):
        out = scipy.linalg.expm(generator * segment.duration) @ out
    return out


def dense_log(matrix):
    values, vectors = np.linalg.eig(matrix)
    return vectors @ np.diag(np.log(values)) @ np.linalg.inv(vectors)


full_space_drives = st.builds(
    random_drive,
    seed=st.integers(0, 2**32 - 1),
    num_sites=st.integers(1, 3),
    segments=st.integers(2, 3),
    full_space=st.just(True),
)


@given(full_space_drives)
@settings(max_examples=20)
def test_transfer_matrix_matches_the_dense_change_of_basis(drive):
    """Every segment generator's transfer matrix, built from its doubled
    Pauli sum, equals ``V^dag S V``, and so does a dense superoperator's;
    the undeclared-support term couples (almost) every index."""
    num_sites = drive.num_sites
    for generator, dense in zip(drive.segment_generators(), dense_generators(drive)):
        reference = dense_transfer(dense, num_sites)
        scale = np.linalg.norm(reference)
        assert np.linalg.norm(as_dense(transfer(generator), num_sites) - reference) <= 1e-12 * scale
        dense_route = as_dense(transfer(lindblad.Superoperator(dense, drive.dim)), num_sites)
        assert np.linalg.norm(dense_route - reference) <= 1e-12 * scale
    widths = [indices.shape[1] for indices in TransferBlocks(drive).groups]
    assert max(widths) >= 4**num_sites - 1
    propagator = dense_propagator(drive)
    assert np.linalg.norm(floquet_propagator(drive).matrix - propagator) <= 1e-12 * np.linalg.norm(propagator)


@pytest.mark.parametrize("params", MODELS, ids=lambda p: f"{p.name}{p.num_sites}")
def test_block_propagator_and_log_match_dense(params):
    """``floquet_propagator`` and ``exact_effective`` from the blocks equal
    ``expm`` of the dense segment superoperators and their eig-based
    logarithm."""
    drive = build_model(params)
    propagator = dense_propagator(drive)
    np.testing.assert_allclose(floquet_propagator(drive).matrix, propagator, atol=1e-13)
    exact = dense_log(propagator) / drive.period
    scale = np.linalg.norm(exact)
    assert np.linalg.norm(exact_effective(drive).matrix - exact) <= 1e-12 * scale


@pytest.mark.parametrize(
    "document",
    [
        {"model": {"name": "B", "tau": 0.1, "gamma1": 1.0, "gamma2": 0.5}, "orders": [0, 1, 2]},
        {"model": {"name": "C", "tau": 0.1, "num_sites": 3, "jz": 1.0, "gamma": 0.5}, "orders": [0, 1, 2]},
        {"model": {"name": "D", "tau": 0.1, "num_sites": 3, "jx": 1.0, "gamma": 0.5}, "orders": [0, 2]},
    ],
    ids=["B1", "C3", "D3"],
)
@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_compare_point_residual_matches_doubled_coefficients(monkeypatch, document, shift):
    """The residual of ``compare-exact``, taken on the transfer blocks
    plus the order's entries off them, equals the doubled-space Pauli
    distance of the exact generator to the cumulative order, to 1e-12
    relative. A residual far below the generator's norm is held to
    roundoff at that norm instead: 1e-14 of it for the block generator
    (assembled densely), 1e-12 for the dense eig-based reference (two
    logarithms of one propagator differ at that scale). A ``shift`` adds
    ``x`` on site 0 acting from the left to every order, which couples
    the exact generator's blocks."""
    expand = cli.RunConfig.expansion

    def shifted(self, drive):
        expansion = expand(self, drive)
        code = 4 ** (2 * drive.num_sites - 1)  # x on site 0, identity elsewhere
        extra = lindblad.Superoperator.from_pauli_terms([code], [shift], drive.dim)
        terms = (expansion.order_terms[0] + extra,) + expansion.order_terms[1:]
        return replace(expansion, order_terms=terms)

    monkeypatch.setattr(cli.RunConfig, "expansion", shifted)
    raw = {"schema_version": 1, "compare": {"start": 0.1, "stop": 0.2, "count": 2}}
    config = cli.RunConfig({**raw, **document}, cli.build_parser().parse_args(
        ["compare-exact", "--config", "unused.json"]
    ))
    grid = (0.05, 0.2)
    results = cli._compare_grid(config, config.expansion(config.drive()), grid)
    for tau, (residuals, failed) in zip(grid, results, strict=True):
        assert not failed
        drive = config.drive(ModelParams(**{**document["model"], "tau": tau}))
        expansion = config.expansion(drive)
        reference = dense_log(dense_propagator(drive)) / drive.period
        norm = np.linalg.norm(reference)
        for exact, scale in (
            (exact_effective(drive).matrix, 1e-14 * norm),
            (reference, 1e-12 * norm),
        ):
            exact = pauli_coefficients(exact, 2 * drive.num_sites)
            for order, residual in zip(config.orders, residuals):
                codes, values = expansion.cumulative(order).pauli_terms
                difference = exact.copy()
                difference[codes] -= values
                expected = np.linalg.norm(difference)
                assert residual == pytest.approx(expected, rel=1e-12, abs=scale)


def compare_config(model, flavor):
    """A ``compare-exact`` configuration for ``model`` with every order
    the flavor covers."""
    raw = {
        "schema_version": 1,
        "model": model,
        "flavor": flavor,
        "orders": [0, 1] if flavor == "vanvleck" else [0, 1, 2],
        "compare": {"start": 0.1, "stop": 0.2, "count": 2},
    }
    args = cli.build_parser().parse_args(["compare-exact", "--config", "unused.json"])
    return cli.RunConfig(raw, args)


def reference_compare_point(config, tau):
    """The per-point formulation of the ``compare-exact`` residual: the
    model rebuilt at ``tau``, then its expansion, transfer blocks, block
    logarithms and the transfer of every cumulative order. Returns the
    residuals, the branch flag and the exact generator's norm."""
    drive = build_model(replace(config.params, tau=tau))
    expansion = config.expansion(drive)
    blocks = TransferBlocks(drive)
    try:
        logs = block_logs(blocks.propagator())
    except BranchCutError:
        return [None for _ in config.orders], True, None
    exact = [log / drive.period for log in logs]
    residuals = []
    for order in config.orders:
        stacks, outside = blocks.split(transfer(expansion.cumulative(order)))
        inside = sum(float(np.sum(np.abs(e - s) ** 2)) for e, s in zip(exact, stacks))
        residuals.append(float(np.sqrt(inside + outside)))
    norm = np.sqrt(sum(float(np.sum(np.abs(e) ** 2)) for e in exact))
    return residuals, False, norm


@pytest.mark.parametrize("flavor", ["fm", "vanvleck"])
@pytest.mark.parametrize(
    "model",
    [
        {"name": "B", "tau": 0.1, "gamma1": 1.0, "gamma2": 0.5},
        {"name": "C", "tau": 0.1, "num_sites": 3, "jz": 1.0, "gamma": 0.5},
        {"name": "D", "tau": 0.1, "num_sites": 3, "jx": 1.0, "gamma": 0.5},
    ],
    ids=["B1", "C3", "D3"],
)
def test_compare_grid_matches_the_per_point_reference(model, flavor):
    """The grid routine, which forms the blocks and the order transfers
    once and scales them, gives the residuals and branch flags of the
    model rebuilt at every grid point, to 1e-12 relative with a floor of
    1e-14 of the exact generator's norm (model B's order-2 residual at
    0.02 is 2.4e-9). The grid reaches branch ambiguities of C3 and D3."""
    config = compare_config(model, flavor)
    grid = np.geomspace(0.02, 4.0, 7)
    results = list(cli._compare_grid(config, config.expansion(config.drive()), grid))
    assert len(results) == len(grid)
    for tau, (residuals, failed) in zip(grid, results):
        expected, expected_failed, norm = reference_compare_point(config, float(tau))
        assert failed == expected_failed
        if failed:
            assert residuals == expected
            continue
        for residual, value in zip(residuals, expected):
            assert residual == pytest.approx(value, rel=1e-12, abs=1e-14 * norm)
    if model["name"] != "B":
        assert any(failed for _, failed in results)


def compare_exact_run(tmp_path, count):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "model": {"name": "C", "tau": 0.1, "num_sites": 3, "jz": 1.0, "gamma": 0.5},
        "orders": [0, 1, 2],
        "compare": {"start": 0.05, "stop": 0.2, "count": count, "num_periods": 4},
    }))
    assert cli.main(["compare-exact", "--config", str(path), "--out", str(tmp_path / "out.json")]) == 0


def test_compare_exact_does_its_period_independent_work_once(monkeypatch, tmp_path):
    """One ``compare-exact`` run builds the segment generators once, and
    its number of transfer matrices does not grow with the grid."""
    builds, transfers = [], []
    build = PiecewiseLiouvillian._segment_generators.func

    def counted_build(self):
        builds.append(self)
        return build(self)

    cached = functools.cached_property(counted_build)
    cached.__set_name__(PiecewiseLiouvillian, "_segment_generators")
    monkeypatch.setattr(PiecewiseLiouvillian, "_segment_generators", cached)
    pauli_transfer = magnus.pauli_transfer

    def counted_transfer(*args):
        transfers.append(args)
        return pauli_transfer(*args)

    monkeypatch.setattr(magnus, "pauli_transfer", counted_transfer)
    counts = []
    for count in (3, 6):
        builds.clear()
        transfers.clear()
        compare_exact_run(tmp_path, count)
        assert len(builds) == 1
        counts.append(len(transfers))
    assert counts[0] == counts[1] > 0


def per_period_distances(drive, effectives, num_periods, initial_state):
    """The stroboscopic distances one period at a time: one inverse Pauli
    transform and one trace distance per period and generator."""
    if initial_state is None:
        initial_state = dynamics.random_density_matrix(drive.dim)
    blocks = TransferBlocks(drive, effectives)
    exact_step = blocks.propagator()
    states = [pauli_coefficients(initial_state, drive.num_sites)]
    for _ in range(num_periods):
        states.append(blocks.apply(exact_step, states[-1]))
    series = []
    for effective in blocks.others:
        step = [matrix_exp(b * drive.period) for b in blocks.split(effective)[0]]
        vector, distances = states[0], []
        for exact in states[1:]:
            vector = blocks.apply(step, vector)
            difference = matrix_from_pauli_coefficients(exact - vector, drive.num_sites)
            distances.append(dynamics.trace_distance(difference, 0.0 * difference))
        series.append(tuple(distances))
    return series


@pytest.mark.parametrize("params", [MODELS[2], MODELS[4]], ids=["C3", "D3"])
@pytest.mark.parametrize("custom_state", [False, True])
def test_stacked_stroboscopic_distances_equal_the_per_period_ones(params, custom_state):
    """The distances taken in one stacked inverse transform and one
    stacked SVD equal, bit for bit, those taken one period at a time."""
    drive = build_model(params)
    expansion = magnus.bch_orders(drive, 2)
    effectives = [expansion.cumulative(order) for order in range(3)]
    state = None
    if custom_state:
        state = dynamics.random_density_matrix(drive.dim, np.random.default_rng(5))
    comparisons = dynamics.stroboscopic_compares(drive, effectives, 7, state)
    expected = per_period_distances(drive, effectives, 7, state)
    assert [c.distances for c in comparisons] == expected
    assert [c.max_distance for c in comparisons] == [max(d) for d in expected]


def test_orders_merge_generator_blocks():
    """Model B's order terms carry entries between the generators' blocks,
    so a split that covers them is coarser, and the order residual counts
    the entries off the generators' blocks."""
    drive = build_model(ModelParams(name="B", tau=0.2, gamma1=1.0, gamma2=0.5))
    orders = magnus.bch_orders(drive, 2)
    alone = TransferBlocks(drive)
    covering = TransferBlocks(drive, [orders.cumulative(2)])
    assert max(g.shape[1] for g in alone.groups) < max(g.shape[1] for g in covering.groups)
    stacks, outside = alone.split(covering.others[0])
    inside = sum(float(np.sum(np.abs(s) ** 2)) for s in stacks)
    assert outside > 0.0
    assert np.sqrt(inside + outside) == pytest.approx(orders.cumulative(2).norm(), rel=1e-12)


def test_log_guards_over_blocks_condition_of_the_whole_matrix():
    """The condition number is that of the block-diagonal eigenvector
    matrix: largest singular value over all blocks over the smallest."""
    rng = np.random.default_rng(3)
    near_defective = np.array([[[1.0, 1.0], [0.0, 1.0 + 1e-4]]], dtype=complex)
    spread = np.eye(3)[None] + 0.4 * rng.standard_normal((1, 3, 3))
    stacks = [near_defective, spread]
    vectors = [np.linalg.eig(stack[0])[1] for stack in stacks]
    singles = [np.linalg.cond(v) for v in vectors]
    whole = np.linalg.cond(scipy.linalg.block_diag(*vectors))
    assert whole > 1.01 * max(singles)
    limit = np.sqrt(whole * max(singles))
    with pytest.raises(ConditioningError):
        block_logs(stacks, condition_limit=limit)
    logs = block_logs(stacks, condition_limit=1.01 * whole)
    for log, stack in zip(logs, stacks):
        np.testing.assert_allclose(scipy.linalg.expm(log), stack, atol=1e-8)


def test_log_guards_one_bad_block_among_good_ones():
    """One ill-conditioned or branch-ambiguous block among well-conditioned
    ones fails the whole logarithm."""
    good = np.tile(np.diag([1.0, 0.5, 2.0]).astype(complex), (4, 1, 1))
    bad = good.copy()
    bad[2] = [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    pair = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
    block_logs([pair, good])
    with pytest.raises(ConditioningError):
        block_logs([pair, bad])
    turned = pair.copy()
    turned[1, 0, 0] = -1.0
    with pytest.raises(BranchCutError):
        block_logs([turned, good])


def test_model_d_exact_log_is_ill_conditioned():
    """Model D at L=4 keeps failing the conditioning guard on its
    transfer blocks, as the dense logarithm does. The blocks come from
    exact zeros of the generators built on each term's own sites; its
    components of sizes 1, 1, 56, 64, 64 and 70 are those left when
    entries at or below 1e-14 of the largest are dropped."""
    drive = build_model(ModelParams(name="D", tau=0.2, num_sites=4, jx=1.0, gamma=0.5))
    assert [g.shape for g in TransferBlocks(drive).groups] == [
        (2, 1), (1, 56), (2, 64), (1, 70)
    ]
    with pytest.raises(ConditioningError):
        exact_effective(drive)
    values, vectors = np.linalg.eig(dense_propagator(drive))
    assert np.linalg.cond(vectors) > 1e10


def test_compare_exact_builds_the_stroboscopic_propagator_once(monkeypatch, tmp_path):
    """One ``compare-exact`` run forms the exact one-period propagator once
    per grid point and once for the whole stroboscopic section."""
    builds = []
    original = TransferBlocks.propagator

    def counted(self, scale=1.0):
        builds.append(len(self.others))
        return original(self, scale)

    monkeypatch.setattr(TransferBlocks, "propagator", counted)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "model": {"name": "C", "tau": 0.1, "num_sites": 3, "jz": 1.0, "gamma": 0.5},
        "orders": [0, 1, 2],
        "compare": {"start": 0.05, "stop": 0.2, "count": 3, "num_periods": 4},
    }))
    assert cli.main(["compare-exact", "--config", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert sorted(builds) == [0, 0, 0, 3]


def test_six_site_compare_exact_forms_no_dense_superoperator(monkeypatch, tmp_path):
    """``compare-exact`` on a 6-site ring runs without any dense
    superoperator and keeps the expected residual slopes."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense superoperator formed")

    monkeypatch.setattr(lindblad, "liouvillian_superop", refuse)
    monkeypatch.setattr(lindblad, "matrix_from_pauli_terms", refuse)
    monkeypatch.setattr(PiecewiseLiouvillian, "segment_superops", property(refuse))
    for module in (lindblad, dynamics):
        monkeypatch.setattr(module, "pauli_coefficients", lambda m, sites: (
            refuse() if sites > 6 else pauli_coefficients(m, sites)
        ))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "model": {"name": "C", "tau": 0.1, "num_sites": 6, "jz": 1.0, "gamma": 0.5},
        "orders": [0, 1, 2],
        "compare": {"start": 0.05, "stop": 0.1, "count": 2, "num_periods": 5},
    }))
    out = tmp_path / "out.json"
    assert cli.main(["compare-exact", "--config", str(path), "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    for order, slope in zip("012", (1.0, 2.0, 3.0)):
        assert document["slopes"][order] == pytest.approx(slope, abs=0.1)
    assert len(document["stroboscopic"]["per_order"]["2"]["distances"]) == 5
