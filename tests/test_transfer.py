"""The exact path in the L-site Pauli transfer basis against dense
references: transfer matrices, block propagators and logarithms, the
block-wise log guards, the ``compare-exact`` residual and its per-point
reference, the work done once per run, the stacked stroboscopic
distances and their memory, and the L=6 envelope without a dense
superoperator."""

import functools
import json
import tracemalloc
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
from floquet_lindblad import cli, core, dynamics, lindblad, liouvillianity, magnus
from floquet_lindblad.core import block_logs, matrix_exp
from floquet_lindblad.lindblad import PiecewiseLiouvillian
from floquet_lindblad.magnus import TransferBlocks, transfer
from floquet_lindblad.models import ModelParams, build_model
from dense_reference import dense_generators
from test_pauli_expansion import random_drive

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
    results = cli._compare_pass(config, config.expansion(config.drive()), grid)[0]
    for tau, residuals in zip(grid, results, strict=True):
        assert not np.isnan(residuals).any()
        drive = build_model(ModelParams(**{**document["model"], "tau": tau}))
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
    results = cli._compare_pass(config, config.expansion(config.drive()), grid)[0]
    assert results.shape == (len(grid), len(config.orders))
    for tau, residuals in zip(grid, results):
        expected, expected_failed, norm = reference_compare_point(config, float(tau))
        failed = np.isnan(residuals[0])
        assert failed == expected_failed
        if failed:
            assert np.isnan(residuals).all()
            continue
        for residual, value in zip(residuals, expected):
            assert residual == pytest.approx(value, rel=1e-12, abs=1e-14 * norm)
    if model["name"] != "B":
        assert np.isnan(results).any()


D4 = {"name": "D", "tau": 0.2, "num_sites": 4, "jx": 1.0, "gamma": 0.5}


def compare_grid(model, count, stop=0.2):
    """A ``compare-exact`` configuration for ``model`` over ``count`` points
    of the ``exact-ring4`` benchmark grid (0.02 to 0.2), with its expansion
    and grid."""
    config = compare_config(model, "fm")
    config.compare_section.update(start=0.02, stop=stop, count=count)
    grid = cli._parse_grid(config.compare_section, "compare", geometric=True)
    return config, config.expansion(config.drive()), grid


def test_compare_pass_raises_after_the_first_ill_conditioned_chunk(monkeypatch):
    """Model D at L=4 is ill-conditioned from its first grid point. Over 60
    points the pass exponentiates that point's chunk only, in one
    ``matrix_exp`` call per segment and block group, and raises the
    ``ConditioningError`` of the whole-grid pass."""
    config, expansion, grid = compare_grid(D4, 60)
    groups = TransferBlocks(expansion.drive).groups
    exponentiated = []
    stacked = core.matrix_exp

    def counted(matrix):
        exponentiated.append(len(matrix))
        return stacked(matrix)

    monkeypatch.setattr(core, "matrix_exp", counted)
    with pytest.raises(ConditioningError) as raised:
        cli._compare_pass(config, expansion, grid)
    assert str(raised.value) == (
        "eigenvector condition number 3.621e+10 exceeds 1.000e+10; logarithm unreliable"
    )
    # One point per chunk: each call stacks that point's blocks of a group.
    assert exponentiated == [len(group) for group in groups] * len(expansion.drive.segments)
    with pytest.raises(ConditioningError) as whole:
        block_logs(TransferBlocks(expansion.drive).propagator(grid / config.params.tau))
    assert str(whole.value) == str(raised.value)


def test_grid_passes_take_the_orders_as_one_axis(monkeypatch):
    """With a chunk of one point, C3 through order 2 over 4 points:
    ``compare-exact``'s pass splits every order's sums of a chunk at once
    (4 splits, then 1 for the stroboscopic blocks, where one per order and
    point made 13), and a scan's first pass checks a chunk's order terms in
    one call (4 calls, where one per order and point made 12)."""
    model = {"name": "C", "tau": 0.2, "num_sites": 3, "jz": 1.0, "gamma": 0.5}
    config, expansion, grid = compare_grid(model, 4)
    monkeypatch.setattr(cli, "_GRID_BYTES", 1)
    monkeypatch.setattr(liouvillianity, "_GRID_BYTES", 1)
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(TransferBlocks, "split")
    count(liouvillianity, "_checks")
    cli._compare_pass(config, expansion, grid)
    # The pass's TransferBlocks splits each segment generator once.
    assert calls == ["split"] * (len(expansion.drive.segments) + 5)
    calls.clear()
    scan = {"parameter": "jz", "start": 0.5, "stop": 2.0, "count": 4}
    raw = {"schema_version": 1, "model": model, "orders": [0, 1, 2], "scan": scan}
    args = cli.build_parser().parse_args(["scan", "--config", "unused.json"])
    cli.cmd_scan(cli.RunConfig(raw, args))
    assert calls == ["_checks"] * 4


def peak_bytes(run) -> int:
    """The traced peak of ``run()``, after one untraced call for caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_pass_memory_does_not_grow_with_the_grid():
    """The pass walks the grid a chunk of points at a time. For model D at
    L=4, whose chunk is one point, its traced peak up to the conditioning
    error is the same at 60 points as at 6; the whole-grid stacks grew
    with the count."""
    peaks = []
    for count in (6, 60):
        config, expansion, grid = compare_grid(D4, count)

        def run():
            with pytest.raises(ConditioningError):
                cli._compare_pass(config, expansion, grid)

        peaks.append(peak_bytes(run))
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("model", [MODELS[3], MODELS[4]], ids=["C4", "D3"])
def test_chunked_compare_pass_equals_the_whole_grid_bit_for_bit(monkeypatch, model):
    """A chunk of one point and one chunk for the whole grid give the same
    residuals, branch flags, step and cumulative blocks, bit for bit: the
    stacked exponentials, ``eig``, ``svd`` and ``inv`` of a matrix do not
    depend on the other matrices of the stack, and the residual sums over
    the orders one at a time. The grid reaches D3's branch ambiguity."""
    model = {k: v for k, v in vars(model).items() if v is not None}
    config, expansion, grid = compare_grid(model, 9, stop=4.0)
    passes = []
    for budget in (1, 2**40):
        monkeypatch.setattr(cli, "_GRID_BYTES", budget)
        passes.append(cli._compare_pass(config, expansion, grid))
    (results, _, step, cumulative), (whole, _, whole_step, whole_cumulative) = passes
    assert np.array_equal(results, whole, equal_nan=True)
    for ours, theirs in zip(step + cumulative, whole_step + whole_cumulative):
        assert np.array_equal(ours, theirs)
    stack = TransferBlocks(expansion.drive).propagator(np.geomspace(0.1, 1.0, 7))
    chunks = [block_logs([s[start : start + 2] for s in stack]) for start in range(0, 7, 2)]
    for position, log in enumerate(block_logs(stack)):
        assert np.array_equal(log, np.concatenate([chunk[position] for chunk in chunks]))


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
    """One ``compare-exact`` run builds the segment generators and one
    transfer partition once, and its number of transfer matrices does not
    grow with the grid."""
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
    partitions = []
    split_drive = TransferBlocks.__init__

    def counted_partition(self, *args):
        partitions.append(args)
        split_drive(self, *args)

    monkeypatch.setattr(TransferBlocks, "__init__", counted_partition)
    counts = []
    for count in (3, 6):
        builds.clear()
        transfers.clear()
        partitions.clear()
        compare_exact_run(tmp_path, count)
        assert len(builds) == 1
        assert len(partitions) == 1
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


def covering_blocks(drive, effectives):
    """Transfer blocks that cover the drive and ``effectives``, and the
    blocks of the effectives, stacked per group as ``(n, k, m, m)``."""
    blocks = TransferBlocks(drive, effectives)
    split = [blocks.split(effective)[0] for effective in blocks.others]
    return blocks, [np.stack(group) for group in zip(*split)]


@pytest.mark.parametrize("params", [MODELS[2], MODELS[4]], ids=["C3", "D3"])
@pytest.mark.parametrize("custom_state", [False, True])
def test_stacked_stroboscopic_distances_equal_the_per_period_ones(params, custom_state):
    """The distances taken with every generator's state evolved together,
    in one stacked inverse transform and one stacked SVD, equal, bit for
    bit, those taken one generator and one period at a time."""
    drive = build_model(params)
    expansion = magnus.bch_orders(drive, 2)
    effectives = [expansion.cumulative(order) for order in range(3)]
    state = None
    if custom_state:
        state = dynamics.random_density_matrix(drive.dim, np.random.default_rng(5))
    blocks, generators = covering_blocks(drive, effectives)
    comparisons = dynamics.stroboscopic_compares(blocks, blocks.propagator(), generators, 7, state)
    expected = per_period_distances(drive, effectives, 7, state)
    assert [c.distances for c in comparisons] == expected
    assert [c.max_distance for c in comparisons] == [max(d) for d in expected]


def test_stroboscopic_memory_does_not_grow_with_the_series():
    """The stroboscopic section takes its distances a chunk of periods at
    a time, so its traced peak at 400 periods is that at 40, up to the
    series of distances itself."""
    drive = build_model(MODELS[3])
    expansion = magnus.bch_orders(drive, 2)
    blocks, generators = covering_blocks(drive, [expansion.cumulative(o) for o in range(3)])
    step = blocks.propagator()
    dynamics.stroboscopic_compares(blocks, step, generators, 1)  # first-call caches
    peaks = []
    for num_periods in (40, 400):
        tracemalloc.start()
        try:
            dynamics.stroboscopic_compares(blocks, step, generators, num_periods)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


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


def non_invariant_drive():
    """A 3-site drive whose terms sit on sites 0 and 1 only: an ``x`` field
    on site 0, then decay on site 1. The cyclic site shift maps none of its
    blocks of more than one index onto another."""
    field = lindblad.HamiltonianTerm(np.array([[0.0, 1.0], [1.0, 0.0]]), (0,))
    decay = lindblad.JumpTerm(0.5, np.array([[0.0, 1.0], [0.0, 0.0]]), (1,))
    return PiecewiseLiouvillian(
        (lindblad.LindbladSegment(0.2, (field,)), lindblad.LindbladSegment(0.2, (), (decay,))), 3
    )


ORIENTED = [
    ModelParams(name=name, tau=0.2, num_sites=sites, **couplings)
    for name, couplings in (("C", {"jz": 1.0, "gamma": 0.5}), ("D", {"jx": 1.0, "gamma": 0.5}))
    for sites in (3, 4, 5)
]


@pytest.mark.parametrize(
    ("drive", "invariant"),
    [*((build_model(p), True) for p in ORIENTED), (non_invariant_drive(), False)],
    ids=[f"{p.name}{p.num_sites}" for p in ORIENTED] + ["custom"],
)
def test_transfer_blocks_are_shift_oriented_components(drive, invariant):
    """The blocks of ``TransferBlocks`` are the components that
    ``component_labels`` finds in the segment generators' patterns, in the
    same groups and order, and each row is a permutation of its block.
    The rows of a drive that the cyclic site shift does not map onto
    itself ascend."""
    size = 4**drive.num_sites
    codes = np.concatenate([transfer(g)[0] for g in drive.segment_generators()])
    plain = core.BlockLayout(core.component_labels(*np.divmod(codes, size), size))
    groups = TransferBlocks(drive).groups
    assert [g.shape for g in groups] == [g.shape for g in plain.groups]
    for oriented, ascending in zip(groups, plain.groups):
        assert np.array_equal(np.sort(oriented, axis=1), ascending)
        assert (plain.labels[oriented] == plain.labels[oriented[:, :1]]).all()
    if not invariant:
        assert all(map(np.array_equal, groups, plain.groups))


def test_model_c_step_blocks_repeat_along_shift_orbits():
    """Model C's one-period step at L=4 has 5, 12 and 2 distinct blocks in
    its groups of 32, 48 and 4: translated blocks are equal bit for bit,
    because the rows follow the shift. With ascending rows it has more."""
    drive = build_model(MODELS[3])
    step = TransferBlocks(drive).propagator()
    assert [len(s) for s in step] == [32, 48, 4]
    assert [len(core._distinct(s)[0]) for s in step] == [5, 12, 2]


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
    """One ``compare-exact`` run forms the propagators of every grid point
    and the stroboscopic one-period step in one stacked call, whatever the
    number of points."""
    calls = []
    original = TransferBlocks.propagator

    def counted(self, scale=1.0):
        calls.append(np.size(scale))
        return original(self, scale)

    monkeypatch.setattr(TransferBlocks, "propagator", counted)
    for count in (3, 6):
        calls.clear()
        compare_exact_run(tmp_path, count)
        assert calls == [count + 1]


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
