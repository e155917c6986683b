"""Command-line interface: analyses, scans, fits and comparisons.

Subcommands
-----------
analyze
    Per-order certification report for one drive: dissipator spectra,
    verdicts, breaking degrees, block structure, growth-bound ratios,
    round-trip residuals and per-order trace checks, as JSON.
scan
    Sweep one model parameter over a linear grid and emit a CSV with
    header ``param,order,min_eig,verdict,breaking_degree``.
fit-modelc
    Normalized smallest-eigenvalue curve of model C at cumulative order
    two, cubic least-squares fit and comparison against the reference
    coefficients, as JSON.
compare-exact
    Frobenius distance between the exact effective generator and the
    cumulative expansion per order over a geometric period grid, fitted
    log-log slopes and a stroboscopic error series, as JSON.

Configuration is a JSON document with a ``schema_version`` field (must
be 1). Unknown keys anywhere are rejected. Reports are deterministic:
identical configuration yields byte-identical output (sorted JSON keys,
17-significant-digit floats in CSV).

Exit codes: 0 success, 2 configuration error, 3 numerical contract
violation, 4 branch ambiguity at every grid point.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace

import numpy as np

from .core import HERMITICITY_RTOL, block_logs
from .dynamics import stroboscopic_compares
from .errors import (
    BranchCutError,
    ConfigError,
    FloquetLindbladError,
    SupportsUndeclaredError,
)
from .lindblad import (
    HamiltonianTerm,
    JumpTerm,
    LindbladSegment,
    MAX_NUM_SITES,
    PiecewiseLiouvillian,
)
from .liouvillianity import (
    TRACE_TOL,
    VALIDATION_TOL,
    Decomposition,
    PerOrderCheck,
    decompose,
    psd_report,
)
from .locality import certify, coefficient_bounds
from .magnus import (
    DEFAULT_M_MAX,
    FLAVOR_STROBOSCOPIC,
    FLAVOR_VAN_VLECK,
    TransferBlocks,
    bch_orders,
    fm_general,
    is_binary_drive,
    transfer,
    van_vleck_orders,
)
from .models import ModelParams, analytic_reference, build_model
from .pauli import merge_pauli_terms

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1

CSV_HEADER = "param,order,min_eig,verdict,breaking_degree"

_RANK_WARNING = getattr(
    getattr(np, "exceptions", np), "RankWarning", Warning
)

#: Model parameters that a scan may sweep, per model name.
SCANNABLE = {
    "A": ("tau", "h", "gamma1"),
    "B": ("tau", "gamma1", "gamma2"),
    "C": ("tau", "jz", "gamma"),
    "D": ("tau", "jx", "gamma"),
}

_MODEL_FIELDS = ("h", "gamma1", "gamma2", "gamma", "jz", "jx")


def _format_float(value: float) -> str:
    return "%.17g" % value


def _check_keys(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return obj[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _complex_matrix(value, path: str) -> np.ndarray:
    """Parse a complex matrix encoded as rows of ``[re, im]`` pairs."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a numeric array: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            f"{path}: expected a square matrix of [re, im] pairs, got "
            f"shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_sites(value, path: str) -> tuple[int, ...] | None:
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        isinstance(site, int) and not isinstance(site, bool) for site in value
    ):
        raise ConfigError(f"{path}: expected a list of site integers")
    return tuple(value)


def _parse_custom_drive(model: dict, path: str) -> PiecewiseLiouvillian:
    _check_keys(model, ("name", "num_sites", "segments"), path)
    num_sites = _as_int(_require(model, "num_sites", path), f"{path}.num_sites")
    segments_cfg = _require(model, "segments", path)
    if not isinstance(segments_cfg, list) or not segments_cfg:
        raise ConfigError(f"{path}.segments: expected a nonempty list")
    segments = []
    for pos, seg in enumerate(segments_cfg):
        seg_path = f"{path}.segments[{pos}]"
        if not isinstance(seg, dict):
            raise ConfigError(f"{seg_path}: expected an object")
        _check_keys(
            seg, ("duration", "hamiltonian_terms", "jump_terms"), seg_path
        )
        duration = _as_number(
            _require(seg, "duration", seg_path), f"{seg_path}.duration"
        )
        try:
            ham_terms = []
            for tpos, term in enumerate(seg.get("hamiltonian_terms", [])):
                term_path = f"{seg_path}.hamiltonian_terms[{tpos}]"
                if not isinstance(term, dict):
                    raise ConfigError(f"{term_path}: expected an object")
                _check_keys(term, ("matrix", "sites"), term_path)
                ham_terms.append(
                    HamiltonianTerm(
                        _complex_matrix(
                            _require(term, "matrix", term_path),
                            f"{term_path}.matrix",
                        ),
                        _parse_sites(term.get("sites"), f"{term_path}.sites"),
                    )
                )
            jump_terms = []
            for tpos, term in enumerate(seg.get("jump_terms", [])):
                term_path = f"{seg_path}.jump_terms[{tpos}]"
                if not isinstance(term, dict):
                    raise ConfigError(f"{term_path}: expected an object")
                _check_keys(term, ("rate", "matrix", "sites"), term_path)
                jump_terms.append(
                    JumpTerm(
                        _as_number(
                            _require(term, "rate", term_path),
                            f"{term_path}.rate",
                        ),
                        _complex_matrix(
                            _require(term, "matrix", term_path),
                            f"{term_path}.matrix",
                        ),
                        _parse_sites(term.get("sites"), f"{term_path}.sites"),
                    )
                )
            segments.append(
                LindbladSegment(duration, tuple(ham_terms), tuple(jump_terms))
            )
        except ConfigError:
            raise
        except FloquetLindbladError as exc:
            raise ConfigError(f"{seg_path}: {exc}") from None
    try:
        return PiecewiseLiouvillian(tuple(segments), num_sites)
    except ConfigError:
        raise
    except FloquetLindbladError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_model(model, path: str) -> tuple[ModelParams | None, dict]:
    """Parse the model section; returns (params, raw section).

    ``params`` is None for a custom drive specification.
    """
    if not isinstance(model, dict):
        raise ConfigError(f"{path}: expected an object")
    name = _require(model, "name", path)
    if name == "custom":
        return None, model
    _check_keys(model, ("name", "tau", "num_sites") + _MODEL_FIELDS, path)
    kwargs = {}
    for field_name in _MODEL_FIELDS:
        if field_name in model:
            kwargs[field_name] = _as_number(
                model[field_name], f"{path}.{field_name}"
            )
    num_sites = _as_int(model.get("num_sites", 1), f"{path}.num_sites")
    tau = _as_number(_require(model, "tau", path), f"{path}.tau")
    try:
        params = ModelParams(
            name=name, tau=tau, num_sites=num_sites, **kwargs
        )
    except FloquetLindbladError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return params, model


def _parse_orders(value, flavor: str, binary: bool, path: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of orders")
    orders = []
    for pos, order in enumerate(value):
        order = _as_int(order, f"{path}[{pos}]")
        if not 0 <= order <= 3:
            raise ConfigError(f"{path}[{pos}]: orders cover 0..3, got {order}")
        orders.append(order)
    if len(set(orders)) != len(orders):
        raise ConfigError(f"{path}: duplicate orders")
    orders = tuple(sorted(orders))
    if flavor == FLAVOR_VAN_VLECK and max(orders) > 1:
        raise ConfigError(
            f"{path}: kick-free expansion covers orders 0..1, got "
            f"{max(orders)}"
        )
    if flavor == FLAVOR_STROBOSCOPIC and not binary and max(orders) > 1:
        raise ConfigError(
            f"{path}: non-binary drives cover orders 0..1, got {max(orders)}"
        )
    return orders


def _parse_grid(section: dict, path: str, geometric: bool = False) -> np.ndarray:
    start = _as_number(_require(section, "start", path), f"{path}.start")
    stop = _as_number(_require(section, "stop", path), f"{path}.stop")
    count = _as_int(_require(section, "count", path), f"{path}.count")
    if count < 1:
        raise ConfigError(f"{path}.count: need at least one grid point")
    if count > 1 and not start < stop:
        raise ConfigError(f"{path}: grid must be strictly increasing")
    if geometric:
        if start <= 0.0:
            raise ConfigError(f"{path}.start: must be positive")
        if stop <= 0.0:
            raise ConfigError(f"{path}.stop: must be positive")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


_TOP_KEYS = (
    "schema_version",
    "model",
    "orders",
    "flavor",
    "tol_psd",
    "weight_limit",
    "m_max",
    "scan",
    "fit",
    "compare",
    "out",
)


class RunConfig:
    """Fully validated configuration for one CLI invocation."""

    def __init__(self, raw: dict, args: argparse.Namespace) -> None:
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected an object")
        _check_keys(raw, _TOP_KEYS, "top level")
        version = _require(raw, "schema_version", "top level")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
            )
        self.params, self.model_section = _parse_model(
            _require(raw, "model", "top level"), "model"
        )
        self.custom_drive = (
            _parse_custom_drive(self.model_section, "model")
            if self.params is None
            else None
        )
        flavor = raw.get("flavor", FLAVOR_STROBOSCOPIC)
        if args.flavor is not None:
            flavor = args.flavor
        if flavor not in (FLAVOR_STROBOSCOPIC, FLAVOR_VAN_VLECK):
            raise ConfigError(
                f"flavor: expected '{FLAVOR_STROBOSCOPIC}' or "
                f"'{FLAVOR_VAN_VLECK}', got {flavor!r}"
            )
        self.flavor = flavor
        binary = self.params is not None or is_binary_drive(self.custom_drive)
        orders_value = raw.get("orders", [0, 1, 2])
        if args.order is not None:
            if not 0 <= args.order <= 3:
                raise ConfigError(
                    f"--order: orders cover 0..3, got {args.order}"
                )
            orders_value = list(range(args.order + 1))
        self.orders = _parse_orders(orders_value, flavor, binary, "orders")
        tol_psd = raw.get("tol_psd")
        if args.tol_psd is not None:
            tol_psd = args.tol_psd
        if tol_psd is not None:
            tol_psd = _as_number(tol_psd, "tol_psd")
            if tol_psd <= 0.0:
                raise ConfigError("tol_psd: must be positive")
        self.tol_psd = tol_psd
        weight_limit = raw.get("weight_limit")
        if weight_limit is not None:
            weight_limit = _as_int(weight_limit, "weight_limit")
            if weight_limit < 2:
                raise ConfigError("weight_limit: must be at least 2")
        self.weight_limit = weight_limit
        m_max = raw.get("m_max", DEFAULT_M_MAX)
        m_max = _as_int(m_max, "m_max")
        if m_max < 1:
            raise ConfigError("m_max: must be positive")
        self.m_max = m_max
        out = raw.get("out")
        if args.out is not None:
            out = args.out
        if out is not None and not isinstance(out, str):
            raise ConfigError("out: expected a path string")
        self.out = out
        self.scan_section = self._section(
            raw, "scan", ("parameter", "start", "stop", "count")
        )
        self.fit_section = self._section(raw, "fit", ("start", "stop", "count"))
        self.compare_section = self._section(
            raw,
            "compare",
            ("start", "stop", "count", "num_periods", "initial_state"),
        )

    @staticmethod
    def _section(raw: dict, key: str, allowed: tuple[str, ...]) -> dict | None:
        section = raw.get(key)
        if section is None:
            return None
        if not isinstance(section, dict):
            raise ConfigError(f"{key}: expected an object")
        _check_keys(section, allowed, key)
        return section

    def drive(self, params: ModelParams | None = None) -> PiecewiseLiouvillian:
        if self.custom_drive is not None:
            return self.custom_drive
        return build_model(params if params is not None else self.params)

    def expansion(self, drive: PiecewiseLiouvillian):
        max_order = max(self.orders)
        if self.flavor == FLAVOR_VAN_VLECK:
            return van_vleck_orders(drive, max_order, m_max=self.m_max)
        if is_binary_drive(drive):
            return bch_orders(drive, max_order)
        return fm_general(drive, max_order)

    def metadata(self, command: str) -> dict:
        meta = {
            "command": command,
            "flavor": self.flavor,
            "orders": list(self.orders),
            "model": self.model_section,
            "tol_psd": self.tol_psd,
            "weight_limit": self.weight_limit,
            "hermiticity_rtol": HERMITICITY_RTOL,
            "validation_tol": VALIDATION_TOL,
            "trace_tol": TRACE_TOL,
        }
        if self.flavor == FLAVOR_VAN_VLECK:
            meta["m_max"] = self.m_max
        return meta


def _cumulative_record(config: RunConfig, decomposition: Decomposition) -> dict:
    dissipator = decomposition.dissipator.restricted(config.weight_limit)
    report, structure = certify(dissipator, tol_psd=config.tol_psd)
    return {
        "spectrum": [float(v) for v in report.eigenvalues],
        "min_eigenvalue": report.min_eigenvalue,
        "verdict": report.is_liouvillian,
        "breaking_degree": report.breaking_degree,
        "psd_tol": report.tol,
        "block_structure": {
            "d_n": structure.d_n,
            "blocks": [
                {
                    "indices": [str(index) for index in block.index_set],
                    "size": block.size,
                    "min_eigenvalue": block.min_eigenvalue(),
                }
                for block in structure.blocks
            ],
        },
        "roundtrip_residual": (
            decomposition.residual() if config.weight_limit is None else None
        ),
    }


def _running_decompositions(expansion):
    """``(order, term, cumulative)`` for every computed order: each order
    term is decomposed once, and the cumulative decompositions (signed
    tables included) are their running sums."""
    cumulative = None
    for order in range(expansion.max_order + 1):
        term = decompose(expansion.term(order))
        cumulative = term if cumulative is None else cumulative + term
        yield order, term, cumulative


def cmd_analyze(config: RunConfig) -> str:
    """Build the JSON certification report for one drive."""
    drive = config.drive()
    expansion = config.expansion(drive)
    order_records = []
    max_abs = []
    for order, term, cumulative in _running_decompositions(expansion):
        max_abs.append(term.dissipator.max_abs())
        if order not in config.orders:
            continue
        check = PerOrderCheck.of(
            order, term.dissipator.restricted(config.weight_limit)
        )
        order_records.append(
            {
                "order": order,
                "cumulative": _cumulative_record(config, cumulative),
                "term": {
                    "trace": check.trace,
                    "trace_ok": check.trace_ok,
                    "min_eigenvalue": check.report.min_eigenvalue,
                },
            }
        )
    try:
        bound_checks = [
            {
                "order": check.order,
                "max_abs": check.max_abs,
                "bound": check.bound,
                "ok": check.ok,
            }
            for check in coefficient_bounds(drive, max_abs)
            if check.order in config.orders
        ]
    except SupportsUndeclaredError:
        bound_checks = None
    document = {
        "schema_version": SCHEMA_VERSION,
        "metadata": config.metadata("analyze"),
        "orders": order_records,
        "bound_checks": bound_checks,
        "tail_estimate": expansion.tail_estimate,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _scan_point(config: RunConfig, parameter: str, value: float) -> list[str]:
    params = replace(config.params, **{parameter: value})
    expansion = config.expansion(build_model(params))
    rows = []
    for order, _, cumulative in _running_decompositions(expansion):
        if order not in config.orders:
            continue
        dissipator = cumulative.dissipator.restricted(config.weight_limit)
        report = psd_report(dissipator, tol_psd=config.tol_psd)
        rows.append(
            ",".join(
                (
                    _format_float(value),
                    str(order),
                    _format_float(report.min_eigenvalue),
                    "true" if report.is_liouvillian else "false",
                    _format_float(report.breaking_degree),
                )
            )
        )
    return rows


def cmd_scan(config: RunConfig) -> str:
    """Sweep one model parameter and emit the CSV report."""
    if config.params is None:
        raise ConfigError("scan: custom drives cannot be scanned")
    section = config.scan_section
    if section is None:
        raise ConfigError("scan: missing 'scan' section")
    parameter = _require(section, "parameter", "scan")
    allowed = SCANNABLE[config.params.name]
    if parameter not in allowed:
        raise ConfigError(
            f"scan.parameter: model {config.params.name} scans one of "
            f"{allowed}, got {parameter!r}"
        )
    grid = _parse_grid(section, "scan")
    if parameter == "tau":
        if grid[0] <= 0.0:
            raise ConfigError("scan.start: tau grid must stay positive")
    elif grid[0] < 0.0:
        raise ConfigError("scan.start: rate grids must stay nonnegative")
    row_lists = [_scan_point(config, parameter, float(value)) for value in grid]
    lines = [CSV_HEADER]
    for rows in row_lists:
        lines.extend(rows)
    return "\n".join(lines) + "\n"


def _fit_point(config: RunConfig, product: float) -> float:
    params = replace(config.params, jz=product / config.params.tau)
    expansion = bch_orders(build_model(params), 2)
    *_, (_, _, cumulative) = _running_decompositions(expansion)
    dissipator = cumulative.dissipator.restricted(config.weight_limit)
    return psd_report(dissipator, tol_psd=config.tol_psd).min_eigenvalue


def cmd_fit_modelc(config: RunConfig) -> str:
    """Fit the normalized smallest eigenvalue of model C, order two."""
    if config.params is None or config.params.name != "C":
        raise ConfigError("fit: requires a model C configuration")
    section = config.fit_section
    if section is None:
        raise ConfigError("fit: missing 'fit' section")
    grid = _parse_grid(section, "fit")
    fit_warnings = []
    if grid[0] <= 0.0 or grid[-1] >= 0.5:
        fit_warnings.append(
            "grid extends outside (0, 0.5); the reference fit window "
            "does not cover it"
        )
    params = config.params
    min_eigs = [_fit_point(config, float(value)) for value in grid]
    scale = params.gamma * 2.0 ** (params.num_sites - 1)
    normalized = []
    fit_error = None
    for product, min_eig in zip(grid, min_eigs):
        denominator = scale * product**2
        if denominator <= 0.0:
            fit_error = (
                "degenerate normalization (gamma and the grid must be "
                "positive)"
            )
            break
        normalized.append(min_eig / denominator)
    coefficients = None
    rmse = None
    max_deviation = None
    reference = analytic_reference(params, 2)
    ref_coeffs = list(reference.fit_coefficients)
    if fit_error is None:
        if len(grid) < 4:
            fit_error = "need at least four grid points for a cubic fit"
        else:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", _RANK_WARNING)
                    raw = np.polyfit(grid, normalized, 3)
            except (np.linalg.LinAlgError, _RANK_WARNING) as exc:
                fit_error = f"cubic fit failed: {exc}"
            else:
                coefficients = [float(c) for c in raw[::-1]]
                fitted = np.polyval(raw, grid)
                rmse = float(
                    np.sqrt(np.mean((fitted - np.asarray(normalized)) ** 2))
                )
                ref_values = np.polyval(ref_coeffs[::-1], grid)
                max_deviation = float(
                    np.max(np.abs(ref_values - np.asarray(normalized)))
                )
    document = {
        "schema_version": SCHEMA_VERSION,
        "metadata": config.metadata("fit-modelc"),
        "grid": [float(v) for v in grid],
        "normalized_min_eigs": [float(v) for v in normalized],
        "fit_coefficients": coefficients,
        "fit_rmse": rmse,
        "reference_coefficients": ref_coeffs,
        "reference_rmse": reference.fit_rmse,
        "max_abs_deviation_from_reference": max_deviation,
        "fit_error": fit_error,
        "warnings": fit_warnings,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _compare_grid(config: RunConfig, expansion, grid: np.ndarray):
    """``(residuals per requested order, whether the exact logarithm failed
    on a branch ambiguity)`` at every grid period, in turn. The order-k
    term is homogeneous of degree k in the period (the segment generators
    stay fixed), so the blocks and each term's transfer are formed once and
    scaled by ``s = value / tau`` per point."""
    blocks = TransferBlocks(expansion.drive)
    terms = [transfer(term) for term in expansion.order_terms]
    for value in grid:
        scale = float(value) / config.params.tau
        try:
            logs = block_logs(blocks.propagator(scale))
        except BranchCutError:
            yield [None for _ in config.orders], True
            continue
        # Compared as L-site transfer matrices (a unitary change of basis):
        # squared differences on the blocks plus the order's entries off them.
        period, residuals = scale * expansion.drive.period, []
        for order in config.orders:
            codes, values = zip(*terms[: order + 1])
            values = [scale**k * part for k, part in enumerate(values)]
            cumulative = merge_pauli_terms(*map(np.concatenate, (codes, values)))
            stacks, outside = blocks.split(cumulative)
            inside = sum(
                float(np.sum(np.abs(log / period - stack) ** 2))
                for log, stack in zip(logs, stacks)
            )
            residuals.append(float(np.sqrt(inside + outside)))
        yield residuals, False


def cmd_compare_exact(config: RunConfig) -> str:
    """Compare the exact effective generator against cumulative orders."""
    if config.params is None:
        raise ConfigError("compare: custom drives are not supported here")
    section = config.compare_section
    if section is None:
        raise ConfigError("compare: missing 'compare' section")
    grid = _parse_grid(section, "compare", geometric=True)
    num_periods = _as_int(section.get("num_periods", 20), "compare.num_periods")
    if num_periods < 1:
        raise ConfigError("compare.num_periods: must be positive")
    drive = config.drive()
    initial_state = None
    if "initial_state" in section:
        initial_state = _complex_matrix(
            section["initial_state"], "compare.initial_state"
        )
        defect = float(
            np.max(np.abs(initial_state - initial_state.conj().T))
        )
        trace_error = abs(np.trace(initial_state) - 1.0)
        if initial_state.shape != (drive.dim, drive.dim):
            raise ConfigError(
                f"compare.initial_state: expected shape {(drive.dim,) * 2} "
                f"for {drive.num_sites} sites, got {initial_state.shape}"
            )
        if defect > 1e-8 or trace_error > 1e-8:
            raise ConfigError(
                "compare.initial_state: must be Hermitian with unit trace"
            )
    expansion = config.expansion(drive)
    results = list(_compare_grid(config, expansion, grid))
    branch_failures = [
        float(tau) for tau, (_, failed) in zip(grid, results) if failed
    ]
    if len(branch_failures) == len(grid):
        raise BranchCutError(
            "the exact effective generator is branch-ambiguous at every "
            "grid point"
        )
    residuals: dict[str, list[float | None]] = {
        str(order): [] for order in config.orders
    }
    for point_residuals, _ in results:
        for order, value in zip(config.orders, point_residuals):
            residuals[str(order)].append(value)
    slopes: dict[str, float | None] = {}
    log_grid = np.log(grid)
    for order in config.orders:
        values = residuals[str(order)]
        kept = [
            (log_grid[pos], np.log(max(value, 1e-300)))
            for pos, value in enumerate(values)
            if value is not None
        ]
        if len(kept) < 2:
            slopes[str(order)] = None
            continue
        xs, ys = zip(*kept)
        slope = float(np.polyfit(xs, ys, 1)[0])
        slopes[str(order)] = slope if np.isfinite(slope) else None
    comparisons = stroboscopic_compares(
        drive,
        [expansion.cumulative(order) for order in config.orders],
        num_periods=num_periods,
        initial_state=initial_state,
    )
    stroboscopic = {
        str(order): {
            "distances": list(comparison.distances),
            "max_distance": comparison.max_distance,
        }
        for order, comparison in zip(config.orders, comparisons)
    }
    document = {
        "schema_version": SCHEMA_VERSION,
        "metadata": config.metadata("compare-exact"),
        "tau_grid": [float(v) for v in grid],
        "residuals": residuals,
        "slopes": slopes,
        "branch_failures": branch_failures,
        "stroboscopic": {
            "num_periods": num_periods,
            "per_order": stroboscopic,
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floquet-lindblad",
        description=(
            "Effective-generator expansions of periodically driven "
            "Lindblad dynamics: certification reports, parameter scans, "
            "eigenvalue fits and exactness comparisons."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("analyze", "per-order certification report (JSON)"),
        ("scan", "one-parameter sweep (CSV)"),
        ("fit-modelc", "normalized eigenvalue fit for model C (JSON)"),
        ("compare-exact", "exact-vs-expansion comparison (JSON)"),
    ):
        sub = subparsers.add_parser(name, help=text)
        sub.add_argument(
            "--config", required=True, help="path to the JSON configuration"
        )
        sub.add_argument(
            "--out", default=None, help="output path (default: stdout)"
        )
        sub.add_argument(
            "--tol-psd",
            type=float,
            default=None,
            dest="tol_psd",
            help="absolute PSD tolerance override",
        )
        sub.add_argument(
            "--order",
            type=int,
            default=None,
            help="restrict to orders 0..N (overrides the config list)",
        )
        sub.add_argument(
            "--flavor",
            choices=(FLAVOR_STROBOSCOPIC, FLAVOR_VAN_VLECK),
            default=None,
            help="expansion flavor override",
        )
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "scan": cmd_scan,
    "fit-modelc": cmd_fit_modelc,
    "compare-exact": cmd_compare_exact,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config is not valid JSON (line {exc.lineno}, column "
                f"{exc.colno}): {exc.msg}"
            ) from None
        config = RunConfig(raw, args)
        output = _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BranchCutError as exc:
        print(f"branch ambiguity [BranchCutError]: {exc}", file=sys.stderr)
        return 4
    except FloquetLindbladError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
