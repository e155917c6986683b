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
17-significant-digit floats in CSV), and JSON reports are strict JSON.

Exit codes: 0 success, 2 configuration error (a ``model.tau`` or
``compare.stop`` that overflows the expansion or a propagator included),
3 numerical contract violation (a report that would hold a non-finite
number included), 4 branch ambiguity at every grid point.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np

from .core import _GRID_BYTES, HERMITICITY_RTOL, block_logs
from .dynamics import stroboscopic_compares
from .errors import (
    BranchCutError,
    ConfigError,
    FloquetLindbladError,
    SupportsUndeclaredError,
    UnsupportedOrderError,
)
from .lindblad import (
    HamiltonianTerm,
    JumpTerm,
    LindbladSegment,
    MAX_NUM_SITES,
    PiecewiseLiouvillian,
)
from .liouvillianity import TRACE_TOL, VALIDATION_TOL, graded_reports, order_certificates
from .locality import coefficient_bounds
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
from .models import MODEL_C_FIT, PARAMETER_SEGMENTS, ModelParams, build_model
from .pauli import stack_pauli_terms

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1

CSV_HEADER = "param,order,min_eig,verdict,breaking_degree"

#: Largest grid ``count`` and ``compare.num_periods``, checked before
#: anything is allocated; a run that long would not finish anyway.
MAX_COUNT = 10**6

#: Model parameters that a scan may sweep, per model name.
SCANNABLE = {name: ("tau", *used) for name, used in PARAMETER_SEGMENTS.items()}


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


@contextmanager
def _config_error_at(path: str):
    """Re-raise a package error other than ConfigError as a ConfigError of ``path``."""
    try:
        yield
    except ConfigError:
        raise
    except FloquetLindbladError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
    where = f"{path} entry"
    for entry in (x for row in value for pair in row for x in pair):
        _as_number(entry, where)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{path}: entries must be finite")
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
    # Each term kind's keys are its class's fields, parsed in field order.
    kinds = {"hamiltonian_terms": HamiltonianTerm, "jump_terms": JumpTerm}
    parsers = {"rate": _as_number, "matrix": _complex_matrix, "sites": _parse_sites}
    segments = []
    for pos, seg in enumerate(segments_cfg):
        seg_path = f"{path}.segments[{pos}]"
        if not isinstance(seg, dict):
            raise ConfigError(f"{seg_path}: expected an object")
        _check_keys(seg, ("duration", *kinds), seg_path)
        duration = _as_number(
            _require(seg, "duration", seg_path), f"{seg_path}.duration"
        )
        with _config_error_at(seg_path):
            terms = {key: [] for key in kinds}
            for key, term_class in kinds.items():
                names = tuple(f.name for f in fields(term_class))
                for tpos, term in enumerate(seg.get(key, [])):
                    term_path = f"{seg_path}.{key}[{tpos}]"
                    if not isinstance(term, dict):
                        raise ConfigError(f"{term_path}: expected an object")
                    _check_keys(term, names, term_path)
                    values = []
                    for name in names:
                        if name != "sites":  # the one optional key
                            _require(term, name, term_path)
                        values.append(parsers[name](term.get(name), f"{term_path}.{name}"))
                    terms[key].append(term_class(*values))
            segments.append(LindbladSegment(duration, **terms))
    with _config_error_at(path):
        return PiecewiseLiouvillian(tuple(segments), num_sites)


def _parse_model(model, path: str) -> tuple[ModelParams | None, dict]:
    """Parse the model section; returns (params, raw section).

    ``params`` is None for a custom drive specification.
    """
    if not isinstance(model, dict):
        raise ConfigError(f"{path}: expected an object")
    name = _require(model, "name", path)
    if name == "custom":
        return None, model
    keys = tuple(f.name for f in fields(ModelParams))
    _check_keys(model, keys, path)
    kwargs = {
        key: _as_number(model[key], f"{path}.{key}")
        for key in keys
        if key in model and key not in ("name", "tau", "num_sites")
    }
    num_sites = _as_int(model.get("num_sites", 1), f"{path}.num_sites")
    tau = _as_number(_require(model, "tau", path), f"{path}.tau")
    with _config_error_at(path):
        return ModelParams(name=name, tau=tau, num_sites=num_sites, **kwargs), model


def _parse_orders(value, path: str) -> tuple[int, ...]:
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
    return tuple(sorted(orders))


def _setting(raw: dict, args: argparse.Namespace, key: str, default=None):
    """Setting ``key``: its command-line flag unless that is None, else the file's value."""
    flag = getattr(args, key)
    return raw.get(key, default) if flag is None else flag


def _parse_grid(section: dict, path: str, geometric: bool = False) -> np.ndarray:
    start = _as_number(_require(section, "start", path), f"{path}.start")
    stop = _as_number(_require(section, "stop", path), f"{path}.stop")
    count = _as_int(_require(section, "count", path), f"{path}.count")
    for key, value in (("start", start), ("stop", stop)):
        if not np.isfinite(value):
            raise ConfigError(f"{path}.{key}: must be finite, got {value!r}")
    if count < 1:
        raise ConfigError(f"{path}.count: need at least one grid point")
    if count > MAX_COUNT:
        raise ConfigError(f"{path}.count: at most {MAX_COUNT}, got {count}")
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
        self.flavor = _setting(raw, args, "flavor", FLAVOR_STROBOSCOPIC)
        if self.flavor not in (FLAVOR_STROBOSCOPIC, FLAVOR_VAN_VLECK):
            raise ConfigError(
                f"flavor: expected '{FLAVOR_STROBOSCOPIC}' or "
                f"'{FLAVOR_VAN_VLECK}', got {self.flavor!r}"
            )
        orders_value = raw.get("orders", [0, 1, 2])
        if args.order is not None:
            if not 0 <= args.order <= 3:
                raise ConfigError(
                    f"--order: orders cover 0..3, got {args.order}"
                )
            orders_value = list(range(args.order + 1))
        self.orders = _parse_orders(orders_value, "orders")
        tol_psd = _setting(raw, args, "tol_psd")
        if tol_psd is not None:
            tol_psd = _as_number(tol_psd, "tol_psd")
            if not np.isfinite(tol_psd):
                raise ConfigError(f"tol_psd: must be finite, got {tol_psd!r}")
            if tol_psd <= 0.0:
                raise ConfigError("tol_psd: must be positive")
        self.tol_psd = tol_psd
        weight_limit = raw.get("weight_limit")
        if weight_limit is not None:
            weight_limit = _as_int(weight_limit, "weight_limit")
            if weight_limit < 2:
                raise ConfigError("weight_limit: must be at least 2")
        self.weight_limit = weight_limit
        m_max = _as_int(raw.get("m_max", DEFAULT_M_MAX), "m_max")
        if m_max < 1:
            raise ConfigError("m_max: must be positive")
        self.m_max = m_max
        self.out = _setting(raw, args, "out")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out: expected a path string")
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

    def drive(self) -> PiecewiseLiouvillian:
        if self.custom_drive is not None:
            return self.custom_drive
        return build_model(self.params)

    def expansion(self, drive: PiecewiseLiouvillian, max_order: int | None = None):
        """The expansion of ``drive`` through ``max_order`` (by default the
        largest order); an order that the flavor and drive do not cover, or
        a duration whose powers overflow, is a configuration error."""
        max_order = max(self.orders) if max_order is None else max_order
        try:
            if self.flavor == FLAVOR_VAN_VLECK:
                return van_vleck_orders(drive, max_order, m_max=self.m_max)
            if is_binary_drive(drive):
                return bch_orders(drive, max_order)
            return fm_general(drive, max_order)
        except UnsupportedOrderError as exc:
            raise ConfigError(f"orders: {exc}") from None
        except OverflowError:
            key = "model.segments" if self.params is None else "model.tau"
            raise ConfigError(f"{key}: the expansion's coefficients overflow") from None

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


def _indented_json(document) -> str:
    """``json.dumps(document, indent=2, sort_keys=True, allow_nan=False)``
    and a newline, byte for byte: the C encoder writes the document compact
    (ASCII), then one NumPy pass inserts a newline and two spaces per depth
    after each opener and comma and before each closer, outside strings and
    empty ``[]``/``{}``. With escaped backslashes, then escaped quotes,
    masked, a byte is in a string when an odd number of quotes precede it."""
    raw = json.dumps(document, sort_keys=True, allow_nan=False, separators=(",", ": ")).encode()
    plain = raw.replace(b"\\\\", b"..").replace(b'\\"', b"..")
    plain = np.frombuffer(plain, np.uint8)
    folded = plain | 32  # "[" and "]" read as "{" and "}"
    at = ((folded == 123) | (folded == 125) | (plain == 44)).nonzero()[0]
    at = at[(plain == 34).nonzero()[0].searchsorted(at) & 1 == 0]
    opener, closer = folded[at] == 123, folded[at] == 125
    inner = folded[at + 1 - 2 * closer]  # the container's first or last byte
    kept = ~(opener & (inner == 125) | closer & (inner == 123))
    where = (at + ~closer)[kept]  # after an opener or comma, before a closer
    width = 1 + 2 * (opener.astype(np.int64) - closer).cumsum()[kept]
    runs = np.empty(2 * where.size + 1, np.int64)  # text, indent, ..., text
    runs[0:-1:2], runs[-1] = where, plain.size
    runs[2::2] -= where
    runs[1::2] = width
    text = (np.arange(runs.size) % 2 == 0).repeat(runs)
    out = np.full(text.size + 1, 32, np.uint8)
    out[:-1][text] = np.frombuffer(raw, np.uint8)
    out[where + width.cumsum() - width] = out[-1] = 10
    return out.tobytes().decode("ascii")


def _json_report(config: RunConfig, command: str, **entries) -> str:
    """The JSON report of ``command``: ``entries``, the schema version and
    the run's metadata, as :func:`_indented_json` writes them."""
    document = dict(entries, schema_version=SCHEMA_VERSION, metadata=config.metadata(command))
    try:
        return _indented_json(document)
    except ValueError:
        message = "the report would hold a non-finite number, which JSON does not allow"
        raise FloquetLindbladError(f"{command}: {message}") from None


def cmd_analyze(config: RunConfig) -> str:
    """Build the JSON certification report for one drive."""
    drive = config.drive()
    expansion = config.expansion(drive)
    max_abs, certificates = order_certificates(
        expansion, config.orders, config.weight_limit, config.tol_psd
    )
    order_records = [
        {
            "order": order,
            "cumulative": {
                "spectrum": report.eigenvalues.tolist(),
                "min_eigenvalue": report.min_eigenvalue,
                "verdict": report.is_liouvillian,
                "breaking_degree": report.breaking_degree,
                "psd_tol": report.tol,
                "block_structure": {
                    "d_n": sum(len(indices) for indices, _ in blocks),
                    "blocks": [
                        {
                            "indices": indices,
                            "size": len(indices),
                            "min_eigenvalue": float(eigenvalues[0]),
                        }
                        for indices, eigenvalues in blocks
                    ],
                },
                "roundtrip_residual": residual,
            },
            "term": {
                "trace": trace,
                "trace_ok": None if order == 0 else abs(trace) <= TRACE_TOL,
                "min_eigenvalue": term.min_eigenvalue,
            },
        }
        for order, (report, blocks, residual, term, trace) in zip(config.orders, certificates)
    ]
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
    return _json_report(
        config, "analyze",
        orders=order_records,
        bound_checks=bound_checks,
        tail_estimate=expansion.tail_estimate,
    )


def _certify_grid(config: RunConfig, unit, parameter: str, grid, orders, path: str):
    """The PSD reports of the cumulative generators of ``orders`` at every
    value of ``parameter`` in ``grid``, in turn. ``unit`` is the expansion
    of the drive at unit value of the parameter, and a point weights its
    parts (:func:`~floquet_lindblad.liouvillianity.graded_reports`); a
    weight that overflows is a configuration error of ``path``'s stop."""
    segment = PARAMETER_SEGMENTS[config.params.name].get(parameter)
    weights = unit.part_weights(segment, grid)
    if not np.isfinite(weights).all():
        raise ConfigError(f"{path}.stop: the expansion's part weights overflow on this grid")
    return graded_reports(unit, weights, orders, config.weight_limit, config.tol_psd)


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
        raise ConfigError(f"scan.start: {parameter} grid must stay nonnegative")
    unit = config.expansion(build_model(replace(config.params, **{parameter: 1.0})))
    lines = [CSV_HEADER]
    points = _certify_grid(config, unit, parameter, grid, config.orders, "scan")
    for value, reports in zip(map(_format_float, grid), points):
        for order, report in zip(config.orders, reports):
            if not math.isfinite(report.min_eigenvalue):  # nor is its breaking degree
                raise FloquetLindbladError("scan: the report would hold a non-finite number")
            verdict = "true" if report.is_liouvillian else "false"
            numbers = (report.min_eigenvalue, report.breaking_degree)
            min_eig, degree = map(_format_float, numbers)
            lines.append(f"{value},{order},{min_eig},{verdict},{degree}")
    return "\n".join(lines) + "\n"


def cmd_fit_modelc(config: RunConfig) -> str:
    """Fit the normalized smallest eigenvalue of model C, order two."""
    if config.params is None or config.params.name != "C":
        raise ConfigError("fit: requires a model C configuration")
    if config.flavor != FLAVOR_STROBOSCOPIC:
        raise ConfigError(
            f"flavor: fit-modelc fits the stroboscopic order-2 eigenvalue, "
            f"got {config.flavor!r}"
        )
    if 2 not in config.orders:
        raise ConfigError(
            f"orders: fit-modelc fits order 2, got {list(config.orders)}"
        )
    section = config.fit_section
    if section is None:
        raise ConfigError("fit: missing 'fit' section")
    grid = _parse_grid(section, "fit")
    ref_coeffs, ref_rmse, (low, high) = MODEL_C_FIT
    fit_warnings = []
    if grid[0] <= low or grid[-1] >= high:
        fit_warnings.append(
            f"grid extends outside ({low:g}, {high:g}); the reference fit window "
            "does not cover it"
        )
    params = config.params
    unit = config.expansion(build_model(replace(params, jz=1.0)), 2)
    min_eigs = [
        report.min_eigenvalue
        for (report,) in _certify_grid(config, unit, "jz", grid / params.tau, (2,), "fit")
    ]
    scale = params.gamma * 2.0 ** (params.num_sites - 1)
    normalized = []  # up to the first point whose denominator is not positive
    for product, min_eig in zip(grid, min_eigs):
        denominator = scale * product**2
        if denominator <= 0.0:
            break
        normalized.append(min_eig / denominator)
    coefficients = rmse = max_deviation = fit_error = None
    if len(normalized) < len(grid):
        fit_error = "degenerate normalization (gamma and the grid must be positive)"
    elif len(grid) < 4:
        fit_error = "need at least four grid points for a cubic fit"
    else:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", np.exceptions.RankWarning)
                raw = np.polyfit(grid, normalized, 3)
        except (np.linalg.LinAlgError, np.exceptions.RankWarning) as exc:
            fit_error = f"cubic fit failed: {exc}"
        else:
            coefficients = raw[::-1].tolist()
            fitted = np.polyval(raw, grid)
            rmse = float(np.sqrt(np.mean((fitted - np.asarray(normalized)) ** 2)))
            ref_values = np.polyval(ref_coeffs[::-1], grid)
            max_deviation = float(np.max(np.abs(ref_values - np.asarray(normalized))))
    return _json_report(
        config, "fit-modelc",
        grid=grid.tolist(),
        normalized_min_eigs=normalized,
        fit_coefficients=coefficients,
        fit_rmse=rmse,
        reference_coefficients=ref_coeffs,
        reference_rmse=ref_rmse,
        max_abs_deviation_from_reference=max_deviation,
        fit_error=fit_error,
        warnings=fit_warnings,
    )


def _compare_pass(config: RunConfig, expansion, grid: np.ndarray):
    """The grid's residuals ``(points, orders)``, NaN where branch-ambiguous,
    then the transfer blocks, the exact one-period step and the cumulative
    orders' blocks ``(n, k, m, m)`` at ``tau``.
    A point scales the durations by ``s = value / tau`` and the order-k term
    by ``s^k``: the blocks and term transfers are formed once and the points
    (then ``s = 1``) stacked, a chunk of them at a time, each chunk's guards
    run before the next. A chunk's sums ``sum_{k <= n} s^k R_k`` of every
    order are one running sum, split into blocks at once. The residual is
    taken on the L-site transfer matrices: squared differences on the blocks
    plus the entries off them. A propagator that overflows is a
    configuration error of the duration that scales it: ``compare.stop``
    at a grid point, ``model.tau`` for the one-period step.
    """
    blocks = TransferBlocks(expansion.drive)
    codes, values = stack_pauli_terms([transfer(term) for term in expansion.order_terms])
    scales = np.append(np.asarray(grid, dtype=float) / config.params.tau, 1.0)
    point_bytes = max(16 * group.size * group.shape[1] for group in blocks.groups)
    chunk = max(1, _GRID_BYTES // point_bytes)
    residuals = np.empty((len(grid), len(config.orders)))
    for start in range(0, scales.size, chunk):
        with np.errstate(over="ignore", invalid="ignore"):
            steps = blocks.propagator(scales[start : start + chunk])
        points = scales[start : min(start + chunk, len(grid))]  # the step s = 1 is last
        if not all(np.isfinite(step[: points.size]).all() for step in steps):
            raise ConfigError("compare.stop: a grid point's propagator overflows")
        if not points.size:
            continue
        try:
            logs = block_logs([step[: points.size] for step in steps])
        except BranchCutError:  # at every point of the chunk
            logs = [np.full(step[: points.size].shape, np.nan) for step in steps]
        period = points[:, None, None, None, None] * expansion.drive.period
        powers = points[:, None, None] ** np.arange(len(values))[:, None]
        sums = np.cumsum(powers * values, axis=1)[:, list(config.orders)]
        stacks, outside = blocks.split((codes, sums))
        inside = sum(np.sum(np.abs(log[:, None] / period - stack) ** 2, axis=(2, 3, 4))
                     for log, stack in zip(logs, stacks))
        residuals[start : start + points.size] = np.sqrt(inside + outside)
    if np.isnan(residuals).all():
        raise BranchCutError(
            "the exact effective generator is branch-ambiguous at every "
            "grid point"
        )
    if not all(np.isfinite(step[-1]).all() for step in steps):
        raise ConfigError("model.tau: the one-period propagator overflows")
    cumulative = blocks.split((codes, np.cumsum(values, axis=0)[list(config.orders)]))[0]
    return residuals, blocks, [step[-1] for step in steps], cumulative


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
    if num_periods > MAX_COUNT:
        raise ConfigError(f"compare.num_periods: at most {MAX_COUNT}, got {num_periods}")
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
        if defect > 1e-8 or trace_error > 1e-8 or np.linalg.eigvalsh(initial_state)[0] < -1e-8:
            raise ConfigError(
                "compare.initial_state: must be Hermitian, positive "
                "semidefinite and of unit trace"
            )
    expansion = config.expansion(drive)
    table, blocks, step, cumulative = _compare_pass(config, expansion, grid)
    kept = ~np.isnan(table[:, 0])
    residuals: dict[str, list] = {}
    slopes: dict[str, float | None] = {}
    for order, column in zip(config.orders, table.T):
        residuals[str(order)] = [v if ok else None for v, ok in zip(column.tolist(), kept)]
        ys = np.log(np.maximum(column[kept], 1e-300))
        slope = np.polyfit(np.log(grid[kept]), ys, 1)[0] if kept.sum() >= 2 else np.nan
        slopes[str(order)] = float(slope) if np.isfinite(slope) else None
    try:  # with a finite exact step, only the expansion's side can overflow
        with np.errstate(over="ignore", invalid="ignore"):
            comparisons = stroboscopic_compares(
                blocks, step, cumulative, num_periods, initial_state
            )
    except np.linalg.LinAlgError:
        raise ConfigError("model.tau: the expansion's stroboscopic evolution overflows") from None
    stroboscopic = {
        str(order): {
            "distances": list(comparison.distances),
            "max_distance": comparison.max_distance,
        }
        for order, comparison in zip(config.orders, comparisons)
    }
    return _json_report(
        config, "compare-exact",
        tau_grid=grid.tolist(),
        residuals=residuals,
        slopes=slopes,
        branch_failures=grid[~kept].tolist(),
        stroboscopic={
            "num_periods": num_periods,
            "per_order": stroboscopic,
        },
    )


_COMMANDS = {
    "analyze": (cmd_analyze, "per-order certification report (JSON)"),
    "scan": (cmd_scan, "one-parameter sweep (CSV)"),
    "fit-modelc": (cmd_fit_modelc, "normalized eigenvalue fit for model C (JSON)"),
    "compare-exact": (cmd_compare_exact, "exact-vs-expansion comparison (JSON)"),
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: every command takes the same options."""
    parser = argparse.ArgumentParser(
        prog="floquet-lindblad",
        description=(
            "Effective-generator expansions of periodically driven Lindblad\n"
            "dynamics: certification reports, parameter scans, eigenvalue fits\n"
            "and exactness comparisons.\n\ncommands:\n"
            + "".join(f"  {name:<15}{text}\n" for name, (_, text) in _COMMANDS.items())
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands above")
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--tol-psd", type=float, default=None,
                        help="absolute PSD tolerance override")
    parser.add_argument("--order", type=int, default=None,
                        help="restrict to orders 0..N (overrides the config list)")
    parser.add_argument("--flavor", choices=(FLAVOR_STROBOSCOPIC, FLAVOR_VAN_VLECK),
                        default=None, help="expansion flavor override")
    return parser


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
        output = _COMMANDS[args.command][0](config)
        if config.out is None:
            sys.stdout.write(output)
            return 0
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(output)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BranchCutError as exc:
        print(f"branch ambiguity [BranchCutError]: {exc}", file=sys.stderr)
        return 4
    except FloquetLindbladError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
