"""Compare a CLI report with the report recorded from the seed commit.

JSON reports are walked field by field:

* strings, integers, booleans and nulls must match exactly, and so must
  dictionary keys and list lengths; this covers orders, verdicts, block
  index sets, sizes, ``d_n`` and bound-check ``ok``;
* ``branch_failures`` must match exactly;
* a roundoff-sized field (``roundtrip_residual``, or a ``trace`` whose
  reference is at most ``ROUNDOFF_BOUND``) must stay at most
  ``ROUNDOFF_BOUND`` in magnitude;
* every other float must agree to ``REL_TOL`` times its field's scale:
  the largest magnitude the reference holds under the same path with list
  positions left out (so all eigenvalues of all orders share one scale).

CSV reports (``scan``) must have the same header and number of rows; the
``param``, ``order`` and ``verdict`` columns match exactly and the other
columns agree to ``REL_TOL`` times the column's largest reference magnitude.
"""

from __future__ import annotations

import json

REL_TOL = 1e-9
ROUNDOFF_BOUND = 1e-9
ROUNDOFF_FIELDS = ("roundtrip_residual", "trace")
EXACT_FIELDS = ("branch_failures",)
CSV_EXACT_COLUMNS = ("param", "order", "verdict")


def compare_reports(report: bytes, reference: bytes) -> list[str]:
    """Every mismatch between ``report`` and ``reference``, as messages."""
    text, ref_text = report.decode(), reference.decode()
    if not ref_text.startswith("{"):
        return _compare_csv(text, ref_text)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    ref = json.loads(ref_text)
    scales: dict[str, float] = {}
    _collect_scales(ref, "", scales)
    return _compare_json(doc, ref, "", "", None, scales)


def _collect_scales(ref, key: str, scales: dict[str, float]) -> None:
    if isinstance(ref, dict):
        for name, value in ref.items():
            _collect_scales(value, f"{key}.{name}", scales)
    elif isinstance(ref, list):
        for value in ref:
            _collect_scales(value, f"{key}[]", scales)
    elif isinstance(ref, float):
        scales[key] = max(scales.get(key, 0.0), abs(ref))


def _compare_json(doc, ref, path: str, key: str, field, scales) -> list[str]:
    """``path`` names the field with list positions, ``key`` without."""
    if isinstance(ref, dict):
        if not isinstance(doc, dict) or sorted(doc) != sorted(ref):
            return [f"{path or '.'}: keys differ"]
        errors = []
        for name in ref:
            errors += _compare_json(
                doc[name], ref[name], f"{path}.{name}", f"{key}.{name}", name, scales
            )
        return errors
    if isinstance(ref, list):
        if not isinstance(doc, list) or len(doc) != len(ref):
            return [f"{path}: list length differs"]
        if field in EXACT_FIELDS:
            return [] if doc == ref else [f"{path}: {doc!r} != {ref!r}"]
        errors = []
        for position, (item, ref_item) in enumerate(zip(doc, ref)):
            errors += _compare_json(
                item, ref_item, f"{path}[{position}]", f"{key}[]", field, scales
            )
        return errors
    if isinstance(ref, float) and isinstance(doc, float):
        if field in ROUNDOFF_FIELDS and abs(ref) <= ROUNDOFF_BOUND:
            if abs(doc) <= ROUNDOFF_BOUND:
                return []
            return [f"{path}: {doc!r} exceeds the roundoff bound {ROUNDOFF_BOUND:g}"]
        return _compare_float(doc, ref, REL_TOL * scales[key], path)
    if type(doc) is not type(ref) or doc != ref:
        return [f"{path}: {doc!r} != {ref!r}"]
    return []


def _compare_float(value: float, ref: float, limit: float, where: str) -> list[str]:
    if abs(value - ref) <= limit:
        return []
    return [f"{where}: {value!r} differs from {ref!r} by more than {limit:.3g}"]


def _compare_csv(text: str, ref_text: str) -> list[str]:
    rows = [line.split(",") for line in text.splitlines()]
    ref_rows = [line.split(",") for line in ref_text.splitlines()]
    if not rows or rows[0] != ref_rows[0]:
        return ["CSV header differs"]
    if len(rows) != len(ref_rows):
        return [f"CSV has {len(rows) - 1} rows, expected {len(ref_rows) - 1}"]
    header = ref_rows[0]
    errors = []
    for column, name in enumerate(header):
        if name in CSV_EXACT_COLUMNS:
            for line, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), 2):
                if len(row) != len(header) or row[column] != ref_row[column]:
                    errors.append(f"line {line} {name}: {row!r} != {ref_row!r}")
            continue
        scale = max(abs(float(row[column])) for row in ref_rows[1:])
        for line, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), 2):
            try:
                value = float(row[column])
            except (IndexError, ValueError):
                errors.append(f"line {line} {name}: not a number in {row!r}")
                continue
            errors += _compare_float(
                value, float(ref_row[column]), REL_TOL * scale, f"line {line} {name}"
            )
    return errors
