"""Span tracing around the package's public functions, from outside it.

Each wrapped function records one span per call: its name, thread,
start, end and parent span. Every thread keeps its own stack of open
spans, so calls made by the CLI's thread pool nest correctly; a span
that opens on an empty pool-thread stack takes the open ``cli.main``
span (the outermost span of the installing thread) as its parent.

Modules import functions by name, so installing rebinds every package
module attribute that holds a wrapped function, and ``uninstall`` puts
the originals back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass

PACKAGE = "floquet_lindblad"

#: Wrapped public functions, per layer (package module).
LAYERS = {
    "lindblad": ("liouvillian_superop", "lindblad_form_superop"),
    "magnus": (
        "bch_orders",
        "fourier_component",
        "van_vleck_orders",
        "exact_effective",
        "floquet_propagator",
    ),
    "pauli": (
        "pauli_coefficients",
        "matrix_from_pauli_coefficients",
        "quadratic_product_coefficients",
    ),
    "liouvillianity": (
        "extract_dissipator",
        "extract_hamiltonian",
        "roundtrip_residual",
        "per_order_checks",
        "psd_report",
    ),
    "locality": ("block_partition", "coefficient_bound_check"),
    "core": ("herm_eigs", "matrix_log_principal", "matrix_exp"),
    "dynamics": ("stroboscopic_compare",),
    "cli": ("main",),
}

#: Functions whose spans count the BranchCutErrors raised through them.
COUNTS_ERRORS = (
    "magnus.exact_effective",
    "magnus.floquet_propagator",
    "core.matrix_log_principal",
    "core.matrix_exp",
    "dynamics.stroboscopic_compare",
)

#: Problem size recorded on each span: Pauli transforms record their site
#: count, eigensolves their matrix order.
SIZE_OF = {
    "pauli.pauli_coefficients": lambda matrix, num_sites, *a, **k: num_sites,
    "core.herm_eigs": lambda matrix, *a, **k: len(matrix),
}

ROOT = "cli.main"


@dataclass
class Span:
    name: str
    thread: int
    parent: int | None
    size: int | None = None
    start: float = 0.0
    end: float = 0.0
    branch_cut: bool = False


def _zero_metrics() -> dict[str, float]:
    metrics: dict[str, float] = {}
    for module, functions in LAYERS.items():
        for function in functions:
            name = f"{module}.{function}"
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.busy_s"] = 0.0
            metrics[f"{name}.self_s"] = 0.0
            if name in COUNTS_ERRORS:
                metrics[f"{name}.errors"] = 0
        metrics[f"{module}.self_s"] = 0.0
    metrics["pauli.pauli_coefficients.elems_sum"] = 0
    metrics["pauli.pauli_coefficients.max_sites"] = 0
    metrics["core.herm_eigs.n3_sum"] = 0
    metrics["core.herm_eigs.max_n"] = 0
    metrics["cli.parallelism"] = 0.0
    return metrics


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit;
    ``trace.overhead_s`` comes from comparing traced and untraced runs."""
    names = [
        (name, "s" if name.endswith("_s") else "ratio" if isinstance(zero, float) else "count")
        for name, zero in _zero_metrics().items()
    ]
    return names + [("trace.overhead_s", "s")]


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin: int | None = None
        self._root: int | None = None
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` wherever the package holds it."""
        from floquet_lindblad.errors import BranchCutError

        self._branch_cut_error = BranchCutError
        self._origin = threading.get_ident()
        modules = [
            module
            for mod_name, module in sorted(sys.modules.items())
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
        ]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{layer}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        """Point every rebound name back at its original function."""
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _wrap(self, name: str, func):
        size_of = SIZE_OF.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            thread = threading.get_ident()
            parent = stack[-1] if stack else tracer._root
            span = Span(name, thread, parent)
            if size_of is not None:
                span.size = int(size_of(*args, **kwargs))
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            is_root = not stack and thread == tracer._origin
            if is_root:
                tracer._root = index
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except tracer._branch_cut_error:
                span.branch_cut = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def self_times(spans: list[Span], first: int = 0) -> dict[int, float]:
    """Self time of every span from index ``first`` on: its duration minus
    the part of its interval that the union of its child spans covers."""
    children: dict[int, list[Span]] = {}
    for span in spans[first:]:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for index in range(first, len(spans)):
        span = spans[index]
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[index] = (span.end - span.start) - covered
    return result


def layer_metrics(spans: list[Span], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of the spans from index ``first`` on (one
    traced invocation). ``trace.overhead_s`` is left to the caller."""
    own = self_times(spans, first)
    metrics = _zero_metrics()
    root_wall = 0.0
    root_children_busy = 0.0
    roots = set()
    for index in range(first, len(spans)):
        span = spans[index]
        name = span.name
        duration = span.end - span.start
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.busy_s"] += duration
        metrics[f"{name}.self_s"] += own[index]
        metrics[f"{name.split('.')[0]}.self_s"] += own[index]
        if span.branch_cut and name in COUNTS_ERRORS:
            metrics[f"{name}.errors"] += 1
        if name == "pauli.pauli_coefficients":
            metrics[f"{name}.elems_sum"] += 4**span.size
            metrics[f"{name}.max_sites"] = max(
                metrics[f"{name}.max_sites"], span.size
            )
        elif name == "core.herm_eigs":
            metrics[f"{name}.n3_sum"] += span.size**3
            metrics[f"{name}.max_n"] = max(metrics[f"{name}.max_n"], span.size)
        if name == ROOT:
            roots.add(index)
            root_wall += duration
        elif span.parent in roots:
            root_children_busy += duration
    metrics["cli.parallelism"] = (
        root_children_busy / root_wall if root_wall > 0.0 else 0.0
    )
    return metrics


def spans_as_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready records, with self times."""
    own = self_times(spans)
    return [
        {
            "index": index,
            "name": span.name,
            "thread": span.thread,
            "start": span.start,
            "end": span.end,
            "parent": span.parent,
            "self_s": own[index],
            "size": span.size,
            "branch_cut": span.branch_cut,
        }
        for index, span in enumerate(spans)
    ]
