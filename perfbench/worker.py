"""Child process of the benchmark: runs CLI invocations in a fresh interpreter.

    python3 worker.py setup <root> <out>
        Import ``floquet_lindblad.cli`` from ``<root>/src`` and run the tiny
        set-up report once, writing it to ``<out>``. The parent times the
        whole process.

    python3 worker.py run <root> <workload> <seconds> <trace> <out> <spans>
        Run one workload through ``cli.main``: one tiny untimed set-up
        report as warm-up, then timed invocations until ``<seconds>`` have
        passed (at least one). With ``<trace>`` 1, untraced and traced
        invocations alternate (at least one of each), and the spans are
        written to ``<spans>`` at the end. Prints one JSON line with the
        samples (each with the peak resident set so far) and the library
        versions. The first report stays in ``<out>``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics, spans_as_records

HERE = Path(__file__).resolve().parent

#: Workload name -> (CLI subcommand, configuration file under workloads/).
WORKLOADS = {
    "analyze-ring5": ("analyze", "analyze-ring5.json"),
    "scan-decay4": ("scan", "scan-decay4.json"),
    "exact-ring4": ("compare-exact", "exact-ring4.json"),
    "kickfree-3seg4": ("analyze", "kickfree-3seg4.json"),
}
SETUP = ("analyze", "setup.json")


def argv_for(command: tuple[str, str], out: str) -> list[str]:
    subcommand, config = command
    return [subcommand, "--config", str(HERE / "workloads" / config), "--out", out]


def import_cli(root: str):
    sys.path.insert(0, str(Path(root) / "src"))
    from floquet_lindblad import cli

    return cli


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def invoke(main, argv: list[str], out: str) -> dict:
    """One invocation of ``main``; the report is read back after timing."""
    if os.path.exists(out):
        os.remove(out)
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    code = main(argv)
    wall1, cpu1 = time.perf_counter(), cpu_seconds()
    report = None
    if code == 0 and os.path.exists(out):
        report = Path(out).read_bytes()
    return {
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "code": code,
        "report": report,
    }


def library_facts() -> dict:
    import numpy
    import scipy

    facts = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {
            key: blas.get(key) for key in ("name", "version", "openblas configuration")
        }
    except (TypeError, KeyError) as exc:  # older NumPy has no dict mode
        facts["blas"] = f"unavailable: {exc}"
    return facts


def run(root: str, workload: str, seconds: float, traced: bool, out: str, spans_path: str) -> dict:
    cli = import_cli(root)
    argv = argv_for(WORKLOADS[workload], out)
    invoke(cli.main, argv_for(SETUP, out), out)
    samples = []
    first_report = None
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    while len(samples) < 1 + traced or time.perf_counter() - start < seconds:
        with_trace = traced and len(samples) % 2 == 1
        if with_trace:
            first_span = len(tracer.spans)
            tracer.install()
            try:
                sample = invoke(cli.main, argv, out)
            finally:
                tracer.uninstall()
            sample["layers"] = layer_metrics(tracer.spans, first_span)
        else:
            sample = invoke(cli.main, argv, out)
        report = sample.pop("report")
        if not samples:
            first_report = report
        sample["same_as_first"] = report is not None and report == first_report
        sample["traced"] = with_trace
        samples.append(sample)
    if tracer is not None:
        Path(spans_path).write_text(json.dumps(spans_as_records(tracer.spans)))
    if first_report is not None:
        Path(out).write_bytes(first_report)
    return {
        "samples": samples,
        "libraries": library_facts(),
    }


def main(args: list[str]) -> int:
    if args[0] == "setup":
        root, out = args[1:3]
        cli = import_cli(root)
        return cli.main(argv_for(SETUP, out))
    root, workload, seconds, traced, out, spans_path = args[1:7]
    result = run(root, workload, float(seconds), traced == "1", out, spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
