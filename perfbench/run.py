"""Benchmark of the floquet-lindblad certification pipeline.

    python3 perfbench/run.py --workload analyze-ring5 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory. With ``--trace 0`` it measures the end-to-end metrics:

* ``setup_s``: median wall time of ``SETUP_RUNS`` fresh interpreters that
  each import ``floquet_lindblad.cli`` and make one tiny model A report;
* ``report_s`` and ``cpu_s``: median wall and process CPU time (user plus
  system, all threads) of one ``cli.main`` invocation of the workload,
  report writing included, over the invocations made in ``--seconds`` by a
  fresh process after one tiny untimed warm-up report;
* ``peak_rss_mb``: peak resident set of that process after its first
  invocation, as a console-script user would see it. Later invocations are
  left out: with the CLI's thread pool, heap fragmentation across threads
  can raise the peak of a long-lived process by 15 %, at random.

With ``--trace 1`` traced and untraced invocations alternate in one fresh
process and the per-layer metrics of ``spans.py`` are reported as medians
over the traced ones; ``trace.overhead_s`` is the traced minus the untraced
median wall time. Spans are written under ``.perfbench_out/``.

Every invocation is checked: exit code 0, report byte-identical to the
run's first one, and the first one equal to the reference recorded from the
seed commit (``check.py``). The inputs are the fixed configurations in
``workloads/``, for which the references were recorded, so every seed gives
the same inputs; the seed only names the run's output files.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import compare_reports
from spans import per_layer_names
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 3
#: Wall-clock budget of one benchmark run, in seconds.
BUDGET_S = 170.0


class RunFailed(Exception):
    pass


def machine_facts(libraries: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **libraries,
        "thread_env": {
            key: value for key, value in sorted(os.environ.items())
            if key.endswith("_NUM_THREADS")
        },
    }


def child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run ``worker.py`` with ``args`` and wait for it, within the budget."""
    try:
        return subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {args[0]} exceeded the {BUDGET_S:.0f} s budget")


def check_report(out: Path, reference: Path) -> list[str]:
    if not out.is_file():
        return [f"no report at {out}"]
    return compare_reports(out.read_bytes(), reference.read_bytes())


def measure_setup(run_dir: Path, deadline: float) -> tuple[list[float], int]:
    """Wall times of the fresh set-up processes, and how many failed."""
    out = run_dir / "setup.out"
    times, failed = [], 0
    for _ in range(SETUP_RUNS):
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = child(["setup", str(ROOT), str(out)], deadline)
        times.append(time.perf_counter() - start)
        errors = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        errors = errors or check_report(out, HERE / "refs" / "setup.out")
        if errors:
            failed += 1
            print("set-up report:", *errors[:5], sep="\n  ", file=sys.stderr)
    return times, failed


def run_workload(args, run_dir: Path, deadline: float) -> tuple[dict, int, int]:
    """The worker's result, with the invocations attempted and failed."""
    out, spans = run_dir / "report.out", run_dir / "spans.json"
    proc = child(
        ["run", str(ROOT), args.workload, str(args.seconds), str(args.trace),
         str(out), str(spans)],
        deadline,
    )
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = check_report(out, HERE / "refs" / f"{args.workload}.out")
    if errors:
        print("reference check:", *errors[:10], sep="\n  ", file=sys.stderr)
    samples = result["samples"]
    failed = sum(1 for s in samples if not s["same_as_first"] or errors)
    return result, len(samples), failed


def end_to_end(result: dict, setup_times: list[float]) -> dict:
    samples = result["samples"]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "report_s": (statistics.median(s["wall_s"] for s in samples), "s"),
        "cpu_s": (statistics.median(s["cpu_s"] for s in samples), "s"),
        "peak_rss_mb": (samples[0]["maxrss_kb"] / 1024.0, "MB"),
    }


def per_layer(result: dict) -> dict:
    traced = [s for s in result["samples"] if s["traced"]]
    plain = [s for s in result["samples"] if not s["traced"]]
    overhead = statistics.median(s["wall_s"] for s in traced) - statistics.median(
        s["wall_s"] for s in plain
    )
    metrics = {}
    for name, unit in per_layer_names():
        if name == "trace.overhead_s":
            metrics[name] = (overhead, unit)
        else:
            # Counts repeat exactly; a median of two must not turn them into floats.
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (median(s["layers"][name] for s in traced), unit)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "floquet_lindblad" / "cli.py").is_file():
        print(f"no floquet_lindblad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, setup_failed = (
            ([], 0) if args.trace else measure_setup(run_dir, deadline)
        )
        result, attempted, failed = run_workload(args, run_dir, deadline)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    attempted += len(setup_times)
    failed += setup_failed
    metrics = per_layer(result) if args.trace else end_to_end(result, setup_times)
    facts = machine_facts(result["libraries"])
    (run_dir / "result.json").write_text(json.dumps(
        {"machine": facts, "setup_times": setup_times, **result}, indent=1
    ))
    print("machine:", json.dumps(facts, sort_keys=True))
    timed = len(result["samples"])
    print(f"{args.workload}: {timed} timed invocations, "
          f"failed_frac {failed / attempted:.4g} ({failed}/{attempted})")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
