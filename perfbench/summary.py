"""Run every workload once and print each end-to-end metric by name and unit.

    python3 perfbench/summary.py

Runs ``run.py --trace 0`` for each workload in ``BENCHMARK.json`` (seed 0,
its ``run_seconds``) and prints one block per workload, including
``failed_frac``, the share of attempted invocations that failed the
reference check. Exits nonzero if any run fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", "0", "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=HERE.parent,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: run failed with exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        failed_frac = result["failed"] / result["attempted"]
        ok = ok and result["correct"]
        print(f"{name}  ({result['attempted']} invocations)")
        for metric in spec["end_to_end"]:
            value = result["metrics"][metric["name"]]
            print(f"  {metric['name']:<12} {value['value']:>12.4f} {value['unit']}")
        print(f"  {'failed_frac':<12} {failed_frac:>12.4f} share")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
