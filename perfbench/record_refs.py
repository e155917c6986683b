"""Record the reference reports that every benchmark invocation is checked against.

    python3 perfbench/record_refs.py

Writes ``refs/<workload>.out`` and ``refs/setup.out`` from the package in
the checkout's ``src``. The committed references were recorded from the
seed commit of the benchmark; re-record them only when a change of the
reports is intended and reviewed.
"""

from __future__ import annotations

import sys

from worker import HERE, SETUP, WORKLOADS, argv_for, import_cli


def main() -> int:
    cli = import_cli(str(HERE.parent))
    for name, command in [("setup", SETUP), *WORKLOADS.items()]:
        code = cli.main(argv_for(command, str(HERE / "refs" / f"{name}.out")))
        if code != 0:
            print(f"{name}: exit code {code}", file=sys.stderr)
            return 1
        print(f"recorded refs/{name}.out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
