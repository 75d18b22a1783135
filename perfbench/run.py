"""Host-time benchmark for capchain.

Run from the repository root:

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the same figures for a reader. The
exit status is 0 only when every check held. README.md next to this file
says what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("hot_reads", "idle_sync", "churn")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # the program under test is this checkout's src/, never an installed copy
    if not (SRC / "capchain" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no capchain sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    if args.rss_probe:
        return measure.probe_main(args.workload, args.seed)
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        values, checks = measure.run_workload(workload, args.seed, args.seconds,
                                              bool(args.trace))
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in values.items()})
        attempted += checks.attempted
        failed += len(checks.failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
