"""Writes the baseline table from traced runs.

    python3 perfbench/run.py --workload W --seed 1 --trace 1 --out t.jsonl
    (once for each workload)
    python3 perfbench/baseline.py t.jsonl > perfbench/baseline.json

The table has one row per fixture: ``build_reference_monoid``,
``simplicial_nerve(..., 3)`` with its nondegenerate cells, and
``verify_proposition(..., 2)``, as the traced jobs timed them.  A stage
that no workload runs on a fixture is missing from its row.  The host's
processor count and Python version go beside the table.
"""

import json
import os
import platform
import sys


def main() -> int:
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    rows = {}
    sources = {}
    for path in sys.argv[1:]:
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["trace"] != 1 or not rec["correct"]:
                    continue
                for job in rec["jobs"]:
                    for fixture, row in (job.get("baseline") or {}).items():
                        rows[fixture] = row
                        sources[fixture] = f"{rec['workload']} seed {rec['seed']}"
    json.dump({
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "timed_under": "the tracer, so stage times include its overhead "
                       "(see trace_overhead_ratio)",
        "fixtures": {"default": "Z/2 components over grades {0, 1, 2+}",
                     "z3": "Z/3 components over grades {0, 1, 2+}",
                     "four": "Z/2 components over grades {0, 1, 2, 3+}"},
        "rows": rows,
        "measured_by": sources,
    }, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
