"""One job of one workload, in a fresh process started by run.py.

    python3 perfbench/job.py --workload W --seed N --spawned T
        --workdir DIR --result FILE [--trace]

``--spawned`` is the ``time.monotonic()`` reading taken just before
run.py started this process (CLOCK_MONOTONIC is system-wide on Linux),
so ``setup_s`` covers interpreter start, imports and fixture
construction.  ``verdict_s`` runs from the start of the job to its
digest.  The result, with the trace when ``--trace`` is given, goes to
FILE as JSON.
"""

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext

from tracer import Tracer, merge
from workloads import WORKLOADS


class Context:
    def __init__(self, args, tracer):
        self.seed = args.seed
        self.workdir = args.workdir
        self.tracer = tracer


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for
    (Linux reports ``ru_maxrss`` in KiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None and cls.in_process:
        tracer.install()
    workload = cls(Context(args, tracer))

    def stage(name: str):
        if tracer is None:
            return nullcontext()
        return tracer.span(name, fixture=cls.fixture)

    with stage("setup"):
        workload.setup()
    begin = time.monotonic()
    with stage("job") as job_span:
        t0 = time.perf_counter()
        digest = workload.run()
        verdict_s = time.perf_counter() - t0

    result = {"setup_s": begin - args.spawned, "verdict_s": verdict_s,
              "peak_rss_mb": peak_rss_mb(), "digest": digest,
              "extras": workload.extras(), "trace": None}
    if tracer is not None:
        tracer.restore()
        result["trace"] = tracer.data()
        merge(workload.traces, job_span, result["trace"])
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
