"""qckit benchmark: fresh-process workloads with checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        [--out FILE]
    python3 perfbench/run.py --record

Run from the root of a checkout.  Every job runs in a fresh Python
process, one at a time, importing qckit from ``src/`` of the checkout.

``--trace 0`` runs jobs while the next one is expected to end less than
half a job past S seconds (at least one job) and reports the end-to-end
metrics of BENCHMARK.json as medians over the jobs.  ``--trace 1`` runs one untraced job and two
traced ones, with different hash seeds, and reports the per-layer
metrics; a count that differs between the two traced jobs is flagged in
``trace_count_mismatches``.  Every job's digest must equal the one in
expected.json, or the job counts as failed, as do crashes and timeouts.
The last line of stdout is the result as JSON; ``--out`` also appends a
fuller record (per-job samples, baseline rows) for compare.py and
baseline.py.  ``--record`` rewrites expected.json from the current
checkout; do that only on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("prop-z3", "horn-survey", "cli-small")
HARD_LIMIT_S = 170  # a run must end within 180 s
BASELINE_FIXTURES = ("default", "z3", "four")


class Checkout:
    def __init__(self, root: str):
        self.root = root
        self.spec = self._load(os.path.join(root, "BENCHMARK.json"))
        src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(src, "qckit", "__init__.py")):
            raise SystemExit(f"no qckit sources under {src}: run from the "
                             "root of a qckit checkout")
        work = os.path.join(root, ".perfbench_work")
        os.makedirs(work, exist_ok=True)
        self.scratch = tempfile.mkdtemp(dir=work)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("QCKIT_MAX_DIM", "PYTHONPATH")}
        self.env["PYTHONPATH"] = src
        self.jobs = 0

    @staticmethod
    def _load(path: str) -> dict:
        try:
            with open(path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            raise SystemExit(f"missing {path}")

    def units(self, kind: str) -> dict:
        return {m["name"]: m["unit"] for m in self.spec[kind]}

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.scratch))
        except OSError:
            pass  # another run still uses it

    def job(self, workload: str, seed: int, hashseed: int, trace: bool,
            timeout: float) -> dict:
        """Runs one job process; returns its result, or a failure."""
        self.jobs += 1
        workdir = os.path.join(self.scratch, f"job{self.jobs}")
        os.makedirs(workdir)
        result_file = workdir + ".json"
        env = dict(self.env, PYTHONHASHSEED=str(hashseed % 2**32))
        spawned = time.monotonic()
        argv = [sys.executable, os.path.join(HERE, "job.py"),
                "--workload", workload, "--seed", str(seed),
                "--spawned", repr(spawned), "--workdir", workdir,
                "--result", result_file] + (["--trace"] if trace else [])
        proc = subprocess.Popen(argv, cwd=self.root, env=env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s",
                    "wall_s": time.monotonic() - spawned}
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        wall = time.monotonic() - spawned
        if code != 0:
            return {"error": f"job exited with code {code}", "wall_s": wall}
        with open(result_file) as fh:
            result = json.load(fh)
        result["wall_s"] = wall
        return result


def first_difference(want, got, path="digest"):
    if type(want) is not type(got):
        return f"{path}: expected {want!r}, got {got!r}"
    if isinstance(want, dict):
        for k in sorted(set(want) | set(got)):
            if k not in want or k not in got:
                return f"{path}.{k}: present on one side only"
            d = first_difference(want[k], got[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(want, list):
        if len(want) != len(got):
            return f"{path}: expected {len(want)} entries, got {len(got)}"
        for i, (a, b) in enumerate(zip(want, got)):
            d = first_difference(a, b, f"{path}[{i}]")
            if d:
                return d
        return None
    return None if want == got else f"{path}: expected {want!r}, got {got!r}"


def check(result: dict, expected) -> str | None:
    """None when the job succeeded with the recorded digest."""
    if "error" in result:
        return result["error"]
    if expected is None:
        return "no expected digest recorded for this workload"
    return first_difference(expected, result["digest"])


# -- per-layer metrics from a trace ---------------------------------


def _fixture_of(spans: list, i: int):
    while i is not None:
        if "fixture" in spans[i]["attrs"]:
            return spans[i]["attrs"]["fixture"]
        i = spans[i]["parent"]
    return None


def _outermost_totals(spans: list) -> dict:
    """Seconds per span name, counting a span only when no ancestor has
    the same name."""
    total: dict = defaultdict(float)
    for s in spans:
        names = set()
        p = s["parent"]
        while p is not None:
            names.add(spans[p]["name"])
            p = spans[p]["parent"]
        if s["name"] not in names:
            total[s["name"]] += s["end"] - s["start"]
    return total


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced job; a name it never produces,
    such as a span the workload does not reach, reads 0."""
    t = result["trace"]
    spans = t["spans"]
    m: dict = defaultdict(int)
    for kernel, (calls, secs) in t["kernels"].items():
        m[f"{kernel}.calls"] = calls
        m[f"{kernel}.s"] = secs
    for layer, secs in t["layers"].items():
        m[f"{layer}.s"] = secs
    for name, secs in _outermost_totals(spans).items():
        m[f"{name}.s"] = secs
    m.update(t["counts"])
    m["quasicat.fill_ratio"] = (m["quasicat.fill.found"]
                                / max(m["quasicat.fill.calls"], 1))
    m["cli.io_s"] = m["cli.io.s"]
    m["cli.start_s"] = result["extras"].get("start_s", 0.0)
    m["cli.artifact_bytes"] = result["extras"].get("artifact_bytes", 0)
    stages = {"scat.nerve": "nerve", "join.coslice": "coslice",
              "quasicat.core": "core"}
    m["monoids.prop.checks.s"] = m["monoids.prop.s"]
    for s in spans:
        a, dur = s["attrs"], s["end"] - s["start"]
        if s["name"] == "scat.enumerate":
            m[f"scat.enumerate.s.k{a['k']}"] += dur
            m[f"scat.functors.k{a['k']}"] += a["functors"]
        elif s["name"] == "scat.nerve":
            for d, n in enumerate(a["cells"]):
                m[f"scat.nerve_cells.d{d}"] += n
        elif s["name"] == "join.coslice":
            for d, n in enumerate(a["cells"]):
                m[f"join.coslice_cells.d{d}"] += n
        if (s["name"] in stages and s["parent"] is not None
                and spans[s["parent"]]["name"] == "monoids.prop"):
            m[f"monoids.prop.{stages[s['name']]}.s"] += dur
            m["monoids.prop.checks.s"] -= dur
    return m


def baseline_rows(result: dict) -> dict:
    """The ROADMAP baseline stages per fixture, from one traced job:
    median seconds of each stage, with the dimension-3 nerve's cells."""
    spans = result["trace"]["spans"]
    rows: dict = {}
    for i, s in enumerate(spans):
        fixture = _fixture_of(spans, i)
        if fixture not in BASELINE_FIXTURES:
            continue
        row = rows.setdefault(fixture, defaultdict(list))
        dur = s["end"] - s["start"]
        if s["name"] == "monoids.build":
            row["build_reference_monoid_s"].append(dur)
        elif s["name"] == "scat.nerve" and s["attrs"]["dim"] == 3:
            row["simplicial_nerve_3_s"].append(dur)
            row["nerve_cells"] = s["attrs"]["cells"]
        elif s["name"] == "monoids.prop" and s["attrs"]["dims"] == 2:
            row["verify_proposition_2_s"].append(dur)
    return {f: {k: (v if k == "nerve_cells" else statistics.median(v))
                for k, v in row.items()} for f, row in rows.items()}


# -- runs -------------------------------------------------------------


def timed_run(co: Checkout, args, expected) -> tuple[list, dict]:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    jobs = []
    while True:
        r = co.job(args.workload, args.seed, args.seed, False,
                   deadline - time.monotonic())
        r["problem"] = check(r, expected)
        jobs.append(r)
        if r["problem"] is not None:
            break
        elapsed = time.monotonic() - start
        mean_wall = statistics.fmean(j["wall_s"] for j in jobs)
        if elapsed + mean_wall / 2 > args.seconds:
            break
    ok = [j for j in jobs if j["problem"] is None]
    metrics = {}
    if ok:
        for name in co.units("end_to_end"):
            metrics[name] = statistics.median(j[name] for j in ok)
    return jobs, metrics


def traced_run(co: Checkout, args, expected) -> tuple[list, dict]:
    deadline = time.monotonic() + HARD_LIMIT_S
    jobs = []
    for traced, hashseed in ((False, args.seed), (True, args.seed),
                             (True, args.seed + 1)):
        r = co.job(args.workload, args.seed, hashseed, traced,
                   deadline - time.monotonic())
        r["problem"] = check(r, expected)
        r["traced"] = traced
        jobs.append(r)
        if r["problem"] is not None:
            break
    failed = sum(j["problem"] is not None for j in jobs)
    if failed:
        return jobs, {"fail_ratio": failed / len(jobs)}
    plain, a, b = jobs
    la, lb = layer_metrics(a), layer_metrics(b)
    units = co.units("per_layer")
    mismatched = [k for k, unit in units.items()
                  if unit in ("count", "bytes") and la[k] != lb[k]]
    for k in mismatched:
        print(f"count differs between traced jobs: {k} {la[k]} vs {lb[k]}",
              file=sys.stderr)
    metrics = {k: la[k] if la[k] == lb[k] else statistics.median([la[k], lb[k]])
               for k in units}
    metrics["fail_ratio"] = 0.0
    metrics["trace_count_mismatches"] = len(mismatched)
    metrics["trace_overhead_ratio"] = (
        statistics.median([a["verdict_s"], b["verdict_s"]]) / plain["verdict_s"])
    a["baseline"] = baseline_rows(a)
    return jobs, metrics


def tail(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}; no percentile has ten samples beyond it"
    p = 100 * (n - 10) // n
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"n={n}; p{p} {value:.4f}"


def report(co: Checkout, args, jobs: list, metrics: dict) -> dict:
    kind = "per_layer" if args.trace else "end_to_end"
    units = co.units(kind)
    attempted = len(jobs)
    failed = sum(j["problem"] is not None for j in jobs)
    for j in jobs:
        if j["problem"] is not None:
            print(f"job failed: {j['problem']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} jobs, {failed} failed, "
          f"fail_ratio {failed / attempted:.4f}")
    if not args.trace and failed == 0:
        verdicts = [j["verdict_s"] for j in jobs]
        print(f"verdict_s samples: {tail(verdicts)}")
    for name in units:
        if name in metrics:
            print(f"  {name:32s} {metrics[name]:>14.6g} {units[name]}")
    for j in jobs:
        for fixture, row in sorted(j.get("baseline", {}).items()):
            print(f"baseline {fixture}: {json.dumps(row, sort_keys=True)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }


def record(co: Checkout) -> None:
    """Writes every workload's digest, after checking that two hash
    seeds give the same one."""
    digests = {}
    for w in WORKLOADS:
        a, b = (co.job(w, 1, h, False, HARD_LIMIT_S) for h in (0, 1))
        for r in (a, b):
            if "error" in r:
                raise SystemExit(f"{w}: {r['error']}")
        diff = first_difference(a["digest"], b["digest"])
        if diff:
            raise SystemExit(f"{w}: digest depends on the hash seed: {diff}")
        digests[w] = a["digest"]
    with open(EXPECTED, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this file")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from this checkout")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the running job's group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (args.record or args.workload):
        parser.error("--workload is required")
    co = Checkout(os.getcwd())
    try:
        if args.record:
            record(co)
            return 0
        with open(EXPECTED) as fh:
            expected = json.load(fh).get(args.workload)
        run = traced_run if args.trace else timed_run
        jobs, metrics = run(co, args, expected)
        result = report(co, args, jobs, metrics)
    finally:
        co.close()
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, **result,
                "jobs": [{k: j.get(k) for k in (
                    "setup_s", "verdict_s", "peak_rss_mb", "wall_s",
                    "problem", "traced", "baseline")} for j in jobs],
            }) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
