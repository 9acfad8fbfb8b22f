"""The three workloads: their fixed inputs, the job each one times, and
the digest of the job's output that run.py compares with expected.json.

Why each workload exists:

prop-z3      one ``verify_proposition(m, 2)`` on Z/3 components over the
             grades {0, 1, 2+}, the largest check at desk scale.  Nerve
             enumeration (``scat``), the presheaf action (``sset.apply``)
             and the operators (``ordinals``) do most of the work.
horn-survey  horn and homotopy analysis of the four-grades Z/2 nerve,
             which set-up builds.  ``quasicat`` and ``join`` carry the
             load and ``scat`` does no timed work, so an enumeration
             change should leave its ``verdict_s`` unmoved.
cli-small    the file pipeline as a user scripts it: 22 ``qckit``
             processes in sequence.  Cold start, JSON writing and
             reading, ``validate`` and the rational-subspace half of
             ``monoids``.

The seed feeds ``grassmann --seed``; every other input is fixed.  The
qckit imports sit inside the methods so that set-up pays for them, and
so that the cli-small job process never imports qckit at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND_TIMEOUT_S = 120

DISCRETE_SPEC = {
    "grades": {"elements": ["1", "a"], "unit": "1",
               "table": [["1", "a"], ["a", "a"]]},
    "components": {"a": {"group": "trivial"}},
    "truncation": 3,
}


def cell_counts(x, top: int) -> list:
    return [x.cell_count(d) for d in range(top + 1)]


@contextmanager
def observe(module, name: str, seen: dict):
    """Keeps the last result of ``module.name`` in ``seen[name]``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen[name] = original(*args, **kwargs)
        return seen[name]

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


class Workload:
    """Set-up, then the timed job.  ``in_process`` workloads run qckit in
    the job process, so the tracer is installed there."""

    in_process = True
    fixture = None  # tags the job's spans for the baseline table

    def __init__(self, ctx):
        self.ctx = ctx
        self.traces: list = []  # traces of child processes, if any

    def extras(self) -> dict:
        """Measurements besides the digest, reported by traced runs."""
        return {}


class PropZ3(Workload):
    fixture = "z3"

    def setup(self) -> None:
        from qckit.monoids import (
            MonoidSpec, build_reference_monoid, saturating_grades)
        spec = MonoidSpec(saturating_grades(2), {"1": "Z/3", "2+": "Z/3"}, 3)
        self.monoid = build_reference_monoid(spec)

    def run(self) -> dict:
        from qckit import monoids
        seen: dict = {}
        with observe(monoids, "simplicial_nerve", seen), \
                observe(monoids, "coslice_fastpath", seen), \
                observe(monoids, "core", seen):
            report = monoids.verify_proposition(self.monoid, 2)
        return {
            "nerve_cells": cell_counts(seen["simplicial_nerve"], 3),
            "coslice_cells": cell_counts(seen["coslice_fastpath"], 2),
            "core_cells": cell_counts(seen["core"].sset, 2),
            "ok": report.ok,
            "summary": report.summary_lines(),
        }


HORNS = re.compile(r"^(\d+) unfillable \((\d+),(\d+)\)-horns, first ")


def unfillable(problems: list) -> list:
    """Counts per (n, k) from a horn survey; unparsed lines kept whole."""
    out = []
    for p in problems:
        m = HORNS.match(p)
        out.append([int(m[2]), int(m[3]), int(m[1])] if m else p)
    return out


class HornSurvey(Workload):
    fixture = "four"

    def setup(self) -> None:
        from qckit.monoids import (
            MonoidSpec, build_reference_monoid, deloop, saturating_grades)
        from qckit import scat
        spec = MonoidSpec(
            saturating_grades(3), {"1": "Z/2", "2": "Z/2", "3+": "Z/2"}, 3)
        self.nerve = scat.simplicial_nerve(
            deloop(build_reference_monoid(spec)), 3)

    def run(self) -> dict:
        from qckit import join, quasicat
        nerve = self.nerve
        inner = quasicat.is_quasicategory_up_to(nerve, 3)
        kan = quasicat.is_kan_up_to(nerve, 3)
        (star,) = nerve.nondegenerate(0)
        cos = join.coslice_fastpath(nerve, star, 2)
        the_core = quasicat.core(cos).sset
        core_kan = quasicat.is_kan_up_to(the_core, 2)
        xval, _, _ = join.cross_validate_coslice(nerve, star, 2)
        return {
            "nerve_cells": cell_counts(nerve, 3),
            "inner_horn_problems": inner.problems,
            "unfillable_horns": unfillable(kan.problems),
            "coslice_cells": cell_counts(cos, 2),
            "core_cells": cell_counts(the_core, 2),
            "core_kan_problems": core_kan.problems,
            "xval_problems": xval.problems,
        }


SEED = "<seed>"  # stands for --seed in argv, so digests do not depend on it
ENVELOPE_KEYS = {"tool", "version", "seed", "dimension_caps", "artifact"}


def pipeline(label: str, spec: str) -> list:
    """The per-spec command sequence; every artifact is re-checked."""
    nerve, cos, core = (f"{label}-{a}.json" for a in ("nerve", "coslice", "core"))
    checks = [[spec]] if spec.endswith(".json") else []
    checks += [[nerve], [cos], [core]]
    return (
        [["nerve", spec, "--dim", "3", "--report", nerve],
         ["coslice", nerve, "--at", "n0c0", "--dim", "2", "--report", cos],
         ["core", cos, "--report", core],
         ["pi", core]]
        + [["check"] + c for c in checks]
        + [["verify-prop", spec, "--dim", "2", "--report", f"{label}-prop.json"],
           ["export-dot", core]]
    )


class CliSmall(Workload):
    """Runs each command as ``python -m qckit.cli``, or when traced as
    ``traced_cli.py``, which wraps ``qckit.cli.main`` in the tracer.
    Each command's spans carry the fixture of its spec."""

    in_process = False

    def commands(self) -> list:
        groups = [("default", pipeline("default", "default")),
                  ("discrete", pipeline("discrete", "discrete.json"))]
        grassmann = [
            ["grassmann", "--assoc-check", "--seed", SEED],
            ["grassmann", "--pairing-witness", "--pairing", "cantor"],
            ["grassmann", "--pairing-witness", "--pairing", "szudzik"],
        ]
        return [(label, argv) for label, cmds in groups for argv in cmds] + [
            ("none", argv) for argv in grassmann]

    def _spawn(self, argv: list, prefix: list) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable] + prefix + argv, cwd=self.ctx.workdir,
            capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S)

    def setup(self) -> None:
        with open(os.path.join(self.ctx.workdir, "discrete.json"), "w") as fh:
            json.dump(DISCRETE_SPEC, fh)
        t = time.perf_counter()
        proc = self._spawn(["--version"], ["-m", "qckit.cli"])
        self.start_s = time.perf_counter() - t
        if proc.returncode != 0 or not proc.stdout.startswith("qckit "):
            raise RuntimeError(f"qckit --version failed: {proc.stderr}")

    def run(self) -> dict:
        out = []
        for i, (fixture, argv) in enumerate(self.commands()):
            if self.ctx.tracer is None:
                prefix = ["-m", "qckit.cli"]
            else:
                trace_file = os.path.join(self.ctx.workdir, f"trace-{i}.json")
                prefix = [os.path.join(HERE, "traced_cli.py"),
                          "--trace-out", trace_file,
                          "--fixture", fixture, "--"]
            proc = self._spawn(
                [str(self.ctx.seed) if a == SEED else a for a in argv], prefix)
            out.append({"argv": argv, "exit": proc.returncode,
                        "output": self._normalize(argv[0], proc.stdout)})
            if self.ctx.tracer is not None:
                with open(trace_file) as fh:
                    self.traces.append(json.load(fh))
                os.remove(trace_file)
        return {"commands": out}

    @staticmethod
    def _normalize(command: str, stdout: str):
        if command == "export-dot":
            return {"sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                    "lines": stdout.count("\n")}
        try:
            blob = json.loads(stdout)
        except json.JSONDecodeError:
            return {"unparsed": stdout[-2000:]}
        return {k: v for k, v in blob.items() if k not in ENVELOPE_KEYS}

    def extras(self) -> dict:
        workdir = self.ctx.workdir
        return {"start_s": self.start_s,
                "artifact_bytes": sum(os.path.getsize(os.path.join(workdir, f))
                                      for f in os.listdir(workdir))}


WORKLOADS = {"prop-z3": PropZ3, "horn-survey": HornSurvey, "cli-small": CliSmall}
