"""Command line front end.

Validates artifacts, runs the nerve / coslice / core / homotopy
pipeline on files, verifies the coslice-core comparison for a graded
monoid spec, exercises the exact rational direct-sum models, and
exports small complexes to DOT.

Exit codes: 0 success, 1 semantic failure (an object that parsed but
violates its laws, or a check that came back false), 2 usage and parse
errors; a stdout closed early (``qckit nerve default | head -c 0``)
also exits 1, without a traceback.  Every JSON report embeds the tool
version, the seed, and the dimension caps in force so a run can be
reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__

# Each command imports the qckit modules it runs when it is called, so a
# cold process compiles only those; --version, --help and argparse errors
# import none.

# Nerve enumeration grows like the iterated bar construction; past this
# level the cell catalogue stops being a desk-scale object.
HARD_NERVE_CAP = 4

# The build tabulates each component group, and every product, up to
# the truncation; its associativity sweep is cubic in the order **
# truncation top simplices of a component.  A spec file whose component
# has order ** max(truncation, 2) above this is refused.
GROUP_SIZE_CAP = 512

# No triple of the witness search routes a coordinate past 57, so a
# wider window only pads the rows.
HARD_WINDOW_CAP = 64

# ``<name>_pairing`` in ``monoids`` for each name
PAIRINGS = ("cantor", "szudzik")


class UsageError(Exception):
    """Bad invocation or unreadable input: exit code 2."""


class CommandError(Exception):
    """Structurally valid input that fails its laws: exit code 1."""


# -- shared plumbing --------------------------------------------------


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except IsADirectoryError:
        raise UsageError(f"{path} is a directory, expected a file")
    except json.JSONDecodeError as e:
        raise UsageError(
            f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        )


def _nonneg_int(text: str) -> int:
    """argparse type for --dim and --trials: a malformed or negative
    value exits 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _dim_caps(requested: int, hard: int | None = None) -> dict:
    """Applies QCKIT_MAX_DIM and the hard cap; raises UsageError past them."""
    caps = {"requested": requested, "env": None, "hard": hard}
    env = os.environ.get("QCKIT_MAX_DIM")
    limit = None
    if env is not None:
        try:
            limit = int(env)
        except ValueError:
            raise UsageError(f"QCKIT_MAX_DIM must be an integer, got {env!r}")
        caps["env"] = limit
    if hard is not None:
        limit = hard if limit is None else min(limit, hard)
    if limit is not None and requested > limit:
        raise UsageError(
            f"dimension {requested} exceeds the cap {limit}"
            + (f" (hard limit {hard})" if hard is not None else "")
        )
    return caps


def _envelope(args, command: str, caps: dict | None = None, **payload) -> dict:
    out = {
        "tool": "qckit",
        "version": __version__,
        "command": command,
        "seed": getattr(args, "seed", None),
        "dimension_caps": caps,
    }
    out.update(payload)
    return out


def _emit(envelope: dict, report: str | None = None) -> None:
    """Prints the envelope; with ``report``, first writes the same JSON
    there."""
    text = json.dumps(envelope, indent=2, sort_keys=True)
    if report:
        _write_text(report, text)
    print(text)


def _write_text(path: str, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _load_sset(path: str) -> FinSSet:
    from .sset import FinSSet, validate

    blob = _load_json_file(path)
    if not (isinstance(blob, dict) and "cells" in blob and "truncation" in blob):
        raise UsageError(f"{path} is not a simplicial set file")
    try:
        x = FinSSet.from_json(blob)
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"{path}: malformed simplicial set: {e}")
    report = validate(x)
    if not report.ok:
        raise UsageError(
            f"{path}: invalid simplicial set ({len(report.problems)} "
            f"problems), first: {report.problems[0]}"
        )
    return x


def _load_spec(path: str):
    if path == "default":
        from .monoids import default_monoid_spec

        return default_monoid_spec()
    return _spec_from_blob(path, _load_json_file(path))


def _spec_from_blob(path: str, blob):
    from .monoids import group_order, monoid_spec_from_json

    if not (isinstance(blob, dict) and "grades" in blob):
        raise UsageError(f"{path} is not a monoid spec file")
    try:
        spec = monoid_spec_from_json(blob)
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"{path}: malformed monoid spec: {e}")
    # the build validates every level up to the truncation, and no
    # command reads a level above the hard cap
    if spec.truncation > HARD_NERVE_CAP:
        raise UsageError(
            f"{path}: malformed monoid spec: 'truncation' {spec.truncation} "
            f"exceeds the hard limit {HARD_NERVE_CAP}"
        )
    power = max(spec.truncation, 2)
    for grade, name in spec.components.items():
        size = group_order(name) ** power
        if size > GROUP_SIZE_CAP:
            raise UsageError(
                f"{path}: monoid spec too large: the component of grade "
                f"{grade!r} is {name}, and its order ** {power} = {size} "
                f"exceeds {GROUP_SIZE_CAP}"
            )
    return spec


def _build_monoid(spec):
    from .monoids import build_reference_monoid

    try:
        return build_reference_monoid(spec)
    except ValueError as e:
        raise CommandError(str(e))


def _require_vertex(x: FinSSet, v: str) -> None:
    if v not in x.nondegenerate(0):
        raise CommandError(f"no vertex {v!r} in the input")


def _counts(x: FinSSet) -> dict:
    dims = range(x.truncation + 1)
    return {
        "truncation": x.truncation,
        "nondegenerate": [x.cell_count(d) for d in dims],
        "total": [len(x.simplices(d)) for d in dims],
    }


def _ship_sset(args, x: FinSSet) -> dict:
    """Writes the artifact when --report is given; returns counts payload."""
    payload = {"counts": _counts(x), "artifact": args.report}
    if args.report:
        _write_text(args.report, x.to_json_str())
    return payload


# -- subcommands ------------------------------------------------------


def cmd_check(args) -> int:
    blob = _load_json_file(args.path)
    if not isinstance(blob, dict):
        raise UsageError(f"{args.path}: top level must be an object")
    if "cells" in blob and "truncation" in blob:
        from .sset import FinSSet, validate

        kind = "simplicial set"
        try:
            report = validate(FinSSet.from_json(blob))
        except (KeyError, TypeError, ValueError) as e:
            raise UsageError(f"{args.path}: malformed simplicial set: {e}")
    elif "grades" in blob:
        from .monoids import build_reference_monoid

        kind = "monoid spec"
        spec = _spec_from_blob(args.path, blob)
        try:
            # the build validates the monoid and raises on any problem
            build_reference_monoid(spec)
        except ValueError as e:
            _emit(_envelope(args, "check", kind=kind, ok=False,
                            problems=str(e).splitlines()))
            return 1
        _emit(_envelope(args, "check", kind=kind, ok=True, problems=[]))
        return 0
    elif "objects" in blob and "homs" in blob:
        from .scat import scat_from_manifest_json, validate_scat

        kind = "enriched category"
        try:
            report = validate_scat(
                scat_from_manifest_json(blob, os.path.dirname(args.path))
            )
        except (KeyError, TypeError, ValueError, OSError) as e:
            raise UsageError(f"{args.path}: malformed manifest: {e}")
    else:
        raise UsageError(
            f"{args.path}: unrecognized artifact, expected a simplicial "
            "set, a monoid spec, or an enriched-category manifest"
        )
    _emit(_envelope(args, "check", kind=kind, ok=report.ok,
                    problems=list(report.problems)))
    return 0 if report.ok else 1


def cmd_nerve(args) -> int:
    from .monoids import deloop
    from .scat import simplicial_nerve

    caps = _dim_caps(args.dim, hard=HARD_NERVE_CAP)
    spec = _load_spec(args.spec)
    if args.dim > spec.truncation + 1:
        raise CommandError(
            f"nerve to dimension {args.dim} needs the spec truncated "
            f"at {args.dim - 1} or higher, got {spec.truncation}"
        )
    m = _build_monoid(spec)
    x = simplicial_nerve(deloop(m), args.dim)
    _emit(_envelope(args, "nerve", caps=caps, **_ship_sset(args, x)))
    return 0


def cmd_coslice(args) -> int:
    from .join import coslice_fastpath
    from .sset import TruncationError

    caps = _dim_caps(args.dim)
    base = _load_sset(args.path)
    _require_vertex(base, args.at)
    try:
        c = coslice_fastpath(base, args.at, args.dim)
    except TruncationError as e:
        raise CommandError(str(e))
    _emit(_envelope(args, "coslice", caps=caps, at=args.at,
                    **_ship_sset(args, c)))
    return 0


def cmd_core(args) -> int:
    from .quasicat import core
    from .sset import truncate

    x = _load_sset(args.path)
    caps = None
    if args.dim is not None:
        caps = _dim_caps(args.dim)
        if args.dim > x.truncation:
            raise CommandError(
                f"input is truncated at {x.truncation}, below --dim {args.dim}"
            )
        x = truncate(x, args.dim)
    result = core(x)
    payload = _ship_sset(args, result.sset)
    payload["invertible_edges"] = sorted(result.invertible_edges)
    _emit(_envelope(args, "core", caps=caps, **payload))
    return 0


def _pi1_payload(x: FinSSet, vertex: str) -> dict:
    from .quasicat import pi1

    r = pi1(x, vertex)
    order = r.order
    return {
        "vertex": vertex,
        "order": order,
        "identity": r.identity,
        "table": [[r.table[(i, j)] for j in range(order)] for i in range(order)],
        "ok": r.ok,
        "problems": list(r.problems),
    }


def cmd_pi(args) -> int:
    from .quasicat import pi0

    x = _load_sset(args.path)
    components = [sorted(c) for c in pi0(x)]
    payload = {"pi0": sorted(components), "pi1": []}
    if x.truncation < 2:
        if args.at is not None:
            raise CommandError("fundamental groups need 2-simplices")
        payload["pi1_skipped"] = "input has no 2-simplices"
    else:
        vertices = [args.at] if args.at is not None else sorted(x.nondegenerate(0))
        if args.at is not None:
            _require_vertex(x, args.at)
        payload["pi1"] = [_pi1_payload(x, v) for v in vertices]
    _emit(_envelope(args, "pi", **payload))
    return 0


def cmd_verify_prop(args) -> int:
    from .monoids import PROPOSITION_MIN_DIM, verify_proposition

    # the proposition reads the nerve one dimension above --dim
    caps = _dim_caps(args.dim, hard=HARD_NERVE_CAP - 1)
    if args.dim < PROPOSITION_MIN_DIM:
        raise UsageError(
            f"--dim must be >= {PROPOSITION_MIN_DIM}: check (e) needs 2-simplices"
        )
    spec = _load_spec(args.spec)
    m = _build_monoid(spec)
    try:
        report = verify_proposition(m, args.dim)
    except ValueError as e:
        raise CommandError(str(e))
    payload = report.to_json()
    payload["summary"] = report.summary_lines()
    _emit(_envelope(args, "verify-prop", caps=caps, **payload), args.report)
    return 0 if report.ok else 1


def _assoc_check(seed: int, trials: int) -> dict:
    import random

    from .monoids import boxplus, random_subspace, zero_subspace

    rng = random.Random(seed)
    failures = []
    identity_failures = []
    for t in range(trials):
        base_dim = rng.randint(1, 4)
        u, v, w = (
            random_subspace(rng, rng.randint(0, 3), base_dim, 3)
            for _ in range(3)
        )
        if boxplus(boxplus(u, v), w) != boxplus(u, boxplus(v, w)):
            failures.append(t)
        z = zero_subspace(base_dim)
        if boxplus(z, u) != u or boxplus(u, z) != u:
            identity_failures.append(t)
    return {
        "trials": trials,
        "associativity_failures": failures,
        "identity_failures": identity_failures,
    }


def cmd_grassmann(args) -> int:
    if args.assoc_check:
        payload = _assoc_check(args.seed, args.trials)
        ok = not (payload["associativity_failures"] or payload["identity_failures"])
        _emit(_envelope(args, "grassmann", mode="assoc-check", ok=ok, **payload),
              args.report)
        return 0 if ok else 1
    from . import monoids

    if args.window < monoids.WITNESS_AXES:
        raise UsageError(
            f"--window must be >= {monoids.WITNESS_AXES}: the witness search "
            f"reads axes 0 to {monoids.WITNESS_AXES - 1}, got {args.window}"
        )
    if args.window > HARD_WINDOW_CAP:
        raise UsageError(
            f"--window must be <= {HARD_WINDOW_CAP}: no coordinate the "
            f"witness search routes lies past it, got {args.window}"
        )
    witness = monoids.find_nonassociativity_witness(
        pairing=getattr(monoids, f"{args.pairing}_pairing"), window=args.window,
    )
    if witness is None:
        raise CommandError(
            f"no non-associativity witness for {args.pairing} in the "
            f"window searched"
        )
    _emit(_envelope(args, "grassmann", mode="pairing-witness",
                    pairing=args.pairing, witness=witness.to_json()), args.report)
    return 0


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(x: FinSSet, dim: int = 2) -> str:
    """Vertices and edges as a digraph, 2-cells as comment annotations.
    Reads the face entries, so x must be valid."""
    lines = ["digraph sset {"]
    for v in sorted(x.nondegenerate(0)):
        lines.append(f"  {_dot_quote(v)};")
    if x.truncation >= 1 and dim >= 1:
        for e in sorted(x.nondegenerate(1)):
            tgt, src = (r.cell for r in x.face_entries(e))
            lines.append(
                f"  {_dot_quote(src)} -> {_dot_quote(tgt)} "
                f"[label={_dot_quote(e)}];"
            )
    if x.truncation >= 2 and dim >= 2:
        for t in sorted(x.nondegenerate(2)):
            sides = [x.face_entry(t, i) for i in (2, 0, 1)]
            first, second, composite = (
                s.cell if not s.is_degenerate else f"id[{s.cell}]"
                for s in sides
            )
            lines.append(
                f"  // 2-cell {t}: {first} then {second} composes to "
                f"{composite}"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_dot(args) -> int:
    caps = _dim_caps(args.dim)
    x = _load_sset(args.path)
    text = export_dot(x, args.dim)
    if args.format == "json":
        _emit(_envelope(args, "export-dot", caps=caps, dot=text), args.report)
        return 0
    if args.report:
        _write_text(args.report, text)
    else:
        sys.stdout.write(text)
    return 0


# -- parser -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qckit",
        description="finite simplicial sets, coherent nerves, and the "
        "coslice-core toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"qckit {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an artifact file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("nerve", help="coherent nerve of a delooped monoid spec")
    p.add_argument("spec", help="monoid spec file, or the word 'default'")
    p.add_argument("--dim", type=_nonneg_int, default=3)
    p.add_argument("--report", help="write the nerve as a simplicial set file")
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("coslice", help="coslice of a simplicial set file")
    p.add_argument("path")
    p.add_argument("--at", required=True, help="anchor vertex")
    p.add_argument("--dim", type=_nonneg_int, default=2)
    p.add_argument("--report", help="write the coslice as a simplicial set file")
    p.set_defaults(func=cmd_coslice)

    p = sub.add_parser("core", help="largest subcomplex with invertible edges")
    p.add_argument("path")
    p.add_argument("--dim", type=_nonneg_int, default=None,
                   help="truncate the input first")
    p.add_argument("--report", help="write the core as a simplicial set file")
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("pi", help="path components and fundamental groups")
    p.add_argument("path")
    p.add_argument("--at", default=None, help="basepoint vertex; default all")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser(
        "verify-prop",
        help="compare the coslice core of the delooped spec with the monoid",
    )
    p.add_argument("spec", help="monoid spec file, or the word 'default'")
    p.add_argument("--dim", type=_nonneg_int, default=2)
    p.add_argument("--report", help="also write the full report to a file")
    p.set_defaults(func=cmd_verify_prop)

    p = sub.add_parser("grassmann", help="exact rational direct-sum checks")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--assoc-check", action="store_true")
    mode.add_argument("--pairing-witness", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_nonneg_int, default=1000)
    p.add_argument("--pairing", choices=PAIRINGS, default="cantor")
    p.add_argument("--window", type=int, default=16)
    p.add_argument("--report", help="also write the report to a file")
    p.set_defaults(func=cmd_grassmann)

    p = sub.add_parser("export-dot", help="vertices and edges as DOT")
    p.add_argument("path")
    p.add_argument("--dim", type=_nonneg_int, default=2)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--report", help="write the graph to a file")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse prints its own message; fold --help into success
        return int(e.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CommandError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # what is still buffered goes to devnull, so that the flush at
        # exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
