"""Tracing qckit from outside the program.

The tracer replaces public qckit names with wrappers in every loaded
``qckit`` module that binds them, because a caller looks a name up in
its own module (``qckit.sset.compose`` is the object ``qckit.sset``
calls, not ``qckit.ordinals.compose``).  Methods are replaced on their
class.  ``restore`` puts every original back.

Coarse stages become spans (name, start, end, parent, attributes).  Hot
kernels only count calls and add up time at their outermost entry,
because a span per call would cost more than the call.  Nothing in
``src/`` changes.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

CLOCK = time.perf_counter


def _cells(x, top: int) -> list:
    return [x.cell_count(d) for d in range(min(top, x.truncation) + 1)]


# (module, name, span name, attributes taken from (args, result))
SPANS = [
    ("monoids", "build_reference_monoid", "monoids.build", None),
    ("monoids", "validate_monoid", "monoids.validate", None),
    ("monoids", "verify_proposition", "monoids.prop",
     lambda a, r: {"dims": a[1] if len(a) > 1 else None}),
    ("scat", "simplicial_nerve", "scat.nerve",
     lambda a, r: {"dim": r.truncation, "cells": _cells(r, 3)}),
    ("scat", "enumerate_functors", "scat.enumerate",
     lambda a, r: {"k": a[0], "functors": len(r)}),
    ("join", "coslice_fastpath", "join.coslice",
     lambda a, r: {"cells": _cells(r, 2)}),
    ("join", "slice_sset", "join.slice", None),
    ("join", "cross_validate_coslice", "join.xval", None),
    ("quasicat", "is_quasicategory_up_to", "quasicat.survey", None),
    ("quasicat", "is_kan_up_to", "quasicat.survey", None),
    ("quasicat", "core", "quasicat.core", None),
    ("quasicat", "pi1", "quasicat.pi1", None),
    ("sset", "materialize_presheaf", "sset.materialize", None),
    ("sset", "validate", "sset.validate", None),
    ("sset", "iso_search", "sset.iso_search", None),
    ("monoids", "monoid_spec_from_json", "cli.io", None),
]
# (module, class, method, span name): serialization, summed as cli.io_s
SPAN_METHODS = [("sset", "FinSSet", m, "cli.io")
                for m in ("to_json", "to_json_str", "from_json")]

# (module, name, kernel name, layer or None)
KERNELS = [
    ("ordinals", "compose", "ordinals.compose", "ordinals"),
    ("ordinals", "epi_mono_factor", "ordinals.epi_mono_factor", "ordinals"),
    ("posets", "normalize_chain", "posets.normalize_chain", "posets"),
    ("posets", "union_chains", "posets.union_chains", "posets"),
    ("scat", "precompose", "scat.precompose", None),
    ("quasicat", "is_invertible_edge", "quasicat.inv_edge", None),
    ("monoids", "boxplus", "monoids.boxplus", None),
    ("monoids", "span", "monoids.span", None),
]
KERNEL_METHODS = [
    ("sset", "FinSSet", "apply", "sset.apply"),
    ("sset", "BilevelMap", "apply", "sset.bilevel"),
]


def _module(short: str):
    return importlib.import_module(f"qckit.{short}")


class Tracer:
    """Spans and kernel counters for one process.  Install once, run,
    restore, then read ``data()``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.kernels: dict[str, list] = {}  # name -> [calls, seconds, depth]
        self.layers: dict[str, list] = {}  # name -> [seconds, depth]
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    # -- spans --------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "parent": parent, "start": CLOCK(),
                           "end": None, "attrs": attrs})
        self._open.append(sid)
        return sid

    def close(self, sid: int, **attrs) -> None:
        span = self.spans[sid]
        span["end"] = CLOCK()
        span["attrs"].update(attrs)
        if self._open.pop() != sid:
            raise RuntimeError(f"span {span['name']} closed out of order")

    @contextmanager
    def span(self, name: str, **attrs):
        sid = self.open(name, **attrs)
        try:
            yield sid
        finally:
            self.close(sid)

    def _span_wrapper(self, name: str, fn, note):
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if note is not None:
                self.spans[sid]["attrs"].update(note(args, result))
            return result
        return wrapper

    # -- kernels ------------------------------------------------------

    def _kernel_wrapper(self, name: str, layer: str | None, fn):
        stat = self.kernels.setdefault(name, [0, 0.0, 0])
        lay = [0.0, 0] if layer is None else self.layers.setdefault(layer, [0.0, 0])
        clock = CLOCK

        def wrapper(*args, **kwargs):
            stat[0] += 1
            outer_k = not stat[2]
            outer_l = not lay[1]
            if not (outer_k or outer_l):
                return fn(*args, **kwargs)
            stat[2] += 1
            lay[1] += 1
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t
                stat[2] -= 1
                lay[1] -= 1
                if outer_k:
                    stat[1] += dt
                if outer_l:
                    lay[0] += dt
        return wrapper

    def _horns_wrapper(self, fn):
        counts = self.counts

        def wrapper(x, n, k):
            key = f"quasicat.horns.n{n}"
            for problem in fn(x, n, k):
                counts[key] += 1
                yield problem
        return wrapper

    def _filler_wrapper(self, fn):
        counts = self.counts
        inner = self._kernel_wrapper("quasicat.fill", None, fn)

        def wrapper(*args, **kwargs):
            found = inner(*args, **kwargs)
            if found is not None:
                counts["quasicat.fill.found"] += 1
            return found
        return wrapper

    # -- patching -----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebinds every module-level qckit name bound to ``original``."""
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("qckit") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _replace_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        self._undo.append((cls, attr, raw))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod, name, span, note in SPANS:
            fn = getattr(_module(mod), name)
            self._replace_everywhere(fn, self._span_wrapper(span, fn, note))
        for mod, cls, attr, span in SPAN_METHODS:
            self._replace_method(
                getattr(_module(mod), cls), attr,
                lambda f, n=span: self._span_wrapper(n, f, None))
        for mod, name, kernel, layer in KERNELS:
            fn = getattr(_module(mod), name)
            self._replace_everywhere(fn, self._kernel_wrapper(kernel, layer, fn))
        for mod, cls, attr, kernel in KERNEL_METHODS:
            self._replace_method(
                getattr(_module(mod), cls), attr,
                lambda f, k=kernel: self._kernel_wrapper(k, None, f))
        quasicat = _module("quasicat")
        self._replace_everywhere(
            quasicat.horn_problems, self._horns_wrapper(quasicat.horn_problems))
        self._replace_everywhere(
            quasicat.find_filler, self._filler_wrapper(quasicat.find_filler))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def data(self) -> dict:
        if self._open:
            raise RuntimeError("trace read with spans still open")
        return {
            "spans": self.spans,
            "kernels": {k: v[:2] for k, v in self.kernels.items()},
            "layers": {k: v[0] for k, v in self.layers.items()},
            "counts": dict(self.counts),
        }


def merge(traces: list[dict], parent: int | None, into: dict) -> None:
    """Adds other processes' traces to ``into``; their root spans become
    children of span ``parent`` of ``into``."""
    for t in traces:
        base = len(into["spans"])
        for s in t["spans"]:
            s = dict(s)
            s["parent"] = parent if s["parent"] is None else s["parent"] + base
            into["spans"].append(s)
        for k, (calls, secs) in t["kernels"].items():
            cur = into["kernels"].setdefault(k, [0, 0.0])
            cur[0] += calls
            cur[1] += secs
        for k, secs in t["layers"].items():
            into["layers"][k] = into["layers"].get(k, 0.0) + secs
        for k, n in t["counts"].items():
            into["counts"][k] = into["counts"].get(k, 0) + n
