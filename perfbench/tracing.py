"""Spans recorded from the benchmark's side of each layer boundary.

A span has a name (``<layer>.<call>``), start and end (perf_counter
seconds), the id of the enclosing span and the id of the run it belongs
to. Spans stay in memory and are written out as JSON lines when the run
ends. ``patched_layers`` wraps the names ``bchcover.cli`` imports, plus the
calls ``build_bch`` makes into the field and code layers, so a plain
``bchcover table1`` run is split by layer without changing the program.
"""

from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path
from time import perf_counter
from typing import Callable

import bchcover.bch
import bchcover.cli
import bchcover.linear_code


def code_name(code) -> str:
    return f"bch{code.n}-{code.k}"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
               "run": self.run_id, "start": perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``note(args, result)`` adds attributes to it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec.update(note(args, result))
                return result
        return traced

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(tracer: Tracer, span: dict) -> float:
    """The span's duration minus its direct children (single-threaded calls)."""
    children = [s for s in tracer.spans if s["parent"] == span["id"]]
    return duration(span) - sum(duration(c) for c in children)


@contextlib.contextmanager
def patched_layers(tracer: Tracer):
    """Wrap the layer entry points the CLI reaches; restore them on exit."""
    def min_distance_note(args, result):
        return {"code": code_name(args[0]), "exact": result[1] == "exact"}

    def radius_note(args, result):
        return {"code": code_name(args[0]), "counts": list(result.coset_count_by_weight)}

    targets = [
        (bchcover.cli, "build_bch", "bch.build_bch", lambda a, r: {"code": code_name(r[0])}),
        (bchcover.bch, "generator_polynomial", "bch.generator_polynomial", None),
        (bchcover.bch, "make_field", "gf2m.make_field", None),
        (bchcover.bch, "from_generator_poly", "linear_code.from_generator_poly", None),
        (bchcover.linear_code.LinearCode, "min_distance", "linear_code.min_distance", min_distance_note),
        (bchcover.cli, "covering_radius", "radius.covering_radius", radius_note),
        (bchcover.cli, "classify", "bounds.classify", lambda a, r: {"code": code_name(a[0])}),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, note in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
