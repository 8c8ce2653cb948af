"""Spans recorded around bibdex's public calls, for the traced run only.

``instrumented(tracer)`` replaces each traced function in every bibdex
module namespace that holds it, so a call made from inside bibdex (for
example ``full_report`` from ``compare``) becomes a child span of its
caller. Spans live in flat arrays and are written out when the run ends.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import bibdex
from bibdex import cli, metrics, profiles, report

_NAMESPACES = (bibdex, metrics, profiles, report, cli)


class Tracer:
    """Spans (name, start, end, parent span, operation id) plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self) -> None:
        """Start a new operation; later spans share its id."""
        self._op += 1

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.add(f"{name}.errors", 1)
            raise
        finally:
            self.end[idx] = perf_counter_ns()
            self._stack.pop()

    def layers(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self seconds per span name.

        Self time is a span's duration minus the durations of its children.
        """
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["incl_s"] += dur / 1e9
            entry["self_s"] += (dur - child_ns[i]) / 1e9
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i]},"
                    f"{self.end[i]},{self.parent[i]},{self.op[i]}\n"
                )


def _traced(tracer: Tracer, name: str, fn, count=None):
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if count is not None:
            for key, amount in count(args, kwargs, result).items():
                tracer.add(f"{name}.{key}", amount)
        return result

    return traced


def _traced_compare(tracer: Tracer, fn):
    def traced(profiles_, *args, **kwargs):
        # compare(profiles, columns=..., sort=None, descending=False)
        sort = kwargs.get("sort", args[1] if len(args) > 1 else None)
        name = f"report.compare.{sort or 'none'}"
        table = tracer.call(name, fn, profiles_, *args, **kwargs)
        tracer.add(f"{name}.rows", len(table.rows))
        return table

    return traced


def _papers(args, kwargs, result):
    return {"papers": len(args[0])}


def _in_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _out_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (defining module, attribute, namespaces to patch, counter)
_FUNCTIONS = (
    (profiles, "parse_citation_csv", _NAMESPACES, _in_bytes),
    (profiles, "parse_profile_json", _NAMESPACES, _in_bytes),
    (profiles, "serialize_profile", _NAMESPACES, _out_bytes),
    # the parsers build the vector; timing it there times it on the same counts
    (metrics, "CitationVector", (profiles,), None),
    (metrics, "h_index", _NAMESPACES, _papers),
    (metrics, "full_report", _NAMESPACES, None),
    (report, "render_markdown", _NAMESPACES, None),
    (report, "render_csv", _NAMESPACES, None),
)
_STORE_METHODS = ("save", "load", "names")


def _module_name(module) -> str:
    return module.__name__.rpartition(".")[2]


@contextmanager
def instrumented(tracer: Tracer):
    """Route bibdex's traced calls through ``tracer`` while active."""
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for module, attr, namespaces, count in _FUNCTIONS:
        original = getattr(module, attr)
        wrapper = _traced(tracer, f"{_module_name(module)}.{attr}", original, count)
        for ns in namespaces:
            if getattr(ns, attr, None) is original:
                patch(ns, attr, wrapper)
    original_compare = report.compare
    wrapper = _traced_compare(tracer, original_compare)
    for ns in _NAMESPACES:
        if getattr(ns, "compare", None) is original_compare:
            patch(ns, "compare", wrapper)
    for method in _STORE_METHODS:
        original = getattr(profiles.ProfileStore, method)
        name = f"profiles.ProfileStore.{method}"
        patch(profiles.ProfileStore, method, _traced(tracer, name, original))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
