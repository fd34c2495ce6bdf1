"""Spans around the library's entry functions, recorded from outside.

A traced run replaces selected functions of ``matvines`` with wrappers that
record a span per call: name, start, end and the enclosing span.  Spans stay
in memory and are written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; spans nest strictly
because the library is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

# (layer, module, attribute): the layer boundaries a traced run records.
# Generator functions get one span per step of the generator.
TARGETS = (
    ("kernels", "_bits", "find_mat_labeling"),
    ("kernels", "_bits", "is_strongly_chordal_fast"),
    ("kernels", "_bits", "mat_violation"),
    ("kernels", "enumeration", "_canonical_key"),
    ("exhaustive", "enumeration", "_towers_over_tree"),
    ("exhaustive", "enumeration", "_tree_representatives"),
    ("structure", "functors", "psi"),
    ("structure", "functors", "omega"),
    ("structure", "functors", "roundtrip_check"),
    ("structure", "functors", "embed_in_r_vine"),
    ("structure", "vine_poset", "VinePoset.build"),
    ("structure", "vine_poset", "classify"),
    ("structure", "vine_poset", "join_and_paths"),
    ("structure", "vine_poset", "hat"),
    ("structure", "labeled_graph", "check_mat_labeling"),
    ("structure", "labeled_graph", "principal_cliques"),
    ("structure", "labeled_graph", "merge_complete"),
    ("structure", "labeled_graph", "extend_to_complete"),
    ("structure", "labeled_graph", "find_mat_labeling"),
    ("structure", "enumeration", "canonical_form"),
    ("frontend", "cli", "main"),
    ("frontend", "io", "load_structure"),
    ("frontend", "io", "save_structure"),
)

GENERATORS = {"_towers_over_tree"}


def span_name(layer: str, module: str, attr: str) -> str:
    return f"{layer}.{module}.{attr}"


class Recorder:
    """Spans of one process as ``[name, start, end, parent]`` rows.

    A run may stop an operation at any bytecode by raising from a signal
    handler, so ``begin`` and ``end`` tolerate being cut short: a span whose
    end was never recorded is left out, and ``end`` unwinds the stack down to
    its own span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = 0

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans, e.g. while a result is checked."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, 0.0, None, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        while self._stack and self._stack.pop() != sid:
            pass

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(sid)
        return traced

    def wrap_generator(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if self._paused:
                yield from inner
                return
            while True:
                sid = begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end(sid)
                yield item
        return traced

    def rows(self) -> list[list]:
        """Every span, times in seconds from the first; an unfinished span
        has no end."""
        base = self.spans[0][1] if self.spans else 0.0
        return [[name, start - base, None if end is None else end - base, parent]
                for name, start, end, parent in self.spans]


def write_rows(path: Path, rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"],
                                "spans": rows}) + "\n")


def load_rows(path: Path) -> list[list]:
    return json.loads(path.read_text())["spans"]


def aggregate(rows: list[list]) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds per span name; unfinished spans are
    left out."""
    child = [0.0] * len(rows)
    for name, start, end, parent in rows:
        if parent >= 0 and end is not None:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid, (name, start, end, _) in enumerate(rows):
        if end is None:
            continue
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[sid]
    return out


def durations(rows: list[list], name: str) -> list[float]:
    return [end - start for n, start, end, _ in rows if n == name and end is not None]


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``matvines`` module global that holds ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "matvines" or mod_name.startswith("matvines.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every target of every loaded ``matvines`` module."""
    for layer, module, attr in TARGETS:
        mod = importlib.import_module(f"matvines.{module}")
        name = span_name(layer, module, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            bound = cls.__dict__[meth]
            if not isinstance(bound, classmethod):
                raise TypeError(f"{attr} is not a classmethod")
            setattr(cls, meth, classmethod(recorder.wrap(name, bound.__func__)))
            continue
        original = getattr(mod, attr)
        if attr in GENERATORS:
            wrapped = recorder.wrap_generator(name, original)
        else:
            wrapped = recorder.wrap(name, original)
        _replace_everywhere(original, wrapped)


class ImportTimer:
    """Meta-path hook that times the first import of one top-level package,
    if and when the code under test imports it."""

    def __init__(self, recorder: Recorder, package: str, name: str) -> None:
        self.recorder = recorder
        self.package = package
        self.name = name

    def find_spec(self, fullname, path=None, target=None):
        if fullname != self.package:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        loader = spec.loader
        exec_module = loader.exec_module
        recorder, name = self.recorder, self.name

        def timed_exec(module):
            sid = recorder.begin(name)
            try:
                exec_module(module)
            finally:
                recorder.end(sid)
        loader.exec_module = timed_exec
        return spec
