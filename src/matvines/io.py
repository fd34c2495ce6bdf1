"""File formats (mat-graph/v1, vine/v1, vine-forests/v1), embedding maps
and DOT export; every file the package reads or writes goes through here."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

from .enumeration import EnumerationReport, representative_name
from .errors import GraphInputError, PosetInputError
from .labeled_graph import LabeledGraph
from .vine_poset import ForestSequence, VinePoset, natural_key

GRAPH_FORMAT = "mat-graph/v1"
VINE_FORMAT = "vine/v1"
FORESTS_FORMAT = "vine-forests/v1"


def graph_to_json(g: LabeledGraph) -> dict:
    return {
        "format": GRAPH_FORMAT,
        "vertices": list(g.vertices),
        "edges": [[u, v, k] for (u, v), k in sorted(g.labels.items())],
    }


def graph_from_json(doc: Any) -> LabeledGraph:
    if not isinstance(doc, dict) or doc.get("format") != GRAPH_FORMAT:
        raise GraphInputError(f"expected a {GRAPH_FORMAT} document")
    vertices = doc.get("vertices")
    edges = doc.get("edges")
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphInputError("vertices and edges must be lists")
    items = []
    for row in edges:
        if not isinstance(row, list) or len(row) != 3:
            raise GraphInputError(f"edge rows must be [u, v, label], got {row!r}")
        items.append((row[0], row[1], row[2]))
    return LabeledGraph.build(vertices, items)


def vine_to_json(p: VinePoset) -> dict:
    return {
        "format": VINE_FORMAT,
        "nodes": [{"id": v, "rank": p.rank_of[v], "covers": list(p.covers_of[v])}
                  for v in p.nodes],
    }


def vine_from_json(doc: Any) -> VinePoset:
    if not isinstance(doc, dict) or doc.get("format") != VINE_FORMAT:
        raise PosetInputError(f"expected a {VINE_FORMAT} document")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list):
        raise PosetInputError("nodes must be a list")
    items = []
    for row in nodes:
        if not isinstance(row, dict) or not {"id", "rank", "covers"} <= set(row):
            raise PosetInputError(f"node rows need id, rank, covers: {row!r}")
        if not isinstance(row["covers"], list):
            raise PosetInputError(f"covers of {row.get('id')!r} must be a list")
        items.append((row["id"], row["rank"], row["covers"]))
    return VinePoset.build(items)


def _forest_key_to_json(key) -> Any:
    if isinstance(key, str):
        return key
    return sorted((_forest_key_to_json(k) for k in key), key=json.dumps)


def _forest_key_from_json(obj: Any):
    if isinstance(obj, str):
        return obj
    if isinstance(obj, list) and len(obj) == 2:
        return frozenset(_forest_key_from_json(x) for x in obj)
    raise PosetInputError(f"forest node reference must be a string or pair: {obj!r}")


def _stable_ref(x) -> str:
    return json.dumps(_forest_key_to_json(x))


def forests_to_json(f: ForestSequence) -> dict:
    return {
        "format": FORESTS_FORMAT,
        "elements": list(f.elements),
        "forests": [
            sorted(([_forest_key_to_json(x) for x in sorted(edge, key=_stable_ref)]
                    for edge in forest), key=json.dumps)
            for forest in f.forests
        ],
    }


def forests_from_json(doc: Any) -> ForestSequence:
    if not isinstance(doc, dict) or doc.get("format") != FORESTS_FORMAT:
        raise PosetInputError(f"expected a {FORESTS_FORMAT} document")
    elements = doc.get("elements")
    forests = doc.get("forests")
    if not isinstance(elements, list) or not isinstance(forests, list):
        raise PosetInputError("elements and forests must be lists")
    towers = []
    for forest in forests:
        if not isinstance(forest, list):
            raise PosetInputError(f"forests must be lists of pairs, got {forest!r}")
        for pair in forest:
            if not isinstance(pair, list) or len(pair) != 2:
                raise PosetInputError(f"forest edges must be pairs, got {pair!r}")
        towers.append(tuple(frozenset(map(_forest_key_from_json, pair))
                            for pair in forest))
    return ForestSequence(tuple(str(e) for e in elements), tuple(towers))


def load_structure(path: str | Path) -> LabeledGraph | VinePoset | ForestSequence:
    """Load any of the supported formats, dispatching on the format field."""
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphInputError(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(text)
        fmt = doc.get("format") if isinstance(doc, dict) else None
        if fmt == GRAPH_FORMAT:
            return graph_from_json(doc)
        if fmt == VINE_FORMAT:
            return vine_from_json(doc)
        if fmt == FORESTS_FORMAT:
            return forests_from_json(doc)
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"{p} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GraphInputError(f"{p} is nested too deeply") from exc
    raise GraphInputError(f"{p}: unknown or missing format field {fmt!r}")


def _write(path: str | Path, text: str | None = None) -> None:
    """The one writer: ``text`` into the file ``path``, or with no text the
    directory ``path``; an unwritable path is an input error, as an
    unreadable one is."""
    p = Path(path)
    try:
        if text is None:
            p.mkdir(parents=True, exist_ok=True)
        else:
            p.write_text(text)
    except OSError as exc:
        raise GraphInputError(f"cannot write {p}: {exc}") from exc


def save_together(saves: list[tuple[Callable, Any, str]]) -> None:
    """Run each ``save(obj, path)`` of one command so that its files appear
    together or not at all: every save writes a temporary sibling of its
    path, and the temporaries replace the paths only once all of them are
    written.  A save that fails deletes the temporaries and leaves every
    path as it was."""
    staged: list[tuple[Path, Path]] = []
    try:
        for k, (save, obj, path) in enumerate(saves):
            p = Path(path)
            if p.is_dir():
                raise GraphInputError(f"cannot write {p}: it is a directory")
            tmp = p.with_name(f".{p.name}.{os.getpid()}.{k}.tmp")
            staged.append((tmp, p))
            try:
                save(obj, tmp)
            except GraphInputError as exc:
                # name the path the caller asked for, not the temporary
                message = str(exc).replace(str(tmp), str(p))
                raise GraphInputError(message) from exc
        for tmp, p in staged:
            try:
                os.replace(tmp, p)
            except OSError as exc:
                raise GraphInputError(f"cannot write {p}: {exc}") from exc
    finally:
        for tmp, _ in staged:
            if tmp.exists():
                tmp.unlink()


def save_structure(obj: LabeledGraph | VinePoset | ForestSequence,
                   path: str | Path) -> None:
    if isinstance(obj, LabeledGraph):
        doc = graph_to_json(obj)
    elif isinstance(obj, VinePoset):
        doc = vine_to_json(obj)
    else:
        doc = forests_to_json(obj)
    _write(path, json.dumps(doc, indent=2) + "\n")


def save_representatives(report: EnumerationReport, directory: str | Path) -> None:
    """One file per class, named by :func:`representative_name`, written
    together by :func:`save_together`."""
    _write(directory)
    save_together([
        (save_structure, rep,
         Path(directory) / f"{representative_name(report.dimension, key)}.json")
        for key, rep in zip(report.keys, report.representatives)])


def save_map(mapping: dict[str, str], path: str | Path) -> None:
    """An embedding map, as ``{"map": {"nodeId": "nodeId", ...}}``."""
    _write(path, json.dumps({"map": mapping}, indent=2, sort_keys=True) + "\n")


def save_dot(obj: LabeledGraph | VinePoset, path: str | Path) -> None:
    _write(path, graph_to_dot(obj) if isinstance(obj, LabeledGraph)
           else vine_to_dot(obj))


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: LabeledGraph, name: str = "mat_graph") -> str:
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        lines.append(f"  {_quote(v)};")
    for (u, v), k in sorted(g.labels.items()):
        lines.append(f"  {_quote(u)} -- {_quote(v)} [label={k}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def vine_to_dot(p: VinePoset, name: str = "vine") -> str:
    """Hasse diagram with rank-based layering hints."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  edge [dir=none];"]
    for level in sorted(p.levels):
        members = " ".join(_quote(v) + ";"
                           for v in sorted(p.levels[level], key=natural_key))
        lines.append(f"  {{ rank=same; {members} }}")
    for v in p.nodes:
        for c in p.covers_of[v]:
            lines.append(f"  {_quote(c)} -> {_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
