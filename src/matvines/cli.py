"""Command-line front end.

JSON results go to standard output, diagnostics to standard error.  Exit
codes: 0 success, 1 structured negative result, 2 input error, 3 resource
bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import enumeration, functors, io, vine_poset
from .errors import MatvinesError, ResourceLimitError
from .labeled_graph import (LabeledGraph, check_mat_labeling, extend_to_complete,
                            glue, merge_complete)
from .vine_poset import VineClass, VinePoset, classify

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _load(path: str) -> LabeledGraph | VinePoset:
    """A graph or a vine file; a forest sequence is read as its vine."""
    obj = io.load_structure(path)
    if isinstance(obj, vine_poset.ForestSequence):
        return vine_poset.from_forest_sequence(obj)
    return obj


def _load_graph(path: str) -> LabeledGraph:
    obj = io.load_structure(path)
    if not isinstance(obj, LabeledGraph):
        raise MatvinesError(f"{path} does not hold a {io.GRAPH_FORMAT} document")
    return obj


def _load_vine(path: str) -> VinePoset:
    obj = _load(path)
    if not isinstance(obj, VinePoset):
        raise MatvinesError(f"{path} does not hold a vine document")
    return obj


def _save(result: LabeledGraph | VinePoset, args, extra=()) -> None:
    """Write ``--out``, ``--dot`` where the command has the flag, and the
    ``extra`` (save, obj, path) outputs: all of them or, on an error, none."""
    saves = [(io.save_structure, result, args.out), *extra]
    if getattr(args, "dot", None):
        saves.append((io.save_dot, result, args.dot))
    io.save_together(saves)


def _save_graph(out: LabeledGraph, args) -> int:
    _save(out, args)
    _emit({"out": args.out, "vertices": len(out.vertices),
           "edges": len(out.edges)})
    return EXIT_OK


def cmd_check(args) -> int:
    obj = _load(args.path)
    if isinstance(obj, LabeledGraph):
        verdict = check_mat_labeling(obj)
        _emit({"input": "graph", **verdict.to_json()})
        return EXIT_OK if verdict.ok else EXIT_VIOLATION
    classification = classify(obj)
    required = VineClass[args.require.upper()]
    ok = classification.kind >= required
    _emit({"input": "vine", "ok": ok, "required": args.require,
           **classification.to_json()})
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_convert(args) -> int:
    if args.psi:
        g = _load_graph(args.path)
        result: LabeledGraph | VinePoset = functors.psi(g)
        roundtrip = functors.roundtrip_check(g) if args.roundtrip else None
    else:
        p = _load_vine(args.path)
        result = functors.omega(p)
        roundtrip = functors.roundtrip_check(p) if args.roundtrip else None
    _save(result, args)
    doc = {"direction": "psi" if args.psi else "omega", "out": args.out}
    if roundtrip is not None:
        doc["roundtrip"] = roundtrip.verdict.to_json()
        doc["witness"] = dict(sorted(roundtrip.witness.items()))
    _emit(doc)
    if roundtrip is not None and not roundtrip.verdict.ok:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_enumerate(args) -> int:
    report = enumeration.enumerate_mat_labelings_complete(
        args.dimension, allow_large=args.unbounded, jobs=args.jobs)
    if args.emit_representatives is not None:
        io.save_representatives(report, args.emit_representatives)
    _emit(report.to_json())
    return EXIT_OK


def cmd_count_ideals(args) -> int:
    doc: dict = {}
    if (args.kind is None) != (args.dim is None):
        raise MatvinesError("--kind and --dim go together")
    if (args.path is None) == (args.kind is None):
        raise MatvinesError("count-ideals needs a PATH or --kind/--dim, not both")
    if args.kind:
        p = vine_poset.build_standard(args.kind, args.dim)
        doc["kind"] = args.kind
        doc["dim"] = args.dim
        if args.kind in ("d_vine", "root_poset_a"):
            doc["catalan"] = enumeration.catalan(args.dim + 1)
        if args.kind == "c_vine":
            doc["a047970"] = enumeration.a047970(args.dim)
    else:
        p = _load_vine(args.path)
    modes = ("all", "full_support") if args.mode == "both" else (args.mode,)
    for mode in modes:
        doc[mode] = vine_poset.count_ideals(p, mode)
    _emit(doc)
    return EXIT_OK


def cmd_truncate(args) -> int:
    p = _load_vine(args.path)
    result = vine_poset.truncate(p, args.k, args.direction)
    _save(result, args)
    _emit({"k": args.k, "direction": args.direction, "out": args.out,
           "nodes": len(result.nodes),
           "classification": classify(result).to_json()})
    return EXIT_OK


def cmd_marginalize(args) -> int:
    p = _load_vine(args.path)
    result, graded = vine_poset.marginalize(p, args.node)
    _save(result, args)
    _emit({"node": args.node, "out": args.out, "graded": graded,
           "nodes": len(result.nodes)})
    return EXIT_OK


def cmd_sampling_order(args) -> int:
    p = _load_vine(args.path)
    if args.order:
        order = tuple(args.order.split(","))
        verdict = vine_poset.is_sampling_order(p, order)
        _emit({"order": list(order), **verdict.to_json()})
        return EXIT_OK if verdict.ok else EXIT_VIOLATION
    _emit({"ok": True, "order": list(vine_poset.find_sampling_order(p))})
    return EXIT_OK


def cmd_embed(args) -> int:
    p = _load_vine(args.path)
    target, morphism = functors.embed_in_r_vine(p)
    doc = {"out": args.out, "target_nodes": len(target.nodes),
           "map": dict(sorted(morphism.mapping.items()))}
    _save(target, args, [(io.save_map, doc["map"], args.map_out)]
          if args.map_out else ())
    _emit(doc)
    return EXIT_OK


def cmd_glue(args) -> int:
    return _save_graph(glue(_load_graph(args.first), _load_graph(args.second)),
                       args)


def cmd_merge(args) -> int:
    return _save_graph(
        merge_complete(_load_graph(args.first), _load_graph(args.second)), args)


def cmd_extend(args) -> int:
    return _save_graph(extend_to_complete(_load_graph(args.path)), args)


def cmd_canon(args) -> int:
    g = _load_graph(args.path)
    _emit({"canonical": enumeration.canonical_form(g).decode("ascii")})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matvines",
        description="Validate, convert, transform, and enumerate labeled "
                    "graphs and vines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a graph or vine file")
    p.add_argument("path")
    p.add_argument("--require", choices=["vine", "lr_vine", "r_vine"],
                   default="lr_vine",
                   help="classification level a vine input must reach")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("convert", help="convert between graphs and vines")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--psi", action="store_true",
                           help="labeled graph to vine")
    direction.add_argument("--omega", action="store_true",
                           help="vine to labeled graph")
    p.add_argument("path")
    p.add_argument("--out", required=True)
    p.add_argument("--roundtrip", action="store_true",
                   help="verify the inverse conversion as well")
    p.add_argument("--dot")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("enumerate",
                       help="count labelings of a complete graph up to isomorphism")
    p.add_argument("dimension", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--unbounded", action="store_true",
                   help="lift the resource bound on the dimension")
    p.add_argument("--emit-representatives", metavar="DIR")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count-ideals", help="count downward-closed subsets")
    p.add_argument("path", nargs="?")
    p.add_argument("--kind", choices=["d_vine", "c_vine", "root_poset_a"])
    p.add_argument("--dim", type=int)
    p.add_argument("--mode", choices=["all", "full_support", "both"],
                   default="both")
    p.set_defaults(func=cmd_count_ideals)

    p = sub.add_parser("truncate", help="lower or upper rank truncation")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--direction", choices=["lower", "upper"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dot")
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("marginalize", help="remove a minimal node")
    p.add_argument("path")
    p.add_argument("--node", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_marginalize)

    p = sub.add_parser("sampling-order", help="find or verify a sampling order")
    p.add_argument("path")
    p.add_argument("--order", help="comma-separated minimal nodes to verify")
    p.set_defaults(func=cmd_sampling_order)

    p = sub.add_parser("embed", help="embed a vine as an ideal of a regular vine")
    p.add_argument("path")
    p.add_argument("--out", required=True)
    p.add_argument("--map-out")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("glue", help="union of two graphs over a complete overlap")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("merge", help="merge two complete labeled graphs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("extend", help="complete a labeled graph")
    p.add_argument("path")
    p.add_argument("--out", required=True)
    p.add_argument("--dot")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("canon", help="canonical form of a labeled graph")
    p.add_argument("path")
    p.set_defaults(func=cmd_canon)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MatvinesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
