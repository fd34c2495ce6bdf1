"""Conversions between labeled graphs and vines, morphism lifting, round
trips, the ideal embedding into a regular vine, and the finite pushout
check."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

from ._bits import iter_bits
from .errors import InternalDefectError, MorphismError, PreconditionError
from .labeled_graph import (LabeledGraph, check_mat_labeling, extend_to_complete,
                            glue, principal_cliques)
from .vine_poset import (VineClass, VinePoset, classify, complete_union,
                         cond_sets, hat, structurally_equal, union_vine)
from .verdict import Verdict


@dataclass(frozen=True, eq=False)
class GraphMorphism:
    """A vertex map that must send edges to edges of equal label."""

    source: LabeledGraph
    target: LabeledGraph
    mapping: dict[str, str]


@dataclass(frozen=True, eq=False)
class PosetMorphism:
    """A node map between posets; the flags record verified properties."""

    source: VinePoset
    target: VinePoset
    mapping: dict[str, str]
    rank_preserving: bool = False
    join_preserving: bool = False


def validate_graph_morphism(m: GraphMorphism) -> None:
    """Raise unless the map is a label-preserving homomorphism."""
    tgt = set(m.target.vertices)
    for v in m.source.vertices:
        if v not in m.mapping:
            raise MorphismError(f"vertex {v!r} is not mapped")
        if m.mapping[v] not in tgt:
            raise MorphismError(f"image {m.mapping[v]!r} of {v!r} is not a target vertex")
    for (u, v), k in m.source.labels.items():
        iu, iv = m.mapping[u], m.mapping[v]
        if iu == iv or not m.target.has_edge(iu, iv):
            raise MorphismError(f"edge ({u!r}, {v!r}) has no image edge")
        if m.target.label_of(iu, iv) != k:
            raise MorphismError(
                f"edge ({u!r}, {v!r}) changes label {k} -> "
                f"{m.target.label_of(iu, iv)}")


def _image_masks(source: VinePoset, target: VinePoset,
                 mapping: dict[str, str]) -> dict[str, int]:
    """The target bitmask of f(↓b) for each source node b."""
    bits = [1 << target.index[mapping[v]] for v in source.nodes]
    return {b: reduce(or_, map(bits.__getitem__, iter_bits(mask)), 0)
            for b, mask in source.down_masks.items()}


def validate_poset_morphism(m: PosetMorphism) -> PosetMorphism:
    """Check order (f preserves it exactly when f(↓b) ⊆ ↓f(b) for every b),
    rank, and join preservation; joins are tested over all node pairs."""
    tgt = set(m.target.nodes)
    for v in m.source.nodes:
        if v not in m.mapping:
            raise MorphismError(f"node {v!r} is not mapped")
        if m.mapping[v] not in tgt:
            raise MorphismError(f"image {m.mapping[v]!r} of {v!r} is not a target node")
    images = _image_masks(m.source, m.target, m.mapping)
    for b in m.source.nodes:
        outside = images[b] & ~m.target.down_masks[m.mapping[b]]
        if outside:
            a = next(a for a in m.source.down_set(b)
                     if outside >> m.target.index[m.mapping[a]] & 1)
            raise MorphismError(f"order violated on pair ({a!r}, {b!r})")
    for v in m.source.nodes:
        if m.source.rank_of[v] != m.target.rank_of[m.mapping[v]]:
            raise MorphismError(f"rank violated at node {v!r}")
    for a, b in combinations(m.source.nodes, 2):
        j = m.source.join(a, b)
        if j is not None and m.target.join(m.mapping[a], m.mapping[b]) != m.mapping[j]:
            raise MorphismError(f"join violated on pair ({a!r}, {b!r})")
    return PosetMorphism(m.source, m.target, dict(m.mapping),
                         rank_preserving=True, join_preserving=True)


def _psi_with_sets(g: LabeledGraph) -> tuple[VinePoset, dict[frozenset[str], str]]:
    cliques = sorted(principal_cliques(g).items(), key=lambda kv: (len(kv[1]), kv[0]))
    poset, set_to_id = union_vine(
        g.vertices, [(clique, frozenset(e), clique - set(e)) for e, clique in cliques])
    kind = classify(poset).kind
    if kind < VineClass.LR_VINE:
        raise InternalDefectError(f"construction yielded {kind.name}, not an LR-vine")
    if g.is_complete() and kind != VineClass.R_VINE:
        raise InternalDefectError("complete input must yield a regular vine")
    return poset, set_to_id


def psi(g: LabeledGraph) -> VinePoset:
    """The vine of an MAT-labeled graph: singletons plus all principal
    cliques, ordered by inclusion and graded by cardinality.  Like every
    vine given by its unions it is built by ``vine_poset.union_vine``: the
    clique of an edge uv covers the clique less u and the clique less v."""
    return _psi_with_sets(g)[0]


def omega(p: VinePoset) -> LabeledGraph:
    """The labeled graph of an LR-vine: vertices are the minimal nodes, each
    non-minimal node contributes its conditioned pair as an edge labeled one
    less than the node's rank.

    The edge {i, j} is read off the join i ∨ j (:meth:`VinePoset.join`),
    with label rank(i ∨ j) - 1, and cross-checked against the conditioned
    sets computed from complete unions.
    """
    kind = classify(p).kind
    if kind < VineClass.LR_VINE:
        raise PreconditionError(f"omega requires an LR-vine, got {kind.name.lower()}")
    verts = p.minimals
    items = []
    edge_set = {}
    for i, j in combinations(verts, 2):
        join = p.join(i, j)
        if join is None:
            continue
        label = p.rank_of[join] - 1
        items.append((i, j, label))
        edge_set[frozenset((i, j))] = label
    expected = {frozenset(cond_sets(p, v)[0]): p.rank_of[v] - 1
                for v in p.nodes if p.covers_of[v]}
    if expected != edge_set:
        raise InternalDefectError("join edges disagree with conditioned sets")
    out = LabeledGraph.build(verts, items)
    verdict = check_mat_labeling(out)
    if not verdict.ok:
        raise InternalDefectError(
            f"vine produced an invalid labeling: {verdict.violation}")
    if kind == VineClass.R_VINE and not out.is_complete():
        raise InternalDefectError("regular vine must map to a complete graph")
    return out


@dataclass(frozen=True, eq=False)
class RoundtripResult:
    verdict: Verdict
    witness: dict[str, str]


def roundtrip_check(x: LabeledGraph | VinePoset) -> RoundtripResult:
    """Verify the two-way conversion on one object.

    For a graph: converting to a vine and back must reproduce the graph, the
    witness being the vertex-to-minimal-node map.  For a vine: converting to
    a graph and back must give exactly the poset of complete unions, the
    witness being the map sending each node to its complete union.
    """
    if isinstance(x, LabeledGraph):
        return _roundtrip_graph(x)
    return _roundtrip_poset(x)


def _roundtrip_graph(g: LabeledGraph) -> RoundtripResult:
    p, set_to_id = _psi_with_sets(g)
    g2 = omega(p)
    eps = {v: set_to_id[frozenset((v,))] for v in g.vertices}
    if sorted(g2.vertices) != sorted(eps.values()):
        return RoundtripResult(
            Verdict.failed("Roundtrip", message="vertex sets differ"), eps)
    mapped = {tuple(sorted((eps[u], eps[v]))): k for (u, v), k in g.labels.items()}
    if mapped != g2.labels:
        return RoundtripResult(
            Verdict.failed("Roundtrip", message="edges or labels differ"), eps)
    return RoundtripResult(Verdict.passed(), eps)


def _roundtrip_poset(p: VinePoset) -> RoundtripResult:
    g = omega(p)
    q, set_to_id = _psi_with_sets(g)
    eta = {v: set_to_id[frozenset(complete_union(p, v))] for v in p.nodes}
    hatted = hat(p)
    if not structurally_equal(q, hatted):
        return RoundtripResult(
            Verdict.failed("Roundtrip",
                           message="reconstructed vine differs from the union poset"),
            eta)
    if len(set(eta.values())) != len(p.nodes) or set(eta.values()) != set(q.nodes):
        return RoundtripResult(
            Verdict.failed("Roundtrip", message="union map is not bijective"), eta)
    # a bijection is an order isomorphism exactly when eta(↓a) = ↓eta(a)
    images = _image_masks(p, q, eta)
    for a in p.nodes:
        differ = images[a] ^ q.down_masks[eta[a]]
        if differ:
            b = next(b for b in p.nodes if differ >> q.index[eta[b]] & 1)
            return RoundtripResult(
                Verdict.failed("Roundtrip",
                               message=f"order not preserved on ({b!r}, {a!r})"),
                eta)
        if p.rank_of[a] != q.rank_of[eta[a]]:
            return RoundtripResult(
                Verdict.failed("Roundtrip", message=f"rank changes at {a!r}"), eta)
    return RoundtripResult(Verdict.passed(), eta)


def lift_graph_morphism(m: GraphMorphism) -> PosetMorphism:
    """Image of a label-preserving graph map on the associated vines."""
    validate_graph_morphism(m)
    src, src_sets = _psi_with_sets(m.source)
    dst, dst_sets = _psi_with_sets(m.target)
    id_to_set_src = {v: s for s, v in src_sets.items()}
    mapping = {}
    for node in src.nodes:
        image_set = frozenset(m.mapping[a] for a in id_to_set_src[node])
        image_id = dst_sets.get(image_set)
        if image_id is None:
            raise InternalDefectError(
                f"image {sorted(image_set)} is not a node of the target vine")
        mapping[node] = image_id
    return validate_poset_morphism(PosetMorphism(src, dst, mapping))


def lift_poset_morphism(m: PosetMorphism) -> GraphMorphism:
    """Restriction of a rank- and join-preserving poset map to the minimal
    nodes, as a map of the associated labeled graphs."""
    checked = validate_poset_morphism(m)
    g_src = omega(m.source)
    g_dst = omega(m.target)
    mapping = {v: checked.mapping[v] for v in m.source.minimals}
    out = GraphMorphism(g_src, g_dst, mapping)
    validate_graph_morphism(out)
    return out


def _check_ideal_embedding(p: VinePoset, target: VinePoset,
                           mapping: dict[str, str]) -> None:
    """Raise unless ``mapping`` is an order embedding of ``p`` onto an ideal
    of ``target``: an injective map f with f(↓v) = ↓f(v) for every node v."""
    if len(set(mapping.values())) != len(p.nodes):
        raise InternalDefectError("embedding is not injective")
    images = _image_masks(p, target, mapping)
    if any(images[v] != target.down_masks[mapping[v]] for v in p.nodes):
        raise InternalDefectError("embedding is not an order embedding onto an ideal")


def embed_in_r_vine(p: VinePoset) -> tuple[VinePoset, PosetMorphism]:
    """Exhibit an LR-vine as an ideal of a regular vine.

    The target is the vine of the completed labeled graph; each node maps to
    the node carrying its complete union.  The image is verified to be
    downward closed.
    """
    kind = classify(p).kind
    if kind < VineClass.LR_VINE:
        raise PreconditionError(f"embed requires an LR-vine, got {kind.name.lower()}")
    g = omega(p)
    completed = extend_to_complete(g)
    target, set_to_id = _psi_with_sets(completed)
    mapping = {}
    for v in p.nodes:
        s = frozenset(complete_union(p, v))
        node = set_to_id.get(s)
        if node is None:
            raise InternalDefectError(
                f"complete union {sorted(s)} missing from the completed vine")
        mapping[v] = node
    morphism = validate_poset_morphism(PosetMorphism(p, target, mapping))
    _check_ideal_embedding(p, target, mapping)
    return target, morphism


def check_pushout(g1: LabeledGraph, g2: LabeledGraph, overlap: LabeledGraph,
                  glued: LabeledGraph) -> Verdict:
    """Verify that the gluing square commutes; that is the whole check.

    A commuting square's glued graph has exactly the pieces' vertices and
    labeled edges.  So for every pair of compatible maps (h1, h2) out of the
    pieces into any target, the joint map ``{**h1, **h2}`` is label-preserving
    and is the only mediator, as a mediator must agree with h1 and h2 on every
    vertex, so the verdict needs no target.
    """
    shared = set(g1.vertices) & set(g2.vertices)
    if set(overlap.vertices) != shared:
        raise PreconditionError("overlap vertices must be the shared vertices")
    for g, tag in ((g1, "first"), (g2, "second")):
        if overlap.labels != {e: k for e, k in g.restrict(shared).labels.items()}:
            raise PreconditionError(f"overlap does not match the {tag} input")
    expected = glue(g1, g2)
    if (set(glued.vertices) != set(expected.vertices)
            or glued.labels != expected.labels):
        return Verdict.failed("Commutation",
                              message="glued graph is not the union of the pieces")
    return Verdict.passed()
