"""Finite simple graphs with positive integer edge labels and the
validation, search, and construction operations on them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import _bits
from .errors import GraphInputError, InternalDefectError, PreconditionError
from .verdict import Verdict

Ordering = tuple[str, ...]


def _norm_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _vertex_ids(vertices: Iterable[str]) -> tuple[str, ...]:
    verts = tuple(str(v) for v in vertices)
    if len(set(verts)) != len(verts):
        raise GraphInputError("duplicate vertex identifiers")
    return verts


def _endpoints(vset: set[str], u: str, v: str) -> tuple[str, str]:
    """The endpoints of an edge as strings, checked against the declared
    vertices."""
    u, v = str(u), str(v)
    if u == v:
        raise GraphInputError(f"loop at vertex {u!r}")
    if u not in vset or v not in vset:
        raise GraphInputError(f"edge ({u!r}, {v!r}) uses an undeclared vertex")
    return u, v


@dataclass(frozen=True)
class Graph:
    """An unlabeled finite simple graph with opaque string vertices."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        verts = _vertex_ids(vertices)
        vset = set(verts)
        norm = [_norm_edge(*_endpoints(vset, u, v)) for (u, v) in edges]
        if len(set(norm)) != len(norm):
            raise GraphInputError("duplicate edges")
        return cls(verts, tuple(sorted(norm)))

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for (u, v) in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(s) for v, s in adj.items()}

    def _bit_form(self) -> tuple[int, list[int]]:
        index = {v: i for i, v in enumerate(self.vertices)}
        adj = [0] * len(self.vertices)
        for (u, v) in self.edges:
            adj[index[u]] |= 1 << index[v]
            adj[index[v]] |= 1 << index[u]
        return len(self.vertices), adj


@dataclass(frozen=True)
class LabeledGraph:
    """A simple graph together with a positive integer label on each edge."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    edge_labels: tuple[int, ...]

    @classmethod
    def build(cls, vertices: Iterable[str],
              labeled_edges: Iterable[tuple[str, str, int]]) -> "LabeledGraph":
        verts = _vertex_ids(vertices)
        vset = set(verts)
        seen: dict[tuple[str, str], int] = {}
        for (u, v, k) in labeled_edges:
            u, v = _endpoints(vset, u, v)
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise GraphInputError(f"edge ({u!r}, {v!r}) needs a positive integer label")
            e = _norm_edge(u, v)
            if e in seen:
                raise GraphInputError(f"duplicate edge ({u!r}, {v!r})")
            seen[e] = k
        ordered = tuple(sorted(seen))
        return cls(verts, ordered, tuple(seen[e] for e in ordered))

    @classmethod
    def from_labels(cls, vertices: Iterable[str],
                    labels: Mapping[tuple[str, str], int]) -> "LabeledGraph":
        return cls.build(vertices, [(u, v, k) for (u, v), k in labels.items()])

    @cached_property
    def labels(self) -> dict[tuple[str, str], int]:
        return dict(zip(self.edges, self.edge_labels))

    @cached_property
    def adjacency(self) -> dict[str, dict[str, int]]:
        adj: dict[str, dict[str, int]] = {v: {} for v in self.vertices}
        for (u, v), k in self.labels.items():
            adj[u][v] = k
            adj[v][u] = k
        return adj

    def label_of(self, u: str, v: str) -> int:
        try:
            return self.labels[_norm_edge(u, v)]
        except KeyError:
            raise GraphInputError(f"no edge ({u!r}, {v!r})") from None

    def has_edge(self, u: str, v: str) -> bool:
        return _norm_edge(u, v) in self.labels

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def label_classes(self) -> dict[int, tuple[tuple[str, str], ...]]:
        """Edges grouped by label value."""
        out: dict[int, list[tuple[str, str]]] = {}
        for e, k in self.labels.items():
            out.setdefault(k, []).append(e)
        return {k: tuple(v) for k, v in out.items()}

    def is_complete(self) -> bool:
        n = len(self.vertices)
        return len(self.edges) == n * (n - 1) // 2

    def restrict(self, keep: Iterable[str]) -> "LabeledGraph":
        """Induced labeled subgraph on a vertex subset."""
        keep_set = set(keep)
        unknown = keep_set - set(self.vertices)
        if unknown:
            raise GraphInputError(f"unknown vertices {sorted(unknown)}")
        verts = tuple(v for v in self.vertices if v in keep_set)
        items = [(u, v, k) for (u, v), k in self.labels.items()
                 if u in keep_set and v in keep_set]
        return LabeledGraph.build(verts, items)

    def without_vertex(self, v: str) -> "LabeledGraph":
        return self.restrict([u for u in self.vertices if u != v])

    def relabel_vertices(self, mapping: Mapping[str, str]) -> "LabeledGraph":
        verts = tuple(mapping[v] for v in self.vertices)
        return LabeledGraph.build(
            verts, [(mapping[u], mapping[v], k) for (u, v), k in self.labels.items()])

    @cached_property
    def _mat_verdict(self) -> Verdict:
        """:func:`check_mat_labeling`'s verdict, found once per frozen graph."""
        n, adj, lab = self._bit_form()
        hit = _bits.mat_violation(n, adj, lab)
        if hit is None:
            return Verdict.passed()
        tag, (i, j), extra = hit
        names = self.vertices
        if tag == "ML1":
            return Verdict.failed(
                "ML1", subject=(names[i], names[j]),
                cycle=tuple(names[t] for t in extra),
                message="edge closes a cycle inside one label class")
        return Verdict.failed(
            "ML2", subject=(names[i], names[j]),
            message=f"edge of label {self.label_of(names[i], names[j])} has "
                    f"{extra} conditioning vertices")

    @classmethod
    def _from_matrix(cls, names: Sequence[str], lab: list[list[int]]) -> "LabeledGraph":
        """The graph on ``names`` of a label matrix; inverse of
        :meth:`_bit_form`."""
        n = len(names)
        return cls.build(names, [(names[i], names[j], lab[i][j])
                                 for i in range(n) for j in range(i + 1, n) if lab[i][j]])

    def _bit_form(self) -> tuple[int, list[int], list[list[int]]]:
        index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        adj = [0] * n
        lab = [[0] * n for _ in range(n)]
        for (u, v), k in self.labels.items():
            i, j = index[u], index[v]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            lab[i][j] = lab[j][i] = k
        return n, adj, lab


def _require_vertex(g: LabeledGraph, v: str) -> None:
    if v not in g.adjacency:
        raise GraphInputError(f"unknown vertex {v!r}")


def check_mat_labeling(g: LabeledGraph) -> Verdict:
    """Validate the two labeling axioms.

    Axiom ML1 requires, for every label value k, that the label-k edges form
    a forest and that no edge of smaller label joins two vertices already
    connected within that forest.  Axiom ML2 requires each label-k edge to
    close exactly k-1 triangles whose other two edges carry smaller labels.
    """
    return g._mat_verdict


def is_mat_simplicial(g: LabeledGraph, v: str) -> Verdict:
    """Check that v is simplicial with incident labels exactly 1..deg(v),
    each dominating the labels inside its neighbourhood."""
    _require_vertex(g, v)
    n, adj, lab = g._bit_form()
    idx = g.vertices.index(v)
    hit = _bits.mat_simplicial_violation(n, adj, lab, idx, (1 << n) - 1)
    if hit is None:
        return Verdict.passed()
    tag, extra = hit
    names = g.vertices
    if tag == "MS2":
        return Verdict.failed("MS2", subject=(v,),
                              message=f"incident labels {list(extra)} are not "
                                      f"1..{g.degree(v)}")
    u1, u2 = extra
    return Verdict.failed(tag, subject=(v, names[u1], names[u2]))


def find_mat_peo(g: LabeledGraph) -> Ordering | None:
    """An ordering whose every prefix ends in a simplicial vertex with
    admissible labels, or None when the labeling is invalid."""
    order = _bits.find_mat_peo(*g._bit_form())
    return None if order is None else tuple(g.vertices[i] for i in order)


def principal_clique(g: LabeledGraph, u: str, v: str) -> frozenset[str]:
    """Endpoints of an edge plus its conditioning vertices."""
    k = g.label_of(u, v)
    nb_u, nb_v = g.adjacency[u], g.adjacency[v]
    cond = {w for w in nb_u if w in nb_v and nb_u[w] < k and nb_v[w] < k}
    return frozenset({u, v} | cond)


def principal_cliques(g: LabeledGraph) -> dict[tuple[str, str], frozenset[str]]:
    """The clique generated by each edge.

    Each returned set is a clique whose internal labels, apart from the
    generating edge, are all smaller than the generating label.
    """
    verdict = check_mat_labeling(g)
    if not verdict.ok:
        raise PreconditionError(f"graph is not MAT-labeled: {verdict.violation}")
    out = {}
    for (u, v), k in g.labels.items():
        clique = principal_clique(g, u, v)
        for a, b in combinations(sorted(clique), 2):
            if not g.has_edge(a, b):
                raise InternalDefectError(f"principal set of ({u}, {v}) is not a clique")
            if (a, b) != _norm_edge(u, v) and g.label_of(a, b) >= k:
                raise InternalDefectError(
                    f"principal clique of ({u}, {v}) contains a label >= {k}")
        out[_norm_edge(u, v)] = clique
    return out


def is_strongly_chordal(g: Graph | LabeledGraph) -> Verdict:
    """Decide strong chordality, with an induced cycle or sun as witness.

    The decision runs by greedy simple-vertex elimination.  The vertices it
    cannot remove induce a subgraph without a simple vertex, which by
    Farber's theorem holds a chordless cycle or a sun.  A chordless cycle is
    searched for there first; when there is none, deleting vertices from
    the residual leaves a sun.  Either witness is induced in ``g`` as well.
    """
    n, adj = g._bit_form()[:2]
    residual = _bits.eliminate((1 << n) - 1, partial(_bits.is_simple, adj))[1]
    if not residual:
        return Verdict.passed()
    cycle = _bits.induced_cycle(adj, residual)
    if cycle is not None:
        cycle = tuple(g.vertices[i] for i in cycle)
        return Verdict.failed("NotChordal", subject=cycle, cycle=cycle)
    sun = _bits.find_sun(adj, residual)
    if sun is None:
        raise InternalDefectError("no simple vertex left, yet chordal and sun-free")
    inner, outer = sun
    return Verdict.failed("SunFound", subject=tuple(g.vertices[i] for i in inner + outer),
                          message=f"induced {len(inner)}-sun")


def find_mat_labeling(g: Graph | LabeledGraph) -> LabeledGraph | None:
    """A valid labeling of an unlabeled graph, or None when it has none.

    A graph has one exactly when it is strongly chordal, so the fast
    elimination test decides first and only strongly chordal graphs reach
    the backtracking search.  The agreement sweep of
    :func:`matvines.enumeration.mat_sc_agreement` calls that search on every
    graph, so its comparison with strong chordality stays independent.
    """
    n, adj = g._bit_form()[:2]
    if not _bits.is_strongly_chordal_fast(n, adj):
        return None
    lab = _bits.find_mat_labeling(n, adj)
    if lab is None:
        raise InternalDefectError("no labeling found for a strongly chordal graph")
    return LabeledGraph._from_matrix(g.vertices, lab)


def maximal_cliques(g: Graph | LabeledGraph) -> list[frozenset[str]]:
    """Every maximal clique, smallest first and then by sorted vertex names."""
    n, adj = g._bit_form()[:2]
    names = g.vertices
    cliques = [frozenset(names[i] for i in _bits.iter_bits(c))
               for c in _bits.maximal_cliques(n, adj)]
    return sorted(cliques, key=lambda c: (len(c), sorted(c)))


def _check_overlap(g1: LabeledGraph, g2: LabeledGraph) -> frozenset[str]:
    shared = frozenset(g1.vertices) & frozenset(g2.vertices)
    r1 = g1.restrict(shared)
    r2 = g2.restrict(shared)
    if set(r1.edges) != set(r2.edges):
        raise PreconditionError("induced subgraphs on the shared vertices differ")
    for e in r1.edges:
        if r1.labels[e] != r2.labels[e]:
            raise PreconditionError(
                f"label conflict on shared edge {e}: "
                f"{r1.labels[e]} vs {r2.labels[e]}")
    if not r1.is_complete():
        raise PreconditionError("shared vertices do not induce a complete graph")
    for tag, g in (("first", g1), ("second", g2)):
        verdict = check_mat_labeling(g)
        if not verdict.ok:
            raise PreconditionError(f"{tag} input is not MAT-labeled: {verdict.violation}")
    overlap_check = check_mat_labeling(r1)
    if not overlap_check.ok:
        raise PreconditionError(
            f"overlap restriction is not MAT-labeled: {overlap_check.violation}")
    return shared


def glue(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """Union of two labeled graphs over a shared complete subgraph."""
    _check_overlap(g1, g2)
    verts = list(g1.vertices) + [v for v in g2.vertices if v not in set(g1.vertices)]
    items = {e: k for e, k in g1.labels.items()}
    items.update(g2.labels)
    out = LabeledGraph.build(verts, [(u, v, k) for (u, v), k in items.items()])
    verdict = check_mat_labeling(out)
    if not verdict.ok:
        raise InternalDefectError(f"glued graph failed validation: {verdict.violation}")
    return out


def merge_complete(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """Complete graph on the vertex union restricting to both inputs: the
    inputs glued over their shared complete subgraph, then completed by
    :func:`extend_to_complete`."""
    glued = glue(g1, g2)
    for tag, g in (("first", g1), ("second", g2)):
        if not g.is_complete():
            raise PreconditionError(f"{tag} input is not a complete graph")
    return extend_to_complete(glued)


def extend_to_complete(g: LabeledGraph) -> LabeledGraph:
    """Complete graph on the same vertices whose restriction equals ``g``.

    The vine of ``g`` is an ideal of a regular vine, grown here one vertex
    at a time in the order of :func:`find_mat_peo` by the rule of
    :func:`matvines.enumeration._extensions`.  Let N be the new vertex v's
    neighbours among those placed.  From the top node (every placed
    vertex) a walk goes down: at a node of r vertices, an end of its edge
    outside N leaves and gets the label r from v, until N is left, or
    until one vertex is left when N is empty, and it gets the label 1.
    The edges to N keep their labels.  Then the node of the edge from v to
    its label j is v with its labels 1..j.  Where the completion is not
    unique, the vertex order decides which one is returned.
    """
    verdict = check_mat_labeling(g)
    if not verdict.ok:
        raise PreconditionError(f"graph is not MAT-labeled: {verdict.violation}")
    n, adj, lab = g._bit_form()
    order = _bits.find_mat_peo(n, adj, lab)
    if order is None:
        raise InternalDefectError("a MAT-labeled graph has no elimination ordering")
    edge_of: dict[int, tuple[int, int]] = {}   # node mask -> its edge; (u, u) for {u}
    placed = 0
    for v in order:
        nb, mask = adj[v] & placed, placed
        for r in range(placed.bit_count(), nb.bit_count(), -1):
            if mask not in edge_of:
                raise InternalDefectError(f"no edge has the principal clique {mask:#b}")
            a, b = edge_of[mask]
            # were b a neighbour too, the restriction check below would fail
            leave = b if nb >> a & 1 else a
            lab[v][leave] = lab[leave][v] = r
            mask ^= 1 << leave
        node = 0
        for u in [v, *sorted(_bits.iter_bits(placed), key=lab[v].__getitem__)]:
            node |= 1 << u
            edge_of[node] = (v, u)
        placed |= 1 << v
    out = LabeledGraph._from_matrix(g.vertices, lab)
    verdict = check_mat_labeling(out)
    if not verdict.ok:
        raise InternalDefectError(f"completed graph failed validation: {verdict.violation}")
    for e, k in g.labels.items():
        if out.labels[e] != k:
            raise InternalDefectError("extension does not restrict to the input")
    return out
