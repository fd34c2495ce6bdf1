"""Finite simple graphs with positive integer edge labels and the
validation, search, and construction operations on them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

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

    def neighbors(self, v: str) -> frozenset[str]:
        return frozenset(self.adjacency[v])

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def label_classes(self) -> dict[int, tuple[tuple[str, str], ...]]:
        """Edges grouped by label value."""
        out: dict[int, list[tuple[str, str]]] = {}
        for e, k in self.labels.items():
            out.setdefault(k, []).append(e)
        return {k: tuple(v) for k, v in out.items()}

    def underlying(self) -> Graph:
        return Graph(self.vertices, self.edges)

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
    n, adj, lab = g._bit_form()
    hit = _bits.mat_violation(n, adj, lab)
    if hit is None:
        return Verdict.passed()
    tag, (i, j), extra = hit
    names = g.vertices
    if tag == "ML1":
        return Verdict.failed(
            "ML1", subject=(names[i], names[j]),
            cycle=tuple(names[t] for t in extra),
            message="edge closes a cycle inside one label class")
    return Verdict.failed(
        "ML2", subject=(names[i], names[j]),
        message=f"edge of label {g.label_of(names[i], names[j])} has "
                f"{extra} conditioning vertices")


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
    n, adj, lab = g._bit_form()
    order = _bits.find_mat_peo(n, adj, lab)
    if order is None:
        return None
    return tuple(g.vertices[i] for i in order)


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

    The decision runs by greedy simple-vertex elimination; witnesses are
    re-derived by direct search only on failure.
    """
    plain = g.underlying() if isinstance(g, LabeledGraph) else g
    n, adj = plain._bit_form()
    if _bits.is_strongly_chordal_fast(n, adj):
        return Verdict.passed()
    names = plain.vertices
    cycle = _bits.induced_cycle(n, adj)
    if cycle is not None:
        return Verdict.failed("NotChordal",
                              subject=tuple(names[i] for i in cycle),
                              cycle=tuple(names[i] for i in cycle))
    sun = _bits.find_sun(n, adj)
    if sun is None:
        raise InternalDefectError("not strongly chordal yet chordal and sun-free")
    inner, outer = sun
    return Verdict.failed(
        "SunFound",
        subject=tuple(names[i] for i in inner) + tuple(names[i] for i in outer),
        message=f"induced {len(inner)}-sun")


def find_mat_labeling(g: Graph | LabeledGraph) -> LabeledGraph | None:
    """Search for a valid labeling of an unlabeled graph.

    Returns None exactly when the graph is not strongly chordal; the search
    is an independent backtracking procedure, so agreement with
    :func:`is_strongly_chordal` is a genuine cross-check rather than a
    tautology.
    """
    plain = g.underlying() if isinstance(g, LabeledGraph) else g
    n, adj = plain._bit_form()
    lab = _bits.find_mat_labeling(n, adj)
    if lab is None:
        return None
    names = plain.vertices
    items = [(names[i], names[j], lab[i][j])
             for i in range(n) for j in range(i + 1, n) if lab[i][j]]
    return LabeledGraph.build(names, items)


def maximal_cliques(g: Graph | LabeledGraph) -> list[frozenset[str]]:
    """Every maximal clique, smallest first and then by sorted vertex names."""
    plain = g.underlying() if isinstance(g, LabeledGraph) else g
    n, adj = plain._bit_form()
    names = plain.vertices
    cliques = [frozenset(names[i] for i in _bits.iter_bits(c))
               for c in _bits.maximal_cliques(n, adj)]
    return sorted(cliques, key=lambda c: (len(c), sorted(c)))


def _check_overlap(g1: LabeledGraph, g2: LabeledGraph,
                   require_inputs_complete: bool) -> frozenset[str]:
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
        if require_inputs_complete and not g.is_complete():
            raise PreconditionError(f"{tag} input is not a complete graph")
    overlap_check = check_mat_labeling(r1)
    if not overlap_check.ok:
        raise PreconditionError(
            f"overlap restriction is not MAT-labeled: {overlap_check.violation}")
    return shared


def glue(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """Union of two labeled graphs over a shared complete subgraph."""
    _check_overlap(g1, g2, require_inputs_complete=False)
    verts = list(g1.vertices) + [v for v in g2.vertices if v not in set(g1.vertices)]
    items = {e: k for e, k in g1.labels.items()}
    items.update(g2.labels)
    out = LabeledGraph.build(verts, [(u, v, k) for (u, v), k in items.items()])
    verdict = check_mat_labeling(out)
    if not verdict.ok:
        raise InternalDefectError(f"glued graph failed validation: {verdict.violation}")
    return out


def merge_complete(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """Complete graph on the vertex union restricting to both inputs.

    The labels of the missing edges are found by backtracking; existence is
    guaranteed, so exhaustion of the search signals a defect.
    """
    _check_overlap(g1, g2, require_inputs_complete=True)
    verts = list(g1.vertices) + [v for v in g2.vertices if v not in set(g1.vertices)]
    fixed = {e: k for e, k in g1.labels.items()}
    fixed.update(g2.labels)
    missing = [(u, v) for u, v in combinations(sorted(verts), 2)
               if _norm_edge(u, v) not in fixed]
    m = len(verts)
    if not missing:
        return LabeledGraph.build(verts, [(u, v, k) for (u, v), k in fixed.items()])

    counts = [0] * (m + 1)
    for k in fixed.values():
        counts[k] += 1
    quota = [0] * (m + 1)
    for k in range(1, m):
        quota[k] = m - k

    assigned: dict[tuple[str, str], int] = {}

    def current_label(u: str, v: str) -> int | None:
        e = _norm_edge(u, v)
        if e in fixed:
            return fixed[e]
        return assigned.get(e)

    def feasible() -> bool:
        # every settled edge must still be able to reach k-1 conditioning
        # vertices, and must not already exceed that bound
        every = {**fixed, **assigned}
        for (u, v), k in every.items():
            low = 0
            open_slots = 0
            for w in verts:
                if w in (u, v):
                    continue
                a = current_label(u, w)
                b = current_label(v, w)
                if a is not None and b is not None:
                    if a < k and b < k:
                        low += 1
                elif (a is None or a < k) and (b is None or b < k):
                    open_slots += 1
            if low > k - 1 or low + open_slots < k - 1:
                return False
        return True

    def forest_ok(k: int) -> bool:
        parent = {v: v for v in verts}
        for (u, v), kk in {**fixed, **assigned}.items():
            if kk != k:
                continue
            ru, rv = _bits.find(parent, u), _bits.find(parent, v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    def solve(pos: int) -> bool:
        if pos == len(missing):
            return True
        u, v = missing[pos]
        for k in range(1, m):
            if counts[k] >= quota[k]:
                continue
            assigned[_norm_edge(u, v)] = k
            counts[k] += 1
            if forest_ok(k) and feasible() and solve(pos + 1):
                return True
            counts[k] -= 1
            del assigned[_norm_edge(u, v)]
        return False

    if not solve(0):
        raise InternalDefectError("no completion found for a valid merge input")
    every = {**fixed, **assigned}
    out = LabeledGraph.build(verts, [(u, v, k) for (u, v), k in every.items()])
    verdict = check_mat_labeling(out)
    if not verdict.ok:
        raise InternalDefectError(f"merged graph failed validation: {verdict.violation}")
    return out


def extend_to_complete(g: LabeledGraph) -> LabeledGraph:
    """Complete graph on the same vertices whose restriction equals ``g``.

    Recursive construction: peel off a maximal clique whose intersection
    with one other maximal clique dominates its intersections with all the
    rest, extend the remainder, and merge the two complete pieces.
    """
    verdict = check_mat_labeling(g)
    if not verdict.ok:
        raise PreconditionError(f"graph is not MAT-labeled: {verdict.violation}")
    out = _extend_recursive(g)
    for e, k in g.labels.items():
        if out.labels[e] != k:
            raise InternalDefectError("extension does not restrict to the input")
    return out


def _extend_recursive(g: LabeledGraph) -> LabeledGraph:
    if g.is_complete():
        return g
    cliques = maximal_cliques(g)
    pair = None
    for x0 in cliques:
        for y0 in cliques:
            if y0 == x0:
                continue
            inter = x0 & y0
            if all(x0 & y <= inter for y in cliques if y != x0):
                pair = (x0, y0)
                break
        if pair:
            break
    if pair is None:
        raise InternalDefectError("no separating pair of maximal cliques found")
    x0, _ = pair
    rest = [y for y in cliques if y != x0]
    rest_vertices = frozenset().union(*rest)
    keep_edges = [(u, v, k) for (u, v), k in g.labels.items()
                  if any(u in y and v in y for y in rest)]
    g_rest = LabeledGraph.build(
        tuple(v for v in g.vertices if v in rest_vertices), keep_edges)
    completed_rest = _extend_recursive(g_rest)
    return merge_complete(g.restrict(x0), completed_rest)
