"""Canonical forms and isomorphism for labeled graphs and vines, exhaustive
enumeration of the labelings of complete graphs up to isomorphism, the
closed-form counts, and the bulk strong-chordality agreement driver."""

from __future__ import annotations

import logging
import random
import time
from array import array
from dataclasses import dataclass
from itertools import combinations, permutations
from operator import or_
from typing import Iterator

import networkx as nx

from . import _bits
from .errors import (GraphInputError, InternalDefectError, PosetInputError,
                     ResourceLimitError)
from .functors import omega
from .labeled_graph import Graph, LabeledGraph, find_mat_labeling
from .vine_poset import VinePoset

DEFAULT_DIMENSION_BOUND = 7

logger = logging.getLogger("matvines")


def _label_matrix(g: LabeledGraph) -> tuple[int, list[list[int]]]:
    index = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    lab = [[0] * n for _ in range(n)]
    for (u, v), k in g.labels.items():
        i, j = index[u], index[v]
        lab[i][j] = lab[j][i] = k
    return n, lab


def _canonical_key(n: int, lab: list[list[int]]) -> tuple[int, ...]:
    """Lexicographically least row-by-row encoding over all vertex orders.

    Backtracking with prefix pruning; candidate rows are tried in ascending
    order so the first full descent is already a good bound.
    """
    if n == 0:
        return ()
    inv = [tuple(sorted(x for x in row if x)) for row in lab]
    best: list[int] | None = None

    def rec(perm: list[int], rest: list[int], flat: list[int]) -> None:
        nonlocal best
        if not rest:
            if best is None or flat < best:
                best = list(flat)
            return
        scored = sorted(
            (tuple(lab[v][u] for u in perm), inv[v], v) for v in rest)
        for row, _, v in scored:
            nf = flat + list(row)
            if best is not None and nf > best[:len(nf)]:
                break
            rec(perm + [v], [u for u in rest if u != v], nf)

    rec([], list(range(n)), [])
    assert best is not None
    return tuple(best)


def _key_to_matrix(n: int, key: tuple[int, ...]) -> list[list[int]]:
    lab = [[0] * n for _ in range(n)]
    t = 0
    for p in range(n):
        for q in range(p):
            lab[p][q] = lab[q][p] = key[t]
            t += 1
    return lab


def canonical_form(g: LabeledGraph) -> bytes:
    """Byte string identifying the isomorphism class of a labeled graph."""
    n, lab = _label_matrix(g)
    key = _canonical_key(n, lab)
    return (f"{n}:" + ",".join(map(str, key))).encode("ascii")


def are_isomorphic(g1: LabeledGraph, g2: LabeledGraph
                   ) -> tuple[bool, dict[str, str] | None]:
    """Decide label-preserving isomorphism and return a witness bijection."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False, None
    if sorted(g1.edge_labels) != sorted(g2.edge_labels):
        return False, None
    inv1 = {v: tuple(sorted(g1.adjacency[v].values())) for v in g1.vertices}
    inv2 = {v: tuple(sorted(g2.adjacency[v].values())) for v in g2.vertices}
    if sorted(inv1.values()) != sorted(inv2.values()):
        return False, None
    order = sorted(g1.vertices, key=lambda v: (inv1[v], v))
    used: set[str] = set()
    mapping: dict[str, str] = {}

    def rec(t: int) -> bool:
        if t == len(order):
            return True
        v = order[t]
        for cand in g2.vertices:
            if cand in used or inv2[cand] != inv1[v]:
                continue
            ok = True
            for u, k in g1.adjacency[v].items():
                if u in mapping:
                    img = mapping[u]
                    if not g2.has_edge(img, cand) or g2.label_of(img, cand) != k:
                        ok = False
                        break
            if ok:
                mapping[v] = cand
                used.add(cand)
                if rec(t + 1):
                    return True
                del mapping[v]
                used.remove(cand)
        return False

    if rec(0):
        # same edge count plus edge-preservation makes the inverse a morphism
        return True, dict(mapping)
    return False, None


def poset_isomorphism(p1: VinePoset, p2: VinePoset) -> dict[str, str] | None:
    """Brute-force rank-preserving isomorphism between graded posets."""
    if sorted(p1.ranks) != sorted(p2.ranks):
        return None
    profile1 = {v: (p1.rank_of[v], len(p1.covers_of[v]), len(p1.covered_by[v]))
                for v in p1.nodes}
    profile2 = {v: (p2.rank_of[v], len(p2.covers_of[v]), len(p2.covered_by[v]))
                for v in p2.nodes}
    if sorted(profile1.values()) != sorted(profile2.values()):
        return None
    order = sorted(p1.nodes, key=lambda v: (p1.rank_of[v], v))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def rec(t: int) -> bool:
        if t == len(order):
            return True
        v = order[t]
        want_children = {mapping[c] for c in p1.covers_of[v]}
        for cand in p2.nodes:
            if cand in used or profile2[cand] != profile1[v]:
                continue
            if set(p2.covers_of[cand]) != want_children:
                continue
            mapping[v] = cand
            used.add(cand)
            if rec(t + 1):
                return True
            del mapping[v]
            used.remove(cand)
        return False

    return dict(mapping) if rec(0) else None


def are_isomorphic_vines(p1: VinePoset, p2: VinePoset) -> bool:
    """Vine isomorphism decided through the associated labeled graphs."""
    return canonical_form(omega(p1)) == canonical_form(omega(p2))


def e_formula(dimension: int) -> int:
    """Closed-form count of labeling classes of the complete graph.

    Exact integer arithmetic; the two halves of the average are the total
    binary-array count and the count of arrays fixed by the reversal
    symmetry.
    """
    if dimension < 1:
        raise GraphInputError("dimension must be at least 1")
    if dimension <= 3:
        return 1
    a_exp = (dimension - 2) * (dimension - 3) // 2
    a_term = 1 << a_exp
    b_term = 0
    top = dimension // 2 - 1
    for k in range(1, top + 1):
        c = 2 if k == top else 1
        s = sum(dimension - 4 - 2 * i for i in range(k))
        exp = a_exp - k - s
        if exp < 0:
            raise InternalDefectError("negative exponent in the class-count formula")
        b_term += c << exp
    total = a_term + b_term
    if total % 2:
        raise InternalDefectError("class-count formula produced an odd total")
    return total // 2


def a047970(dimension: int) -> int:
    """Antidiagonal sum (i+1)^(d-i) - i^(d-i) over i = 0..d, exact."""
    if dimension < 1:
        raise PosetInputError("dimension must be at least 1")
    return sum((i + 1) ** (dimension - i) - i ** (dimension - i)
               for i in range(dimension + 1))


def catalan(n: int) -> int:
    """n-th Catalan number, exact."""
    from math import comb
    return comb(2 * n, n) // (n + 1)


def _tree_representatives(n: int) -> list[list[tuple[int, int]]]:
    """One spanning tree per isomorphism class, on vertices 0..n-1."""
    if n == 1:
        return [[]]
    if n == 2:
        return [[(0, 1)]]
    out = []
    for t in nx.nonisomorphic_trees(n):
        out.append(sorted((min(a, b), max(a, b)) for a, b in t.edges()))
    out.sort()
    return out


def _spanning_trees(num_nodes: int, edges: list[tuple[int, int]]):
    """All spanning trees as tuples of edge indices, each exactly once."""
    if num_nodes == 1:
        yield ()
        return
    m = len(edges)

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def connectable(parent: list[int], idx: int) -> bool:
        trial = list(parent)
        comps = len({find(trial, v) for v in range(num_nodes)})
        for t in range(idx, m):
            a, b = edges[t]
            ra, rb = find(trial, a), find(trial, b)
            if ra != rb:
                trial[ra] = rb
                comps -= 1
                if comps == 1:
                    return True
        return comps == 1

    def rec(idx: int, parent: list[int], count: int, chosen: tuple[int, ...]):
        if count == 1:
            yield chosen
            return
        if idx == m or not connectable(parent, idx):
            return
        a, b = edges[idx]
        ra, rb = find(list(parent), a), find(list(parent), b)
        if ra != rb:
            child = list(parent)
            child[find(child, a)] = find(child, b)
            yield from rec(idx + 1, child, count - 1, chosen + (idx,))
        yield from rec(idx + 1, parent, count, chosen)

    yield from rec(0, list(range(num_nodes)), num_nodes, ())


def _towers_over_tree(dimension: int, t1_edges: list[tuple[int, int]]):
    """All proximity-respecting tree towers above a fixed bottom tree.

    Yields the finished labeling as a dict {2-bit vertex mask: label}.
    """
    labels: dict[int, int] = {}
    child_masks = []
    u_masks = []
    for (a, b) in t1_edges:
        pair = (1 << a) | (1 << b)
        labels[pair] = 1
        child_masks.append(pair)
        u_masks.append(pair)

    def descend(children: list[int], unions: list[int], level: int):
        q = len(unions)
        if q <= 1:
            yield dict(labels)
            return
        allowed = [(x, y) for x, y in combinations(range(q), 2)
                   if children[x] & children[y]]
        for tree in _spanning_trees(q, allowed):
            new_children = []
            new_unions = []
            added = []
            for idx in tree:
                x, y = allowed[idx]
                cond = unions[x] ^ unions[y]
                if cond.bit_count() != 2 or cond in labels:
                    raise InternalDefectError("malformed tower level")
                labels[cond] = level
                added.append(cond)
                new_children.append((1 << x) | (1 << y))
                new_unions.append(unions[x] | unions[y])
            yield from descend(new_children, new_unions, level + 1)
            for cond in added:
                del labels[cond]

    if dimension == 1:
        yield {}
        return
    yield from descend(child_masks, u_masks, 2)


def _labels_to_matrix(dimension: int, labels: dict[int, int]) -> list[list[int]]:
    lab = [[0] * dimension for _ in range(dimension)]
    for pair, k in labels.items():
        i = (pair & -pair).bit_length() - 1
        j = (pair & (pair - 1)).bit_length() - 1
        lab[i][j] = lab[j][i] = k
    return lab


def _classes_over_tree(dimension: int,
                       t1: list[tuple[int, int]]) -> set[tuple[int, ...]]:
    keys: set[tuple[int, ...]] = set()
    for labels in _towers_over_tree(dimension, t1):
        lab = _labels_to_matrix(dimension, labels)
        keys.add(_canonical_key(dimension, lab))
    return keys


def _enumerate_classes(dimension: int, jobs: int = 1) -> set[tuple[int, ...]]:
    trees = _tree_representatives(dimension)
    keys: set[tuple[int, ...]] = set()
    if jobs > 1 and len(trees) > 1:
        # partitions are independent and set union is order-insensitive,
        # so the result does not depend on scheduling
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_classes_over_tree,
                                 [dimension] * len(trees), trees):
                keys |= part
        return keys
    for t1 in trees:
        keys |= _classes_over_tree(dimension, t1)
    return keys


@dataclass(frozen=True)
class EnumerationReport:
    dimension: int
    class_count: int
    formula_count: int
    elapsed_ms: float
    representatives: tuple[LabeledGraph, ...] | None = None

    def to_json(self) -> dict:
        return {"l": self.dimension, "class_count": self.class_count,
                "formula_count": self.formula_count,
                "elapsed_ms": round(self.elapsed_ms, 3)}


def representative_graph(dimension: int, key: tuple[int, ...]) -> LabeledGraph:
    """Concrete labeled complete graph realizing a canonical key."""
    lab = _key_to_matrix(dimension, key)
    names = [str(i + 1) for i in range(dimension)]
    items = [(names[i], names[j], lab[i][j])
             for i in range(dimension) for j in range(i + 1, dimension)
             if lab[i][j]]
    return LabeledGraph.build(names, items)


def representative_name(dimension: int, key: tuple[int, ...]) -> str:
    sep = "" if all(x < 10 for x in key) else "-"
    return f"K{dimension}_" + sep.join(map(str, key))


def enumerate_mat_labelings_complete(
        dimension: int, *,
        allow_large: bool = False,
        dimension_bound: int = DEFAULT_DIMENSION_BOUND,
        with_representatives: bool = False,
        jobs: int = 1) -> EnumerationReport:
    """Count the valid labelings of the complete graph up to isomorphism.

    The search builds level trees bottom-up under the proximity constraint,
    one bottom tree per isomorphism class, and deduplicates the resulting
    labelings by canonical form.  Dimensions above the bound are refused
    unless explicitly allowed; nothing is ever silently truncated.
    """
    if dimension < 1:
        raise GraphInputError("dimension must be at least 1")
    if dimension > dimension_bound and not allow_large:
        raise ResourceLimitError(
            f"dimension {dimension} exceeds the configured bound "
            f"{dimension_bound}; pass allow_large=True to proceed")
    start = time.perf_counter()
    keys = _enumerate_classes(dimension, jobs=jobs)
    elapsed = (time.perf_counter() - start) * 1000.0
    reps = None
    if with_representatives:
        reps = tuple(representative_graph(dimension, key)
                     for key in sorted(keys))
    return EnumerationReport(
        dimension=dimension,
        class_count=len(keys),
        formula_count=e_formula(dimension),
        elapsed_ms=elapsed,
        representatives=reps)


@dataclass(frozen=True)
class AgreementReport:
    vertex_count: int
    graph_count: int
    class_count: int
    strongly_chordal_count: int
    labelable_count: int
    discrepancies: tuple[int, ...]
    elapsed_ms: float

    def to_json(self) -> dict:
        return {"n": self.vertex_count, "graphs": self.graph_count,
                "classes": self.class_count,
                "strongly_chordal": self.strongly_chordal_count,
                "labelable": self.labelable_count,
                "discrepancies": len(self.discrepancies),
                "elapsed_ms": round(self.elapsed_ms, 3)}


# 8! edge permutations of 28-bit masks do not fit the orbit tables; n=8
# needs isomorph-free generation instead of a sweep over masks.
AGREEMENT_VERTEX_BOUND = 7


def _orbit_tables(n: int, pairs: list[tuple[int, int]]) -> list[list[array]]:
    """Images of edge masks under every vertex permutation, byte by byte.

    ``tables[b][v][p]`` is the image of the mask ``v << 8*b`` under the
    p-th permutation, so the images of a whole mask are the bitwise or of
    one array per byte of it.
    """
    index = {}
    for e, (i, j) in enumerate(pairs):
        index[i, j] = index[j, i] = e
    perms = list(permutations(range(n)))
    m = len(pairs)
    tables = []
    for low in range(0, max(m, 1), 8):
        table = [array("I", bytes(4 * len(perms)))]
        for e in range(low, min(low + 8, m)):
            i, j = pairs[e]
            bit = array("I", [1 << index[p[i], p[j]] for p in perms])
            # entries 2^k .. 2^(k+1)-1 are entries 0 .. 2^k-1 plus bit k
            table += [array("I", map(or_, t, bit)) for t in table]
        tables.append(table)
    return tables


def _isomorphism_classes(n: int, pairs: list[tuple[int, int]]
                         ) -> Iterator[tuple[int, set[int]]]:
    """Each isomorphism class of graphs on n labeled vertices, as its
    smallest edge mask and the set of masks in its orbit."""
    tables = _orbit_tables(n, pairs)
    seen = bytearray(1 << len(pairs))
    rep = 0
    while rep != -1:
        images = tables[0][rep & 255]
        for b in range(1, len(tables)):
            images = map(or_, images, tables[b][rep >> 8 * b & 255])
        orbit = set(images)
        for mask in orbit:
            seen[mask] = 1
        yield rep, orbit
        rep = seen.find(0, rep + 1)


def _decide(n: int, pairs: list[tuple[int, int]], mask: int) -> tuple[bool, bool]:
    """(strongly chordal, labelable) for one graph, deciding each connected
    component on three or more vertices with both kernels."""
    adj = [0] * n
    for e, (i, j) in enumerate(pairs):
        if mask >> e & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    sc = True
    mat = True
    for comp in _bits.components(n, adj, (1 << n) - 1):
        cnt = comp.bit_count()
        if cnt <= 2:
            continue
        verts = list(_bits.iter_bits(comp))
        cadj = [0] * cnt
        for a in range(cnt):
            va = adj[verts[a]]
            for b in range(a + 1, cnt):
                if va >> verts[b] & 1:
                    cadj[a] |= 1 << b
                    cadj[b] |= 1 << a
        sc &= _bits.is_strongly_chordal_fast(cnt, cadj)
        mat &= _bits.find_mat_labeling(cnt, cadj) is not None
        if not sc and not mat:
            break
    return sc, mat


def mat_sc_agreement(n: int, progress: bool = False) -> AgreementReport:
    """Exhaustively compare labelability with strong chordality over every
    graph on n labeled vertices.

    Both properties are invariant under relabeling the vertices, so each
    isomorphism class is decided once, on its smallest edge mask, and its
    answer counts for every mask in its orbit.  Orbits come from tables of
    the edge permutations induced by all n! vertex permutations; the orbit
    sizes must sum to exactly 2^m over the m vertex pairs, otherwise the
    sweep raises :class:`InternalDefectError`.  ``discrepancies`` lists every
    disagreeing labeled mask, whole orbits, in ascending order.  With
    ``progress`` the sweep logs the classes decided and the share of masks
    covered to the ``matvines`` logger at INFO level.  Sweeps above
    ``AGREEMENT_VERTEX_BOUND`` vertices are refused.
    """
    if n < 0:
        raise GraphInputError("vertex count must not be negative")
    if n > AGREEMENT_VERTEX_BOUND:
        raise ResourceLimitError(
            f"agreement sweep over {n} vertices exceeds the bound "
            f"{AGREEMENT_VERTEX_BOUND}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 1 << len(pairs)
    start = time.perf_counter()
    classes = 0
    covered = 0
    sc_count = 0
    mat_count = 0
    bad: list[int] = []
    report_every = max(total // 20, 1)
    next_report = report_every
    for rep, orbit in _isomorphism_classes(n, pairs):
        sc, mat = _decide(n, pairs, rep)
        size = len(orbit)
        classes += 1
        covered += size
        sc_count += sc * size
        mat_count += mat * size
        if sc != mat:
            bad.extend(orbit)
        if progress and (covered >= next_report or covered == total):
            logger.info("agreement sweep n=%d: %d classes decided, %.0f%% of "
                        "masks covered", n, classes, 100.0 * covered / total)
            next_report = covered + report_every
    if covered != total:
        raise InternalDefectError(
            f"orbit sizes sum to {covered}, not to the {total} graphs on "
            f"{n} vertices")
    elapsed = (time.perf_counter() - start) * 1000.0
    return AgreementReport(
        vertex_count=n, graph_count=total, class_count=classes,
        strongly_chordal_count=sc_count, labelable_count=mat_count,
        discrepancies=tuple(sorted(bad)), elapsed_ms=elapsed)


def random_chordal_graph(rng: random.Random, n_vertices: int) -> Graph:
    """Random chordal graph grown by attaching each new vertex to a clique."""
    names = [f"v{i + 1}" for i in range(n_vertices)]
    adj: dict[str, set[str]] = {names[0]: set()}
    for v in names[1:]:
        clique: set[str] = set()
        existing = sorted(adj)
        if existing and rng.random() > 0.15:
            anchor = rng.choice(existing)
            clique = {anchor}
            candidates = set(adj[anchor])
            while candidates and rng.random() < 0.6:
                pick = rng.choice(sorted(candidates))
                clique.add(pick)
                candidates &= adj[pick]
        adj[v] = set(clique)
        for u in clique:
            adj[u].add(v)
    edges = [(u, w) for u in names for w in adj[u] if u < w]
    return Graph.build(names, edges)


def random_mat_labeled_graph(rng: random.Random, n_vertices: int) -> LabeledGraph:
    """Random valid labeled graph, by searching labelings of random chordal
    graphs until one is strongly chordal."""
    while True:
        g = random_chordal_graph(rng, n_vertices)
        labeled = find_mat_labeling(g)
        if labeled is not None:
            return labeled
