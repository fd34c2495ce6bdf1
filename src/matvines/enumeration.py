"""Canonical forms and isomorphism for labeled graphs and vines, exhaustive
enumeration of the labelings of complete graphs up to isomorphism, the
closed-form counts, and the bulk strong-chordality agreement driver."""

from __future__ import annotations

import logging
import os
import random
import sys
import time
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from . import _bits
from ._bits import find
from .errors import (GraphInputError, InternalDefectError, PosetInputError,
                     ResourceLimitError)
from .functors import omega
from .labeled_graph import Graph, LabeledGraph, find_mat_labeling
from .vine_poset import VinePoset

DEFAULT_DIMENSION_BOUND = 7

logger = logging.getLogger("matvines")


def _canonical_key(n: int, lab: list[list[int]]) -> tuple[int, ...]:
    """Lexicographically least row-by-row encoding over all vertex orders.

    Backtracking with prefix pruning; candidate rows are tried in ascending
    order so the first full descent is already a good bound.  A row is held
    as one base-B integer, B above every label, and grows by one digit when
    a vertex joins the prefix; rows at one depth have equal length, so
    integer order is tuple order.  Of two twins (equal label rows outside
    the pair) only one is tried at a node: swapping them is an automorphism
    that fixes the prefix, so both give the same encodings.
    """
    if n == 0:
        return ()
    base = max(2, 1 + max(map(max, lab)))
    twin = list(range(n))
    for w in range(n):
        for v in range(w):
            swapped = lab[v][:]
            swapped[v], swapped[w] = swapped[w], swapped[v]
            if swapped == lab[w]:
                twin[w] = twin[v]
                break
    best: list[int] | None = None

    def rec(prefix: list[int], rows: list[tuple[int, int]]) -> None:
        nonlocal best
        if not rows:
            best = prefix
            return
        rows.sort()
        tried = set()
        for row, v in rows:
            if twin[v] in tried:
                continue
            tried.add(twin[v])
            grown = prefix + [row]
            if best is not None and grown > best[:len(grown)]:
                break
            lv = lab[v]
            rec(grown, [(r * base + lv[u], u) for r, u in rows if u != v])

    rec([], [(0, v) for v in range(n)])
    assert best is not None
    return tuple(row // base ** (k - 1 - i) % base
                 for k, row in enumerate(best) for i in range(k))


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
    n, _, lab = g._bit_form()
    key = _canonical_key(n, lab)
    return (f"{n}:" + ",".join(map(str, key))).encode("ascii")


def _assignments(order: Sequence, options: Callable) -> Iterator[dict]:
    """Every injective assignment of the items of ``order``, depth first.

    Each item goes to one of ``options(item, assigned)`` that no earlier
    item took, where ``assigned`` maps the items before it; ``options`` is
    asked once per visit of an item.  The one dict is yielded once per full
    assignment and changes afterwards, so a caller keeps a copy.  The
    search keeps its own stack, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    assigned: dict = {}
    used: set = set()
    if not order:
        yield assigned
        return
    stack = [iter(options(order[0], assigned))]
    while stack:
        item = order[len(stack) - 1]
        if item in assigned:
            used.remove(assigned.pop(item))
        for choice in stack[-1]:
            if choice not in used:
                assigned[item] = choice
                used.add(choice)
                break
        else:
            stack.pop()
            continue
        if len(stack) == len(order):
            yield assigned
        else:
            stack.append(iter(options(order[len(stack)], assigned)))


def are_isomorphic(g1: LabeledGraph, g2: LabeledGraph
                   ) -> tuple[bool, dict[str, str] | None]:
    """Decide label-preserving isomorphism and return a witness bijection.

    The vertices of ``g1`` are placed in maximum cardinality search order,
    so each comes after as many of its neighbours as possible.  A vertex
    goes to a vertex of ``g2`` with its sorted incident labels that carries
    the right label to the image of every placed neighbour; with a placed
    neighbour, the candidates are the neighbours of its image.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False, None
    if sorted(g1.edge_labels) != sorted(g2.edge_labels):
        return False, None
    inv1 = {v: tuple(sorted(g1.adjacency[v].values())) for v in g1.vertices}
    inv2 = {v: tuple(sorted(g2.adjacency[v].values())) for v in g2.vertices}
    if sorted(inv1.values()) != sorted(inv2.values()):
        return False, None
    by_invariant: dict[tuple[int, ...], list[str]] = {}
    for w in g2.vertices:
        by_invariant.setdefault(inv2[w], []).append(w)
    n, adj, _ = g1._bit_form()
    order = [g1.vertices[i] for i in _bits.mcs_order(n, adj)]

    def options(v: str, assigned: dict[str, str]) -> list[str]:
        placed = [(assigned[u], k) for u, k in g1.adjacency[v].items()
                  if u in assigned]
        pool = g2.adjacency[placed[0][0]] if placed else by_invariant[inv1[v]]
        return [w for w in pool if inv2[w] == inv1[v]
                and all(g2.adjacency[w].get(x) == k for x, k in placed)]

    for mapping in _assignments(order, options):
        # same edge count plus edge-preservation makes the inverse a morphism
        return True, dict(mapping)
    return False, None


def poset_isomorphism(p1: VinePoset, p2: VinePoset) -> dict[str, str] | None:
    """A cover- and rank-preserving bijection between two posets, or None.

    The nodes of ``p1`` are placed children first.  A node goes to a node
    of ``p2`` with its profile (rank, number of covers, number of covering
    nodes) that covers exactly the images of its covers, so in a vine a
    node that covers anything has at most one candidate.
    """
    if sorted(p1.ranks) != sorted(p2.ranks):
        return None
    profile1 = {v: (p1.rank_of[v], len(p1.covers_of[v]), len(p1.covered_by[v]))
                for v in p1.nodes}
    profile2 = {v: (p2.rank_of[v], len(p2.covers_of[v]), len(p2.covered_by[v]))
                for v in p2.nodes}
    if sorted(profile1.values()) != sorted(profile2.values()):
        return None
    by_covers: dict[frozenset[str], list[str]] = {}
    for w in p2.nodes:
        by_covers.setdefault(frozenset(p2.covers_of[w]), []).append(w)

    def options(v: str, assigned: dict[str, str]) -> list[str]:
        images = frozenset(assigned[c] for c in p1.covers_of[v])
        return [w for w in by_covers.get(images, ())
                if profile2[w] == profile1[v]]

    for mapping in _assignments(p1._children_first, options):
        return dict(mapping)
    return None


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
    if n < 0:
        raise PosetInputError("n must not be negative")
    from math import comb
    return comb(2 * n, n) // (n + 1)


def _tree_representatives(n: int) -> list[list[tuple[int, int]]]:
    """One spanning tree per isomorphism class, on vertices 0..n-1.

    The tests' reference route for the enumeration starts here.  The trees
    on k vertices are those on k-1 with a leaf k-1 attached to each vertex
    in turn; a grown tree is kept when its centre-rooted AHU code (Aho,
    Hopcroft, Ullman 1974) is new.
    """
    trees: list[list[tuple[int, int]]] = [[]]
    for k in range(2, n + 1):
        codes: dict[str, list[tuple[int, int]]] = {}
        for t in trees:
            for v in range(k - 1):
                grown = sorted(t + [(v, k - 1)])
                codes.setdefault(_tree_code(k, grown), grown)
        trees = list(codes.values())
    return sorted(trees)


def _tree_code(n: int, edges: list[tuple[int, int]]) -> str:
    """AHU code of a tree rooted at its centre, the lesser of the two for a
    bicentral tree, so that isomorphic trees get the same code."""
    adj = _adjacency_lists(n, edges)
    # the centre is the middle of a longest path, which runs between the
    # vertices found last by two breadth-first searches
    order, parent = _rooted(adj, _rooted(adj, 0)[0][-1])
    path = [order[-1]]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    codes = []
    for root in {path[(len(path) - 1) // 2], path[len(path) // 2]}:
        order, parent = _rooted(adj, root)
        code = [""] * n
        for v in reversed(order):
            code[v] = "(" + "".join(sorted(code[u] for u in adj[v]
                                           if u != parent[v])) + ")"
        codes.append(code[root])
    return min(codes)


def _adjacency_lists(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _rooted(adj: list[list[int]], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order of a tree from ``root``, and each vertex's parent
    (-1 for the root)."""
    order = [root]
    parent = [-1] * len(adj)
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    return order, parent


def _spanning_trees(num_nodes: int, edges: list[tuple[int, int]]):
    """All spanning trees, in lexicographic order, as the ascending tuples of
    num_nodes − 1 edge indices that close no cycle."""
    for subset in combinations(range(len(edges)), num_nodes - 1):
        parent = list(range(num_nodes))
        for idx in subset:
            a, b = edges[idx]
            ra, rb = find(parent, a), find(parent, b)
            if ra == rb:
                break
            parent[ra] = rb
        else:
            yield subset


def _towers_over_tree(dimension: int, t1_edges: list[tuple[int, int]]):
    """All proximity-respecting tree towers above a fixed bottom tree.

    Yields the finished labeling as a dict {2-bit vertex mask: label}; the
    tests list every tower with it, as the enumeration's reference route.
    """
    labels: dict[int, int] = {}
    u_masks = []
    for (a, b) in t1_edges:
        pair = (1 << a) | (1 << b)
        labels[pair] = 1
        u_masks.append(pair)
    # the moves of a level depend only on its child masks: each spanning
    # tree of the pairs of nodes that share a child, as its list of pairs,
    # with the child masks of the level it makes
    moves: dict[tuple[int, ...], list] = {}

    def descend(children: tuple[int, ...], unions: list[int], level: int):
        q = len(unions)
        if q <= 1:
            yield dict(labels)
            return
        if children not in moves:
            allowed = [(x, y) for x, y in combinations(range(q), 2)
                       if children[x] & children[y]]
            moves[children] = [
                ([allowed[idx] for idx in tree],
                 tuple((1 << allowed[idx][0]) | (1 << allowed[idx][1])
                       for idx in tree))
                for tree in _spanning_trees(q, allowed)]
        for pairs, new_children in moves[children]:
            new_unions = []
            for x, y in pairs:
                cond = unions[x] ^ unions[y]
                if cond.bit_count() != 2 or cond in labels:
                    raise InternalDefectError("malformed tower level")
                labels[cond] = level
                new_unions.append(unions[x] | unions[y])
            yield from descend(new_children, new_unions, level + 1)
            for x, y in pairs:
                del labels[unions[x] ^ unions[y]]

    yield from descend(tuple(u_masks), u_masks, 2)


def _extensions(n: int, lab: list[list[int]]) -> Iterator[list[list[int]]]:
    """The 2^(n-1) label matrices of K_{n+1} that add the vertex n to the
    labeling ``lab`` of K_n (n >= 1).  The new vertex's labels follow a
    chain of the vine down from its top node: the node of rank r >= 2 is
    the principal clique (a vertex mask) of one edge, whose end that leaves
    for the node below gets the label r, and the vertex of the minimal node
    at the bottom gets the label 1."""
    adj = [(1 << n) - 1 ^ 1 << v for v in range(n)]
    edge_of = {_bits.principal_clique(adj, lab, a, b): (a, b)
               for a, b in combinations(range(n), 2)}
    for ends in range(1 << n - 1):
        new = [0] * n
        mask = (1 << n) - 1
        for r in range(n, 1, -1):
            if mask not in edge_of:
                raise InternalDefectError(
                    f"no edge of K{n} has the principal clique {mask:#b}")
            v = edge_of[mask][ends >> r - 2 & 1]
            new[v] = r
            mask ^= 1 << v
        new[mask.bit_length() - 1] = 1
        yield [row + [x] for row, x in zip(lab, new)] + [new + [0]]


def _certificate(lab: list[list[int]], v: int) -> tuple[tuple[int, ...], ...]:
    """The rows of ``lab`` with the vertices in the order of their labels
    from ``v``, an end of the top edge: ``v`` carries the labels 0..n to
    the n + 1 vertices, each once, so the order is fixed by the rooted
    graph, and two rooted graphs are isomorphic exactly when their
    certificates are equal."""
    order = sorted(range(len(lab)), key=lab[v].__getitem__)
    get = itemgetter(*order)
    if get(lab[v]) != tuple(range(len(lab))):
        raise InternalDefectError(
            f"the label row {lab[v]} of an end of the top edge is not a "
            f"permutation of 0..{len(lab) - 1}")
    return tuple(get(lab[p]) for p in order)


def _accepted(n: int, lab: list[list[int]]) -> list[list[list[int]]]:
    """The extensions of ``lab`` that canonical augmentation keeps: those
    whose new vertex n has a certificate no greater than the other end of
    the top edge, one per certificate."""
    kept = {}
    for child in _extensions(n, lab):
        cert = _certificate(child, n)
        if cert not in kept and cert <= _certificate(child, child[n].index(n)):
            kept[cert] = child
    return list(kept.values())


def _accepted_keys(n: int, lab: list[list[int]]) -> list[tuple[int, ...]]:
    """The canonical key of each kept extension of ``lab``."""
    return [_canonical_key(n + 1, child) for child in _accepted(n, lab)]


def _enumerate_classes(dimension: int, jobs: int = 1) -> set[tuple[int, ...]]:
    """Canonical keys of the labelings of the complete graph, one per class.

    Deleting an end of the top node's edge leaves a labeling of K_n, so
    every class of K_{n+1} extends one of K_n.  Canonical augmentation
    (B. D. McKay, J. Algorithms 26, 1998) keeps an extension only when its
    new vertex is the end of the top edge with the lesser certificate, and
    only one extension per certificate of each parent; then each class is
    kept from exactly one parent, and no step holds a global set.  The
    kept label matrices are the next step's parents, and only the last
    step computes canonical keys, one per class.  It splits its parents
    over at most ``jobs`` processes (and no more than parents or cores);
    each step logs its counts at DEBUG level.
    """
    if dimension == 1:
        return {()}  # the one-vertex graph has no pairs
    parents: list = [[[0]]]
    for n in range(1, dimension):
        start = time.perf_counter()
        last = n == dimension - 1
        work = _accepted_keys if last else _accepted
        workers = min(jobs, len(parents), os.cpu_count() or 1)
        if last and workers > 1:
            # parents are independent and set union is order-insensitive,
            # so the result does not depend on scheduling
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(work, [n] * len(parents), parents))
        else:
            parts = [work(n, lab) for lab in parents]
        children = [child for part in parts for child in part]
        logger.debug("enumerate d=%d: %d parents, %d extensions, %d classes, "
                     "%.3f s", n + 1, len(parents), len(parents) << n - 1,
                     len(children), time.perf_counter() - start)
        parents = children
    keys = set(parents)  # the last step kept keys, not matrices
    if len(keys) != len(parents):
        raise InternalDefectError(
            f"canonical augmentation kept {len(parents)} labelings of "
            f"K{dimension} for {len(keys)} classes")
    return keys


@dataclass(frozen=True)
class EnumerationReport:
    dimension: int
    class_count: int
    formula_count: int
    elapsed_ms: float
    # the canonical key of each class, ascending
    keys: tuple[tuple[int, ...], ...]

    @cached_property
    def representatives(self) -> tuple[LabeledGraph, ...]:
        """One graph per class, in the order of ``keys``."""
        return tuple(representative_graph(self.dimension, key)
                     for key in self.keys)

    def to_json(self) -> dict:
        return {"l": self.dimension, "class_count": self.class_count,
                "formula_count": self.formula_count,
                "elapsed_ms": round(self.elapsed_ms, 3)}


def representative_graph(dimension: int, key: tuple[int, ...]) -> LabeledGraph:
    """Concrete labeled complete graph realizing a canonical key."""
    return LabeledGraph._from_matrix([str(i + 1) for i in range(dimension)],
                                     _key_to_matrix(dimension, key))


def representative_name(dimension: int, key: tuple[int, ...]) -> str:
    sep = "" if all(x < 10 for x in key) else "-"
    return f"K{dimension}_" + sep.join(map(str, key))


def enumerate_mat_labelings_complete(
        dimension: int, *,
        allow_large: bool = False,
        jobs: int = 1) -> EnumerationReport:
    """Count the valid labelings of the complete graph up to isomorphism.

    The classes grow one vertex at a time from the one-vertex graph: each
    class on n vertices is extended by a vertex whose labels follow a chain
    of its vine from the top node down to a minimal node, and canonical
    augmentation keeps one extension per class on n + 1 vertices, so the
    canonical key is computed once per class of the last step.  The report
    holds the keys in ascending order, and ``representatives`` builds one
    graph per key on first use.  ``jobs`` (at least 1) bounds the worker
    processes for the last step.  Dimensions above
    ``DEFAULT_DIMENSION_BOUND`` are refused unless ``allow_large`` is set;
    nothing is ever silently truncated.
    """
    if dimension < 1:
        raise GraphInputError("dimension must be at least 1")
    if jobs < 1:
        raise GraphInputError("jobs must be at least 1")
    if dimension > DEFAULT_DIMENSION_BOUND and not allow_large:
        raise ResourceLimitError(
            f"dimension {dimension} exceeds the configured bound "
            f"{DEFAULT_DIMENSION_BOUND}; pass allow_large=True to proceed")
    start = time.perf_counter()
    keys = _enumerate_classes(dimension, jobs=jobs)
    elapsed = (time.perf_counter() - start) * 1000.0
    return EnumerationReport(
        dimension=dimension,
        class_count=len(keys),
        formula_count=e_formula(dimension),
        elapsed_ms=elapsed,
        keys=tuple(sorted(keys)))


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


# The packed tables hold n! images per entry: at n=8 that is 4 byte-tables
# x 256 ints x 40,320 images x 4 bytes, about 165 MB, so n=8 needs
# isomorph-free generation instead of a sweep over masks.
AGREEMENT_VERTEX_BOUND = 7


def _orbit_tables(n: int, pairs: list[tuple[int, int]]) -> tuple:
    """``(tables, code, size)``: ``tables[b][v]`` packs the images of the
    mask ``v << 8*b`` under the n! vertex permutations into one integer of
    ``size`` bytes, whose p-th field, read as an ``array(code)`` in native
    byte order, is the image under the p-th permutation.  An or never
    carries between fields, so the images of a whole mask are the bitwise
    or of one integer per byte of it.
    """
    index = {}
    for e, (i, j) in enumerate(pairs):
        index[i, j] = index[j, i] = e
    perms = list(permutations(range(n)))
    m = len(pairs)
    code = "H" if m <= 16 else "I"
    tables = []
    for low in range(0, max(m, 1), 8):
        table = [0]
        for e in range(low, min(low + 8, m)):
            i, j = pairs[e]
            images = array(code, [1 << index[p[i], p[j]] for p in perms])
            bit = int.from_bytes(images.tobytes(), sys.byteorder)
            # entries 2^k .. 2^(k+1)-1 are entries 0 .. 2^k-1 plus bit k
            table += [t | bit for t in table]
        tables.append(table)
    return tables, code, array(code).itemsize * len(perms)


def _isomorphism_classes(n: int, pairs: list[tuple[int, int]]
                         ) -> Iterator[tuple[int, set[int]]]:
    """Each isomorphism class of graphs on n labeled vertices, as its
    smallest edge mask and the set of masks in its orbit."""
    tables, code, size = _orbit_tables(n, pairs)
    seen = bytearray(1 << len(pairs))
    rep = 0
    while rep != -1:
        packed = 0
        for b, table in enumerate(tables):
            packed |= table[rep >> 8 * b & 255]
        orbit = set(array(code, packed.to_bytes(size, sys.byteorder)))
        for mask in orbit:
            seen[mask] = 1
        yield rep, orbit
        rep = seen.find(0, rep + 1)


def _decide(n: int, pairs: list[tuple[int, int]], mask: int) -> tuple[bool, bool]:
    """(strongly chordal, labelable) for one graph, decided with both
    kernels."""
    adj = [0] * n
    for e, (i, j) in enumerate(pairs):
        if mask >> e & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return (_bits.is_strongly_chordal_fast(n, adj),
            _bits.find_mat_labeling(n, adj) is not None)


def mat_sc_agreement(n: int) -> AgreementReport:
    """Exhaustively compare labelability with strong chordality over every
    graph on n labeled vertices.

    Both properties are invariant under relabeling the vertices, so each
    isomorphism class is decided once, on its smallest edge mask, and its
    answer counts for every mask in its orbit, the bitwise or of one packed
    integer of n! images per byte of the mask (``_orbit_tables``); the
    orbit sizes must sum to exactly 2^m over the m vertex pairs, otherwise
    the sweep raises :class:`InternalDefectError`.  ``discrepancies`` lists
    every disagreeing labeled mask, whole orbits, in ascending order.
    Every 5 % of the masks the sweep logs the classes decided and the share
    of masks covered to the ``matvines`` logger at INFO level.  Sweeps above
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
        if covered >= next_report or covered == total:
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
    if n_vertices < 0:
        raise GraphInputError(f"vertex count {n_vertices} is negative")
    names = [f"v{i + 1}" for i in range(n_vertices)]
    adj: dict[str, set[str]] = {v: set() for v in names[:1]}
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
