"""Seeded inputs for the benchmark workloads.

Everything here is plain Python driven by a ``random.Random`` that the
caller creates from the workload seed, so the same seed always gives the
same inputs.  The library only ever sees the finished inputs.

Random MAT-labeled graphs are built constructively rather than by the
library's rejection search: draw a random tree on the vertices, then at
each level a random spanning tree of the pairs of previous-level edges
that share an endpoint (the proximity condition), which gives a regular
vine; a random ideal of that vine is a locally regular vine, and its
conditioned pairs, labeled by level, form an MAT-labeled graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Tower:
    """A regular vine on vertices 0..n-1 as a tower of level trees.

    ``levels[k - 1]`` lists the edges of tree k.  An edge is ``(x, y)``, two
    indices into the node list of the level below (vertex indices for
    k = 1); ``unions[k][i]`` is the vertex bitmask below node i of level k,
    with level 0 the vertices themselves.
    """

    n: int
    levels: tuple[tuple[tuple[int, int], ...], ...]
    unions: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Ideal:
    """A downward-closed part of a tower holding every vertex and every
    edge of tree 1, as the graph and vine the library consumes."""

    n: int
    vertices: tuple[str, ...]
    labeled_edges: tuple[tuple[str, str, int], ...]
    vine_items: tuple[tuple[str, int, tuple[str, ...]], ...]
    complete: bool


def _random_spanning_tree(rng: random.Random, count: int,
                          pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Kruskal over the candidate pairs in random order."""
    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = list(pairs)
    rng.shuffle(order)
    tree = []
    for x, y in order:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
            tree.append((x, y))
            if len(tree) == count - 1:
                break
    if len(tree) != count - 1:
        raise ValueError("candidate pairs do not connect the level")
    return sorted(tree)


def random_tower(rng: random.Random, n: int) -> Tower:
    """A random regular vine on n vertices."""
    unions: list[tuple[int, ...]] = [tuple(1 << i for i in range(n))]
    levels = []
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    count = n
    while count > 1:
        tree = _random_spanning_tree(rng, count, pairs)
        below = unions[-1]
        levels.append(tuple(tree))
        unions.append(tuple(below[x] | below[y] for x, y in tree))
        # proximity: two edges of this tree may be joined one level up
        # only when they share an endpoint
        count = len(tree)
        pairs = [(a, b) for a in range(count) for b in range(a + 1, count)
                 if set(tree[a]) & set(tree[b])]
    return Tower(n, tuple(levels), tuple(unions))


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _node_name(conditioned: list[int], conditioning: list[int]) -> str:
    name = ",".join(str(i + 1) for i in conditioned)
    if conditioning:
        name += "|" + ",".join(str(i + 1) for i in conditioning)
    return name


def random_ideal(rng: random.Random, tower: Tower, keep: float) -> Ideal:
    """Keep every tree-1 edge; keep a higher edge with probability ``keep``
    when both edges below it are kept.  ``keep=1`` gives the whole vine."""
    n = tower.n
    vertices = tuple(str(i + 1) for i in range(n))
    edges: list[tuple[str, str, int]] = []
    items: list[tuple[str, int, tuple[str, ...]]] = [(v, 1, ()) for v in vertices]
    names: list[str] = list(vertices)
    kept_below = [True] * n
    total = 0
    for k, tree in enumerate(tower.levels, start=1):
        below_unions = tower.unions[k - 1]
        kept_here = []
        level_names = []
        for (x, y) in tree:
            total += 1
            ok = kept_below[x] and kept_below[y] and (k == 1 or rng.random() < keep)
            kept_here.append(ok)
            conditioned = _bits(below_unions[x] ^ below_unions[y])
            conditioning = _bits(below_unions[x] & below_unions[y])
            name = _node_name(conditioned, conditioning)
            level_names.append(name)
            if ok:
                a, b = conditioned
                edges.append((vertices[a], vertices[b], k))
                items.append((name, k + 1, (names[x], names[y])))
        kept_below = kept_here
        names = level_names
    return Ideal(n, vertices, tuple(edges), tuple(items), len(edges) == total)


def complete_labels(tower: Tower) -> dict[tuple[int, int], int]:
    """The labels of the complete graph of a regular vine."""
    out = {}
    for k, tree in enumerate(tower.levels, start=1):
        below = tower.unions[k - 1]
        for (x, y) in tree:
            a, b = _bits(below[x] ^ below[y])
            out[(a, b)] = k
    return out


def insert_vertex(rng: random.Random, labels: dict[tuple[int, int], int],
                  vertices: list[int], new: int) -> None:
    """Add ``new`` to a complete MAT-labeled graph, in place.

    In vine terms this walks upward from a random bottom node, one covering
    node at a time; the walk is a chain P1 < P2 < ... of principal cliques,
    and the new vertex gets label k towards the vertex that P(k) adds to
    P(k-1).  Every regular vine on the vertex set plus ``new`` that
    restricts to the input arises this way.
    """

    def lab(a: int, b: int) -> int:
        return labels[(a, b) if a < b else (b, a)]

    first = rng.choice(vertices)
    chain = {first}
    added = [first]
    for k in range(1, len(vertices)):
        options = []
        for (a, b), label in labels.items():
            if label != k or not (a in chain or b in chain):
                continue
            clique = {a, b} | {w for w in vertices
                               if w not in (a, b) and lab(a, w) < k and lab(b, w) < k}
            if chain < clique:
                options.append(min(clique - chain))
        nxt = rng.choice(sorted(options))
        chain.add(nxt)
        added.append(nxt)
    for k, u in enumerate(added, start=1):
        labels[(u, new) if u < new else (new, u)] = k


@dataclass(frozen=True)
class GraphPair:
    """Two MAT-labeled graphs, each as (vertices, labeled edges), that agree
    on the complete graph their shared vertices induce."""

    first: tuple[tuple[str, ...], tuple[tuple[str, str, int], ...]]
    second: tuple[tuple[str, ...], tuple[tuple[str, str, int], ...]]


def _as_graph(labels: dict[tuple[int, int], int], keep: list[int]
              ) -> tuple[tuple[str, ...], tuple[tuple[str, str, int], ...]]:
    keep_set = set(keep)
    verts = tuple(str(i + 1) for i in sorted(keep_set))
    edges = tuple((str(a + 1), str(b + 1), k) for (a, b), k in sorted(labels.items())
                  if a in keep_set and b in keep_set)
    return verts, edges


def random_merge_pair(rng: random.Random, n: int, overlap: int) -> GraphPair:
    """A complete overlap on ``overlap`` vertices, each side extended by
    vertex insertion; together they span n vertices."""
    core = complete_labels(random_tower(rng, overlap))
    extra = n - overlap
    left = list(range(overlap, overlap + (extra + 1) // 2))
    right = list(range(overlap + len(left), n))
    sides = []
    for added in (left, right):
        labels = dict(core)
        verts = list(range(overlap))
        for v in added:
            insert_vertex(rng, labels, verts, v)
            verts.append(v)
        sides.append(_as_graph(labels, verts))
    return GraphPair(sides[0], sides[1])


def random_glue_pair(rng: random.Random, n1: int, n2: int, keep: float
                     ) -> GraphPair:
    """Two MAT-labeled graphs sharing exactly one label-1 edge."""
    g1 = random_ideal(rng, random_tower(rng, n1), keep)
    g2 = random_ideal(rng, random_tower(rng, n2), keep)
    x1, y1, _ = rng.choice([e for e in g1.labeled_edges if e[2] == 1])
    x2, y2, _ = rng.choice([e for e in g2.labeled_edges if e[2] == 1])
    rename = {x2: x1, y2: y1}
    fresh = n1
    for v in g2.vertices:
        if v not in rename:
            fresh += 1
            rename[v] = str(fresh)
    second = (tuple(rename[v] for v in g2.vertices),
              tuple((rename[a], rename[b], k) for a, b, k in g2.labeled_edges))
    return GraphPair((g1.vertices, g1.labeled_edges), second)
