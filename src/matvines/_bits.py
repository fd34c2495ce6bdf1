"""Index-based graph kernels.

Vertices are integers 0..n-1, adjacency is a list of neighbour bitmasks,
labels are an n x n symmetric matrix with 0 meaning "no edge".  The public
modules wrap these kernels and translate witnesses back to vertex names;
the exhaustive drivers in :mod:`matvines.enumeration` call them directly to
avoid per-graph object overhead.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations


def iter_bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def find(parent, x):
    """Root of ``x`` in a union-find forest given as a list or a dict of
    parents, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def shortest_path(adj: list[int], start: int, goal: int) -> list[int] | None:
    """A shortest path by breadth-first search, or None if disconnected.

    In a forest it is the unique path; in an induced subgraph it is
    chordless.
    """
    prev = {start: -1}
    seen = 1 << start
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            if v == goal:
                path = [v]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            new = adj[v] & ~seen
            seen |= new
            while new:
                u = (new & -new).bit_length() - 1
                prev[u] = v
                nxt.append(u)
                new &= new - 1
        frontier = nxt
    return None


def forest_cycle(n: int, edges, queries=()):
    """Grow a forest on 0..n-1 from ``edges`` in order by union-find.

    Returns ``((u, v), path)`` for the first edge whose ends the forest
    grown so far already joins, or else for the first query pair whose ends
    the finished forest joins; ``path`` is the forest path from u to v.
    Returns None when neither happens.
    """
    parent = list(range(n))
    forest = [0] * n
    for u, v in edges:
        ru, rv = find(parent, u), find(parent, v)
        if ru == rv:
            return (u, v), shortest_path(forest, u, v)
        parent[ru] = rv
        forest[u] |= 1 << v
        forest[v] |= 1 << u
    for u, v in queries:
        if find(parent, u) == find(parent, v):
            return (u, v), shortest_path(forest, u, v)
    return None


def principal_clique(adj: list[int], lab: list[list[int]], a: int, b: int) -> int:
    """Vertex mask of the edge ab's node in the vine: a, b and the common
    neighbours that both reach by labels below the edge's own."""
    k, la, lb = lab[a][b], lab[a], lab[b]
    clique, common = 1 << a | 1 << b, adj[a] & adj[b]
    while common:  # inline, as iter_bits' generator slows the ML2 check by 10 %
        w = (common & -common).bit_length() - 1
        if la[w] < k and lb[w] < k:
            clique |= 1 << w
        common &= common - 1
    return clique


def mat_violation(n: int, adj: list[int], lab: list[list[int]]):
    """First violated labeling axiom, or None.

    Returns ("ML1", (u, v), cycle_vertices) or ("ML2", (u, v), count).
    The cycle lists the vertices of the monochromatic-or-shortcut cycle,
    closed by the edge (u, v).
    """
    by_label: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in iter_bits(adj[i] >> (i + 1) << (i + 1)):
            by_label.setdefault(lab[i][j], []).append((i, j))
    lower: list[tuple[int, int]] = []
    for k in sorted(by_label):
        hit = forest_cycle(n, by_label[k], lower)
        if hit is not None:
            return ("ML1", hit[0], tuple(hit[1]))
        for (u, v) in by_label[k]:
            cond = principal_clique(adj, lab, u, v).bit_count() - 2
            if cond != k - 1:
                return ("ML2", (u, v), cond)
        lower += by_label[k]
    return None


def mat_simplicial_violation(n: int, adj: list[int], lab: list[list[int]],
                             v: int, alive: int):
    """First violated simpliciality condition of ``v`` in the induced subgraph."""
    nb = adj[v] & alive
    nbl = list(iter_bits(nb))
    for u1, u2 in combinations(nbl, 2):
        if not (adj[u1] >> u2) & 1:
            return ("MS1", (u1, u2))
    labels = sorted(lab[v][u] for u in nbl)
    if labels != list(range(1, len(nbl) + 1)):
        return ("MS2", tuple(labels))
    for u1, u2 in combinations(nbl, 2):
        if lab[u1][u2] >= max(lab[v][u1], lab[v][u2]):
            return ("MS3", (u1, u2))
    return None


def eliminate(alive: int, admissible) -> tuple[list[int], int]:
    """Greedy peeling of the vertex mask ``alive``: remove the lowest alive
    vertex ``v`` for which ``admissible(v, alive)`` holds, over and over.

    Returns the removal order and the residual, the mask of the vertices
    still alive when none is admissible (0 when every vertex went).  For a
    hereditary property under which every graph has an admissible vertex,
    the residual is 0 exactly on the graphs with the property.
    """
    order = []
    while alive:
        for v in iter_bits(alive):
            if admissible(v, alive):
                order.append(v)
                alive ^= 1 << v
                break
        else:
            break
    return order, alive


def minimal_residual(alive: int, admissible) -> int:
    """A minimal vertex set inside ``alive`` whose peeling gets stuck.

    ``alive`` must leave a non-zero :func:`eliminate` residual.  One pass
    tries each vertex: when the set without it still gets stuck, its
    residual becomes the set.  For a hereditary property, a set that does
    not get stuck has no subset that does, so a vertex kept once stays
    necessary as the set shrinks.
    """
    for v in iter_bits(alive):
        if alive >> v & 1:
            residual = eliminate(alive & ~(1 << v), admissible)[1]
            if residual:
                alive = residual
    return alive


def find_mat_peo(n: int, adj: list[int], lab: list[list[int]]) -> list[int] | None:
    """Elimination ordering; each prefix ends in a MAT-simplicial vertex.
    Removing one preserves the labeling property, so greedy peeling decides."""
    order, residual = eliminate(
        (1 << n) - 1,
        lambda v, alive: mat_simplicial_violation(n, adj, lab, v, alive) is None)
    return None if residual else order[::-1]


def mcs_order(n: int, adj: list[int]) -> list[int]:
    """Maximum cardinality search visit order (lowest index wins ties).

    ``by_weight[w]`` masks the unvisited vertices of weight w, and the last
    mask is never empty, so the next vertex is its lowest bit.
    """
    weight = [0] * n
    by_weight = [(1 << n) - 1]
    order = []
    for _ in range(n):
        while not by_weight[-1]:
            by_weight.pop()
        z = (by_weight[-1] & -by_weight[-1]).bit_length() - 1
        by_weight[-1] ^= 1 << z
        weight[z] = -1
        order.append(z)
        for y in iter_bits(adj[z]):
            w = weight[y]
            if w >= 0:
                if w + 1 == len(by_weight):
                    by_weight.append(0)
                by_weight[w] ^= 1 << y
                by_weight[w + 1] |= 1 << y
                weight[y] = w + 1
    return order


def is_chordal(n: int, adj: list[int]) -> bool:
    """MCS visit order is an elimination ordering exactly for chordal graphs."""
    placed = 0
    for v in mcs_order(n, adj):
        nb = adj[v] & placed
        for u in iter_bits(nb):
            if nb & ~adj[u] & ~(1 << u):
                return False
        placed |= 1 << v
    return True


def induced_cycle(adj: list[int], alive: int) -> list[int] | None:
    """Some chordless cycle of length >= 4 in the subgraph induced by the
    mask ``alive``, or None if that subgraph is chordal.

    For every vertex v with non-adjacent neighbours u, w, a shortest u-w
    path avoiding the rest of N[v] closes into a chordless cycle through v.
    """
    for v in iter_bits(alive):
        nbl = list(iter_bits(adj[v] & alive))
        for u, w in combinations(nbl, 2):
            if (adj[u] >> w) & 1:
                continue
            blocked = (adj[v] | (1 << v)) & ~(1 << u) & ~(1 << w)
            allowed = [a & alive & ~blocked for a in adj]
            path = shortest_path(allowed, u, w)
            if path is not None:
                return [v] + path
    return None


def maximal_cliques(n: int, adj: list[int]) -> list[int]:
    """Every maximal clique of any graph, as vertex bitmasks.

    Bron-Kerbosch with the pivot of Tomita, Tanaka and Takahashi (2006):
    the pivot covers the most candidates, and only candidates outside its
    neighbourhood are branched on.  The graph with no vertices has none.
    """
    out: list[int] = []

    def expand(clique: int, cand: int, done: int) -> None:
        if not cand:
            if not done:
                out.append(clique)
            return
        pivot = max(iter_bits(cand | done), key=lambda u: (cand & adj[u]).bit_count())
        for v in iter_bits(cand & ~adj[pivot]):
            expand(clique | 1 << v, cand & adj[v], done & adj[v])
            cand &= ~(1 << v)
            done |= 1 << v

    if n:
        expand(0, (1 << n) - 1, 0)
    return out


def is_simple(adj: list[int], v: int, alive: int) -> bool:
    """Whether the closed neighbourhoods of the neighbours of ``v`` form an
    inclusion chain in the subgraph induced by ``alive``."""
    sets = sorted((adj[u] | 1 << u) & alive for u in iter_bits(adj[v] & alive))
    prev = 0
    for s in sets:
        if prev & ~s:
            return False
        prev = s
    return True


def is_strongly_chordal_fast(n: int, adj: list[int]) -> bool:
    """Greedy simple-vertex elimination: a graph is strongly chordal exactly
    when it has a simple elimination ordering, so when the residual is 0."""
    return not eliminate((1 << n) - 1, partial(is_simple, adj))[1]


def find_sun(adj: list[int], alive: int):
    """Induced complete sun, as (inner cycle vertices, outer vertices), in
    the subgraph induced by the mask ``alive``, which must be chordal and
    not strongly chordal.

    The outer tuple is aligned so outer[i] is adjacent to inner[i] and
    inner[i+1] (cyclically).  By Farber's theorem a minimal set without a
    simple elimination ordering is then a sun, whose outer vertices are the
    ones of degree 2.  None if the minimal set does not close into one.
    """
    sun = minimal_residual(alive, partial(is_simple, adj))
    nbs = {v: adj[v] & sun for v in iter_bits(sun)}
    inner = [v for v, nb in nbs.items() if nb.bit_count() != 2]
    pairs = [(v, nb) for v, nb in nbs.items() if nb.bit_count() == 2]
    return _close_sun_cycle(inner, pairs)


def _close_sun_cycle(inner, pairs):
    """Order the outer vertices along a single cycle through the inner clique.

    ``pairs`` holds one (outer vertex, mask of its two inner neighbours) per
    inner vertex.  The walk from ``inner[0]`` takes the first unused pair at
    the current vertex; the pairs form one cycle exactly when it uses every
    pair and closes only after visiting each inner vertex once.
    """
    unused = list(pairs)
    cycle, outer_seq = [inner[0]], []
    while unused:
        cur = cycle[-1]
        found = next((pair for pair in unused if pair[1] >> cur & 1), None)
        if found is None:
            return None
        unused.remove(found)
        outer_seq.append(found[0])
        cycle.append((found[1] & ~(1 << cur)).bit_length() - 1)
    if cycle.pop() != inner[0] or len(set(cycle)) != len(inner):
        return None
    return tuple(cycle), tuple(outer_seq)


def find_mat_labeling(n: int, adj: list[int]) -> list[list[int]] | None:
    """Backtracking search for a valid labeling.

    Vertices are placed one at a time; each placed vertex must see a clique
    among the already-placed vertices and its new edges receive a
    permutation of 1..degree subject to the domination constraint against
    labels already fixed inside that clique.  Any completed placement order
    is by construction an elimination ordering certifying the labeling.
    """
    full = (1 << n) - 1
    if not is_chordal(n, adj):
        # every admissible placement order is a perfect elimination ordering
        return None
    lab = [[0] * n for _ in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i] >> j & 1]
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def state_key(placed: int) -> tuple[int, tuple[int, ...]]:
        vals = tuple(lab[i][j] for (i, j) in edges
                     if placed >> i & 1 and placed >> j & 1)
        return (placed, vals)

    def assign(v: int, nbl: list[int], pos: int, used: int, placed: int) -> bool:
        if pos == len(nbl):
            return place(placed | (1 << v))
        u = nbl[pos]
        lab_v = lab[v]
        lab_u = lab[u]
        for t in range(1, len(nbl) + 1):
            if used >> t & 1:
                continue
            ok = True
            for q in range(pos):
                w = nbl[q]
                if lab_u[w] >= (t if t > lab_v[w] else lab_v[w]):
                    ok = False
                    break
            if not ok:
                continue
            lab_v[u] = lab_u[v] = t
            if assign(v, nbl, pos + 1, used | (1 << t), placed):
                return True
            lab_v[u] = lab_u[v] = 0
        return False

    def place(placed: int) -> bool:
        if placed == full:
            return True
        key = state_key(placed)
        if key in failed:
            return False
        for v in range(n):
            if placed >> v & 1:
                continue
            nb = adj[v] & placed
            clique = True
            for u in iter_bits(nb):
                if nb & ~adj[u] & ~(1 << u):
                    clique = False
                    break
            if not clique:
                continue
            if assign(v, list(iter_bits(nb)), 0, 0, placed):
                return True
        failed.add(key)
        return False

    if place(0):
        return lab
    return None
