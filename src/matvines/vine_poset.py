"""Graded posets with explicit cover relations, their classification as
vines, and the structural operations on them."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator

from ._bits import find, forest_cycle, iter_bits, shortest_path
from .errors import InternalDefectError, PosetInputError, PreconditionError
from .verdict import Verdict, Violation


def natural_key(s: str) -> tuple[int, str]:
    return (len(s), s)


def cond_display(conditioned: Iterable[str], conditioning: Iterable[str]) -> str:
    """Standard node name: conditioned pair left of '|', conditioning right.

    Single-character element names are concatenated, otherwise joined with
    commas.  Purely cosmetic; names are never parsed back.
    """
    left = sorted(conditioned, key=natural_key)
    right = sorted(conditioning, key=natural_key)
    sep = "" if all(len(x) == 1 for x in left + right) else ","
    name = sep.join(left)
    if right:
        name += "|" + sep.join(right)
    return name


class VineClass(IntEnum):
    NOT_GRADED = 0
    NOT_VINE = 1
    VINE = 2
    LR_VINE = 3
    R_VINE = 4


@dataclass(frozen=True)
class Classification:
    kind: VineClass
    witness: Violation | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind.name.lower()}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


@dataclass(frozen=True)
class VinePoset:
    """A finite poset given by nodes, explicit cover sets, and ranks.

    Ranks are stored as given; whether they form a valid rank function is
    reported by :func:`classify`, not enforced at construction.  The cover
    relation must be acyclic.
    """

    nodes: tuple[str, ...]
    covers: tuple[tuple[str, ...], ...]
    ranks: tuple[int, ...]

    @classmethod
    def build(cls, items: Iterable[tuple[str, int, Iterable[str]]]) -> "VinePoset":
        rows = [(str(i), r, tuple(str(c) for c in cs)) for (i, r, cs) in items]
        ids = [i for (i, _, _) in rows]
        if len(set(ids)) != len(ids):
            raise PosetInputError("duplicate node identifiers")
        known = set(ids)
        for (i, r, cs) in rows:
            if not isinstance(r, int) or isinstance(r, bool) or r < 1:
                raise PosetInputError(f"rank {r!r} of node {i!r} is not a positive integer")
            if len(set(cs)) != len(cs):
                raise PosetInputError(f"node {i!r} repeats a covered node")
            for c in cs:
                if c not in known:
                    raise PosetInputError(f"node {i!r} covers unknown node {c!r}")
                if c == i:
                    raise PosetInputError(f"node {i!r} covers itself")
        p = cls(tuple(ids),
                tuple(tuple(sorted(cs, key=natural_key)) for (_, _, cs) in rows),
                tuple(r for (_, r, _) in rows))
        p._children_first  # the walk raises on a cyclic cover relation
        return p

    @cached_property
    def _children_first(self) -> tuple[str, ...]:
        """Every node, each after all the nodes it covers; raises
        :class:`PosetInputError` when the cover relation has a cycle."""
        state: dict[str, int] = {}
        order: list[str] = []
        for v in self.nodes:
            if v in state:
                continue
            stack = [(v, iter(self.covers_of[v]))]
            state[v] = 1
            while stack:
                node, it = stack[-1]
                for c in it:
                    if state.get(c, 0) == 1:
                        raise PosetInputError("cover relation contains a cycle")
                    if c not in state:
                        state[c] = 1
                        stack.append((c, iter(self.covers_of[c])))
                        break
                else:
                    state[node] = 2
                    order.append(node)
                    stack.pop()
        return tuple(order)

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def covers_of(self) -> dict[str, tuple[str, ...]]:
        return dict(zip(self.nodes, self.covers))

    @cached_property
    def rank_of(self) -> dict[str, int]:
        return dict(zip(self.nodes, self.ranks))

    @cached_property
    def covered_by(self) -> dict[str, tuple[str, ...]]:
        up: dict[str, list[str]] = {v: [] for v in self.nodes}
        for v, cs in self.covers_of.items():
            for c in cs:
                up[c].append(v)
        return {v: tuple(sorted(ps, key=natural_key)) for v, ps in up.items()}

    @cached_property
    def down_masks(self) -> dict[str, int]:
        """Bitmask over node indices of the down-set of each node (inclusive)."""
        masks: dict[str, int] = {}
        for v in self._children_first:
            m = 1 << self.index[v]
            for c in self.covers_of[v]:
                m |= masks[c]
            masks[v] = m
        return masks

    @cached_property
    def up_masks(self) -> dict[str, int]:
        """Bitmask over node indices of the up-set of each node (inclusive)."""
        masks = {v: 1 << self.index[v] for v in self.nodes}
        for v in reversed(self._children_first):
            for c in self.covers_of[v]:
                masks[c] |= masks[v]
        return masks

    @cached_property
    def _node_of_up_mask(self) -> dict[int, str]:
        return {m: v for v, m in self.up_masks.items()}

    def leq(self, a: str, b: str) -> bool:
        return bool(self.down_masks[b] >> self.index[a] & 1)

    def join(self, a: str, b: str) -> str | None:
        """Least upper bound of two nodes, or None when there is none.

        The least common upper bound is exactly the node whose up-set is the
        set of common upper bounds, and distinct nodes have distinct up-sets.
        """
        return self._node_of_up_mask.get(self.up_masks[a] & self.up_masks[b])

    @cached_property
    def minimals(self) -> tuple[str, ...]:
        return tuple(v for v in self.nodes if not self.covers_of[v])

    @cached_property
    def maximals(self) -> tuple[str, ...]:
        return tuple(v for v in self.nodes if not self.covered_by[v])

    @cached_property
    def levels(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, list[str]] = {}
        for v in self.nodes:
            out.setdefault(self.rank_of[v], []).append(v)
        return {r: tuple(vs) for r, vs in out.items()}

    @property
    def rank(self) -> int:
        return max(self.ranks) if self.ranks else 0

    @property
    def dimension(self) -> int:
        return len(self.minimals)

    def down_set(self, v: str) -> tuple[str, ...]:
        mask = self.down_masks[v]
        return tuple(u for u in self.nodes if mask >> self.index[u] & 1)

    @cached_property
    def _forest_adjacency(self) -> list[int]:
        """Neighbour bitmasks over node indices of the level forests of a
        vine, whose edges are the pairs covered one rank up.  An edge joins
        two nodes of one rank, so one list holds every level."""
        adj = [0] * len(self.nodes)
        for cs in self.covers:
            if len(cs) == 2:
                a, b = self.index[cs[0]], self.index[cs[1]]
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        return adj

    @cached_property
    def classification(self) -> Classification:
        return _classify(self)

    def induced_subposet(self, keep: Iterable[str]) -> "VinePoset":
        """Induced subposet, its covers recomputed from the kept down-sets."""
        keep_set = set(keep)
        unknown = keep_set - set(self.nodes)
        if unknown:
            raise PosetInputError(f"unknown nodes {sorted(unknown)}")
        kept = [v for v in self.nodes if v in keep_set]
        # each run [lo, hi) of dropped positions, highest first, as the
        # mask of the positions below it and its width
        gone = sum(1 << i for i, v in enumerate(self.nodes)
                   if v not in keep_set)
        runs = []
        while gone:
            hi = gone.bit_length()
            lo = (~gone & (1 << hi) - 1).bit_length()
            runs.append(((1 << lo) - 1, hi - lo))
            gone &= (1 << lo) - 1
        below = []
        for j, v in enumerate(kept):
            mask = self.down_masks[v]
            for low, width in runs:
                mask = mask >> width & ~low | mask & low
            below.append(mask ^ 1 << j)
        return VinePoset.build(
            [(v, self.rank_of[v], [kept[j] for j in iter_bits(c)])
             for v, c in zip(kept, _covers(below))])


def _covers(below: list[int]) -> list[int]:
    """Transitive reduction of a strict order given, for each element, as the
    bitmask of the elements below it: the bitmask of the elements it covers."""
    return [mask & ~reduce(or_, map(below.__getitem__, iter_bits(mask)), 0)
            for mask in below]


def _classify(p: VinePoset) -> Classification:
    for v in p.nodes:
        cs = p.covers_of[v]
        if not cs and p.rank_of[v] != 1:
            return Classification(VineClass.NOT_GRADED, Violation(
                "NotGraded", subject=(v,),
                message=f"minimal node has rank {p.rank_of[v]}"))
        for c in cs:
            if p.rank_of[v] - p.rank_of[c] != 1:
                return Classification(VineClass.NOT_GRADED, Violation(
                    "NotGraded", subject=(v, c),
                    message="cover does not drop rank by exactly one"))
    seen_pairs: dict[frozenset[str], str] = {}
    for v in p.nodes:
        cs = p.covers_of[v]
        if not cs:
            continue
        if len(cs) != 2:
            return Classification(VineClass.NOT_VINE, Violation(
                "NotVine", subject=(v,),
                message=f"non-minimal node covers {len(cs)} nodes, not 2"))
        key = frozenset(cs)
        if key in seen_pairs:
            return Classification(VineClass.NOT_VINE, Violation(
                "NotVine", subject=(seen_pairs[key], v),
                message="two nodes cover the same pair"))
        seen_pairs[key] = v
    # every level forest grows in one pass: an edge joins two nodes of one
    # rank, so the first edge to close a cycle lies in the lowest cyclic level
    hit = forest_cycle(len(p.nodes), [
        (p.index[cs[0]], p.index[cs[1]])
        for r in sorted(p.levels) for cs in map(p.covers_of.get, p.levels[r]) if cs])
    if hit is not None:
        cycle = tuple(p.nodes[t] for t in hit[1])
        return Classification(VineClass.NOT_VINE, Violation(
            "NotVine", subject=cycle, cycle=cycle,
            message=f"level {p.rank_of[cycle[0]]} is not a forest"))
    witness = _proximity_witness(p)
    if witness is not None:
        return Classification(VineClass.VINE, Violation(
            "Proximity", subject=witness,
            message="nodes covered by a common node cover no common node"))
    if _is_regular_shape(p):
        return Classification(VineClass.R_VINE)
    return Classification(VineClass.LR_VINE)


def _proximity_witness(p: VinePoset) -> tuple[str, ...] | None:
    for v in p.nodes:
        cs = p.covers_of[v]
        if len(cs) != 2:
            continue
        a, b = cs
        if p.rank_of[a] < 2:
            continue
        if not (set(p.covers_of[a]) & set(p.covers_of[b])):
            return (v, a, b)
    return None


def _is_regular_shape(p: VinePoset) -> bool:
    if not p.nodes:
        return True
    n = p.rank
    if n != p.dimension:
        return False
    for level in range(1, n + 1):
        nodes = p.levels.get(level, ())
        if not nodes:
            return False
        edges = sum(1 for v in p.levels.get(level + 1, ())
                    if len(p.covers_of[v]) == 2)
        if edges != len(nodes) - 1:
            return False
    return True


def classify(p: VinePoset) -> Classification:
    """Grade/vine/LR/R classification with a witness for the failed condition.

    A vine requires every non-minimal node to cover exactly two nodes, no
    pair to be covered twice, and each level to form a forest; local
    regularity additionally requires proximity, and regularity requires rank
    equal to dimension with every level forest a tree.
    """
    return p.classification


def classify_via_principal_ideals(p: VinePoset) -> Classification:
    """Independent classification route used for cross-checking.

    Local regularity is decided by testing every principal ideal for
    regularity directly, and regularity by local regularity plus a unique
    maximal node.  Shares no logic with :func:`classify` beyond the
    structural accessors.  Ideals keep their cover relation under
    restriction, so each principal ideal is examined in place.
    """
    base = _graded_vine_precheck(p)
    if base is not None:
        return base
    for v in p.nodes:
        if not _is_r_vine_plain(p.down_set(v), p.covers_of, p.rank_of):
            return Classification(VineClass.VINE, Violation(
                "PrincipalIdeal", subject=(v,),
                message="principal ideal is not a regular vine"))
    if not p.nodes or len(p.maximals) == 1:
        return Classification(VineClass.R_VINE)
    return Classification(VineClass.LR_VINE)


def _graded_vine_precheck(p: VinePoset) -> Classification | None:
    for v in p.nodes:
        cs = p.covers_of[v]
        if len(cs) == 0:
            if p.rank_of[v] != 1:
                return Classification(VineClass.NOT_GRADED,
                                      Violation("NotGraded", subject=(v,)))
            continue
        if any(p.rank_of[c] + 1 != p.rank_of[v] for c in cs):
            return Classification(VineClass.NOT_GRADED,
                                  Violation("NotGraded", subject=(v,)))
    pair_count: dict[frozenset[str], int] = {}
    for v in p.nodes:
        cs = p.covers_of[v]
        if not cs:
            continue
        if len(cs) != 2:
            return Classification(VineClass.NOT_VINE,
                                  Violation("NotVine", subject=(v,)))
        pair_count[frozenset(cs)] = pair_count.get(frozenset(cs), 0) + 1
    if any(c > 1 for c in pair_count.values()):
        return Classification(VineClass.NOT_VINE,
                              Violation("NotVine", message="repeated cover pair"))
    for level, nodes in p.levels.items():
        edges = [tuple(p.covers_of[v]) for v in p.levels.get(level + 1, ())]
        if _has_cycle(nodes, edges):
            return Classification(VineClass.NOT_VINE,
                                  Violation("NotVine",
                                            message=f"cycle in level {level}"))
    return None


def _has_cycle(nodes: Iterable[str], edges: list[tuple[str, ...]]) -> bool:
    parent = {v: v for v in nodes}
    for e in edges:
        if len(e) != 2:
            continue
        a, b = find(parent, e[0]), find(parent, e[1])
        if a == b:
            return True
        parent[a] = b
    return False


def _is_r_vine_plain(nodes: Iterable[str],
                     covers_of: dict[str, tuple[str, ...]],
                     rank_of: dict[str, int]) -> bool:
    """Direct regular-vine test on a downward-closed node subset."""
    members = set(nodes)
    if not members:
        return True
    levels: dict[int, list[str]] = {}
    minimal_count = 0
    for v in members:
        levels.setdefault(rank_of[v], []).append(v)
        cs = covers_of[v]
        if not cs:
            if rank_of[v] != 1:
                return False
            minimal_count += 1
        else:
            if len(cs) != 2:
                return False
            if any(rank_of[c] + 1 != rank_of[v] for c in cs):
                return False
    n = max(rank_of[v] for v in members)
    if n != minimal_count:
        return False
    pairs = set()
    for level in range(1, n + 1):
        level_nodes = levels.get(level, ())
        edges = []
        for v in levels.get(level + 1, ()):
            cs = covers_of[v]
            key = frozenset(cs)
            if key in pairs:
                return False
            pairs.add(key)
            edges.append(cs)
        if not level_nodes or len(edges) != len(level_nodes) - 1:
            return False
        if _has_cycle(level_nodes, edges):
            return False
    for v in members:
        cs = covers_of[v]
        if len(cs) == 2 and rank_of[cs[0]] >= 2:
            if not (set(covers_of[cs[0]]) & set(covers_of[cs[1]])):
                return False
    return True


def _require(p: VinePoset, level: VineClass, what: str) -> None:
    c = classify(p)
    if c.kind < level:
        raise PreconditionError(
            f"{what} requires at least {level.name.lower()}, got "
            f"{c.kind.name.lower()}")


def union_of(p: VinePoset, v: str, k: int) -> frozenset[str]:
    """Nodes of rank rank(v)-k lying below v (the k-fold union)."""
    _require(p, VineClass.VINE, "union_of")
    if v not in p.rank_of:
        raise PosetInputError(f"unknown node {v!r}")
    r = p.rank_of[v]
    if not 0 <= k <= r - 1:
        raise PosetInputError(f"k={k} out of range 0..{r - 1}")
    mask = p.down_masks[v]
    return frozenset(u for u in p.levels.get(r - k, ())
                     if mask >> p.index[u] & 1)


def complete_union(p: VinePoset, v: str) -> frozenset[str]:
    """Minimal nodes below v."""
    if v not in p.rank_of:
        raise PosetInputError(f"unknown node {v!r}")
    mask = p.down_masks[v]
    return frozenset(u for u in p.minimals if mask >> p.index[u] & 1)


def cond_sets(p: VinePoset, v: str) -> tuple[frozenset[str], frozenset[str]]:
    """(conditioned, conditioning) sets of a non-minimal node."""
    _require(p, VineClass.LR_VINE, "cond_sets")
    if v not in p.rank_of:
        raise PosetInputError(f"unknown node {v!r}")
    cs = p.covers_of[v]
    if not cs:
        raise PosetInputError(f"node {v!r} is minimal")
    a, b = cs
    ua, ub = complete_union(p, a), complete_union(p, b)
    conditioned = ua ^ ub
    conditioning = ua & ub
    if len(conditioned) != 2 or len(conditioning) != p.rank_of[v] - 2:
        raise InternalDefectError(f"conditioned/conditioning sizes wrong at {v!r}")
    return conditioned, conditioning


@dataclass(frozen=True)
class JoinPaths:
    """Join of two minimal nodes with the tower of connecting paths."""

    join: str
    paths: tuple[tuple[str, ...], ...]


def join_and_paths(p: VinePoset, i: str, j: str) -> JoinPaths | None:
    """Least upper bound of two minimal nodes via the path tower.

    The first path connects the two nodes in the bottom forest; each later
    path connects the joins of the first and last edges of the previous
    path (the nodes covering them); the construction ends when a path
    shrinks to the single node that is the join.  Returns None when no
    upper bound exists.
    """
    _require(p, VineClass.LR_VINE, "join_and_paths")
    for x in (i, j):
        if x not in p.rank_of:
            raise PosetInputError(f"unknown node {x!r}")
        if p.covers_of[x]:
            raise PosetInputError(f"node {x!r} is not minimal")
    if i == j:
        raise PosetInputError("the two minimal nodes must be distinct")
    paths = []
    ends = (i, j)
    while True:
        found = shortest_path(p._forest_adjacency, *map(p.index.__getitem__, ends))
        if found is None:
            return None
        path = tuple(p.nodes[t] for t in found)
        paths.append(path)
        if len(path) == 1:
            return JoinPaths(join=path[0], paths=tuple(paths))
        ends = (p.join(*path[:2]), p.join(*path[-2:]))


def truncate(p: VinePoset, k: int, direction: str) -> VinePoset:
    """Restriction to ranks <= k (lower) or >= k (upper, ranks shifted)."""
    if direction not in ("lower", "upper"):
        raise PosetInputError(f"direction must be 'lower' or 'upper', got {direction!r}")
    if not 1 <= k <= max(p.rank, 1):
        raise PosetInputError(f"k={k} out of range 1..{max(p.rank, 1)}")
    if direction == "lower":
        keep = [v for v in p.nodes if p.rank_of[v] <= k]
        items = [(v, p.rank_of[v], p.covers_of[v]) for v in keep]
        return VinePoset.build(items)
    keep = [v for v in p.nodes if p.rank_of[v] >= k]
    items = []
    for v in keep:
        covs = p.covers_of[v] if p.rank_of[v] > k else ()
        items.append((v, p.rank_of[v] - (k - 1), covs))
    return VinePoset.build(items)


def marginalize(p: VinePoset, v: str) -> tuple[VinePoset, bool]:
    """Remove a minimal node and every node whose conditioned set contains it.

    On an LR-vine those nodes are the joins of ``v`` with the other minimal
    nodes, the nodes that :func:`omega` reads as the edges at ``v``.  Returns
    the induced subposet (ranks kept from ``p``) and whether those ranks
    still form a valid rank function on it.
    """
    _require(p, VineClass.LR_VINE, "marginalize")
    if v not in p.rank_of:
        raise PosetInputError(f"unknown node {v!r}")
    if p.covers_of[v]:
        raise PosetInputError(f"node {v!r} is not minimal")
    drop = {p.join(v, u) for u in p.minimals}
    q = p.induced_subposet([x for x in p.nodes if x not in drop])
    return q, classify(q).kind != VineClass.NOT_GRADED


def is_sampling_order(p: VinePoset, order: Iterable[str]) -> Verdict:
    """Check that successive marginalizations stay (locally) regular vines
    graded by the original rank function.

    For a regular vine the intermediate stages must remain regular; for a
    locally regular vine they must remain locally regular.
    """
    _require(p, VineClass.LR_VINE, "is_sampling_order")
    seq = tuple(order)
    if sorted(seq) != sorted(p.minimals):
        raise PosetInputError("ordering is not a permutation of the minimal nodes")
    required = (VineClass.R_VINE if classify(p).kind == VineClass.R_VINE
                else VineClass.LR_VINE)
    cur = p
    for pos in range(len(seq) - 1, 0, -1):
        node = seq[pos]
        cur, graded = marginalize(cur, node)
        if not graded:
            return Verdict.failed("NotGraded", subject=(node,),
                                  message="marginalization loses gradedness")
        kind = classify(cur).kind
        if kind < required:
            return Verdict.failed(
                "NotRegular", subject=(node,),
                message=f"marginalization is {kind.name.lower()}, needs "
                        f"{required.name.lower()}")
    return Verdict.passed()


def find_sampling_order(p: VinePoset) -> tuple[str, ...]:
    """A sampling order read off the graph side: a MAT elimination ordering
    of :func:`omega` of ``p``.  Marginalizing a minimal node is deleting a
    MAT-simplicial vertex, so every such ordering is a sampling order (the
    converse fails), and an LR-vine always has one."""
    from .functors import omega
    from .labeled_graph import find_mat_peo
    _require(p, VineClass.LR_VINE, "find_sampling_order")
    order = find_mat_peo(omega(p))
    if order is None:
        raise InternalDefectError("omega of an LR-vine has no MAT elimination ordering")
    return order


def _canonical_order(p: VinePoset) -> list[str]:
    """The nodes by height (the most nodes on a chain down from a node),
    then by name: a linear extension, which on a graded poset is the order
    by rank."""
    height: dict[str, int] = {}
    for v in p._children_first:
        height[v] = 1 + max(map(height.__getitem__, p.covers_of[v]), default=0)
    return sorted(p.nodes, key=lambda v: (height[v], natural_key(v)))


def _ideal_walk(p: VinePoset, mode: str) -> Iterator[list[int]]:
    """Depth-first two-way split over the nodes in canonical order: the first
    undecided node is left out with every node above it, or taken in.
    Yields the shared ascending list of the positions taken once per ideal.

    Every node below the first undecided one is decided, and a node left out
    takes the nodes above it along, so the first undecided node can always
    be taken in and every branch ends in an ideal.  The walk keeps its own
    stack, so its depth is not bounded by the interpreter's recursion limit.
    """
    if mode not in ("all", "full_support"):
        raise PosetInputError(f"unknown mode {mode!r}")
    order = _canonical_order(p)
    pos = {v: t for t, v in enumerate(order)}
    up = [0] * len(order)
    for t in reversed(range(len(order))):
        up[t] = reduce(or_, (up[pos[u]] for u in p.covered_by[order[t]]), 1 << t)
    # the minimal nodes come first; full support takes them all in
    start = len(p.minimals) if mode == "full_support" else 0
    taken = list(range(start))
    # (undecided positions, length of ``taken`` before, position taken in or -1)
    stack = [((1 << len(order)) - (1 << start), start, -1)]
    while stack:
        free, depth, t = stack.pop()
        del taken[depth:]
        if t >= 0:
            taken.append(t)
        if not free:
            yield taken
            continue
        low = free & -free
        t = low.bit_length() - 1
        stack += [(free ^ low, len(taken), t), (free & ~up[t], len(taken), -1)]


def iter_ideals(p: VinePoset, mode: str = "all") -> Iterator[tuple[str, ...]]:
    """Stream downward-closed subsets in a fixed deterministic order.

    Mode "all" includes the empty ideal; "full_support" restricts to ideals
    containing every minimal node.
    """
    order = _canonical_order(p)
    for taken in _ideal_walk(p, mode):
        yield tuple(map(order.__getitem__, taken))


def count_ideals(p: VinePoset, mode: str = "all") -> int:
    """Number of ideals :func:`iter_ideals` streams in the same mode."""
    return sum(1 for _ in _ideal_walk(p, mode))


def _union_key(union: frozenset[str]) -> tuple[int, list[str]]:
    return (len(union), sorted(union, key=natural_key))


def union_vine(minimals: Iterable[str],
               entries: Iterable[tuple[frozenset[str], frozenset[str], frozenset[str]]],
               ) -> tuple[VinePoset, dict[frozenset[str], str]]:
    """The vine given by its unions: the minimal nodes, then one node per
    (union U, conditioned pair {a, b}, conditioning set) entry, both in the
    order given, and the node of every union.  The node of U has rank |U|
    and covers the nodes of U - {a} and U - {b}, since each node of a vine
    is the union of its two children (Bedford and Cooke, Ann. Statist. 30,
    2002).  Nodes are named by conditioned and conditioning sets, in order
    of size and then sorted union, without reusing a minimal node's name."""
    minimals, entries = tuple(minimals), list(entries)
    names = {frozenset((v,)): v for v in minimals}
    used = set(minimals)
    for u, c, d in sorted(entries, key=lambda e: _union_key(e[0])):
        if u in names:
            raise InternalDefectError(f"union {sorted(u)} is given twice")
        base = cond_display(c, d)
        name, t = base, 2
        while name in used:
            name = f"{base}#{t}"
            t += 1
        used.add(name)
        names[u] = name
    items = [(v, 1, ()) for v in minimals]
    for u, c, _ in entries:
        try:
            items.append((names[u], len(u), [names[u - {x}] for x in sorted(c)]))
        except KeyError as missing:
            raise InternalDefectError(f"{sorted(missing.args[0])} is neither a "
                                      "given union nor a minimal node") from None
    return VinePoset.build(items), names


def d_vine(dimension: int) -> VinePoset:
    """Regular vine whose level trees are paths; elements are 1..dimension."""
    if dimension < 1:
        raise PosetInputError("dimension must be at least 1")
    names = [str(t) for t in range(1, dimension + 1)]
    return union_vine(names, (
        (frozenset(names[i:i + span + 1]), frozenset((names[i], names[i + span])),
         frozenset(names[i + 1:i + span]))
        for span in range(1, dimension) for i in range(dimension - span)))[0]


def c_vine(dimension: int) -> VinePoset:
    """Regular vine whose level trees are stars, centred on the smallest
    available node at each level."""
    if dimension < 1:
        raise PosetInputError("dimension must be at least 1")
    names = [str(t) for t in range(1, dimension + 1)]
    return union_vine(names, (
        (frozenset(names[:k] + [names[i]]), frozenset((names[k - 1], names[i])),
         frozenset(names[:k - 1]))
        for k in range(1, dimension) for i in range(k, dimension)))[0]


def root_poset_a(dimension: int) -> VinePoset:
    """Poset of the positive roots of the type-A root system, ordered by
    componentwise difference and graded by height.

    The root e_i + ... + e_j is the interval [i, j], and componentwise order
    on such 0/1 vectors is interval containment.  Built directly from the
    roots, independently of the vine constructors, so isomorphism with the
    path-tree vine is a checkable fact rather than a construction artifact.
    """
    if dimension < 1:
        raise PosetInputError("dimension must be at least 1")
    # by height, then the later start first (the order of the 0/1 vectors)
    roots = sorted(((i, j) for i in range(1, dimension + 1)
                    for j in range(i, dimension + 1)),
                   key=lambda r: (r[1] - r[0], -r[0]))
    ids = ["a" + "+a".join(map(str, range(i, j + 1))) for i, j in roots]
    below = [sum(1 << k for k, (a, b) in enumerate(roots)
                 if i <= a and b <= j and (a, b) != (i, j))
             for i, j in roots]
    return VinePoset.build(
        [(name, j - i + 1, [ids[k] for k in iter_bits(c)])
         for name, (i, j), c in zip(ids, roots, _covers(below))])


def build_standard(kind: str, dimension: int) -> VinePoset:
    builders = {"d_vine": d_vine, "c_vine": c_vine, "root_poset_a": root_poset_a}
    if kind not in builders:
        raise PosetInputError(f"unknown kind {kind!r}")
    return builders[kind](dimension)


def hat(p: VinePoset) -> VinePoset:
    """Poset of complete unions ordered by inclusion.

    Isomorphic to the input via the map sending each node to its complete
    union.  Like every vine built from its unions, it is built by
    :func:`union_vine`: a node covers the unions of its two children, which
    are exactly the unions just below it.  Node names reuse the
    conditioned/conditioning display format so that conversion round trips
    compare equal.
    """
    _require(p, VineClass.LR_VINE, "hat")
    entries = sorted(((complete_union(p, v), *cond_sets(p, v))
                      for v in p.nodes if p.covers_of[v]),
                     key=lambda e: _union_key(e[0]))
    return union_vine(sorted(p.minimals), entries)[0]


def structurally_equal(p: VinePoset, q: VinePoset) -> bool:
    """Equality of node sets, ranks, and cover relations (order-insensitive)."""
    return (set(p.nodes) == set(q.nodes)
            and all(p.rank_of[v] == q.rank_of[v] for v in p.nodes)
            and all(set(p.covers_of[v]) == set(q.covers_of[v]) for v in p.nodes))


@dataclass(frozen=True)
class ForestSequence:
    """A tower of forests: the nodes of each forest are exactly the edges of
    the previous one, represented structurally as nested two-element
    frozensets over the bottom elements.

    ``forests[i]`` is the edge set of the (i+1)-th forest; edges of the last
    listed forest still contribute top nodes to the induced poset.
    """

    elements: tuple[str, ...]
    forests: tuple[tuple[frozenset, ...], ...]


def _structural_id(key) -> str:
    if isinstance(key, str):
        return key
    return "(" + ",".join(sorted((_structural_id(k) for k in key),
                                 key=natural_key)) + ")"


def from_forest_sequence(f: ForestSequence) -> VinePoset:
    """Node poset of a forest tower.

    Node identifiers are derived deterministically from the nested
    structure, so feeding the output of :func:`to_forest_sequence` back in
    reproduces the poset up to that renaming.
    """
    if len(set(f.elements)) != len(f.elements):
        raise PosetInputError("duplicate elements")
    items: list[tuple[str, int, list[str]]] = [(e, 1, []) for e in f.elements]
    prev_nodes: set = set(f.elements)
    for level, forest in enumerate(f.forests, start=2):
        seen = set()
        for edge in forest:
            if len(edge) != 2:
                raise PosetInputError("forest edges must join two distinct nodes")
            a, b = tuple(edge)
            if a not in prev_nodes or b not in prev_nodes:
                raise PosetInputError(
                    f"level {level - 1} edge endpoint is not a node of that level")
            if edge in seen:
                raise PosetInputError(f"level {level - 1} repeats an edge")
            seen.add(edge)
            items.append((_structural_id(edge), level,
                          [_structural_id(a), _structural_id(b)]))
        prev_nodes = set(forest)
    return VinePoset.build(items)


def to_forest_sequence(p: VinePoset) -> ForestSequence:
    """Forest tower of a vine; inverse of :func:`from_forest_sequence`."""
    _require(p, VineClass.VINE, "to_forest_sequence")

    keys: dict[str, object] = {}
    for v in sorted(p.nodes, key=lambda x: p.rank_of[x]):
        cs = p.covers_of[v]
        keys[v] = v if not cs else frozenset(keys[c] for c in cs)
    forests = []
    for level in range(2, p.rank + 1):
        forests.append(tuple(keys[v] for v in p.levels.get(level, ())))
    return ForestSequence(tuple(p.minimals), tuple(forests))
