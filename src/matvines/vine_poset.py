"""Graded posets with explicit cover relations, their classification as
vines, and the structural operations on them."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Iterator

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


def assign_union_names(
        entries: Iterable[tuple[frozenset[str], frozenset[str], frozenset[str]]],
        reserved: Iterable[str] = (),
) -> dict[frozenset[str], str]:
    """Deterministic display names for a family of (union, conditioned,
    conditioning) triples, disambiguated against reserved identifiers.

    Both conversion directions name their nodes through this helper so that
    round trips compare equal node-for-node.
    """
    used = set(reserved)
    names: dict[frozenset[str], str] = {}
    ordered = sorted(entries,
                     key=lambda e: (len(e[0]), sorted(e[0], key=natural_key)))
    for (u, c, d) in ordered:
        base = cond_display(c, d)
        name, t = base, 2
        while name in used:
            name = f"{base}#{t}"
            t += 1
        used.add(name)
        names[u] = name
    return names


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

    def at_least(self, level: VineClass) -> bool:
        return self.kind >= level

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
        rows = [(str(i), int(r), tuple(str(c) for c in cs)) for (i, r, cs) in items]
        ids = [i for (i, _, _) in rows]
        if len(set(ids)) != len(ids):
            raise PosetInputError("duplicate node identifiers")
        known = set(ids)
        for (i, r, cs) in rows:
            if r < 1:
                raise PosetInputError(f"node {i!r} has rank {r} < 1")
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
        p._check_acyclic()
        return p

    def _check_acyclic(self) -> None:
        state: dict[str, int] = {}

        def visit(v: str) -> None:
            stack = [(v, iter(self.covers_of[v]))]
            state[v] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for c in it:
                    if state.get(c, 0) == 1:
                        raise PosetInputError("cover relation contains a cycle")
                    if c not in state:
                        state[c] = 1
                        stack.append((c, iter(self.covers_of[c])))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    stack.pop()

        for v in self.nodes:
            if v not in state:
                visit(v)

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

        def mask_of(v: str) -> int:
            if v in masks:
                return masks[v]
            m = 1 << self.index[v]
            for c in self.covers_of[v]:
                m |= mask_of(c)
            masks[v] = m
            return m

        for v in self.nodes:
            mask_of(v)
        return masks

    def leq(self, a: str, b: str) -> bool:
        return bool(self.down_masks[b] >> self.index[a] & 1)

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
    def _pair_parent(self) -> dict[frozenset[str], str]:
        out: dict[frozenset[str], str] = {}
        for v, cs in self.covers_of.items():
            if len(cs) == 2:
                out.setdefault(frozenset(cs), v)
        return out

    @cached_property
    def _forest_adjacency(self) -> dict[int, dict[str, list[tuple[str, str]]]]:
        """Per level i: node -> [(neighbour, covering node)] from level i+1 covers."""
        out: dict[int, dict[str, list[tuple[str, str]]]] = {
            r: {v: [] for v in vs} for r, vs in self.levels.items()}
        for v, cs in self.covers_of.items():
            if len(cs) != 2:
                continue
            a, b = cs
            level = self.rank_of[v] - 1
            if self.rank_of[a] == self.rank_of[b] == level and level in out:
                out[level][a].append((b, v))
                out[level][b].append((a, v))
        return out

    @cached_property
    def classification(self) -> Classification:
        return _classify(self)

    def induced_subposet(self, keep: Iterable[str]) -> "VinePoset":
        """Induced subposet with its cover relation recomputed."""
        keep_set = set(keep)
        unknown = keep_set - set(self.nodes)
        if unknown:
            raise PosetInputError(f"unknown nodes {sorted(unknown)}")
        kept = [v for v in self.nodes if v in keep_set]
        items = []
        for v in kept:
            below = [u for u in kept if u != v and self.leq(u, v)]
            covs = [u for u in below
                    if not any(self.leq(u, w) and self.leq(w, v) and w != u
                               for w in below if w != v)]
            items.append((v, self.rank_of[v], covs))
        return VinePoset.build(items)


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
    for level in sorted(p.levels):
        cycle = _level_forest_cycle(p, level)
        if cycle is not None:
            return Classification(VineClass.NOT_VINE, Violation(
                "NotVine", subject=cycle, cycle=cycle,
                message=f"level {level} is not a forest"))
    witness = _proximity_witness(p)
    if witness is not None:
        return Classification(VineClass.VINE, Violation(
            "Proximity", subject=witness,
            message="nodes covered by a common node cover no common node"))
    if _is_regular_shape(p):
        return Classification(VineClass.R_VINE)
    return Classification(VineClass.LR_VINE)


def _level_forest_cycle(p: VinePoset, level: int) -> tuple[str, ...] | None:
    parent = {v: v for v in p.levels[level]}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adjacency: dict[str, list[str]] = {v: [] for v in p.levels[level]}
    for v in p.levels.get(level + 1, ()):
        cs = p.covers_of[v]
        if len(cs) != 2:
            continue
        a, b = cs
        ra, rb = find(a), find(b)
        if ra == rb:
            return tuple(_tree_path(adjacency, a, b))
        parent[ra] = rb
        adjacency[a].append(b)
        adjacency[b].append(a)
    return None


def _tree_path(adjacency: dict[str, list[str]], start: str, goal: str) -> list[str]:
    prev = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adjacency[v]:
                if u in prev:
                    continue
                prev[u] = v
                if u == goal:
                    path = [u]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                nxt.append(u)
        frontier = nxt
    raise InternalDefectError("expected a connecting path in the level forest")


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

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        if len(e) != 2:
            continue
        a, b = find(e[0]), find(e[1])
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
    path connects the nodes corresponding to the first and last edges of the
    previous path; the construction ends when a path shrinks to the single
    node that is the join.  Returns None when no upper bound exists.
    """
    _require(p, VineClass.LR_VINE, "join_and_paths")
    for x in (i, j):
        if x not in p.rank_of:
            raise PosetInputError(f"unknown node {x!r}")
        if p.covers_of[x]:
            raise PosetInputError(f"node {x!r} is not minimal")
    if i == j:
        raise PosetInputError("the two minimal nodes must be distinct")
    level = 1
    path = _forest_path_nodes(p, level, i, j)
    if path is None:
        return None
    paths = [tuple(path)]
    while len(path) > 1:
        first = frozenset((path[0], path[1]))
        last = frozenset((path[-2], path[-1]))
        top1 = p._pair_parent.get(first)
        top2 = p._pair_parent.get(last)
        if top1 is None or top2 is None:
            return None
        level += 1
        path = _forest_path_nodes(p, level, top1, top2)
        if path is None:
            return None
        paths.append(tuple(path))
    return JoinPaths(join=path[0], paths=tuple(paths))


def _forest_path_nodes(p: VinePoset, level: int, start: str, goal: str
                       ) -> list[str] | None:
    adjacency = p._forest_adjacency.get(level, {})
    if start not in adjacency or goal not in adjacency:
        return None
    if start == goal:
        return [start]
    prev: dict[str, str | None] = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for (u, _) in adjacency[v]:
                if u in prev:
                    continue
                prev[u] = v
                if u == goal:
                    out = [u]
                    while prev[out[-1]] is not None:
                        out.append(prev[out[-1]])
                    out.reverse()
                    return out
                nxt.append(u)
        frontier = nxt
    return None


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

    Returns the induced subposet (ranks kept from ``p``) and whether those
    ranks still form a valid rank function on it.
    """
    _require(p, VineClass.LR_VINE, "marginalize")
    if v not in p.rank_of:
        raise PosetInputError(f"unknown node {v!r}")
    if p.covers_of[v]:
        raise PosetInputError(f"node {v!r} is not minimal")
    drop = {v}
    for x in p.nodes:
        if p.covers_of[x] and v in cond_sets(p, x)[0]:
            drop.add(x)
    q = p.induced_subposet([x for x in p.nodes if x not in drop])
    graded = all(
        q.rank_of[x] - q.rank_of[c] == 1
        for x in q.nodes for c in q.covers_of[x])
    graded = graded and all(
        q.rank_of[x] == 1 for x in q.nodes if not q.covers_of[x])
    return q, graded


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


def find_sampling_order(p: VinePoset) -> tuple[str, ...] | None:
    """Greedy construction of a sampling order (one always exists)."""
    _require(p, VineClass.LR_VINE, "find_sampling_order")
    required = (VineClass.R_VINE if classify(p).kind == VineClass.R_VINE
                else VineClass.LR_VINE)

    def extend(cur: VinePoset) -> list[str] | None:
        if len(cur.minimals) <= 1:
            return list(cur.minimals)
        for v in sorted(cur.minimals, key=natural_key):
            q, graded = marginalize(cur, v)
            if not graded or classify(q).kind < required:
                continue
            head = extend(q)
            if head is not None:
                return head + [v]
        return None

    out = extend(p)
    return tuple(out) if out is not None else None


def _canonical_order(p: VinePoset) -> list[str]:
    return sorted(p.nodes, key=lambda v: (p.rank_of[v], natural_key(v)))


def iter_ideals(p: VinePoset, mode: str = "all") -> Iterator[tuple[str, ...]]:
    """Stream downward-closed subsets in a fixed deterministic order.

    Mode "all" includes the empty ideal; "full_support" restricts to ideals
    containing every minimal node.
    """
    if mode not in ("all", "full_support"):
        raise PosetInputError(f"unknown mode {mode!r}")
    order = _canonical_order(p)
    pos = {v: t for t, v in enumerate(order)}
    must_include = set(p.minimals) if mode == "full_support" else set()
    chosen: list[bool] = [False] * len(order)

    def rec(t: int) -> Iterator[tuple[str, ...]]:
        if t == len(order):
            yield tuple(v for v in order if chosen[pos[v]])
            return
        v = order[t]
        if v not in must_include:
            chosen[t] = False
            yield from rec(t + 1)
        if all(chosen[pos[c]] for c in p.covers_of[v]):
            chosen[t] = True
            yield from rec(t + 1)
            chosen[t] = False

    yield from rec(0)


def count_ideals(p: VinePoset, mode: str = "all") -> int:
    if mode not in ("all", "full_support"):
        raise PosetInputError(f"unknown mode {mode!r}")
    order = _canonical_order(p)
    pos = {v: t for t, v in enumerate(order)}
    must_include = set(p.minimals) if mode == "full_support" else set()
    chosen = [False] * len(order)

    def rec(t: int) -> int:
        if t == len(order):
            return 1
        v = order[t]
        total = 0
        if v not in must_include:
            chosen[t] = False
            total += rec(t + 1)
        if all(chosen[pos[c]] for c in p.covers_of[v]):
            chosen[t] = True
            total += rec(t + 1)
            chosen[t] = False
        return total

    return rec(0)


def d_vine(dimension: int) -> VinePoset:
    """Regular vine whose level trees are paths; elements are 1..dimension."""
    if dimension < 1:
        raise PosetInputError("dimension must be at least 1")
    names = [str(t) for t in range(1, dimension + 1)]
    ids = assign_union_names(
        ((frozenset(names[i - 1:j]), frozenset((names[i - 1], names[j - 1])),
          frozenset(names[i:j - 1]))
         for i in range(1, dimension + 1) for j in range(i + 1, dimension + 1)),
        reserved=names)

    def node_id(i: int, j: int) -> str:
        if i == j:
            return names[i - 1]
        return ids[frozenset(names[i - 1:j])]

    items = []
    for span in range(dimension):
        for i in range(1, dimension - span + 1):
            j = i + span
            covs = [] if i == j else [node_id(i, j - 1), node_id(i + 1, j)]
            items.append((node_id(i, j), span + 1, covs))
    return VinePoset.build(items)


def c_vine(dimension: int) -> VinePoset:
    """Regular vine whose level trees are stars, centred on the smallest
    available node at each level."""
    if dimension < 1:
        raise PosetInputError("dimension must be at least 1")
    names = [str(t) for t in range(1, dimension + 1)]
    ids = assign_union_names(
        ((frozenset(names[:k] + [names[i - 1]]),
          frozenset((names[k - 1], names[i - 1])), frozenset(names[:k - 1]))
         for k in range(1, dimension + 1) for i in range(k + 1, dimension + 1)),
        reserved=names)

    def node_id(k: int, i: int) -> str:
        if k == i:
            return names[k - 1]
        return ids[frozenset(names[:k] + [names[i - 1]])]

    items = [(names[i - 1], 1, []) for i in range(1, dimension + 1)]
    for k in range(1, dimension):
        for i in range(k + 1, dimension + 1):
            if k == 1:
                covs = [names[0], names[i - 1]]
            else:
                covs = [node_id(k - 1, k), node_id(k - 1, i)]
            items.append((node_id(k, i), k + 1, covs))
    return VinePoset.build(items)


def root_poset_a(dimension: int) -> VinePoset:
    """Poset of the positive roots of the type-A root system, ordered by
    componentwise difference and graded by height.

    Built directly from coefficient vectors, independently of the vine
    constructors, so isomorphism with the path-tree vine is a checkable
    fact rather than a construction artifact.
    """
    if dimension < 1:
        raise PosetInputError("dimension must be at least 1")
    roots = []
    for i in range(1, dimension + 1):
        for j in range(i, dimension + 1):
            vec = tuple(1 if i <= t <= j else 0 for t in range(1, dimension + 1))
            roots.append(vec)
    roots.sort(key=lambda vec: (sum(vec), vec))

    def rid(vec: tuple[int, ...]) -> str:
        return "a" + "+a".join(str(t + 1) for t, c in enumerate(vec) if c)

    def below(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
        return u != v and all(cu <= cv for cu, cv in zip(u, v))

    items = []
    for vec in roots:
        under = [u for u in roots if below(u, vec)]
        covs = [rid(u) for u in under
                if not any(below(u, w) and below(w, vec) for w in under)]
        items.append((rid(vec), sum(vec), covs))
    return VinePoset.build(items)


def build_standard(kind: str, dimension: int) -> VinePoset:
    builders = {"d_vine": d_vine, "c_vine": c_vine, "root_poset_a": root_poset_a}
    if kind not in builders:
        raise PosetInputError(f"unknown kind {kind!r}")
    return builders[kind](dimension)


def hat(p: VinePoset) -> VinePoset:
    """Poset of complete unions ordered by inclusion.

    Isomorphic to the input via the map sending each node to its complete
    union; node names reuse the conditioned/conditioning display format so
    that conversion round trips compare equal.
    """
    _require(p, VineClass.LR_VINE, "hat")
    names: dict[frozenset[str], str] = {frozenset((v,)): v for v in p.minimals}
    names.update(assign_union_names(
        ((complete_union(p, v), *cond_sets(p, v))
         for v in p.nodes if p.covers_of[v]),
        reserved=p.minimals))
    if len(names) != len(p.nodes):
        raise InternalDefectError("complete unions are not distinct")
    sets = sorted(names, key=lambda s: (len(s), sorted(s, key=natural_key)))
    items = []
    for s in sets:
        strictly_under = [t for t in sets if t < s]
        covs = [names[t] for t in strictly_under
                if not any(t < w < s for w in strictly_under)]
        items.append((names[s], len(s), covs))
    return VinePoset.build(items)


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
