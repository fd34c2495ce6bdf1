"""Validation, search, and construction operations on labeled graphs."""

import random
import time
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matvines._bits as bits
from matvines import (GraphInputError, Graph, LabeledGraph, PreconditionError,
                      VineClass, c_vine, check_mat_labeling, classify,
                      d_vine, embed_in_r_vine, extend_to_complete,
                      find_mat_labeling, find_mat_peo, glue,
                      is_mat_simplicial, is_strongly_chordal, maximal_cliques,
                      merge_complete, omega, principal_clique,
                      principal_cliques, psi, random_chordal_graph,
                      random_mat_labeled_graph)


def backtracking_completions(g):
    """Up to two complete MAT labelings that restrict to ``g`` (one means
    the completion is forced).

    The backtracking search that ``merge_complete`` used to run, kept as the
    test oracle for the constructive completion: each missing edge tries
    every label within the per-label quota (label k on n - k edges), pruned
    by the label forests and by the number of conditioning vertices every
    settled edge can still reach.  Exponential; meant for at most 8 vertices.
    """
    verts = list(g.vertices)
    fixed = dict(g.labels)
    missing = [(u, v) for u, v in combinations(sorted(verts), 2)
               if (u, v) not in fixed]
    m = len(verts)
    counts = [0] * (m + 1)
    for k in fixed.values():
        counts[k] += 1
    assigned = {}
    found = []

    def label(u, v):
        e = (u, v) if u <= v else (v, u)
        return fixed.get(e, assigned.get(e))

    def feasible():
        for (u, v), k in {**fixed, **assigned}.items():
            low = open_slots = 0
            for w in verts:
                if w in (u, v):
                    continue
                a, b = label(u, w), label(v, w)
                if a is not None and b is not None:
                    low += a < k and b < k
                elif (a is None or a < k) and (b is None or b < k):
                    open_slots += 1
            if low > k - 1 or low + open_slots < k - 1:
                return False
        return True

    def forest_ok(k):
        parent = {v: v for v in verts}
        for (u, v), kk in {**fixed, **assigned}.items():
            if kk == k:
                ru, rv = bits.find(parent, u), bits.find(parent, v)
                if ru == rv:
                    return False
                parent[ru] = rv
        return True

    def solve(pos):
        if pos == len(missing):
            out = LabeledGraph.from_labels(verts, {**fixed, **assigned})
            if check_mat_labeling(out).ok:
                found.append(out.labels)
            return len(found) == 2
        e = missing[pos]
        for k in range(1, m):
            if counts[k] >= m - k:
                continue
            assigned[e] = k
            counts[k] += 1
            if forest_ok(k) and feasible() and solve(pos + 1):
                return True
            counts[k] -= 1
            del assigned[e]
        return False

    solve(0)
    return found


def _attach(rng, g, piece):
    """``piece`` renamed to share one vertex, or one label-1 edge, with
    ``g``; its other vertices get fresh names."""
    mapping = {}
    ones = [e for e, k in piece.labels.items() if k == 1]
    g_ones = [e for e, k in g.labels.items() if k == 1]
    if ones and g_ones and rng.random() < 0.5:
        mapping.update(zip(rng.choice(ones), rng.choice(g_ones)))
    else:
        mapping[rng.choice(piece.vertices)] = rng.choice(g.vertices)
    fresh = (f"w{i}" for i in range(len(g.vertices), len(g.vertices) + len(piece.vertices)))
    for v in piece.vertices:
        if v not in mapping:
            mapping[v] = next(fresh)
    return piece.relabel_vertices(mapping)


def _random_piece(rng, size):
    """``random_mat_labeled_graph`` on ``size`` vertices, or one time in
    three the complete graph of a D-vine or C-vine."""
    if rng.random() < 1 / 3:
        return omega(rng.choice((d_vine, c_vine))(size))
    return random_mat_labeled_graph(rng, size)


def glued_mat_graph(rng, n):
    """A random MAT-labeled graph on n vertices, glued from pieces of at
    most 8 vertices over a shared vertex or label-1 edge (larger draws of
    ``random_mat_labeled_graph`` can spend seconds in its labeling
    search)."""
    first = _random_piece(rng, rng.randint(1, min(n, 8)))
    g = first.relabel_vertices({v: f"w{i}" for i, v in enumerate(first.vertices)})
    while len(g.vertices) < n:
        size = rng.randint(2, min(8, n - len(g.vertices) + 1))
        g = glue(g, _attach(rng, g, _random_piece(rng, size)))
    return g


def assert_valid_mat_peo(g, order):
    assert sorted(order) == sorted(g.vertices)
    for i in range(len(order)):
        prefix = g.restrict(order[:i + 1])
        verdict = is_mat_simplicial(prefix, order[i])
        assert verdict.ok, f"{order[i]} not admissible at position {i}: {verdict}"


class TestConstruction:
    def test_rejects_loop(self):
        with pytest.raises(GraphInputError):
            LabeledGraph.build(["a"], [("a", "a", 1)])

    def test_rejects_nonpositive_label(self):
        with pytest.raises(GraphInputError):
            LabeledGraph.build(["a", "b"], [("a", "b", 0)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(GraphInputError):
            LabeledGraph.build(["a"], [("a", "b", 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphInputError):
            LabeledGraph.build(["a", "b"], [("a", "b", 1), ("b", "a", 2)])

    def test_empty_graph_is_fine(self):
        g = LabeledGraph.build([], [])
        assert check_mat_labeling(g).ok


class TestCheckMatLabeling:
    def test_path_k4_valid(self, d4_graph):
        assert check_mat_labeling(d4_graph).ok

    def test_single_edge_label_one(self):
        g = LabeledGraph.build(["a", "b"], [("a", "b", 1)])
        assert check_mat_labeling(g).ok

    def test_single_edge_label_two_fails_triangle_count(self):
        g = LabeledGraph.build(["a", "b"], [("a", "b", 2)])
        verdict = check_mat_labeling(g)
        assert not verdict.ok
        assert verdict.violation.tag == "ML2"
        assert set(verdict.violation.subject) == {"a", "b"}

    def test_monochromatic_triangle_fails_forest_condition(self):
        g = LabeledGraph.build(["a", "b", "c"],
                               [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        verdict = check_mat_labeling(g)
        assert not verdict.ok
        assert verdict.violation.tag == "ML1"
        assert verdict.violation.cycle is not None

    def test_lower_label_shortcut_fails(self):
        # the label-1 edge joins two vertices already connected by label-2 edges
        g = LabeledGraph.build(
            ["a", "b", "c"], [("a", "b", 2), ("b", "c", 2), ("a", "c", 1)])
        verdict = check_mat_labeling(g)
        assert not verdict.ok
        assert verdict.violation.tag in ("ML1", "ML2")

    def test_star_k4_valid(self, c4_graph):
        assert check_mat_labeling(c4_graph).ok

    def test_ml1_witness_is_a_path_of_one_label_class(self):
        # the cycle of an ML1 failure is a simple path joining the ends of
        # the failing edge inside one label class, of that edge's label or
        # (a shortcut) a higher one
        rng = random.Random(97)
        seen = {"same": 0, "higher": 0}
        for _ in range(1500):
            names = [f"v{i}" for i in range(rng.randint(1, 9))]
            top = rng.randint(1, 4)
            g = LabeledGraph.build(names, [
                (a, b, rng.randint(1, top))
                for a, b in combinations(names, 2) if rng.random() < 0.5])
            verdict = check_mat_labeling(g)
            if verdict.ok or verdict.violation.tag != "ML1":
                continue
            u, v = verdict.violation.subject
            cycle = verdict.violation.cycle
            assert (cycle[0], cycle[-1]) == (u, v)
            assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
            labels = {g.label_of(a, b) for a, b in zip(cycle, cycle[1:])}
            assert len(labels) == 1 and min(labels) >= g.label_of(u, v)
            seen["same" if labels == {g.label_of(u, v)} else "higher"] += 1
        assert min(seen.values()) >= 50, seen

    def test_five_vertex_example_valid(self, lrv_graph):
        assert check_mat_labeling(lrv_graph).ok


class TestMatSimplicial:
    def test_top_vertex_of_path_k4(self, d4_graph):
        assert is_mat_simplicial(d4_graph, "v4").ok

    def test_isolated_vertex(self):
        g = LabeledGraph.build(["a", "b"], [])
        assert is_mat_simplicial(g, "a").ok

    def test_star_center_fails_label_range(self, c4_graph):
        verdict = is_mat_simplicial(c4_graph, "v1")
        assert not verdict.ok
        assert verdict.violation.tag == "MS2"

    def test_non_simplicial_vertex(self, lrv_graph):
        # v3's neighbourhood misses the edge between v1 and v2
        verdict = is_mat_simplicial(lrv_graph, "v3")
        assert not verdict.ok
        assert verdict.violation.tag == "MS1"

    def test_unknown_vertex(self, d4_graph):
        with pytest.raises(GraphInputError):
            is_mat_simplicial(d4_graph, "zz")


class TestFindMatPeo:
    def test_path_k4(self, d4_graph):
        order = find_mat_peo(d4_graph)
        assert order is not None
        assert_valid_mat_peo(d4_graph, order)

    def test_empty_graph(self):
        assert find_mat_peo(LabeledGraph.build([], [])) == ()

    def test_invalid_labeling_has_no_ordering(self):
        g = LabeledGraph.build(["a", "b", "c"],
                               [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        assert find_mat_peo(g) is None

    def test_agrees_with_check_exhaustively_small(self):
        # all labeled graphs on 4 vertices with labels up to 4
        pairs = list(combinations(range(4), 2))
        count_valid = 0
        for assignment in product(range(5), repeat=len(pairs)):
            adj = [0] * 4
            lab = [[0] * 4 for _ in range(4)]
            for (i, j), k in zip(pairs, assignment):
                if k:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                    lab[i][j] = lab[j][i] = k
            ok = bits.mat_violation(4, adj, lab) is None
            has_order = bits.find_mat_peo(4, adj, lab) is not None
            assert ok == has_order
            count_valid += ok
        assert count_valid > 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_check_random_five_vertices(self, data):
        pairs = list(combinations(range(5), 2))
        assignment = data.draw(st.tuples(*[st.integers(0, 4)] * len(pairs)))
        adj = [0] * 5
        lab = [[0] * 5 for _ in range(5)]
        for (i, j), k in zip(pairs, assignment):
            if k:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                lab[i][j] = lab[j][i] = k
        assert (bits.mat_violation(5, adj, lab) is None) == \
            (bits.find_mat_peo(5, adj, lab) is not None)


class TestPrincipalCliques:
    def test_top_edge_of_path_k4(self, d4_graph):
        cliques = principal_cliques(d4_graph)
        assert cliques[("v1", "v4")] == frozenset(["v1", "v2", "v3", "v4"])

    def test_label_one_edges_are_bare(self, d4_graph):
        cliques = principal_cliques(d4_graph)
        for (u, v), k in d4_graph.labels.items():
            if k == 1:
                assert cliques[(u, v)] == frozenset([u, v])

    def test_five_vertex_example(self, lrv_graph):
        assert principal_clique(lrv_graph, "v1", "v3") == \
            frozenset(["v1", "v3", "v4"])

    def test_requires_valid_labeling(self):
        g = LabeledGraph.build(["a", "b"], [("a", "b", 2)])
        with pytest.raises(PreconditionError):
            principal_cliques(g)


def induced_chordless_cycle(adj, cycle):
    """Whether ``cycle`` lists the vertices of an induced cycle of length
    at least 4, in order around it."""
    k = len(cycle)
    return k >= 4 and len(set(cycle)) == k and all(
        bool(adj[cycle[i]] >> cycle[j] & 1) == ((j - i) % k in (1, k - 1))
        for i, j in combinations(range(k), 2))


def induced_sun(adj, inner, outer):
    """Whether ``inner`` and ``outer`` induce a sun aligned as
    :func:`matvines._bits.find_sun` aligns it: ``outer[i]`` is adjacent to
    ``inner[i]`` and ``inner[i + 1]`` only."""
    k = len(inner)
    return k >= 3 and len(outer) == k and len(set(inner + outer)) == 2 * k and all(
        adj[a] >> b & 1 for a, b in combinations(inner, 2)) and all(
        [bool(adj[o] >> u & 1) for u in inner + outer]
        == [u in (inner[i], inner[(i + 1) % k]) for u in inner + outer]
        for i, o in enumerate(outer))


def brute_force_strongly_chordal(n, adj):
    """No vertex subset induces a chordless cycle or a sun, read off the
    degrees inside each subset: a cycle is 2-regular and connected; a k-sun
    has k vertices of degree k + 1 forming a clique and k of degree 2, each
    joined to two of them, and those pairs form one k-cycle."""
    def connected(ring, mask):
        reached = frontier = mask & -mask
        while frontier:
            grown = 0
            for v in bits.iter_bits(frontier):
                grown |= ring[v]
            frontier = grown & mask & ~reached
            reached |= frontier
        return reached == mask

    for r in range(4, n + 1):
        for subset in combinations(range(n), r):
            mask = sum(1 << v for v in subset)
            sub = [adj[v] & mask for v in range(n)]
            if all(sub[v].bit_count() == 2 for v in subset) and connected(sub, mask):
                return False
            k = r // 2
            inner = sum(1 << v for v in subset if sub[v].bit_count() == k + 1)
            outer = [v for v in subset if sub[v].bit_count() == 2]
            if r % 2 or k < 3 or inner.bit_count() != k or len(outer) != k:
                continue
            ring = [0] * n
            for o in outer:
                a, b = bits.iter_bits(sub[o])
                ring[a] |= 1 << b
                ring[b] |= 1 << a
            if (all(sub[o] & ~inner == 0 for o in outer)
                    and all(ring[v].bit_count() == 2 and (sub[v] & inner) | 1 << v == inner
                            for v in bits.iter_bits(inner))
                    and connected(ring, inner)):
                return False
    return True


class TestStronglyChordal:
    def test_four_cycle(self):
        g = Graph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        verdict = is_strongly_chordal(g)
        assert not verdict.ok
        assert verdict.violation.tag == "NotChordal"
        assert len(verdict.violation.cycle) == 4

    def test_three_sun(self):
        inner = ["u1", "u2", "u3"]
        outer = ["w1", "w2", "w3"]
        edges = [(a, b) for a, b in combinations(inner, 2)]
        edges += [("w1", "u1"), ("w1", "u2"), ("w2", "u2"), ("w2", "u3"),
                  ("w3", "u3"), ("w3", "u1")]
        verdict = is_strongly_chordal(Graph.build(inner + outer, edges))
        assert not verdict.ok
        assert verdict.violation.tag == "SunFound"
        assert len(verdict.violation.subject) == 6

    def test_relabeled_suns_give_aligned_witnesses(self):
        # shuffled bare k-suns, then 3- to 8-suns joined by one edge to a
        # random chordal graph of 2-12 vertices, shuffled together
        rng = random.Random(37)

        def shuffled(n, edges):
            perm = rng.sample(range(n), n)
            adj = [0] * n
            for a, b in edges:
                adj[perm[a]] |= 1 << perm[b]
                adj[perm[b]] |= 1 << perm[a]
            return perm, adj

        def sun_edges(k):
            edges = list(combinations(range(k), 2))
            return edges + [(k + i, j) for i in range(k) for j in (i, (i + 1) % k)]

        for k in (3, 4, 5, 8, 15):
            for _ in range(10):
                perm, adj = shuffled(2 * k, sun_edges(k))
                inner, outer = bits.find_sun(adj, (1 << 2 * k) - 1)
                assert sorted(inner) == sorted(perm[:k])
                for i, o in enumerate(outer):
                    assert adj[o] == 1 << inner[i] | 1 << inner[(i + 1) % k]
        for _ in range(200):
            k, m = rng.randint(3, 8), rng.randint(2, 12)
            piece = random_chordal_graph(rng, m)._bit_form()[1]
            edges = sun_edges(k) + [(2 * k + a, 2 * k + b) for a in range(m)
                                    for b in bits.iter_bits(piece[a]) if a < b]
            edges.append((rng.randrange(2 * k), 2 * k + rng.randrange(m)))
            _, adj = shuffled(2 * k + m, edges)
            inner, outer = bits.find_sun(adj, (1 << 2 * k + m) - 1)
            assert induced_sun(adj, list(inner), list(outer))

    def test_pairs_on_two_cycles_close_no_sun(self):
        # six outer vertices over two inner triangles 0-1-2 and 3-4-5
        pairs = [(6 + t, 1 << a | 1 << b) for t, (a, b) in
                 enumerate([(0, 1), (3, 4), (1, 2), (4, 5), (2, 0), (5, 3)])]
        assert bits._close_sun_cycle(list(range(6)), pairs) is None
        # two triangles through vertex 0: the walk uses every pair and
        # returns to 0, but never visits vertex 5
        figure_eight = [(6 + t, 1 << a | 1 << b) for t, (a, b) in
                        enumerate([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])]
        assert bits._close_sun_cycle(list(range(6)), figure_eight) is None
        # a path 0-1 into the triangle 1-2-3: the walk ends at 1, not at 0
        lollipop = [(4 + t, 1 << a | 1 << b) for t, (a, b) in
                    enumerate([(0, 1), (1, 2), (2, 3), (3, 1)])]
        assert bits._close_sun_cycle(list(range(4)), lollipop) is None
        one_cycle = [(6 + t, 1 << a | 1 << b) for t, (a, b) in
                     enumerate([(0, 1), (3, 4), (1, 2), (4, 5), (2, 3), (5, 0)])]
        assert bits._close_sun_cycle(list(range(6)), one_cycle) == (
            (0, 1, 2, 3, 4, 5), (6, 8, 10, 7, 9, 11))

    def test_residual_holds_the_witness(self):
        # random graphs of 0-9 vertices: of any density, chordal, or a
        # 3- or 4-sun with vertices of random neighbourhoods added
        rng = random.Random(41)
        seen = {"ok": 0, "NotChordal": 0, "SunFound": 0}
        for trial in range(600):
            n = trial % 10
            names = rng.sample([f"x{i}" for i in range(n)], n)
            k = rng.choice((3, 4))
            if trial % 3 == 1:
                g = random_chordal_graph(rng, n)
            elif trial % 3 == 2 and n >= 2 * k:
                edges = list(combinations(names[:k], 2))
                edges += [(names[k + i], names[j % k]) for i in range(k) for j in (i, i + 1)]
                edges += [(v, u) for i, v in enumerate(names[2 * k:], 2 * k)
                          for u in names[:i] if rng.random() < 0.3]
                g = Graph.build(names, edges)
            else:
                density = rng.random()
                g = Graph.build(names, [e for e in combinations(names, 2)
                                        if rng.random() < density])
            n, adj = g._bit_form()
            residual = bits.eliminate((1 << n) - 1, partial(bits.is_simple, adj))[1]
            assert (residual == 0) == brute_force_strongly_chordal(n, adj)
            assert not any(bits.is_simple(adj, v, residual)
                           for v in bits.iter_bits(residual))
            verdict = is_strongly_chordal(g)
            assert verdict.ok == (residual == 0)
            if verdict.ok:
                seen["ok"] += 1
                continue
            tag, subject = verdict.violation.tag, verdict.violation.subject
            seen[tag] += 1
            witness = [g.vertices.index(v) for v in subject]
            assert all(residual >> v & 1 for v in witness)
            assert (tag == "NotChordal") == (not bits.is_chordal(n, adj))
            if tag == "NotChordal":
                assert induced_chordless_cycle(adj, witness)
            else:
                k = len(witness) // 2
                assert induced_sun(adj, witness[:k], witness[k:])
            # minimal: without any one of its vertices it is strongly chordal
            for v in witness:
                rest = [u for u in witness if u != v]
                sub = [sum(1 << i for i, u in enumerate(rest) if adj[w] >> u & 1)
                       for w in rest]
                assert brute_force_strongly_chordal(len(rest), sub)
        assert min(seen.values()) > 0, seen

    def test_suns_beside_long_paths_are_found_fast(self):
        # the path is peeled before the witness search, which deletes
        # vertices from the residual one at a time instead of searching its
        # vertex subsets
        for k, m in ((5, 8), (6, 4), (8, 4), (15, 4)):
            inner = [f"u{i}" for i in range(k)]
            outer = [f"w{i}" for i in range(k)]
            path = [f"p{i}" for i in range(m)]
            edges = list(combinations(inner, 2))
            edges += [(outer[i], inner[j % k]) for i in range(k) for j in (i, i + 1)]
            edges += list(zip(path, path[1:]))
            g = Graph.build(inner + outer + path, edges)
            start = time.perf_counter()
            verdict = is_strongly_chordal(g)
            assert time.perf_counter() - start < 1.0
            assert verdict.violation.tag == "SunFound"
            assert set(verdict.violation.subject) == set(inner + outer)

    def test_complete_graphs(self):
        for n in range(1, 7):
            names = [f"x{i}" for i in range(n)]
            g = Graph.build(names, list(combinations(names, 2)))
            assert is_strongly_chordal(g).ok

    def test_accepts_labeled_input(self, d4_graph):
        assert is_strongly_chordal(d4_graph).ok


def reference_mcs_order(n, adj):
    """Maximum cardinality search by the rule itself: the unvisited vertex
    of the most visited neighbours, the lowest index among equals."""
    weight = [0] * n
    order = []
    unvisited = set(range(n))
    while unvisited:
        z = max(unvisited, key=lambda v: (weight[v], -v))
        unvisited.remove(z)
        order.append(z)
        for y in bits.iter_bits(adj[z]):
            if y in unvisited:
                weight[y] += 1
    return order


class TestMcsOrder:
    def test_matches_the_rule_on_random_graphs(self):
        rng = random.Random(29)
        for trial in range(1500):
            n = trial % 15
            density = rng.random()
            adj = [0] * n
            for i, j in combinations(range(n), 2):
                if rng.random() < density:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            assert bits.mcs_order(n, adj) == reference_mcs_order(n, adj)

    def test_long_shuffled_path(self):
        rng = random.Random(3)
        n = 1500
        perm = rng.sample(range(n), n)
        adj = [0] * n
        for a, b in zip(perm, perm[1:]):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        start = time.perf_counter()
        order = bits.mcs_order(n, adj)
        assert time.perf_counter() - start < 0.2
        assert order == reference_mcs_order(n, adj)


class TestMaximalCliques:
    def test_match_brute_force_on_random_graphs(self):
        # any graph, chordal or not, down to the graph with no vertices
        rng = random.Random(17)
        non_chordal = 0
        for trial in range(300):
            n = trial % 10
            names = [f"x{i}" for i in range(n)]
            density = rng.random()
            edges = [e for e in combinations(names, 2) if rng.random() < density]
            g = Graph.build(names, edges)
            cliques = [frozenset(c) for r in range(1, n + 1)
                       for c in combinations(names, r)
                       if all(b in g.adjacency[a] for a, b in combinations(c, 2))]
            maximal = [c for c in cliques if not any(c < d for d in cliques)]
            assert maximal_cliques(g) == sorted(
                maximal, key=lambda c: (len(c), sorted(c)))
            non_chordal += not bits.is_chordal(*g._bit_form())
        assert non_chordal > 0


class TestFindMatLabeling:
    def test_triangle_label_multiset_is_forced(self):
        g = Graph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        labeled = find_mat_labeling(g)
        assert labeled is not None
        assert sorted(labeled.edge_labels) == [1, 1, 2]
        assert check_mat_labeling(labeled).ok

    def test_four_cycle_has_none(self):
        g = Graph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        assert find_mat_labeling(g) is None

    def test_single_vertex(self):
        labeled = find_mat_labeling(Graph.build(["a"], []))
        assert labeled is not None
        assert labeled.edges == ()

    def test_sun_under_a_clique_is_refused_without_search(self, monkeypatch):
        # a 3-sun whose inner triangle is joined to a K4: chordal but not
        # strongly chordal, and the labeling search alone runs for minutes
        inner, k4 = ["a", "b", "c"], ["k1", "k2", "k3", "k4"]
        outer = [("x", "a"), ("x", "b"), ("y", "b"), ("y", "c"),
                 ("z", "a"), ("z", "c")]
        g = Graph.build(inner + ["x", "y", "z"] + k4,
                        list(combinations(inner + k4, 2)) + outer)
        assert bits.is_chordal(*g._bit_form())
        assert is_strongly_chordal(g).violation.tag == "SunFound"

        def no_search(n, adj):
            raise AssertionError("labeling search reached")

        monkeypatch.setattr(bits, "find_mat_labeling", no_search)
        assert find_mat_labeling(g) is None

    def test_output_always_validates(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_mat_labeled_graph(rng, rng.randint(2, 8))
            assert check_mat_labeling(g).ok


class TestGlue:
    def test_two_edges_over_one_vertex(self):
        g1 = LabeledGraph.build(["a", "b"], [("a", "b", 1)])
        g2 = LabeledGraph.build(["b", "c"], [("b", "c", 1)])
        out = glue(g1, g2)
        assert out.labels == {("a", "b"): 1, ("b", "c"): 1}
        assert check_mat_labeling(out).ok

    def test_idempotent_on_identical_inputs(self, d4_graph):
        out = glue(d4_graph, d4_graph)
        assert out.labels == d4_graph.labels

    def test_label_conflict(self):
        g1 = LabeledGraph.build(["a", "b"], [("a", "b", 1)])
        g2 = LabeledGraph.build(["a", "b"], [("a", "b", 2)])
        with pytest.raises(PreconditionError, match="label conflict"):
            glue(g1, g2)

    def test_incomplete_overlap(self):
        square = ["a", "b", "c", "d"]
        g1 = LabeledGraph.build(square, [("a", "b", 1), ("c", "d", 1)])
        g2 = LabeledGraph.build(square, [("a", "b", 1), ("c", "d", 1)])
        with pytest.raises(PreconditionError, match="complete"):
            glue(g1, g2)


class TestMergeComplete:
    def test_two_edges_force_the_new_label(self):
        g1 = LabeledGraph.build(["a", "b"], [("a", "b", 1)])
        g2 = LabeledGraph.build(["b", "c"], [("b", "c", 1)])
        out = merge_complete(g1, g2)
        assert out.labels == {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 1}

    def test_identical_inputs(self, d4_graph):
        assert merge_complete(d4_graph, d4_graph).labels == d4_graph.labels

    def test_two_disjoint_singletons(self):
        out = merge_complete(LabeledGraph.build(["a"], []),
                             LabeledGraph.build(["b"], []))
        assert out.labels == {("a", "b"): 1}

    def test_restrictions_recover_inputs(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_mat_labeled_graph(rng, 7)
            completed = extend_to_complete(g)
            cliques = maximal_cliques(g)
            if len(cliques) < 2:
                continue
            a = g.restrict(cliques[-1])
            b = g.restrict(cliques[0])
            shared = set(a.vertices) & set(b.vertices)
            if a.restrict(shared).labels != b.restrict(shared).labels:
                continue
            merged = merge_complete(a, b)
            assert check_mat_labeling(merged).ok
            for e, k in a.labels.items():
                assert merged.labels[e] == k
            for e, k in b.labels.items():
                assert merged.labels[e] == k
            del completed

    def test_rejects_incomplete_input(self):
        g1 = LabeledGraph.build(["a", "b", "c"], [("a", "b", 1)])
        with pytest.raises(PreconditionError):
            merge_complete(g1, g1)

    def test_labelings_are_checked_before_completeness(self):
        path = LabeledGraph.build(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])
        edge = LabeledGraph.build(["c", "d"], [("c", "d", 1)])
        bad = LabeledGraph.build(["c", "d"], [("c", "d", 2)])
        with pytest.raises(PreconditionError, match="second input is not MAT-labeled"):
            merge_complete(path, bad)
        with pytest.raises(PreconditionError, match="first input is not a complete graph"):
            merge_complete(path, edge)
        with pytest.raises(PreconditionError, match="second input is not a complete graph"):
            merge_complete(edge, path)

    def test_agrees_with_backtracking_oracle(self):
        # random merge inputs on at most 7 vertices: both succeed, and the
        # labels are equal wherever the oracle finds a single completion
        rng = random.Random(41)
        merged_count = forced = 0
        for _ in range(60):
            g = random_mat_labeled_graph(rng, rng.randint(3, 7))
            cliques = maximal_cliques(g)
            if len(cliques) < 2:
                continue
            x, y = rng.sample(cliques, 2)
            a, b = g.restrict(x), g.restrict(y)
            merged, glued = merge_complete(a, b), glue(a, b)
            completions = backtracking_completions(glued)
            assert completions, "oracle found no completion"
            assert check_mat_labeling(merged).ok
            assert all(merged.labels[e] == k for e, k in glued.labels.items())
            if len(completions) == 1:
                assert merged.labels == completions[0]
                forced += 1
            merged_count += 1
        assert merged_count >= 30 and forced > 0

    def test_forced_completions_equal_the_oracle(self):
        names = [f"p{i}" for i in range(7)]
        pendant = (LabeledGraph.build(["a", "b"], [("a", "b", 1)]),
                   LabeledGraph.build(["b", "c"], [("b", "c", 1)]))
        cases = [pendant]
        for n in range(3, 8):
            path = LabeledGraph.build(names[:n], [(names[i], names[i + 1], 1)
                                                  for i in range(n - 1)])
            d = extend_to_complete(path)
            cases.append((d.restrict(names[:n - 1]), d.restrict(names[1:n])))
        for a, b in cases:
            completions = backtracking_completions(glue(a, b))
            assert len(completions) == 1
            assert merge_complete(a, b).labels == completions[0]


class TestExtendToComplete:
    def test_path_forces_unique_completion(self):
        g = LabeledGraph.build(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])
        out = extend_to_complete(g)
        assert out.labels[("a", "c")] == 2

    def test_complete_input_unchanged(self, d4_graph):
        assert extend_to_complete(d4_graph).labels == d4_graph.labels

    def test_five_vertex_example(self, lrv_graph):
        out = extend_to_complete(lrv_graph)
        assert out.is_complete()
        assert check_mat_labeling(out).ok
        for e, k in lrv_graph.labels.items():
            assert out.labels[e] == k

    def test_paths_have_the_d_vine_completion(self):
        for n in range(2, 11):
            names = [f"p{i:02}" for i in range(n)]
            path = LabeledGraph.build(names, [(names[i], names[i + 1], 1)
                                              for i in range(n - 1)])
            out = extend_to_complete(path)
            assert out.labels == {(names[i], names[j]): j - i
                                  for i in range(n) for j in range(i + 1, n)}
            if n <= 6:   # the oracle needs about 5 s at 7 vertices
                assert [out.labels] == backtracking_completions(path)

    def test_rejects_an_invalid_labeling(self):
        bad = LabeledGraph.build(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1),
                                                   ("a", "c", 1)])
        with pytest.raises(PreconditionError, match="graph is not MAT-labeled"):
            extend_to_complete(bad)

    def test_random_instances(self):
        rng = random.Random(5)
        graphs = [random_mat_labeled_graph(rng, rng.randint(2, 8)) for _ in range(20)]
        # edgeless graphs, two components, an isolated vertex, and large draws
        graphs += [LabeledGraph.build([f"x{i}" for i in range(n)], []) for n in range(5)]
        graphs += [LabeledGraph.build("abcde", [("a", "b", 1), ("c", "d", 1), ("d", "e", 1),
                                                ("c", "e", 2)]),
                   LabeledGraph.build("abcd", [("a", "b", 1), ("b", "c", 1), ("a", "c", 2)])]
        graphs += [glued_mat_graph(rng, n) for n in (30, 60)]
        for g in graphs:
            out = extend_to_complete(g)
            assert out.is_complete()
            assert check_mat_labeling(out).ok
            for e, k in g.labels.items():
                assert out.labels[e] == k
            if g.vertices:
                assert classify(psi(out)).kind == VineClass.R_VINE


class TestCompletionProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 15))
    def test_extension_is_a_regular_vine_over_the_input(self, seed, n):
        g = glued_mat_graph(random.Random(seed), n)
        out = extend_to_complete(g)
        assert out.is_complete() and out.vertices == g.vertices
        assert check_mat_labeling(out).ok
        assert all(out.labels[e] == k for e, k in g.labels.items())
        assert classify(psi(out)).kind == VineClass.R_VINE

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_lr_vine_is_an_ideal_of_its_embedding(self, seed, n):
        p = psi(glued_mat_graph(random.Random(seed), n))
        target, embedding = embed_in_r_vine(p)
        assert classify(target).kind == VineClass.R_VINE
        assert len(target.minimals) == n
        image = {embedding.mapping[v] for v in p.nodes}
        assert len(image) == len(p.nodes)
        assert all(w in image for w in target.nodes
                   for x in image if target.leq(w, x))
        assert omega(target).labels.items() >= omega(p).labels.items()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9))
    def test_merge_of_complete_pieces_restricts_to_both(self, seed, n1, n2):
        rng = random.Random(seed)
        a = extend_to_complete(glued_mat_graph(rng, n1))
        b = _attach(rng, a, extend_to_complete(glued_mat_graph(rng, n2)))
        out = merge_complete(a, b)
        assert out.is_complete() and check_mat_labeling(out).ok
        assert set(out.vertices) == set(a.vertices) | set(b.vertices)
        for piece in (a, b):
            assert out.restrict(piece.vertices).labels == piece.labels


class TestStructuralFacts:
    def test_largest_label_is_clique_number_minus_one(self):
        rng = random.Random(71)
        for _ in range(30):
            g = random_mat_labeled_graph(rng, rng.randint(2, 10))
            if not g.edges:
                continue
            largest = max(g.edge_labels)
            omega_g = max(len(c) for c in maximal_cliques(g))
            assert largest == omega_g - 1
            # top-label edges generate the largest cliques, bijectively
            top_edges = [e for e, k in g.labels.items() if k == largest]
            generated = {frozenset(principal_clique(g, *e)) for e in top_edges}
            largest_cliques = {c for c in maximal_cliques(g)
                               if len(c) == omega_g}
            assert len(generated) == len(top_edges)
            assert generated == largest_cliques

    def test_largest_label_endpoints_are_simplicial_in_complete_graphs(self):
        from matvines import enumerate_mat_labelings_complete
        for dim in range(2, 6):
            report = enumerate_mat_labelings_complete(dim)
            for rep in report.representatives:
                top = max(rep.edge_labels)
                (u, v), = [e for e, k in rep.labels.items() if k == top]
                assert is_mat_simplicial(rep, u).ok
                assert is_mat_simplicial(rep, v).ok

    def test_removing_admissible_vertex_preserves_validity(self):
        rng = random.Random(97)
        seen_invalid = 0
        for _ in range(120):
            n = rng.randint(2, 6)
            names = [f"x{i}" for i in range(n)]
            items = [(u, v, rng.randint(1, 3))
                     for u, v in combinations(names, 2) if rng.random() < 0.6]
            g = LabeledGraph.build(names, items)
            before = check_mat_labeling(g).ok
            seen_invalid += not before
            for v in names:
                if is_mat_simplicial(g, v).ok:
                    assert check_mat_labeling(g.without_vertex(v)).ok == before
        assert seen_invalid > 0

    def test_restriction_to_clique_intersections(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_mat_labeled_graph(rng, rng.randint(3, 9))
            cliques = maximal_cliques(g)
            take = rng.randint(1, len(cliques))
            chosen = rng.sample(cliques, take)
            meet = frozenset.intersection(*chosen)
            assert check_mat_labeling(g.restrict(meet)).ok
