"""Canonical forms, isomorphism, the enumeration engine, and the counting
formulas."""

import concurrent.futures
import hashlib
import logging
import os
import random
import re
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from matvines import (GraphInputError, InternalDefectError, LabeledGraph,
                      PosetInputError, ResourceLimitError, VinePoset, _bits,
                      c_vine, d_vine, enumeration,
                      a047970, are_isomorphic, are_isomorphic_vines,
                      canonical_form, catalan, e_formula,
                      enumerate_mat_labelings_complete, check_mat_labeling,
                      extend_to_complete,
                      mat_sc_agreement, omega, poset_isomorphism, psi,
                      random_chordal_graph, random_mat_labeled_graph,
                      root_poset_a)
from matvines.cli import main
from matvines.enumeration import representative_graph, representative_name
from conftest import five_vertex_graph


def shuffled_copy(g, rng):
    names = list(g.vertices)
    images = names[:]
    rng.shuffle(images)
    return g.relabel_vertices(dict(zip(names, images)))


def reference_canonical_key(n, lab):
    """Reference key: the least row-by-row encoding over all vertex orders,
    by backtracking with prefix pruning only, rebuilding every candidate
    row as a tuple over the whole prefix."""
    if n == 0:
        return ()
    inv = [tuple(sorted(x for x in row if x)) for row in lab]
    best = None

    def rec(perm, rest, flat):
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
    return tuple(best)


def random_label_matrix(rng, n, density, labels):
    lab = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            lab[i][j] = lab[j][i] = rng.randint(1, labels)
    return lab


def star_graph(n):
    names = [str(i) for i in range(n)]
    return LabeledGraph.build(names, [("0", v, 1) for v in names[1:]])


def complete_bipartite_graph(a, b):
    left = [f"a{i}" for i in range(a)]
    right = [f"b{j}" for j in range(b)]
    return LabeledGraph.build(left + right,
                              [(u, v, 1) for u in left for v in right])


SYMMETRIC_FAMILIES = {
    "star K1,n-1": [star_graph(n) for n in range(1, 13)],
    "K_a,b": [complete_bipartite_graph(a, b)
              for a in range(1, 12) for b in range(a, 13 - a)],
    "omega(c_vine(d))": [omega(c_vine(d)) for d in range(1, 13)],
}


def cycles_graph(*lengths):
    """Disjoint cycles of the given lengths, every label 1."""
    names, items = [], []
    for m in lengths:
        ring = [f"c{len(names) + i}" for i in range(m)]
        items += [(ring[i], ring[(i + 1) % m], 1) for i in range(m)]
        names += ring
    return LabeledGraph.build(names, items)


def is_label_isomorphism(g, h, witness):
    """Whether ``witness`` is a bijection of the vertices that maps the
    labeled edges of ``g`` exactly onto those of ``h``."""
    if sorted(witness) != sorted(g.vertices) or \
            sorted(witness.values()) != sorted(h.vertices):
        return False
    return {tuple(sorted((witness[u], witness[v]))): k
            for (u, v), k in g.labels.items()} == h.labels


def is_poset_isomorphism(p, q, mapping):
    """Whether ``mapping`` is a rank- and cover-preserving bijection."""
    if sorted(mapping) != sorted(p.nodes) or \
            sorted(mapping.values()) != sorted(q.nodes):
        return False
    return all(p.rank_of[v] == q.rank_of[mapping[v]] and
               set(q.covers_of[mapping[v]]) == {mapping[c] for c in p.covers_of[v]}
               for v in p.nodes)


class TestCanonicalForm:
    def test_invariant_under_renaming(self, d4_graph):
        rng = random.Random(7)
        base = canonical_form(d4_graph)
        for _ in range(10):
            assert canonical_form(shuffled_copy(d4_graph, rng)) == base

    def test_distinguishes_the_two_k4_labelings(self, d4_graph, c4_graph):
        assert canonical_form(d4_graph) != canonical_form(c4_graph)

    def test_empty_graph(self):
        assert canonical_form(LabeledGraph.build([], [])) == b"0:"

    def test_equality_iff_isomorphism_on_small_classes(self):
        reps = []
        for dim in range(2, 6):
            report = enumerate_mat_labelings_complete(dim)
            reps.extend(report.representatives)
        for a in reps:
            for b in reps:
                same = canonical_form(a) == canonical_form(b)
                assert same == are_isomorphic(a, b)[0]

    def test_random_permuted_pairs_match(self):
        rng = random.Random(77)
        for dim in (6, 7):
            report = enumerate_mat_labelings_complete(dim)
            reps = report.representatives
            for _ in range(5000):
                g = rng.choice(reps)
                h = shuffled_copy(g, rng)
                assert canonical_form(h) == canonical_form(g)
                ok, witness = are_isomorphic(g, h)
                assert ok
                mapped = {(min(witness[u], witness[v]),
                           max(witness[u], witness[v])): k
                          for (u, v), k in g.labels.items()}
                assert mapped == h.labels


class TestCanonicalKey:
    def test_matches_the_reference_on_random_graphs(self):
        rng = random.Random(2027)
        # the edgeless and the complete one-label graphs, then 2,016 draws
        # over every vertex count, four densities and one to four labels
        graphs = [random_label_matrix(rng, n, density, 1)
                  for n in range(9) for density in (0.0, 1.0)]
        graphs += [random_label_matrix(rng, trial % 9,
                                       (0.2, 0.5, 0.8, 0.9)[trial // 9 % 4],
                                       1 + trial // 36 % 4)
                   for trial in range(2016)]
        for lab in graphs:
            n = len(lab)
            assert enumeration._canonical_key(n, lab) == \
                reference_canonical_key(n, lab), (n, lab)

    def test_matches_the_reference_on_relabeled_representatives(self):
        rng = random.Random(560)
        report = enumerate_mat_labelings_complete(7)
        for key, rep in zip(report.keys, report.representatives):
            n, _, lab = shuffled_copy(rep, rng)._bit_form()
            assert enumeration._canonical_key(n, lab) == key == \
                reference_canonical_key(n, lab)

    @pytest.mark.parametrize("family", sorted(SYMMETRIC_FAMILIES))
    def test_symmetric_graphs(self, family):
        rng = random.Random(family)
        for g in SYMMETRIC_FAMILIES[family]:
            base = canonical_form(g)
            for _ in range(20):
                assert canonical_form(shuffled_copy(g, rng)) == base, g.labels
            n, _, lab = g._bit_form()
            if n <= 8:
                assert enumeration._canonical_key(n, lab) == \
                    reference_canonical_key(n, lab), g.labels


class TestAreIsomorphic:
    def test_reflexive_with_identity_witness(self, d4_graph):
        ok, witness = are_isomorphic(d4_graph, d4_graph)
        assert ok
        for (u, v), k in d4_graph.labels.items():
            assert d4_graph.label_of(witness[u], witness[v]) == k

    def test_the_two_k4_labelings_differ(self, d4_graph, c4_graph):
        ok, witness = are_isomorphic(d4_graph, c4_graph)
        assert not ok and witness is None

    def test_triangle_labelings_are_all_isomorphic(self):
        variants = []
        for heavy in (("a", "b"), ("b", "c"), ("a", "c")):
            items = [(u, v, 2 if (u, v) == heavy else 1)
                     for (u, v) in (("a", "b"), ("b", "c"), ("a", "c"))]
            variants.append(LabeledGraph.build("abc", items))
        for g in variants:
            for h in variants:
                assert are_isomorphic(g, h)[0]

    def test_matches_brute_force_over_every_vertex_permutation(self):
        rng = random.Random(613)
        pairs = [(cycles_graph(6), cycles_graph(3, 3)),
                 (cycles_graph(3, 3), cycles_graph(3, 3)),
                 (complete_bipartite_graph(3, 3),
                  LabeledGraph.build("abcxyz", [(u, v, 1) for u, v in (
                      "ab", "bc", "ca", "xy", "yz", "zx", "ax", "by", "cz")]))]
        for trial in range(400):
            n = rng.randint(0, 6)
            g = LabeledGraph._from_matrix(
                [f"x{i}" for i in range(n)],
                random_label_matrix(rng, n, 0.5, 1 + trial % 3))
            h = shuffled_copy(g, rng)
            for _ in range(20 * (trial % 2) * (len(h.edges) >= 2)):
                # a switch ab, cd -> ad, cb of two edges of one label keeps
                # every vertex's incident labels
                ((a, b), k), ((c, d), m) = rng.sample(sorted(h.labels.items()), 2)
                if k == m and len({a, b, c, d}) == 4 and \
                        not h.has_edge(a, d) and not h.has_edge(c, b):
                    labels = {e: x for e, x in h.labels.items()
                              if e not in ((a, b), (c, d))}
                    h = LabeledGraph.from_labels(
                        h.vertices, {**labels, (a, d): k, (c, b): k})
                    break
            pairs.append((g, h))
        def label_degrees(g):
            return sorted(sorted(g.adjacency[v].values()) for v in g.vertices)

        same_invariants = 0
        for g, h in pairs:
            brute = any(
                is_label_isomorphism(g, h, dict(zip(g.vertices, images)))
                for images in permutations(h.vertices))
            ok, witness = are_isomorphic(g, h)
            assert ok == brute, (g.labels, h.labels)
            if ok:
                assert is_label_isomorphism(g, h, witness)
            elif label_degrees(g) == label_degrees(h):
                same_invariants += 1
        assert same_invariants >= 10

    def test_long_path_against_a_shuffled_copy(self):
        names = [f"v{i}" for i in range(200)]
        g = LabeledGraph.build(names, [(a, b, 1) for a, b in zip(names, names[1:])])
        h = shuffled_copy(g, random.Random(200))
        start = time.perf_counter()
        ok, witness = are_isomorphic(g, h)
        assert time.perf_counter() - start < 1.0
        assert ok and is_label_isomorphism(g, h, witness)


class TestVineIsomorphism:
    def test_reduction_matches_direct_poset_search(self):
        from matvines import c_vine, d_vine, truncate
        rng = random.Random(31)
        vines = [d_vine(3), d_vine(4), c_vine(4), truncate(c_vine(4), 3, "lower"),
                 psi(five_vertex_graph())]
        for _ in range(6):
            vines.append(psi(random_mat_labeled_graph(rng, rng.randint(2, 4))))
        small = [p for p in vines if len(p.nodes) <= 10]
        for a in small:
            for b in small:
                mapping = poset_isomorphism(a, b)
                assert are_isomorphic_vines(a, b) == (mapping is not None)
                assert mapping is None or is_poset_isomorphism(a, b, mapping)

    @pytest.mark.parametrize("build", [c_vine, d_vine, root_poset_a])
    def test_vines_of_dimension_ten_to_twelve(self, build):
        for dim in (10, 11, 12):
            p = build(dim)
            q = psi(omega(p))
            start = time.perf_counter()
            mapping = poset_isomorphism(p, q)
            assert time.perf_counter() - start < 1.0, dim
            assert is_poset_isomorphism(p, q, mapping)

    def test_ranks_that_do_not_follow_the_covers(self):
        p = VinePoset.build([("a", 2, []), ("b", 1, ["a"])])
        q = VinePoset.build([("y", 1, ["x"]), ("x", 2, [])])
        assert poset_isomorphism(p, q) == {"a": "x", "b": "y"}

    def test_chain_longer_than_the_recursion_limit(self):
        def chain(prefix):
            return VinePoset.build([(f"{prefix}{i}", i + 1,
                                     [f"{prefix}{i - 1}"] if i else [])
                                    for i in range(1100)])
        p, q = chain("a"), chain("b")
        mapping = poset_isomorphism(p, q)
        assert is_poset_isomorphism(p, q, mapping)


class TestFormulas:
    def test_class_count_values(self):
        assert [e_formula(l) for l in range(1, 9)] == \
            [1, 1, 1, 2, 6, 40, 560, 17024]

    def test_dimension_four_halves(self):
        # both halves of the average equal 2 at dimension 4
        assert e_formula(4) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphInputError):
            e_formula(0)

    def test_a047970_values(self):
        assert [a047970(l) for l in range(1, 7)] == [1, 2, 5, 14, 43, 144]

    def test_a047970_term_by_term(self):
        # 1 + 3 + 1 + 0 and 1 + 7 + 5 + 1 + 0
        assert a047970(3) == 5
        assert a047970(4) == 14

    def test_catalan(self):
        assert [catalan(n) for n in range(2, 9)] == [2, 5, 14, 42, 132, 429, 1430]
        assert catalan(0) == catalan(1) == 1

    def test_catalan_refuses_negative_input(self):
        for n in (-1, -5):
            with pytest.raises(PosetInputError):
                catalan(n)


class TestEnumerate:
    def test_small_dimensions(self):
        for dim, expected in [(1, 1), (2, 1), (3, 1), (4, 2), (5, 6)]:
            report = enumerate_mat_labelings_complete(dim)
            assert report.class_count == expected
            assert report.formula_count == expected

    def test_representatives_validate(self):
        report = enumerate_mat_labelings_complete(5)
        assert len(report.representatives) == 6
        for rep in report.representatives:
            assert rep.is_complete()
            assert check_mat_labeling(rep).ok

    def test_representatives_are_pairwise_non_isomorphic(self):
        report = enumerate_mat_labelings_complete(5)
        forms = {canonical_form(rep) for rep in report.representatives}
        assert len(forms) == len(report.representatives)

    def test_deterministic_across_runs_and_jobs(self):
        first = enumerate_mat_labelings_complete(5)
        second = enumerate_mat_labelings_complete(5)
        assert [g.labels for g in first.representatives] == \
            [g.labels for g in second.representatives]
        parallel = enumerate_mat_labelings_complete(5, jobs=2)
        assert [g.labels for g in parallel.representatives] == \
            [g.labels for g in first.representatives]

    def test_resource_bound(self):
        with pytest.raises(ResourceLimitError):
            enumerate_mat_labelings_complete(8)
        with pytest.raises(GraphInputError):
            enumerate_mat_labelings_complete(0)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_are_refused(self, jobs):
        with pytest.raises(GraphInputError, match="jobs must be at least 1"):
            enumerate_mat_labelings_complete(3, jobs=jobs)

    def test_keys_ascend_and_give_the_representatives(self):
        for dim in range(1, 7):
            report = enumerate_mat_labelings_complete(dim)
            assert list(report.keys) == sorted(report.keys)
            assert len(report.keys) == report.class_count
            assert report.representatives == tuple(
                representative_graph(dim, key) for key in report.keys)

    def test_representative_reconstruction(self):
        report = enumerate_mat_labelings_complete(4)
        for rep in report.representatives:
            from matvines.enumeration import _canonical_key
            n, _, lab = rep._bit_form()
            key = _canonical_key(n, lab)
            again = representative_graph(4, key)
            assert are_isomorphic(rep, again)[0]
            assert representative_name(4, key).startswith("K4_")


def labels_to_matrix(dimension, labels):
    lab = [[0] * dimension for _ in range(dimension)]
    for pair, k in labels.items():
        i = (pair & -pair).bit_length() - 1
        j = (pair & (pair - 1)).bit_length() - 1
        lab[i][j] = lab[j][i] = k
    return lab


def per_tower_classes(dimension, trees=None):
    """Reference route: the canonical key of every tower over every given
    bottom tree (by default one tree per isomorphism class)."""
    if trees is None:
        trees = enumeration._tree_representatives(dimension)
    return {reference_canonical_key(dimension,
                                    labels_to_matrix(dimension, labels))
            for t1 in trees
            for labels in enumeration._towers_over_tree(dimension, t1)}


def reference_towers_over_tree(dimension, t1_edges):
    """Reference tower generator: each level's allowed pairs and spanning
    trees are computed again at every tower."""
    labels = {}
    child_masks = []
    u_masks = []
    for (a, b) in t1_edges:
        pair = (1 << a) | (1 << b)
        labels[pair] = 1
        child_masks.append(pair)
        u_masks.append(pair)

    def descend(children, unions, level):
        q = len(unions)
        if q <= 1:
            yield dict(labels)
            return
        allowed = [(x, y) for x, y in combinations(range(q), 2)
                   if children[x] & children[y]]
        for tree in enumeration._spanning_trees(q, allowed):
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


def children_up_to(dimension):
    """``(n, child)`` for every extension of every class of K_n, n below
    ``dimension``."""
    for n in range(1, dimension):
        for key in enumeration._enumerate_classes(n):
            lab = enumeration._key_to_matrix(n, key)
            for child in enumeration._extensions(n, lab):
                yield n, child


def rooted_key(lab, v):
    """Canonical key of ``lab`` with a pendant vertex on ``v`` by a label no
    other pair has, so equal exactly for isomorphic graphs rooted at ``v``."""
    n = len(lab)
    mark = [0] * n
    mark[v] = 1 + max(map(max, lab))
    marked = [row + [x] for row, x in zip(lab, mark)] + [mark + [0]]
    return enumeration._canonical_key(n + 1, marked)


def assert_bijection(pairs):
    """Each first item of ``pairs`` goes with one second item, and back."""
    forward, backward = {}, {}
    for a, b in pairs:
        assert forward.setdefault(a, b) == b, a
        assert backward.setdefault(b, a) == a, b


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count it is
    asked for and runs the work in this process, starting none."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts asked of ProcessPoolExecutor while the test runs."""
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(sizes, max_workers))
    return sizes


class TestEnumerationDriver:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_matches_per_tower_route(self, dim):
        assert enumeration._enumerate_classes(dim) == per_tower_classes(dim)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7])
    def test_towers_match_the_reference_generator(self, dim):
        for t1 in enumeration._tree_representatives(dim):
            assert list(enumeration._towers_over_tree(dim, t1)) == \
                list(reference_towers_over_tree(dim, t1)), t1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_extensions_are_mat_labeled(self, n):
        # each class on n vertices gives 2^(n-1) labelings of K_{n+1}
        full = (1 << (n + 1)) - 1
        adj = [full ^ 1 << v for v in range(n + 1)]
        for key in enumeration._enumerate_classes(n):
            lab = enumeration._key_to_matrix(n, key)
            children = list(enumeration._extensions(n, lab))
            assert len(children) == 2 ** (n - 1)
            for child in children:
                assert [row[:n] for row in child[:n]] == lab
                assert _bits.mat_violation(n + 1, adj, child) is None, child

    def test_missing_clique_is_a_defect(self):
        # K3 with labels 1, 1, 1: the top edge's clique is not the full mask
        lab = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        with pytest.raises(InternalDefectError, match="principal clique"):
            list(enumeration._extensions(3, lab))

    @pytest.mark.parametrize("order", [None, [2, 0, 4, 1, 3]])
    def test_completion_without_an_elimination_ordering_is_a_defect(
            self, monkeypatch, order):
        # the completion grows by the same rule along find_mat_peo's order;
        # no order, or one that is not an elimination ordering, is a defect
        names = [f"p{i}" for i in range(5)]
        path = LabeledGraph.build(names, [(names[i], names[i + 1], 1) for i in range(4)])
        monkeypatch.setattr(_bits, "find_mat_peo", lambda *args: order)
        with pytest.raises(InternalDefectError):
            extend_to_complete(path)

    def test_certificates_match_the_canonical_key(self):
        # rooted at the new vertex, the certificate identifies the rooted
        # graph; the lesser of the two ends' certificates identifies the graph
        rooted, unrooted = [], []
        for n, child in children_up_to(7):
            b = child[n].index(n)
            for v in (n, b):
                assert sorted(child[v]) == list(range(n + 1))
            cert = enumeration._certificate(child, n)
            rooted.append((cert, rooted_key(child, n)))
            unrooted.append((min(cert, enumeration._certificate(child, b)),
                             enumeration._canonical_key(n + 1, child)))
        assert_bijection(rooted)
        assert_bijection(unrooted)
        assert len(dict(unrooted)) == sum(map(e_formula, range(2, 8)))

    def test_non_permutation_row_is_a_defect(self):
        # K3 with labels 1, 1, 1: no vertex carries the labels 1 and 2
        lab = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        with pytest.raises(InternalDefectError, match="permutation"):
            enumeration._certificate(lab, 0)

    def test_each_class_is_kept_once(self):
        # every class is reached (test_matches_per_tower_route), so as many
        # kept extensions as classes means each is kept exactly once
        parents = [[[0]]]
        for n, count in zip(range(1, 7), [1, 1, 2, 6, 40, 560]):
            parents = [child for lab in parents
                       for child in enumeration._accepted(n, lab)]
            assert len(parents) == count == e_formula(n + 1)

    def test_one_canonical_key_per_class(self, monkeypatch):
        calls = []
        key = enumeration._canonical_key
        monkeypatch.setattr(enumeration, "_canonical_key",
                            lambda n, lab: calls.append(n) or key(n, lab))
        assert enumerate_mat_labelings_complete(7).class_count == 560
        assert calls == [7] * 560

    def test_a_class_kept_twice_is_a_defect(self, monkeypatch):
        # the last step of enumerate 4 keeps each class on four vertices twice
        accepted = enumeration._accepted
        monkeypatch.setattr(enumeration, "_accepted",
                            lambda n, lab: (1 + (n == 3)) * accepted(n, lab))
        with pytest.raises(InternalDefectError, match="kept 4 labelings"):
            enumeration._enumerate_classes(4)

    def test_dimension_seven_names_are_pinned(self):
        report = enumerate_mat_labelings_complete(7)
        names = "\n".join(representative_name(7, key) for key in report.keys)
        assert hashlib.sha256(names.encode()).hexdigest() == \
            "47ef171b18248c8ce0e4e1e06debfe7085a86c626476fac96a9fcc4ab1646647"

    @pytest.mark.parametrize("n, count", [
        (1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23),
        (9, 47), (10, 106)])
    def test_tree_representatives(self, n, count):
        # OEIS A000055: unlabeled trees on n vertices
        trees = enumeration._tree_representatives(n)
        assert len(trees) == count
        for t in trees:
            assert len(t) == n - 1 and t == sorted(t)
            assert all(0 <= a < b < n for a, b in t)
            parent = list(range(n))
            for a, b in t:
                ra, rb = _bits.find(parent, a), _bits.find(parent, b)
                assert ra != rb
                parent[ra] = rb
        if n <= 7:
            forms = {min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in t))
                         for p in permutations(range(n)))
                     for t in trees}
            assert len(forms) == len(trees)

    @pytest.mark.parametrize("dim, jobs, cores, workers", [
        (6, 1000, 4, 4), (6, 3, 64, 3), (4, 8, 64, None), (6, 8, 1, None)])
    def test_pool_size_is_capped(self, monkeypatch, pool_sizes, dim, jobs,
                                 cores, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        report = enumerate_mat_labelings_complete(dim, jobs=jobs)
        assert report.class_count == e_formula(dim)
        assert pool_sizes == ([] if workers is None else [workers])

    def test_cli_jobs_start_no_more_workers_than_parents(self, monkeypatch,
                                                         pool_sizes, capsys):
        # the last step of enumerate 5 extends the two classes on four
        # vertices
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert main(["enumerate", "5", "--jobs", "1000"]) == 0
        assert pool_sizes == [2]
        assert '"class_count": 6' in capsys.readouterr().out

    def test_per_step_debug_records(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="matvines"):
            enumerate_mat_labelings_complete(7)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "matvines"]
        steps = {}
        for m in messages:
            step = re.fullmatch(r"enumerate d=(\d+): (\d+) parents, (\d+) "
                                r"extensions, (\d+) classes, [\d.]+ s", m)
            assert step, m
            dim, *counts = map(int, step.groups())
            assert dim not in steps
            steps[dim] = tuple(counts)
        assert steps == {2: (1, 1, 1), 3: (1, 2, 1), 4: (1, 4, 2),
                         5: (2, 16, 6), 6: (6, 96, 40), 7: (40, 1280, 560)}


def kirchhoff_count(n, edges):
    """Spanning trees of a simple graph by the matrix-tree theorem: the
    determinant of its Laplacian with the last row and column removed,
    computed exactly."""
    lap = [[Fraction(0)] * n for _ in range(n)]
    for a, b in edges:
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    m = [row[:n - 1] for row in lap[:n - 1]]
    det = Fraction(1)
    for col in range(n - 1):
        pivot = next((r for r in range(col, n - 1) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n - 1):
            factor = m[r][col] / m[col][col]
            for c in range(col, n - 1):
                m[r][c] -= factor * m[col][c]
    return int(det)


def is_spanning_tree(n, edges):
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(edges) == n - 1 and len(seen) == n


class TestSpanningTrees:
    def test_against_the_matrix_tree_theorem(self):
        rng = random.Random(2024)
        disconnected = 0
        for trial in range(300):
            n = 1 + trial % 8
            pairs = list(combinations(range(n), 2))
            # at most 12 edges keeps the subsets of n - 1 of them few
            edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 12)))
            trees = list(enumeration._spanning_trees(n, edges))
            count = kirchhoff_count(n, edges)
            assert len(trees) == count, (n, edges)
            assert len(set(trees)) == len(trees)
            for tree in trees:
                assert list(tree) == sorted(set(tree))
                assert all(0 <= idx < len(edges) for idx in tree)
                assert is_spanning_tree(n, [edges[idx] for idx in tree])
            disconnected += count == 0
        assert disconnected > 10

    def test_single_node_and_complete_graphs(self):
        assert list(enumeration._spanning_trees(1, [])) == [()]
        assert list(enumeration._spanning_trees(2, [])) == []
        for n in range(2, 7):
            # Cayley: n^(n-2) labeled trees
            edges = list(combinations(range(n), 2))
            assert len(list(enumeration._spanning_trees(n, edges))) == n ** (n - 2)


def components(n, adj, alive):
    """Connected components of the induced subgraph on ``alive``, as bitmasks."""
    comps = []
    rest = alive
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            new = 0
            for v in _bits.iter_bits(frontier):
                new |= adj[v] & alive & ~comp
            comp |= new
            frontier = new
        comps.append(comp)
        rest &= ~comp
    return comps


def per_mask_agreement(n):
    """Reference sweep: decide every labeled graph on n vertices on its own,
    per connected component, memoizing components on fewer than n vertices.
    Returns (graph count, strongly chordal count, labelable count,
    disagreeing masks)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 1 << len(pairs)
    memo = {}
    full = (1 << n) - 1
    sc_count = mat_count = 0
    bad = []
    for mask in range(total):
        adj = [0] * n
        mm = mask
        while mm:
            b = mm & -mm
            i, j = pairs[b.bit_length() - 1]
            mm ^= b
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        sc = mat = True
        for comp in components(n, adj, full):
            cnt = comp.bit_count()
            if cnt <= 2:
                continue
            verts = list(_bits.iter_bits(comp))
            cadj = [0] * cnt
            key = 0
            shift = 0
            for a in range(cnt):
                for b2 in range(a + 1, cnt):
                    if adj[verts[a]] >> verts[b2] & 1:
                        cadj[a] |= 1 << b2
                        cadj[b2] |= 1 << a
                        key |= 1 << shift
                    shift += 1
            res = memo.get((cnt, key)) if cnt < n else None
            if res is None:
                res = (_bits.is_strongly_chordal_fast(cnt, cadj),
                       _bits.find_mat_labeling(cnt, cadj) is not None)
                if cnt < n:
                    memo[(cnt, key)] = res
            sc = sc and res[0]
            mat = mat and res[1]
            if not sc and not mat:
                break
        sc_count += sc
        mat_count += mat
        if sc != mat:
            bad.append(mask)
    return total, sc_count, mat_count, tuple(bad)


def reference_isomorphism_classes(n, pairs):
    """Reference orbit listing: the smallest mask not yet seen starts a
    class, and its orbit applies every vertex permutation to each of its
    edge bits."""
    index = {pair: e for e, pair in enumerate(pairs)}
    edge_maps = [[index[min(p[i], p[j]), max(p[i], p[j])] for i, j in pairs]
                 for p in permutations(range(n))]
    seen = set()
    for rep in range(1 << len(pairs)):
        if rep in seen:
            continue
        bits = [e for e in range(len(pairs)) if rep >> e & 1]
        orbit = {sum(1 << image[e] for e in bits) for image in edge_maps}
        seen |= orbit
        yield rep, orbit


class TestRandomGraphs:
    def test_zero_vertices_give_the_empty_graph(self):
        rng = random.Random(3)
        assert random_chordal_graph(rng, 0).vertices == ()
        g = random_mat_labeled_graph(rng, 0)
        assert g.vertices == () and g.labels == {}

    def test_negative_vertex_count_is_refused(self):
        rng = random.Random(3)
        for n in (-1, -5):
            with pytest.raises(GraphInputError):
                random_chordal_graph(rng, n)
            with pytest.raises(GraphInputError):
                random_mat_labeled_graph(rng, n)


class TestAgreementDriver:
    def test_exhaustive_small(self):
        report = mat_sc_agreement(4)
        assert report.graph_count == 64
        assert report.discrepancies == ()
        assert report.strongly_chordal_count == report.labelable_count == 61

    def test_five_vertices(self):
        report = mat_sc_agreement(5)
        assert report.discrepancies == ()
        assert report.strongly_chordal_count == 822

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_per_mask_sweep(self, n):
        report = mat_sc_agreement(n)
        assert (report.graph_count, report.strongly_chordal_count,
                report.labelable_count, report.discrepancies) == \
            per_mask_agreement(n)

    def test_class_counts(self):
        # OEIS A000088: graphs on n unlabeled vertices
        assert [mat_sc_agreement(n).class_count for n in range(0, 8)] == \
            [1, 1, 2, 4, 11, 34, 156, 1044]
        assert mat_sc_agreement(4).to_json()["classes"] == 11

    @pytest.mark.parametrize("n", range(0, 7))
    def test_orbit_listing_matches_reference(self, n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert list(enumeration._isomorphism_classes(n, pairs)) == \
            list(reference_isomorphism_classes(n, pairs))

    def test_discrepancy_lists_the_whole_orbit(self, monkeypatch):
        # make the labeling search fail on the class of two edges sharing a
        # vertex only (degrees 0, 1, 1, 2)
        real = _bits.find_mat_labeling

        def fake(n, adj):
            if n == 4 and sorted(a.bit_count() for a in adj) == [0, 1, 1, 2]:
                return None
            return real(n, adj)

        monkeypatch.setattr(_bits, "find_mat_labeling", fake)
        report = mat_sc_agreement(4)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        orbit = [mask for mask in range(64) if mask.bit_count() == 2
                 and len({v for e, pair in enumerate(pairs)
                          if mask >> e & 1 for v in pair}) == 3]
        assert len(orbit) == 12
        assert report.discrepancies == tuple(orbit)
        assert report.graph_count == 64
        assert report.strongly_chordal_count == 61
        assert report.labelable_count == 61 - 12

    def test_orbit_sizes_must_cover_every_graph(self, monkeypatch):
        real = enumeration._isomorphism_classes

        def short(n, pairs):
            for rep, orbit in real(n, pairs):
                yield rep, orbit - {max(orbit)} if len(orbit) > 1 else orbit

        monkeypatch.setattr(enumeration, "_isomorphism_classes", short)
        with pytest.raises(InternalDefectError, match="orbit sizes"):
            mat_sc_agreement(4)

    def test_progress_goes_to_the_package_logger(self, caplog, capsys):
        with caplog.at_level(logging.INFO, logger="matvines"):
            mat_sc_agreement(5)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "matvines"]
        assert messages
        assert messages[-1] == ("agreement sweep n=5: 34 classes decided, "
                                "100% of masks covered")
        assert capsys.readouterr().out == ""

    def test_bounds(self):
        with pytest.raises(ResourceLimitError):
            mat_sc_agreement(8)
        with pytest.raises(GraphInputError):
            mat_sc_agreement(-1)
