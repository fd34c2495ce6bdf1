"""Conversions between graphs and vines, lifting, round trips, embedding,
and the pushout check."""

import ast
import random
from itertools import combinations, combinations_with_replacement
from typing import Iterator

import pytest

from matvines import (GraphMorphism, InternalDefectError, LabeledGraph,
                      MorphismError, PreconditionError, Verdict, VineClass,
                      c_vine, check_mat_labeling, check_pushout, classify,
                      classify_via_principal_ideals, complete_union, cond_sets,
                      d_vine, embed_in_r_vine, extend_to_complete, glue,
                      lift_graph_morphism, lift_poset_morphism,
                      maximal_cliques, merge_complete, omega,
                      poset_isomorphism, psi, random_mat_labeled_graph,
                      root_poset_a, roundtrip_check, truncate)
from matvines import _bits, functors
from matvines.functors import (PosetMorphism, _check_ideal_embedding,
                               validate_poset_morphism)
from matvines.vine_poset import VinePoset
from conftest import seven_vertex_graph
from test_vine_poset import brute_force_join


def random_graded_poset(rng, n):
    """Random poset on n nodes: a node of rank r > 1 covers one to three
    nodes of rank r - 1 (not necessarily a vine)."""
    items, by_rank = [], {}
    for i in range(n):
        r = min(rng.randint(1, 4), len(by_rank) + 1)
        lower = by_rank.get(r - 1, [])
        items.append((f"n{i}", r, rng.sample(lower, min(len(lower), rng.randint(1, 3)))))
        by_rank.setdefault(r, []).append(f"n{i}")
    return VinePoset.build(items)


def poset_pool(rng):
    """Vines of random graphs, their lower truncations, type-A root posets
    and random graded posets."""
    vines = [psi(random_mat_labeled_graph(rng, rng.randint(1, 7))) for _ in range(30)]
    pool = vines + [truncate(p, k, "lower") for p in vines[:10] for k in range(1, p.rank)]
    pool += [root_poset_a(d) for d in range(1, 6)]
    return pool + [random_graded_poset(rng, rng.randint(1, 9)) for _ in range(40)]


def reference_verdict(m):
    """First failed property of a poset map by pairwise comparison, or None."""
    p, q, f = m.source, m.target, m.mapping
    if not all(q.leq(f[a], f[b]) for a in p.nodes for b in p.nodes if p.leq(a, b)):
        return "order"
    if any(p.rank_of[v] != q.rank_of[f[v]] for v in p.nodes):
        return "rank"
    for a, b in combinations(p.nodes, 2):
        j = brute_force_join(p, a, b)
        if j is not None and brute_force_join(q, f[a], f[b]) != f[j]:
            return "join"
    return None


def enumerate_homomorphisms(src: LabeledGraph, dst: LabeledGraph
                            ) -> Iterator[dict[str, str]]:
    """All label-preserving vertex maps (not necessarily injective)."""
    order = list(src.vertices)

    def rec(t: int, partial: dict[str, str]) -> Iterator[dict[str, str]]:
        if t == len(order):
            yield dict(partial)
            return
        v = order[t]
        for cand in dst.vertices:
            ok = True
            for u, k in src.adjacency[v].items():
                if u in partial:
                    iu = partial[u]
                    if iu == cand or not dst.has_edge(iu, cand) \
                            or dst.label_of(iu, cand) != k:
                        ok = False
                        break
            if ok:
                partial[v] = cand
                yield from rec(t + 1, partial)
                del partial[v]

    yield from rec(0, {})


def reference_check_pushout(g1, g2, overlap, glued, targets=()):
    """The pushout check that enumerated every map out of the glued graph to
    count the mediators of each cocone; the oracle for check_pushout."""
    shared = set(g1.vertices) & set(g2.vertices)
    if set(overlap.vertices) != shared:
        raise PreconditionError("overlap vertices must be the shared vertices")
    for g, tag in ((g1, "first"), (g2, "second")):
        if overlap.labels != {e: k for e, k in g.restrict(shared).labels.items()}:
            raise PreconditionError(f"overlap does not match the {tag} input")
    expected = glue(g1, g2)
    if (set(glued.vertices) != set(expected.vertices)
            or glued.labels != expected.labels):
        return Verdict.failed("Commutation",
                              message="glued graph is not the union of the pieces")
    for t_index, target in enumerate(targets):
        homs1 = list(enumerate_homomorphisms(g1, target))
        homs2 = list(enumerate_homomorphisms(g2, target))
        all_glued_homs = list(enumerate_homomorphisms(glued, target))
        for h1 in homs1:
            for h2 in homs2:
                if any(h1[v] != h2[v] for v in shared):
                    continue
                mediators = [
                    theta for theta in all_glued_homs
                    if all(theta[v] == h1[v] for v in g1.vertices)
                    and all(theta[v] == h2[v] for v in g2.vertices)]
                if len(mediators) != 1:
                    cocone = {**{f"1/{v}": h1[v] for v in g1.vertices},
                              **{f"2/{v}": h2[v] for v in g2.vertices}}
                    return Verdict.failed(
                        "UniversalProperty",
                        message=f"cocone {cocone} into target #{t_index} "
                                f"admits {len(mediators)} mediating maps")
    return Verdict.passed()


class TestPsi:
    def test_path_k4_gives_the_ten_node_vine(self, d4_graph):
        p = psi(d4_graph)
        assert len(p.nodes) == 10
        assert classify(p).kind == VineClass.R_VINE
        from matvines import d_vine
        assert poset_isomorphism(p, d_vine(4)) is not None

    def test_single_vertex(self):
        p = psi(LabeledGraph.build(["a"], []))
        assert p.nodes == ("a",)

    def test_five_vertex_example(self, lrv_graph):
        p = psi(lrv_graph)
        assert len(p.nodes) == 12
        assert classify(p).kind == VineClass.LR_VINE

    def test_node_count_is_vertices_plus_edges(self):
        rng = random.Random(41)
        for _ in range(15):
            g = random_mat_labeled_graph(rng, rng.randint(1, 9))
            p = psi(g)
            assert len(p.nodes) == len(g.vertices) + len(g.edges)
            assert classify(p).kind == classify_via_principal_ideals(p).kind

    def test_maximal_nodes_are_the_maximal_cliques(self):
        rng = random.Random(43)
        for _ in range(15):
            g = random_mat_labeled_graph(rng, rng.randint(2, 10))
            p = psi(g)
            tops = {frozenset(complete_union(p, v)) for v in p.maximals}
            assert tops == set(maximal_cliques(g))

    def test_conditioned_set_is_the_generating_edge(self, d4_graph):
        p = psi(d4_graph)
        pairs = {cond_sets(p, v)[0] for v in p.nodes if p.covers_of[v]}
        assert pairs == {frozenset(e) for e in d4_graph.edges}

    def test_rejects_invalid_labeling(self):
        bad = LabeledGraph.build(["a", "b"], [("a", "b", 2)])
        with pytest.raises(PreconditionError):
            psi(bad)


class TestOmega:
    def test_d_vine(self):
        from matvines import d_vine
        g = omega(d_vine(4))
        assert g.labels == {("1", "2"): 1, ("2", "3"): 1, ("3", "4"): 1,
                            ("1", "3"): 2, ("2", "4"): 2, ("1", "4"): 3}

    def test_c_vine(self):
        from matvines import c_vine
        g = omega(c_vine(4))
        assert g.labels == {("1", "2"): 1, ("1", "3"): 1, ("1", "4"): 1,
                            ("2", "3"): 2, ("2", "4"): 2, ("3", "4"): 3}

    def test_single_node(self):
        from matvines import d_vine
        g = omega(d_vine(1))
        assert g.vertices == ("1",)
        assert g.edges == ()

    def test_edge_count_is_the_non_minimal_count(self, lrv_graph):
        p = psi(lrv_graph)
        g = omega(p)
        assert len(g.edges) == sum(1 for v in p.nodes if p.covers_of[v])

    def test_rejects_non_lr_input(self):
        p = VinePoset.build([
            ("1", 1, []), ("2", 1, []), ("3", 1, []), ("4", 1, []),
            ("a", 2, ["1", "2"]), ("b", 2, ["3", "4"]),
            ("top", 3, ["a", "b"])])
        with pytest.raises(PreconditionError):
            omega(p)


class TestRoundtrip:
    def test_path_k4(self, d4_graph):
        result = roundtrip_check(d4_graph)
        assert result.verdict.ok
        assert result.witness == {v: v for v in d4_graph.vertices}

    def test_empty_graph(self):
        assert roundtrip_check(LabeledGraph.build([], [])).verdict.ok

    def test_isolated_vertex_survives(self):
        g = LabeledGraph.build(["a", "b", "z"], [("a", "b", 1)])
        result = roundtrip_check(g)
        assert result.verdict.ok
        assert result.witness["z"] == "z"

    def test_five_vertex_vine(self, lrv_graph):
        p = psi(lrv_graph)
        result = roundtrip_check(p)
        assert result.verdict.ok
        assert set(result.witness) == set(p.nodes)

    def test_standard_vines(self):
        from matvines import c_vine, d_vine
        for p in (d_vine(5), c_vine(5), truncate(c_vine(4), 3, "lower")):
            assert roundtrip_check(p).verdict.ok

    def test_standard_vines_at_dimension_twelve(self):
        # the pair {1, 2} displays as "12", which is also element 12
        from matvines import c_vine, d_vine
        for p in (d_vine(12), c_vine(12)):
            assert classify(p).kind == VineClass.R_VINE
            assert "12#2" in p.rank_of
            assert roundtrip_check(p).verdict.ok

    def test_random_graphs(self):
        rng = random.Random(101)
        for _ in range(20):
            g = random_mat_labeled_graph(rng, rng.randint(1, 9))
            assert roundtrip_check(g).verdict.ok

    def test_union_map_that_breaks_order_names_a_pair(self, monkeypatch):
        # swapping the complete unions of 1 and 3 keeps the union map a
        # bijection onto the reconstructed vine, but 1 < 12 while 3 is not
        # below the union {1, 2}
        swap = {frozenset("1"): frozenset("3"), frozenset("3"): frozenset("1")}
        union = functors.complete_union
        monkeypatch.setattr(functors, "complete_union",
                            lambda p, v: swap.get(union(p, v), union(p, v)))
        result = roundtrip_check(d_vine(3))
        assert not result.verdict.ok
        assert result.verdict.violation.message == "order not preserved on ('1', '12')"


class TestUpperTruncationOperation:
    def test_seven_vertex_example(self):
        # dropping the bottom rank of the vine induces a new valid labeled
        # graph on the old rank-2 nodes
        g = seven_vertex_graph()
        p = psi(g)
        assert len(p.nodes) == 20
        up = truncate(p, 2, "upper")
        assert classify(up).kind == VineClass.LR_VINE
        h = omega(up)
        assert check_mat_labeling(h).ok
        assert h.labels == {
            ("v1,v4", "v2,v4"): 2, ("v1,v4", "v3,v4"): 1,
            ("v2,v4", "v3,v4"): 1, ("v2,v4", "v4,v5"): 2,
            ("v3,v4", "v4,v5"): 1, ("v4,v5", "v5,v6"): 1,
            ("v5,v6", "v5,v7"): 1}


class TestLifts:
    def test_identity_lifts_to_identity(self, d4_graph):
        morphism = lift_graph_morphism(
            GraphMorphism(d4_graph, d4_graph, {v: v for v in d4_graph.vertices}))
        assert morphism.rank_preserving and morphism.join_preserving
        assert all(morphism.mapping[v] == v for v in morphism.source.nodes)

    def test_subgraph_embedding_lifts(self, lrv_graph):
        completed = extend_to_complete(lrv_graph)
        morphism = lift_graph_morphism(
            GraphMorphism(lrv_graph, completed,
                          {v: v for v in lrv_graph.vertices}))
        assert morphism.rank_preserving and morphism.join_preserving
        assert len(set(morphism.mapping.values())) == len(morphism.source.nodes)

    def test_folding_map_lifts(self):
        # non-injective: two disjoint labeled edges fold onto one
        src = LabeledGraph.build(["a", "b", "c", "d"],
                                 [("a", "b", 1), ("c", "d", 1)])
        dst = LabeledGraph.build(["x", "y"], [("x", "y", 1)])
        morphism = lift_graph_morphism(GraphMorphism(
            src, dst, {"a": "x", "b": "y", "c": "x", "d": "y"}))
        assert morphism.rank_preserving and morphism.join_preserving
        assert len(set(morphism.mapping.values())) == 3

    def test_label_changing_map_is_rejected(self, d4_graph):
        single = LabeledGraph.build(["a", "b"], [("a", "b", 1)])
        with pytest.raises(MorphismError):
            lift_graph_morphism(
                GraphMorphism(single, d4_graph, {"a": "v1", "b": "v3"}))

    def test_poset_lift_restricts_to_minimals(self, lrv_graph):
        p = psi(lrv_graph)
        target, embedding = embed_in_r_vine(p)
        gm = lift_poset_morphism(embedding)
        assert set(gm.mapping) == set(p.minimals)

    def test_order_breaking_map_is_rejected(self):
        from matvines import d_vine
        from matvines.functors import PosetMorphism, validate_poset_morphism
        p = d_vine(2)
        mapping = {"1": "2", "2": "1", "12": "12"}
        validate_poset_morphism(PosetMorphism(p, p, mapping))  # swap is fine
        bad = {"1": "12", "2": "1", "12": "2"}
        with pytest.raises(MorphismError):
            validate_poset_morphism(PosetMorphism(p, p, bad))


class TestValidatePosetMorphism:
    def test_order_broken_below_one_node(self):
        # ranks are kept; only the down-set of c leaves the down-set of its image
        p = VinePoset.build([("a", 1, []), ("b", 1, []), ("c", 2, ["a", "b"])])
        q = VinePoset.build([("x", 1, []), ("y", 1, []), ("z", 1, []),
                             ("w", 2, ["x", "z"])])
        m = PosetMorphism(p, q, {"a": "x", "b": "y", "c": "w"})
        with pytest.raises(MorphismError, match=r"order violated on pair \('b', 'c'\)"):
            validate_poset_morphism(m)

    def test_rank_broken_only(self):
        p = VinePoset.build([("a", 1, []), ("b", 2, ["a"])])
        q = VinePoset.build([("x", 1, []), ("y", 2, ["x"]), ("z", 3, ["y"])])
        assert validate_poset_morphism(PosetMorphism(p, q, {"a": "x", "b": "y"}))
        with pytest.raises(MorphismError, match="rank violated at node 'b'"):
            validate_poset_morphism(PosetMorphism(p, q, {"a": "x", "b": "z"}))

    def test_join_broken_only(self):
        # the identity is an injective map onto an ideal, yet a and b have
        # no join in the target: join preservation is a separate test
        p = VinePoset.build([("a", 1, []), ("b", 1, []), ("j", 2, ["a", "b"])])
        q = VinePoset.build([("a", 1, []), ("b", 1, []), ("j", 2, ["a", "b"]),
                             ("k", 2, ["a", "b"])])
        identity = {v: v for v in p.nodes}
        _check_ideal_embedding(p, q, identity)
        with pytest.raises(MorphismError, match=r"join violated on pair \('a', 'b'\)"):
            validate_poset_morphism(PosetMorphism(p, q, identity))

    def test_accepts_the_folding_lift(self):
        src = LabeledGraph.build(["a", "b", "c", "d"],
                                 [("a", "b", 1), ("c", "d", 1)])
        dst = LabeledGraph.build(["x", "y"], [("x", "y", 1)])
        lifted = lift_graph_morphism(GraphMorphism(
            src, dst, {"a": "x", "b": "y", "c": "x", "d": "y"}))
        checked = validate_poset_morphism(
            PosetMorphism(lifted.source, lifted.target, lifted.mapping))
        assert checked.rank_preserving and checked.join_preserving
        assert checked.mapping == lifted.mapping

    def test_random_maps_match_pairwise_checks(self):
        rng = random.Random(29)
        pool = poset_pool(rng)
        outcomes = {}
        for _ in range(1500):
            p = rng.choice(pool)
            if rng.random() < 0.5:
                q, f = p, {v: v for v in p.nodes}
                for _ in range(rng.randint(0, 2)):
                    a, b = rng.choice(p.nodes), rng.choice(p.nodes)
                    f[a], f[b] = f[b], f[a]
            else:
                q = rng.choice(pool)
                f = {v: rng.choice([w for w in q.nodes if q.rank_of[w] == p.rank_of[v]]
                                   or q.nodes) for v in p.nodes}
            m = PosetMorphism(p, q, f)
            expected = reference_verdict(m)
            outcomes[expected] = outcomes.get(expected, 0) + 1
            if expected is None:
                assert validate_poset_morphism(m).join_preserving
                continue
            with pytest.raises(MorphismError, match=f"^{expected} violated") as err:
                validate_poset_morphism(m)
            if expected == "order":
                a, b = ast.literal_eval(str(err.value).rpartition(" on pair ")[2])
                assert p.leq(a, b) and not q.leq(f[a], f[b])
        assert min(outcomes.values()) >= 20 and len(outcomes) == 4


class TestJoin:
    def test_matches_brute_force(self):
        rng = random.Random(31)
        missing = 0
        for p in poset_pool(rng):
            for x, y in combinations_with_replacement(p.nodes, 2):
                j = p.join(x, y)
                assert j == brute_force_join(p, x, y)
                assert bool(p.up_masks[x] >> p.index[y] & 1) == p.leq(x, y)
                missing += j is None
        assert missing > 0


class TestCheckIdealEmbedding:
    def test_accepts_the_embedding_of_a_vine(self, lrv_graph):
        target, morphism = embed_in_r_vine(psi(lrv_graph))
        _check_ideal_embedding(morphism.source, target, morphism.mapping)

    def test_refuses_a_non_injective_map(self):
        # f(↓v) = ↓f(v) holds at both nodes; only injectivity fails
        p = VinePoset.build([("a", 1, []), ("b", 1, [])])
        q = VinePoset.build([("x", 1, [])])
        with pytest.raises(InternalDefectError, match="not injective"):
            _check_ideal_embedding(p, q, {"a": "x", "b": "x"})

    def test_refuses_an_image_that_is_not_an_ideal(self):
        p = VinePoset.build([("a", 1, []), ("b", 1, []), ("c", 2, ["a", "b"])])
        q = VinePoset.build([("a", 1, []), ("b", 1, []), ("z", 1, []),
                             ("c", 2, ["a", "b", "z"])])
        with pytest.raises(InternalDefectError, match="onto an ideal"):
            _check_ideal_embedding(p, q, {v: v for v in p.nodes})

    def test_refuses_a_map_that_only_preserves_order(self):
        p = VinePoset.build([("a", 1, []), ("b", 2, [])])
        q = VinePoset.build([("a", 1, []), ("b", 2, ["a"])])
        with pytest.raises(InternalDefectError, match="onto an ideal"):
            _check_ideal_embedding(p, q, {v: v for v in p.nodes})


class TestEmbedInRVine:
    def test_five_vertex_example(self, lrv_graph):
        p = psi(lrv_graph)
        target, embedding = embed_in_r_vine(p)
        assert classify(target).kind == VineClass.R_VINE
        assert len(target.nodes) == 15

    def test_regular_vine_embeds_onto_itself(self):
        from matvines import d_vine
        p = d_vine(4)
        target, embedding = embed_in_r_vine(p)
        assert len(target.nodes) == len(p.nodes)
        assert poset_isomorphism(target, p) is not None

    def test_two_isolated_minimals(self):
        p = VinePoset.build([("1", 1, []), ("2", 1, [])])
        target, embedding = embed_in_r_vine(p)
        assert len(target.nodes) == 3
        assert classify(target).kind == VineClass.R_VINE


class TestCheckPushout:
    def test_two_edges_glued_over_a_vertex(self):
        g1 = LabeledGraph.build(["a", "b"], [("a", "b", 1)])
        g2 = LabeledGraph.build(["b", "c"], [("b", "c", 1)])
        overlap = LabeledGraph.build(["b"], [])
        assert check_pushout(g1, g2, overlap, glue(g1, g2)).ok

    def test_trivial_square(self, d4_graph):
        assert check_pushout(d4_graph, d4_graph, d4_graph, d4_graph).ok

    def test_wrong_glued_graph_fails_commutation(self):
        g1 = LabeledGraph.build(["a", "b"], [("a", "b", 1)])
        g2 = LabeledGraph.build(["b", "c"], [("b", "c", 1)])
        overlap = LabeledGraph.build(["b"], [])
        bad = LabeledGraph.build(["a", "b", "c"], [("a", "b", 1)])
        verdict = check_pushout(g1, g2, overlap, bad)
        assert not verdict.ok
        assert verdict.violation.tag == "Commutation"

    def test_matches_the_glued_map_enumeration(self):
        rng = random.Random(23)
        graphs = [random_mat_labeled_graph(rng, rng.randint(1, 5)) for _ in range(30)]
        tags = []
        while len(tags) < 60:
            g = rng.choice(graphs)
            vs = list(g.vertices)
            a = set(rng.sample(vs, rng.randint(1, len(vs))))
            b = set(rng.sample(vs, rng.randint(1, len(vs)))) | (set(vs) - a)
            g1, g2, overlap = g.restrict(a), g.restrict(b), g.restrict(a & b)
            try:
                glued = glue(g1, g2)
            except PreconditionError:
                continue
            glued = glued if rng.random() < 0.8 else g
            targets = rng.sample(graphs, 2) + [extend_to_complete(g)]
            verdict = check_pushout(g1, g2, overlap, glued)
            assert verdict == reference_check_pushout(g1, g2, overlap, glued, targets)
            tags.append(verdict.violation.tag if verdict.violation else "ok")
        assert "Commutation" in tags and tags.count("ok") > 30

    def test_answers_without_listing_maps(self, d4_graph):
        g1 = d4_graph.restrict(["v1", "v2", "v3"])
        g2 = d4_graph.restrict(["v2", "v3", "v4"])
        overlap = d4_graph.restrict(["v2", "v3"])
        assert check_pushout(g1, g2, overlap, glue(g1, g2)).ok

    def test_homomorphism_enumeration_is_label_preserving(self, d4_graph):
        single = LabeledGraph.build(["x", "y"], [("x", "y", 2)])
        homs = list(enumerate_homomorphisms(single, d4_graph))
        images = {frozenset((h["x"], h["y"])) for h in homs}
        assert images == {frozenset(("v1", "v3")), frozenset(("v2", "v4"))}
        assert len(homs) == 4


def test_each_graph_is_validated_once(monkeypatch):
    """The MAT verdict is kept on the frozen graph, so the labeling kernel
    runs once per graph however many steps check it."""
    calls = []
    kernel = _bits.mat_violation
    monkeypatch.setattr(_bits, "mat_violation",
                        lambda *args: calls.append(1) or kernel(*args))

    def kernel_runs(f):
        calls.clear()
        f()
        return len(calls)

    g1 = LabeledGraph.build("abc", [("a", "b", 1), ("b", "c", 1), ("a", "c", 2)])
    g2 = LabeledGraph.build("bcd", [("b", "c", 1), ("c", "d", 1), ("b", "d", 2)])
    # g1, g2, their overlap, the glued graph, the completed graph
    assert kernel_runs(lambda: merge_complete(g1, g2)) == 5
    # the vine's graph and its completion
    assert kernel_runs(lambda: embed_in_r_vine(d_vine(4))) == 2
    # the vine's graph only
    assert kernel_runs(lambda: roundtrip_check(c_vine(4))) == 1
    g = omega(c_vine(4))   # omega has checked its output
    assert kernel_runs(lambda: check_mat_labeling(g)) == 0
