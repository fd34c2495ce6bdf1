"""Conversions between graphs and vines, lifting, round trips, embedding,
and the pushout check."""

import random

import pytest

from matvines import (GraphMorphism, LabeledGraph, MorphismError,
                      PreconditionError, VineClass, check_mat_labeling,
                      check_pushout, classify, classify_via_principal_ideals,
                      complete_union, cond_sets, embed_in_r_vine,
                      extend_to_complete, glue, lift_graph_morphism,
                      lift_poset_morphism, maximal_cliques, omega,
                      poset_isomorphism, psi, random_mat_labeled_graph,
                      roundtrip_check, truncate)
from matvines.functors import enumerate_homomorphisms
from matvines.vine_poset import VinePoset
from conftest import seven_vertex_graph


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
        glued = glue(g1, g2)
        k3 = extend_to_complete(glued)
        assert check_pushout(g1, g2, overlap, glued, targets=[k3]).ok

    def test_trivial_square(self, d4_graph):
        verdict = check_pushout(d4_graph, d4_graph, d4_graph, d4_graph,
                                targets=[d4_graph])
        assert verdict.ok

    def test_wrong_glued_graph_fails_commutation(self):
        g1 = LabeledGraph.build(["a", "b"], [("a", "b", 1)])
        g2 = LabeledGraph.build(["b", "c"], [("b", "c", 1)])
        overlap = LabeledGraph.build(["b"], [])
        bad = LabeledGraph.build(["a", "b", "c"], [("a", "b", 1)])
        verdict = check_pushout(g1, g2, overlap, bad)
        assert not verdict.ok
        assert verdict.violation.tag == "Commutation"

    def test_homomorphism_enumeration_is_label_preserving(self, d4_graph):
        single = LabeledGraph.build(["x", "y"], [("x", "y", 2)])
        homs = list(enumerate_homomorphisms(single, d4_graph))
        images = {frozenset((h["x"], h["y"])) for h in homs}
        assert images == {frozenset(("v1", "v3")), frozenset(("v2", "v4"))}
        assert len(homs) == 4
