"""Classification and structural operations on graded posets."""

import random
import time
from collections import Counter
from functools import reduce
from itertools import chain, combinations
from operator import or_

import pytest

from matvines import (ForestSequence, InternalDefectError, PosetInputError,
                      VineClass, VinePoset, build_standard,
                      c_vine, classify, classify_via_principal_ideals,
                      complete_union, cond_sets, count_ideals, d_vine,
                      enumerate_mat_labelings_complete, extend_to_complete,
                      find_sampling_order, from_forest_sequence, hat,
                      is_sampling_order, iter_ideals, join_and_paths,
                      marginalize, omega, poset_isomorphism, psi,
                      random_mat_labeled_graph, root_poset_a,
                      to_forest_sequence, truncate, union_of)
from matvines import labeled_graph, vine_poset
from matvines._bits import iter_bits
from matvines.vine_poset import structurally_equal, union_vine
from conftest import five_vertex_graph
from test_labeled_graph import glued_mat_graph


def brute_force_ideal_count(p, mode):
    """Powerset oracle for ideal counting."""
    nodes = list(p.nodes)
    total = 0
    for r in range(len(nodes) + 1):
        for subset in combinations(nodes, r):
            chosen = set(subset)
            if not all(set(p.covers_of[v]) <= chosen for v in chosen):
                continue
            # downward closure under covers implies closure under <=
            if mode == "full_support" and not set(p.minimals) <= chosen:
                continue
            total += 1
    return total


def has_cycle(edges):
    """Leaf stripping: a graph has a cycle exactly when some edge survives
    removing the vertices of degree one over and over."""
    edges = set(edges)
    while True:
        degree = Counter(x for e in edges for x in e)
        leaves = {x for x, d in degree.items() if d == 1}
        if not leaves:
            return bool(edges)
        edges = {e for e in edges if not e & leaves}


def brute_force_join(p, x, y):
    uppers = [v for v in p.nodes if p.leq(x, v) and p.leq(y, v)]
    least = [u for u in uppers if all(p.leq(u, w) for w in uppers)]
    return least[0] if least else None


def with_lower_truncations(vines):
    return [t for p in vines for t in [p] + [truncate(p, k, "lower")
                                             for k in range(1, p.rank)]]


def mutated(rng, p):
    """``p`` with one node changed: a cover moved to another node one rank
    down, a third cover added, or the rank shifted.  Covers still point to
    nodes of smaller original rank, so the cover relation stays acyclic."""
    items = {v: [p.rank_of[v], list(p.covers_of[v])] for v in p.nodes}
    v = rng.choice([v for v in p.nodes if p.covers_of[v]])
    rank, covers = items[v]
    others = [u for u in p.levels.get(rank - 1, ()) if u not in covers]
    move = rng.randrange(3)
    if move == 0 and others:
        covers[rng.randrange(len(covers))] = rng.choice(others)
    elif move == 1 and others:
        covers.append(rng.choice(others))
    else:
        items[v][0] = rank + rng.choice((-1, 1))
    return VinePoset.build([(u, r, cs) for u, (r, cs) in items.items()])


def reference_induced_subposet(p, keep):
    """The induced subposet by its definition: ``leq`` on every pair of kept
    nodes, reduced to covers by ``_covers``."""
    keep_set = set(keep)
    kept = [v for v in p.nodes if v in keep_set]
    below = [sum(1 << j for j, u in enumerate(kept) if u != v and p.leq(u, v))
             for v in kept]
    return VinePoset.build(
        [(v, p.rank_of[v], [kept[j] for j in iter_bits(c)])
         for v, c in zip(kept, vine_poset._covers(below))])


def reference_marginalize(p, v):
    """Marginalization by its definition: drop ``v`` and every node whose
    conditioned set, from ``cond_sets``, holds ``v``."""
    drop = {v} | {x for x in p.nodes
                  if p.covers_of[x] and v in cond_sets(p, x)[0]}
    q = reference_induced_subposet(p, [x for x in p.nodes if x not in drop])
    return q, classify(q).kind != VineClass.NOT_GRADED


def oracle_vines():
    """c-, d- and root-poset vines of dimension at most 8 and ``psi`` of
    seeded random graphs, each with its lower truncations."""
    rng = random.Random(24)
    vines = [build(d) for build in (c_vine, d_vine, root_poset_a)
             for d in range(1, 9)]
    vines += [psi(random_mat_labeled_graph(rng, rng.randint(1, 8)))
              for _ in range(30)]
    return with_lower_truncations(vines)


class TestClassify:
    def test_d_vine_is_regular(self):
        c = classify(d_vine(4))
        assert c.kind == VineClass.R_VINE

    def test_two_isolated_minimals_are_locally_regular_only(self):
        p = VinePoset.build([("1", 1, []), ("2", 1, [])])
        assert classify(p).kind == VineClass.LR_VINE

    def test_triple_cover_is_not_a_vine(self):
        p = VinePoset.build([("1", 1, []), ("2", 1, []), ("3", 1, []),
                             ("top", 2, ["1", "2", "3"])])
        c = classify(p)
        assert c.kind == VineClass.NOT_VINE
        assert c.witness.subject == ("top",)

    def test_bad_rank_is_not_graded(self):
        p = VinePoset.build([("1", 2, [])])
        assert classify(p).kind == VineClass.NOT_GRADED

    def test_rank_jump_is_not_graded(self):
        p = VinePoset.build([("1", 1, []), ("2", 1, []), ("top", 3, ["1", "2"])])
        assert classify(p).kind == VineClass.NOT_GRADED

    def test_proximity_failure_is_vine_only(self):
        # two rank-2 nodes over disjoint minimal pairs, covered by a common node
        p = VinePoset.build([
            ("1", 1, []), ("2", 1, []), ("3", 1, []), ("4", 1, []),
            ("a", 2, ["1", "2"]), ("b", 2, ["3", "4"]),
            ("top", 3, ["a", "b"])])
        c = classify(p)
        assert c.kind == VineClass.VINE
        assert c.witness.tag == "Proximity"

    def test_level_cycle_is_not_a_vine(self):
        p = VinePoset.build([
            ("1", 1, []), ("2", 1, []), ("3", 1, []),
            ("a", 2, ["1", "2"]), ("b", 2, ["2", "3"]), ("c", 2, ["1", "3"]),
            ("x", 3, ["a", "b"]), ("y", 3, ["b", "c"]), ("z", 3, ["a", "c"])])
        assert classify(p).kind == VineClass.NOT_VINE

    def test_level_cycle_witness_lies_in_the_lowest_cyclic_level(self):
        # random towers whose levels are arbitrary graphs, not only forests
        rng = random.Random(89)
        cyclic = 0
        for _ in range(400):
            elements = tuple(str(i) for i in range(rng.randint(3, 6)))
            level, forests = elements, []
            while len(level) >= 2 and len(forests) < 4:
                pairs = [frozenset(e) for e in combinations(level, 2)]
                level = tuple(rng.sample(pairs, rng.randint(1, min(len(pairs),
                                                                   len(level) + 1))))
                forests.append(level)
            p = from_forest_sequence(ForestSequence(elements, tuple(forests)))
            c = classify(p)
            ranks = [r for r, f in enumerate(forests, start=1) if has_cycle(f)]
            assert (c.kind == VineClass.NOT_VINE) == bool(ranks)
            if not ranks:
                continue
            cyclic += 1
            cycle = c.witness.cycle
            assert c.witness.message == f"level {ranks[0]} is not a forest"
            assert {p.rank_of[x] for x in cycle} == {ranks[0]}
            assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
            covered = {frozenset(p.covers_of[x]) for x in p.nodes}
            assert all(frozenset(e) in covered
                       for e in zip(cycle, cycle[1:] + cycle[:1]))
        assert cyclic >= 100

    def test_empty_poset_is_vacuously_regular(self):
        assert classify(VinePoset.build([])).kind == VineClass.R_VINE

    def test_cross_classifier_agreement_on_random_posets(self):
        # vines of 9-20 nodes, their truncations, and one-node mutations
        rng = random.Random(17)
        kinds = Counter()
        while sum(kinds.values()) < 500:
            g = random_mat_labeled_graph(rng, rng.randint(4, 8))
            p = psi(extend_to_complete(g) if rng.random() < 0.3 else g)
            if rng.random() < 0.3:
                p = truncate(p, rng.randint(1, p.rank), rng.choice(("lower", "upper")))
            if p.rank > 1 and rng.random() < 0.7:
                p = mutated(rng, p)
            if not 9 <= len(p.nodes) <= 20:
                continue
            kind = classify(p).kind
            assert kind == classify_via_principal_ideals(p).kind
            kinds[kind] += 1
        assert len(kinds) == len(VineClass) and min(kinds.values()) >= 10

    def test_cross_classifier_agreement_on_fixtures(self):
        fixtures = [d_vine(4), c_vine(4), truncate(c_vine(4), 3, "lower"),
                    psi(five_vertex_graph()), VinePoset.build([]),
                    VinePoset.build([("1", 1, []), ("2", 1, [])])]
        for p in fixtures:
            assert classify(p).kind == classify_via_principal_ideals(p).kind


class TestForestSequence:
    def test_single_tree_round_trip(self):
        f = to_forest_sequence(d_vine(2))
        assert f.elements == ("1", "2")
        assert f.forests == ((frozenset({"1", "2"}),),)
        back = from_forest_sequence(f)
        assert classify(back).kind == VineClass.R_VINE
        assert to_forest_sequence(back) == f

    def test_isolated_element(self):
        p = VinePoset.build([("1", 1, [])])
        f = to_forest_sequence(p)
        assert f.forests == ()
        assert from_forest_sequence(f).nodes == ("1",)

    def test_d_vine_round_trip_up_to_renaming(self):
        for dim in range(1, 6):
            p = d_vine(dim)
            f = to_forest_sequence(p)
            back = from_forest_sequence(f)
            assert poset_isomorphism(back, p) is not None
            assert to_forest_sequence(back) == f

    def test_membership_violation_rejected(self):
        from matvines import ForestSequence
        bad = ForestSequence(("1", "2"), ((frozenset({"1", "3"}),),))
        with pytest.raises(PosetInputError):
            from_forest_sequence(bad)


class TestUnionsAndCondSets:
    def test_top_of_d_vine(self):
        p = d_vine(4)
        assert union_of(p, "14|23", 3) == frozenset(["1", "2", "3", "4"])
        conditioned, conditioning = cond_sets(p, "14|23")
        assert conditioned == frozenset(["1", "4"])
        assert conditioning == frozenset(["2", "3"])

    def test_minimal_node_zero_fold(self):
        p = d_vine(3)
        assert union_of(p, "2", 0) == frozenset(["2"])

    def test_five_vertex_conditioned_pair(self):
        p = psi(five_vertex_graph())
        node = next(v for v in p.nodes
                    if p.covers_of[v]
                    and cond_sets(p, v)[0] == frozenset(["v1", "v3"]))
        assert complete_union(p, node) == frozenset(["v1", "v3", "v4"])

    def test_c_vine_rank3_node(self):
        p = c_vine(4)
        conditioned, conditioning = cond_sets(p, "23|1")
        assert conditioned == frozenset(["2", "3"])
        assert conditioning == frozenset(["1"])

    def test_rank2_nodes_have_empty_conditioning(self):
        p = d_vine(4)
        conditioned, conditioning = cond_sets(p, "12")
        assert conditioned == frozenset(["1", "2"])
        assert conditioning == frozenset()

    def test_minimal_rejected(self):
        with pytest.raises(PosetInputError):
            cond_sets(d_vine(3), "1")

    def test_out_of_range_fold(self):
        with pytest.raises(PosetInputError):
            union_of(d_vine(3), "12", 2)

    def test_size_laws_on_locally_regular_vines(self):
        for p in (d_vine(5), c_vine(5), truncate(c_vine(5), 3, "lower"),
                  psi(five_vertex_graph())):
            for v in p.nodes:
                r = p.rank_of[v]
                for k in range(r):
                    assert len(union_of(p, v, k)) == k + 1
                if p.covers_of[v]:
                    conditioned, conditioning = cond_sets(p, v)
                    assert len(conditioned) == 2
                    assert len(conditioning) == r - 2

    def test_distinct_conditioned_sets(self):
        for p in (d_vine(5), c_vine(5), psi(five_vertex_graph())):
            seen = set()
            for v in p.nodes:
                if p.covers_of[v]:
                    key = cond_sets(p, v)[0]
                    assert key not in seen
                    seen.add(key)

    def test_union_inclusion_implies_order(self):
        for p in (d_vine(4), c_vine(4), psi(five_vertex_graph())):
            for a in p.nodes:
                for b in p.nodes:
                    if complete_union(p, a) <= complete_union(p, b):
                        assert p.leq(a, b)


class TestJoinAndPaths:
    def test_d_vine_tower(self):
        result = join_and_paths(d_vine(4), "1", "4")
        assert result.join == "14|23"
        assert result.paths == (("1", "2", "3", "4"), ("12", "23", "34"),
                                ("13|2", "24|3"), ("14|23",))

    def test_adjacent_minimals(self):
        result = join_and_paths(d_vine(4), "2", "3")
        assert result.join == "23"
        assert result.paths == (("2", "3"), ("23",))

    def test_disconnected_minimals(self):
        p = VinePoset.build([("1", 1, []), ("2", 1, [])])
        assert join_and_paths(p, "1", "2") is None

    def test_missing_join_in_truncation(self):
        p = truncate(d_vine(4), 3, "lower")
        assert join_and_paths(p, "1", "4") is None

    def test_agrees_with_brute_force(self):
        rng = random.Random(3)
        posets = [d_vine(5), c_vine(5), truncate(c_vine(5), 3, "lower"),
                  psi(five_vertex_graph())]
        for p in posets:
            for i, j in combinations(p.minimals, 2):
                by_paths = join_and_paths(p, i, j)
                by_bounds = brute_force_join(p, i, j)
                if by_bounds is None:
                    assert by_paths is None
                else:
                    assert by_paths is not None
                    assert by_paths.join == by_bounds
                    conditioned, _ = cond_sets(p, by_bounds)
                    assert conditioned == frozenset([i, j])

    def test_non_minimal_rejected(self):
        with pytest.raises(PosetInputError):
            join_and_paths(d_vine(3), "12", "3")

    def test_agrees_with_omega_and_the_join(self):
        # the path tower and omega's joins are independent routes to the
        # edges of a vine's graph
        rng = random.Random(29)
        vines = [psi(g) for d in range(1, 7)
                 for g in enumerate_mat_labelings_complete(d).representatives]
        vines += [psi(random_mat_labeled_graph(rng, rng.randint(1, 10)))
                  for _ in range(300)]
        vines += with_lower_truncations(
            [build(d) for build in (d_vine, c_vine, root_poset_a)
             for d in range(1, 13)])
        edges = 0
        for p in vines:
            g = omega(p)
            for i, j in combinations(p.minimals, 2):
                found = join_and_paths(p, i, j)
                assert (found is None) == (not g.has_edge(i, j))
                if found is not None:
                    edges += 1
                    assert found.join == p.join(i, j)
                    assert p.rank_of[found.join] == g.label_of(i, j) + 1
                    assert cond_sets(p, found.join)[0] == {i, j}
        assert edges > 5000


class TestTruncate:
    def test_lower_truncation_keeps_ranks(self):
        p = truncate(d_vine(4), 2, "lower")
        assert set(p.nodes) == {"1", "2", "3", "4", "12", "23", "34"}
        assert classify(p).kind == VineClass.LR_VINE

    def test_full_lower_truncation_is_identity(self):
        p = d_vine(4)
        assert structurally_equal(truncate(p, 4, "lower"), p)

    def test_upper_truncation_of_d_vine_is_regular(self):
        p = truncate(d_vine(4), 2, "upper")
        c = classify(p)
        assert c.kind == VineClass.R_VINE
        assert p.rank == 3
        assert p.dimension == 3

    def test_upper_truncation_shifts_ranks(self):
        p = truncate(d_vine(4), 3, "upper")
        assert {p.rank_of[v] for v in p.nodes} == {1, 2}
        assert set(p.minimals) == {"13|2", "24|3"}

    def test_lower_truncations_of_locally_regular_vines_stay_lr(self):
        base = psi(five_vertex_graph())
        for k in range(1, base.rank + 1):
            assert classify(truncate(base, k, "lower")).kind >= VineClass.LR_VINE

    def test_upper_truncations_of_regular_vines_stay_regular(self):
        for k in range(1, 6):
            assert classify(truncate(d_vine(5), k, "upper")).kind == VineClass.R_VINE

    def test_out_of_range(self):
        with pytest.raises(PosetInputError):
            truncate(d_vine(3), 4, "lower")
        with pytest.raises(PosetInputError):
            truncate(d_vine(3), 1, "sideways")


class TestMarginalize:
    def test_c_vine_loses_gradedness(self):
        q, graded = marginalize(c_vine(4), "2")
        assert not graded
        assert "34|12" in q.nodes

    def test_d_vine_stays_regular(self):
        q, graded = marginalize(d_vine(4), "4")
        assert graded
        assert classify(q).kind == VineClass.R_VINE
        assert poset_isomorphism(q, d_vine(3)) is not None

    def test_single_node_vine(self):
        q, graded = marginalize(d_vine(1), "1")
        assert graded
        assert q.nodes == ()

    def test_non_minimal_rejected(self):
        with pytest.raises(PosetInputError):
            marginalize(d_vine(3), "12")

    def test_matches_the_conditioned_set_definition(self):
        cases = 0
        for p in oracle_vines():
            for v in p.minimals:
                # VinePoset equality compares nodes, covers and ranks
                assert marginalize(p, v) == reference_marginalize(p, v)
                cases += 1
        assert cases > 1000


class TestInducedSubposet:
    def test_matches_pairwise_leq(self):
        rng = random.Random(57)
        sources = oracle_vines()
        sources += [mutated(rng, p) for p in sources if p.rank > 1
                    for _ in range(2)]
        assert any(classify(p).kind < VineClass.VINE for p in sources)
        not_closed = 0
        for p in sources:
            for _ in range(3):
                keep = [v for v in p.nodes if rng.random() < 0.6]
                rng.shuffle(keep)
                assert p.induced_subposet(keep) == \
                    reference_induced_subposet(p, keep)
                kept = set(keep)
                not_closed += any(set(p.down_set(v)) - kept for v in kept)
            assert p.induced_subposet(p.nodes) == p
        assert not_closed > len(sources)


class TestSamplingOrders:
    def test_truncated_c_vine_accepts_the_known_order(self):
        p = truncate(c_vine(4), 3, "lower")
        assert is_sampling_order(p, ("1", "3", "4", "2")).ok

    def test_truncated_c_vine_rejects_a_bad_order(self):
        p = truncate(c_vine(4), 3, "lower")
        # removing 1 first strands the rank-3 nodes above missing supports
        verdict = is_sampling_order(p, ("2", "3", "4", "1"))
        assert not verdict.ok

    def test_single_node(self):
        assert is_sampling_order(d_vine(1), ("1",)).ok

    def test_find_always_succeeds_on_lr_vines(self):
        rng = random.Random(9)
        posets = [d_vine(4), c_vine(5), truncate(c_vine(4), 3, "lower"),
                  psi(five_vertex_graph())]
        posets += with_lower_truncations(
            [psi(random_mat_labeled_graph(rng, rng.randint(1, 8))) for _ in range(25)])
        for p in posets:
            assert is_sampling_order(p, find_sampling_order(p)).ok

    def test_find_refuses_when_omega_has_no_elimination_ordering(self, monkeypatch):
        monkeypatch.setattr(labeled_graph, "find_mat_peo", lambda g: None)
        with pytest.raises(InternalDefectError, match="no MAT elimination ordering"):
            find_sampling_order(d_vine(3))

    def test_edge_cases(self):
        assert find_sampling_order(VinePoset.build(())) == ()
        assert find_sampling_order(d_vine(1)) == ("1",)

    @pytest.mark.parametrize("kind", ["c_vine_20", "d_vine_30", "glued_60"])
    def test_found_orders_at_scale(self, kind):
        p = {"c_vine_20": lambda: c_vine(20),
             "d_vine_30": lambda: d_vine(30),
             "glued_60": lambda: psi(glued_mat_graph(random.Random(60), 60))}[kind]()
        start = time.perf_counter()
        order = find_sampling_order(p)
        elapsed = time.perf_counter() - start
        assert is_sampling_order(p, order).ok
        # a search over marginalizations takes 0.4-0.9 s on each of these
        assert elapsed < 0.25, f"{kind}: {elapsed:.3f} s"

    def test_non_permutation_rejected(self):
        with pytest.raises(PosetInputError):
            is_sampling_order(d_vine(3), ("1", "2"))


class TestDownSets:
    def test_long_chain_listed_top_first(self):
        length = 3000
        chain = VinePoset.build([(f"a{i}", i + 1, [f"a{i - 1}"] if i else [])
                                 for i in reversed(range(length))])
        top = f"a{length - 1}"
        assert chain.down_masks[top] == (1 << length) - 1
        assert chain.down_masks["a0"] == 1 << (length - 1)
        assert chain.leq("a0", top) and not chain.leq(top, "a0")


class TestIdeals:
    def test_d_vine3_all(self):
        assert count_ideals(d_vine(3), "all") == 14

    def test_chain_of_three(self):
        chain3 = VinePoset.build([("a", 1, []), ("b", 2, ["a"]), ("c", 3, ["b"])])
        assert count_ideals(chain3, "all") == 4

    def test_chain_longer_than_the_recursion_limit(self):
        length = 1500
        chain = VinePoset.build([(f"a{i}", i + 1, [f"a{i - 1}"] if i else [])
                                 for i in range(length)])
        assert count_ideals(chain, "all") == length + 1
        ideals = list(iter_ideals(chain, "all"))
        assert ideals == [tuple(f"a{i}" for i in range(k))
                          for k in range(length + 1)]

    def test_random_posets_with_random_ranks_match_brute_force(self):
        # ranks are drawn apart from the covers, so most of these posets
        # are not graded and the stored ranks are no linear extension
        rng = random.Random(766)
        for trial in range(120):
            n = trial % 11
            below = []
            for j in range(n):
                below.append(reduce(or_, [below[i] | 1 << i for i in range(j)
                                          if rng.random() < 0.3], 0))
            names = [f"n{i}" for i in rng.sample(range(n), n)]
            rows = [(names[j], rng.randint(1, 4),
                     [names[i] for i in iter_bits(c)])
                    for j, c in enumerate(vine_poset._covers(below))]
            rng.shuffle(rows)
            p = VinePoset.build(rows)
            for mode in ("all", "full_support"):
                ideals = list(iter_ideals(p, mode))
                assert count_ideals(p, mode) == len(ideals) == \
                    len(set(ideals)) == brute_force_ideal_count(p, mode)
                for ideal in ideals:
                    chosen = set(ideal)
                    assert all(set(p.covers_of[v]) <= chosen for v in chosen)
                    if mode == "full_support":
                        assert set(p.minimals) <= chosen

    def test_ranks_against_the_covers(self):
        p = VinePoset.build([("a", 2, []), ("b", 1, ["a"])])
        assert list(iter_ideals(p, "all")) == [(), ("a",), ("a", "b")]
        assert count_ideals(p, "full_support") == 2

    def test_c_vine3_both_modes(self):
        p = c_vine(3)
        assert count_ideals(p, "full_support") == 5
        assert count_ideals(p, "all") == 14

    def test_matches_brute_force(self):
        for p in (d_vine(3), c_vine(3), truncate(c_vine(4), 3, "lower"),
                  VinePoset.build([("1", 1, []), ("2", 1, [])])):
            for mode in ("all", "full_support"):
                assert count_ideals(p, mode) == brute_force_ideal_count(p, mode)

    def test_stream_is_sorted_and_consistent(self):
        p = c_vine(3)
        order = sorted(p.nodes, key=lambda v: (p.rank_of[v], (len(v), v)))
        ideals = list(iter_ideals(p, "all"))
        assert len(ideals) == count_ideals(p, "all")
        assert ideals[0] == ()
        assert len(set(ideals)) == len(ideals)
        vectors = [tuple(int(v in set(ideal)) for v in order) for ideal in ideals]
        assert vectors == sorted(vectors)
        for ideal in ideals:
            chosen = set(ideal)
            assert all(set(p.covers_of[v]) <= chosen for v in chosen)

    def test_every_ideal_of_an_lr_vine_is_lr(self):
        p = d_vine(4)
        for ideal in iter_ideals(p, "all"):
            sub = VinePoset.build(
                [(v, p.rank_of[v], p.covers_of[v]) for v in ideal])
            assert classify(sub).kind >= VineClass.LR_VINE

    def test_principal_ideals_of_lr_vines_are_regular(self):
        p = psi(five_vertex_graph())
        for v in p.nodes:
            sub = VinePoset.build(
                [(u, p.rank_of[u], p.covers_of[u]) for u in p.down_set(v)])
            assert classify(sub).kind == VineClass.R_VINE


class TestBuilders:
    def test_d_vine4_matches_figure(self):
        p = d_vine(4)
        assert set(p.nodes) == {"1", "2", "3", "4", "12", "23", "34",
                                "13|2", "24|3", "14|23"}
        assert set(p.covers_of["13|2"]) == {"12", "23"}
        assert set(p.covers_of["14|23"]) == {"13|2", "24|3"}

    def test_c_vine4_matches_figure(self):
        p = c_vine(4)
        assert set(p.nodes) == {"1", "2", "3", "4", "12", "13", "14",
                                "23|1", "24|1", "34|12"}
        assert set(p.covers_of["34|12"]) == {"23|1", "24|1"}

    def test_dimension_one_agreement(self):
        assert structurally_equal(c_vine(1), d_vine(1))
        assert d_vine(1).nodes == ("1",)

    def test_root_poset_is_isomorphic_to_the_path_vine(self):
        for dim in range(1, 6):
            iso = poset_isomorphism(root_poset_a(dim), d_vine(dim))
            assert iso is not None

    def test_root_poset_explicit_map(self):
        # the complete-union map realizes the isomorphism explicitly
        dim = 4
        p = d_vine(dim)
        r = root_poset_a(dim)
        mapping = {}
        for v in p.nodes:
            coords = sorted(int(x) for x in complete_union(p, v))
            mapping[v] = "a" + "+a".join(str(c) for c in coords)
        assert set(mapping.values()) == set(r.nodes)
        for a in p.nodes:
            for b in p.nodes:
                assert p.leq(a, b) == r.leq(mapping[a], mapping[b])

    def test_root_poset_node_order(self):
        # by height, then the later start first
        assert root_poset_a(3).nodes == ("a3", "a2", "a1", "a2+a3", "a1+a2",
                                         "a1+a2+a3")
        r = root_poset_a(6)
        starts = [(r.rank_of[v], -int(v[1:].split("+")[0])) for v in r.nodes]
        assert starts == sorted(starts) and len(r.nodes) == 21

    def test_kind_dispatch_and_bounds(self):
        assert structurally_equal(build_standard("d_vine", 3), d_vine(3))
        with pytest.raises(PosetInputError):
            build_standard("d_vine", 0)
        with pytest.raises(PosetInputError):
            build_standard("mystery", 3)

    def test_ranks_must_be_integers(self):
        for rank in ("x", "1", 1.7, 1.0, True, None):
            with pytest.raises(PosetInputError):
                VinePoset.build([("1", rank, [])])
        assert VinePoset.build([("1", 1, [])]).ranks == (1,)

    def test_regular_vine_level_sizes(self):
        for dim in range(1, 7):
            for p in (d_vine(dim), c_vine(dim)):
                assert len(p.nodes) == dim * (dim + 1) // 2
                for level in range(1, dim + 1):
                    assert len(p.levels[level]) == dim + 1 - level


def naive_covers(nodes, lt):
    """The cover relation straight from its definition: u is covered by v
    when u < v and no w lies strictly between them."""
    return {v: {u for u in nodes if lt(u, v)
                and not any(lt(u, w) and lt(w, v) for w in nodes)}
            for v in nodes}


def cover_sources():
    vines = [d_vine(d) for d in range(1, 7)] + [c_vine(d) for d in range(1, 7)]
    vines += [psi(random_mat_labeled_graph(random.Random(s), 3 + s % 6))
              for s in range(16)]
    return vines


@pytest.mark.parametrize("kind", ["root_poset_a", "d_vine", "c_vine", "hat",
                                  "induced_subposet"])
def test_covers_match_the_naive_definition(kind):
    if kind in ("d_vine", "c_vine"):
        for dim in range(1, 11):
            names = [str(t) for t in range(1, dim + 1)]
            if kind == "d_vine":   # the unions are the intervals
                p = d_vine(dim)
                family = {frozenset(names[i:j])
                          for i in range(dim) for j in range(i + 1, dim + 1)}
            else:   # the first k elements plus one later element
                p = c_vine(dim)
                family = {frozenset(names[:k] + [x])
                          for k in range(dim) for x in names[k:]}
            union = {v: complete_union(p, v) for v in p.nodes}
            assert sorted(map(sorted, union.values())) == \
                sorted(map(sorted, family))
            expected = naive_covers(p.nodes, lambda u, v: union[u] < union[v])
            assert {v: set(p.covers_of[v]) for v in p.nodes} == expected
            assert all(p.rank_of[v] == len(union[v]) for v in p.nodes)
        return
    if kind == "root_poset_a":
        for dim in range(1, 9):
            r = root_poset_a(dim)
            support = {v: frozenset(int(t) for t in v[1:].split("+a"))
                       for v in r.nodes}
            assert set(support.values()) == {
                frozenset(range(i, j + 1))
                for i in range(1, dim + 1) for j in range(i, dim + 1)}
            assert all(r.rank_of[v] == len(support[v]) for v in r.nodes)
            # componentwise order on 0/1 coefficient vectors is inclusion
            expected = naive_covers(r.nodes, lambda u, v: support[u] < support[v])
            assert {v: set(r.covers_of[v]) for v in r.nodes} == expected
        return
    rng = random.Random(31)
    for p in cover_sources():
        if kind == "hat":
            h = hat(p)
            union = {v: complete_union(p, v) for v in p.nodes}
            expected = naive_covers(list(union.values()), lambda s, t: s < t)
            image = {v: frozenset(u for u in h.down_set(v) if u in h.minimals)
                     for v in h.nodes}
            assert sorted(map(sorted, image.values())) == \
                sorted(map(sorted, union.values()))
            assert {image[v]: {image[u] for u in h.covers_of[v]}
                    for v in h.nodes} == expected
            assert all(h.rank_of[v] == len(image[v]) for v in h.nodes)
            continue
        for _ in range(3):
            keep = [v for v in p.nodes if rng.random() < 0.6]
            q = p.induced_subposet(keep)
            assert q.nodes == tuple(keep)
            expected = naive_covers(keep, lambda u, v: u != v and p.leq(u, v))
            assert {v: set(q.covers_of[v]) for v in q.nodes} == expected
            assert all(q.rank_of[v] == p.rank_of[v] for v in keep)


class TestUnionVine:
    def test_refuses_a_repeated_union(self):
        ab = frozenset("ab")
        with pytest.raises(InternalDefectError, match="given twice"):
            union_vine("ab", [(ab, ab, frozenset()), (ab, ab, frozenset())])

    def test_refuses_a_missing_child(self):
        abc = frozenset("abc")
        with pytest.raises(InternalDefectError, match=r"\['b', 'c'\] is neither"):
            union_vine("abc", [(abc, frozenset("ac"), frozenset("b"))])


class TestHat:
    def test_d_vine_nodes_are_their_unions(self):
        p = d_vine(4)
        assert structurally_equal(hat(p), p)

    def test_single_node(self):
        p = d_vine(1)
        assert hat(p).nodes == ("1",)

    def test_idempotent_up_to_isomorphism(self):
        p = psi(five_vertex_graph())
        h = hat(p)
        assert poset_isomorphism(hat(h), h) is not None
