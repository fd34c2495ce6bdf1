"""Acceptance suite: one test per criterion, each printing a pass line.

The dimension-8 enumeration takes about 3.5-5 s (2 shared vCPUs, Python 3.11)
and runs only when MATVINES_RUN_L8 is set in the environment.
"""

import itertools
import os
import random

import pytest

from matvines import (VineClass, VinePoset, a047970, are_isomorphic_vines,
                      c_vine, catalan, check_mat_labeling, classify,
                      classify_via_principal_ideals, count_ideals, d_vine,
                      e_formula, embed_in_r_vine,
                      enumerate_mat_labelings_complete, is_mat_simplicial,
                      is_sampling_order, join_and_paths, mat_sc_agreement,
                      omega, psi, random_mat_labeled_graph, root_poset_a,
                      roundtrip_check, truncate)

EXPECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 6, 6: 40, 7: 560}


def _pass(num, text):
    print(f"PASS criterion {num}: {text}")


@pytest.fixture(scope="session")
def reports_by_dim():
    return {dim: enumerate_mat_labelings_complete(dim)
            for dim in range(1, 7)}


@pytest.fixture(scope="session")
def class_counts(reports_by_dim):
    counts = {dim: r.class_count for dim, r in reports_by_dim.items()}
    counts[7] = enumerate_mat_labelings_complete(7).class_count
    return counts


def test_criterion_1_enumeration_sequence(class_counts):
    for dim in range(1, 8):
        assert class_counts[dim] == EXPECTED_CLASS_COUNTS[dim], \
            f"dimension {dim}: got {class_counts[dim]}"
    _pass(1, "class counts for dimensions 1..7 are 1,1,1,2,6,40,560")


@pytest.mark.skipif(not os.environ.get("MATVINES_RUN_L8"),
                    reason="about 3.5-5 s; set MATVINES_RUN_L8=1 to enable")
def test_criterion_1_dimension_eight():
    report = enumerate_mat_labelings_complete(8, allow_large=True)
    assert report.class_count == 17024
    _pass(1, "dimension 8 class count is 17024")


def test_criterion_2_formula_agreement(class_counts):
    for dim in range(1, 8):
        assert e_formula(dim) == class_counts[dim], \
            f"dimension {dim}: formula {e_formula(dim)} vs enumerated " \
            f"{class_counts[dim]}"
    _pass(2, "closed-form count equals the enumerated count for 1..7")


def test_criterion_3_label_count_law(reports_by_dim):
    checked = 0
    for dim in range(1, 7):
        for rep in reports_by_dim[dim].representatives:
            assert check_mat_labeling(rep).ok
            classes = rep.label_classes()
            for k in range(1, dim):
                assert len(classes.get(k, ())) == dim - k, \
                    f"dimension {dim}, label {k}"
            assert sum(len(v) for v in classes.values()) == dim * (dim - 1) // 2
            checked += 1
    assert checked == sum(EXPECTED_CLASS_COUNTS[d] for d in range(1, 7))
    _pass(3, f"label-count law holds on all {checked} enumerated labelings")


def test_criterion_4_roundtrips(reports_by_dim):
    checked = 0
    for dim in range(1, 7):
        for rep in reports_by_dim[dim].representatives:
            assert roundtrip_check(rep).verdict.ok
            assert roundtrip_check(psi(rep)).verdict.ok
            checked += 1
    rng = random.Random(20240)
    for _ in range(500):
        g = random_mat_labeled_graph(rng, rng.randint(1, 10))
        assert roundtrip_check(g).verdict.ok
        checked += 1
    _pass(4, f"round trips hold on {checked} instances (0 failures)")


def test_criterion_5_labelability_equals_strong_chordality():
    report = mat_sc_agreement(7)
    assert report.graph_count == 1 << 21
    assert report.discrepancies == (), \
        f"{len(report.discrepancies)} discrepancies, first at mask " \
        f"{report.discrepancies[0]}"
    _pass(5, f"all 2^21 graphs on 7 vertices agree "
             f"({report.strongly_chordal_count} strongly chordal, "
             f"{report.elapsed_ms / 1000.0:.1f} s)")


def test_criterion_6_catalan_ideals():
    expected = [2, 5, 14, 42, 132, 429, 1430]
    for offset, want in enumerate(expected):
        ell = offset + 2
        got = count_ideals(d_vine(ell - 1), "all")
        assert got == want == catalan(ell), f"dimension {ell - 1}"
    _pass(6, "ideal counts of path vines match the Catalan numbers 2..1430")


def test_criterion_7_star_vine_ideal_report():
    rows = []
    for dim in range(1, 7):
        p = c_vine(dim)
        full = count_ideals(p, "full_support")
        everything = count_ideals(p, "all")
        rows.append((dim, full, everything, a047970(dim)))
    for dim, full, _, formula in rows[:4]:
        assert full == formula, f"dimension {dim}: {full} vs {formula}"
    assert [r[1] for r in rows[:4]] == [1, 2, 5, 14]
    for dim, full, everything, formula in rows:
        aligned = "matches" if full == formula else "DIFFERS FROM"
        print(f"  star vine dim {dim}: full_support={full} {aligned} "
              f"formula={formula}; all={everything}")
    _pass(7, "star-vine full-support ideal counts match the conjectured "
             "sequence for dimensions 1..4; 5 and 6 recorded above")


def test_criterion_8_joining_path_fixture():
    result = join_and_paths(d_vine(4), "1", "4")
    assert result is not None
    assert result.paths == (("1", "2", "3", "4"), ("12", "23", "34"),
                            ("13|2", "24|3"), ("14|23",))
    assert result.join == "14|23"
    from matvines import cond_sets
    assert cond_sets(d_vine(4), result.join)[0] == frozenset(["1", "4"])
    _pass(8, "the four-level joining-path tower for the pair (1, 4) is exact")


def test_criterion_9_root_poset_isomorphism():
    for dim in range(1, 9):
        assert are_isomorphic_vines(d_vine(dim), root_poset_a(dim)), \
            f"dimension {dim}"
    _pass(9, "path vines and type-A root posets are isomorphic for 1..8")


def _all_mat_peos(g):
    orders = []

    def peel(current, suffix):
        if not current.vertices:
            orders.append(tuple(suffix))
            return
        for v in current.vertices:
            if is_mat_simplicial(current, v).ok:
                peel(current.without_vertex(v), [v] + suffix)

    peel(g, [])
    return orders


def test_criterion_10_sampling_orders(reports_by_dim):
    checked_orders = 0
    for dim in range(1, 6):
        for rep in reports_by_dim[dim].representatives:
            p = psi(rep)
            g = omega(p)
            orders = _all_mat_peos(g)
            assert orders, "a valid labeling must admit an elimination order"
            for order in orders:
                assert is_sampling_order(p, order).ok, \
                    f"dimension {dim}, order {order}"
                checked_orders += 1
    # the converse fails: a sampling order need not be an elimination order
    p = truncate(c_vine(4), 3, "lower")
    g = omega(p)
    assert is_sampling_order(p, ("1", "3", "4", "2")).ok
    assert not is_mat_simplicial(g, "2").ok
    assert ("1", "3", "4", "2") not in _all_mat_peos(g)
    _pass(10, f"{checked_orders} elimination orders are sampling orders; "
              f"the non-converse example is reproduced")


def _random_ideal(rng, p, max_nodes):
    keep = set(p.nodes)
    parents = {v: set(p.covered_by[v]) for v in p.nodes}
    while len(keep) > 1 and (len(keep) > max_nodes or rng.random() < 0.45):
        maxima = [v for v in keep if not (parents[v] & keep)]
        keep.discard(rng.choice(sorted(maxima)))
    return VinePoset.build(
        [(v, p.rank_of[v], p.covers_of[v]) for v in p.nodes if v in keep])


def test_criterion_11_ideal_embedding(reports_by_dim):
    rng = random.Random(1177)
    pool = []
    for dim in (4, 5):
        for rep in reports_by_dim[dim].representatives:
            pool.append(psi(rep))
    for _ in range(200):
        base = rng.choice(pool)
        ideal = _random_ideal(rng, base, 12)
        assert len(ideal.nodes) <= 12
        assert classify(ideal).kind >= VineClass.LR_VINE
        target, embedding = embed_in_r_vine(ideal)
        assert classify(target).kind == VineClass.R_VINE
        image = set(embedding.mapping.values())
        for w in target.nodes:
            if any(target.leq(w, x) for x in image):
                assert w in image, "image must be downward closed"
    _pass(11, "200 random ideals embed as ideals of regular vines (0 failures)")


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _graded_posets(max_nodes):
    for n in range(1, max_nodes + 1):
        for comp in _compositions(n):
            levels = []
            t = 0
            for width in comp:
                levels.append([f"n{t + i}" for i in range(width)])
                t += width
            per_level = []
            for i in range(1, len(comp)):
                prev = levels[i - 1]
                subsets = [c for size in range(1, len(prev) + 1)
                           for c in itertools.combinations(prev, size)]
                per_level.append(list(
                    itertools.product(subsets, repeat=len(levels[i]))))
            for assignment in itertools.product(*per_level):
                items = [(v, 1, ()) for v in levels[0]]
                for i, picks in enumerate(assignment, start=1):
                    for v, cover in zip(levels[i], picks):
                        items.append((v, i + 1, cover))
                yield items


def test_criterion_12_classifier_cross_check():
    total = 0
    for items in _graded_posets(8):
        p = VinePoset.build(items)
        total += 1
        assert classify(p).kind == classify_via_principal_ideals(p).kind, \
            f"classifiers disagree on {items}"
    assert total == 266931
    _pass(12, f"both classifiers agree on all {total} graded posets "
              f"with up to 8 nodes")
