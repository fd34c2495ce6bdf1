"""Canonical forms, isomorphism, the enumeration engine, and the counting
formulas."""

import logging
import random

import pytest

from matvines import (GraphInputError, InternalDefectError, LabeledGraph,
                      ResourceLimitError, _bits, enumeration,
                      a047970, are_isomorphic, are_isomorphic_vines,
                      canonical_form, catalan, e_formula,
                      enumerate_mat_labelings_complete, check_mat_labeling,
                      mat_sc_agreement, poset_isomorphism, psi,
                      random_mat_labeled_graph)
from matvines.enumeration import representative_graph, representative_name
from conftest import five_vertex_graph


def shuffled_copy(g, rng):
    names = list(g.vertices)
    images = names[:]
    rng.shuffle(images)
    return g.relabel_vertices(dict(zip(names, images)))


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
            report = enumerate_mat_labelings_complete(dim, with_representatives=True)
            reps.extend(report.representatives)
        for a in reps:
            for b in reps:
                same = canonical_form(a) == canonical_form(b)
                assert same == are_isomorphic(a, b)[0]

    def test_random_permuted_pairs_match(self):
        rng = random.Random(77)
        for dim in (6, 7):
            report = enumerate_mat_labelings_complete(dim, with_representatives=True)
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
                assert are_isomorphic_vines(a, b) == \
                    (poset_isomorphism(a, b) is not None)


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


class TestEnumerate:
    def test_small_dimensions(self):
        for dim, expected in [(1, 1), (2, 1), (3, 1), (4, 2), (5, 6)]:
            report = enumerate_mat_labelings_complete(dim)
            assert report.class_count == expected
            assert report.formula_count == expected

    def test_representatives_validate(self):
        report = enumerate_mat_labelings_complete(5, with_representatives=True)
        assert len(report.representatives) == 6
        for rep in report.representatives:
            assert rep.is_complete()
            assert check_mat_labeling(rep).ok

    def test_representatives_are_pairwise_non_isomorphic(self):
        report = enumerate_mat_labelings_complete(5, with_representatives=True)
        forms = {canonical_form(rep) for rep in report.representatives}
        assert len(forms) == len(report.representatives)

    def test_deterministic_across_runs_and_jobs(self):
        first = enumerate_mat_labelings_complete(5, with_representatives=True)
        second = enumerate_mat_labelings_complete(5, with_representatives=True)
        assert [g.labels for g in first.representatives] == \
            [g.labels for g in second.representatives]
        parallel = enumerate_mat_labelings_complete(5, with_representatives=True,
                                                    jobs=2)
        assert [g.labels for g in parallel.representatives] == \
            [g.labels for g in first.representatives]

    def test_resource_bound(self):
        with pytest.raises(ResourceLimitError):
            enumerate_mat_labelings_complete(8)
        with pytest.raises(GraphInputError):
            enumerate_mat_labelings_complete(0)

    def test_representative_reconstruction(self):
        report = enumerate_mat_labelings_complete(4, with_representatives=True)
        for rep in report.representatives:
            from matvines.enumeration import _canonical_key, _label_matrix
            n, lab = _label_matrix(rep)
            key = _canonical_key(n, lab)
            again = representative_graph(4, key)
            assert are_isomorphic(rep, again)[0]
            assert representative_name(4, key).startswith("K4_")


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
        for comp in _bits.components(n, adj, full):
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
        assert [mat_sc_agreement(n).class_count for n in range(1, 8)] == \
            [1, 2, 4, 11, 34, 156, 1044]
        assert mat_sc_agreement(4).to_json()["classes"] == 11

    def test_discrepancy_lists_the_whole_orbit(self, monkeypatch):
        # make the labeling search fail on the path on three vertices only;
        # on four vertices that is the class of two edges sharing a vertex
        real = _bits.find_mat_labeling

        def fake(n, adj):
            if n == 3 and sum(a.bit_count() for a in adj) == 4:
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
            mat_sc_agreement(5, progress=True)
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
