"""The benchmark's input generators: deterministic per seed, and every
generated graph and vine valid for the library.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import inputs  # noqa: E402
import matvines as mv  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(6)


def _ideals(seed, sizes, keep=None):
    rng = random.Random(seed)
    return [inputs.random_ideal(rng, inputs.random_tower(rng, n),
                                rng.uniform(0.5, 0.9) if keep is None else keep)
            for n in sizes]


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_inputs(seed):
    assert _ideals(seed, range(2, 13)) == _ideals(seed, range(2, 13))
    first, second = (inputs.random_merge_pair(random.Random(seed), 9, 4) for _ in range(2))
    assert first == second
    first, second = (inputs.random_glue_pair(random.Random(seed), 5, 6, 0.7)
                     for _ in range(2))
    assert first == second


def test_different_seeds_differ():
    assert _ideals(0, range(8, 13)) != _ideals(1, range(8, 13))


def test_convert_passes_repeat_per_seed():
    def labels(seed):
        return [op for _, op, _, _ in workloads.Structure(mv).convert_pass(random.Random(seed))]

    assert labels(3) == labels(3)
    assert any(op.startswith("omega d_vine(12)") for op in labels(3))


def test_construct_set_holds_every_call_per_group():
    ops = [op for _, op, _, _ in workloads.Structure(mv).construct_set()]
    for name in ("extend_to_complete", "embed_in_r_vine", "merge_complete",
                 "find_mat_labeling", "glue"):
        per_group = 1 if name == "glue" else 5
        assert sum(op.startswith(name) for op in ops) == per_group * workloads.CONSTRUCT_GROUPS


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_graphs_are_mat_labeled(seed):
    for ideal in _ideals(seed, range(1, 13)):
        g = mv.LabeledGraph.build(ideal.vertices, ideal.labeled_edges)
        assert mv.check_mat_labeling(g).ok
        assert g.is_complete() == ideal.complete


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_vines_are_at_least_lr(seed):
    for ideal in _ideals(seed, range(1, 13)):
        p = mv.VinePoset.build(ideal.vine_items)
        kind = mv.classify(p).kind
        assert kind >= mv.VineClass.LR_VINE
        assert (kind == mv.VineClass.R_VINE) == ideal.complete


@pytest.mark.parametrize("seed", SEEDS)
def test_vine_and_graph_of_an_ideal_correspond(seed):
    for ideal in _ideals(seed, range(2, 10)):
        g = mv.omega(mv.VinePoset.build(ideal.vine_items))
        assert g.labels == mv.LabeledGraph.build(ideal.vertices, ideal.labeled_edges).labels


@pytest.mark.parametrize("seed", SEEDS)
def test_whole_tower_is_a_regular_vine(seed):
    for ideal in _ideals(seed, range(2, 10), keep=1.0):
        assert ideal.complete
        assert mv.classify(mv.VinePoset.build(ideal.vine_items)).kind == mv.VineClass.R_VINE


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_pairs_are_complete_and_agree(seed):
    rng = random.Random(seed)
    for n in range(6, 11):
        pair = inputs.random_merge_pair(rng, n, rng.randint(max(2, n - 6), n - 2))
        g1, g2 = (mv.LabeledGraph.build(*side) for side in (pair.first, pair.second))
        for g in (g1, g2):
            assert g.is_complete() and mv.check_mat_labeling(g).ok
        shared = set(g1.vertices) & set(g2.vertices)
        assert shared and set(g1.vertices) | set(g2.vertices) == {str(i) for i in range(1, n + 1)}
        assert g1.restrict(shared).labels == g2.restrict(shared).labels


@pytest.mark.parametrize("seed", SEEDS)
def test_glue_pairs_share_one_label_one_edge(seed):
    pair = inputs.random_glue_pair(random.Random(seed), 5, 6, 0.7)
    g1, g2 = (mv.LabeledGraph.build(*side) for side in (pair.first, pair.second))
    shared = set(g1.vertices) & set(g2.vertices)
    assert len(shared) == 2
    assert list(g1.restrict(shared).labels.values()) == [1]
    assert mv.check_mat_labeling(mv.glue(g1, g2)).ok
