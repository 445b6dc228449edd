"""Tests for top-k query processing (Section 4, Example 4.1)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.adm import ADMParams
from repro.core.hashing import HashFamily
from repro.core.minsigtree import build_minsigtree, path_keys
from repro.core.query import TopKEngine
from repro.mobility.im_model import IMParams, generate_traces_pdf
from repro.spindex.builder import build_sp_index
from tests.paper_example import (
    EA,
    EB,
    EC,
    ED,
    example_hash_family,
    example_sp_index,
    example_traces,
)


@pytest.fixture(scope="module")
def example_engine(spark):
    tree = build_minsigtree(
        spark,
        spark.createDataFrame(example_traces()),
        example_sp_index(),
        example_hash_family(),
    )
    yield TopKEngine(spark, tree, ADMParams(m=2, u=1.0, v=1.0), size_aware=False)
    tree.unpersist()


def test_example_41_top1_is_ea(example_engine):
    """Example 4.1: the top-1 associate of e_c is e_a with score 0.5."""
    res = example_engine.topk(EC, 1, batch_size=1)
    assert res.results == [(EA, pytest.approx(0.5))]


def test_example_41_pruning(example_engine):
    """e_b's leaf (UB=1/3 via its stored value 5) is pruned; e_d's leaf
    (UB~0.89) must still be checked before termination at score 0.5."""
    eng = example_engine
    qc = eng.query_cells(EC)
    ubs = eng.leaf_upper_bounds(qc)
    by_key = dict(zip(eng.groups.keys, ubs))
    n_h = eng.tree.fam.n_h
    leaf = {p: path_keys([p], n_h)[0, -1] for p in ((2, 1), (2, 2), (1, 1))}
    assert by_key[leaf[2, 1]] == pytest.approx(1.0)  # query's own leaf
    assert by_key[leaf[2, 2]] == pytest.approx((1 * (2 / 4)) / 1.5)  # e_b pruned low
    assert by_key[leaf[1, 1]] == pytest.approx((1 * (1 / 3) + 2 * (2 / 4)) / 1.5)
    res = eng.topk(EC, 1, batch_size=1)
    assert res.checked == 2  # e_a and e_d; e_b never exact-checked
    assert res.rounds == 2


def test_example_41_brute_force_agrees(example_engine):
    bf = example_engine.brute_force(EC, 3)
    assert bf.results[0] == (EA, pytest.approx(0.5))
    scores = dict(bf.results)
    # d(e_c,e_d): only T1L6 shared at level 1 -> (1*(1/4))/1.5
    assert scores[ED] == pytest.approx((0.25) / 1.5)
    # d(e_c,e_b): only T2L5 shared at level 1 -> same value
    assert scores[EB] == pytest.approx((0.25) / 1.5)


@pytest.fixture(scope="module")
def random_setup(spark):
    sp = build_sp_index(12, 3)
    fam = HashFamily(n_h=16, r=sp.n_base * 72, seed=5)
    tr = spark.createDataFrame(
        generate_traces_pdf(sp, 120, 72, params=IMParams(), seed=17)
    )
    tree = build_minsigtree(spark, tr, sp, fam)
    yield spark, tree
    tree.unpersist()


@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("u,v", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
@pytest.mark.parametrize("size_aware", [True, False])
def test_exactness_vs_brute_force(random_setup, k, u, v, size_aware):
    """The index returns exactly the brute-force top-k score multiset."""
    spark, tree = random_setup
    eng = TopKEngine(spark, tree, ADMParams(m=3, u=u, v=v), size_aware=size_aware)
    rng = np.random.default_rng(k * 7 + int(v * 10))
    for q in rng.choice(tree.leaves.entity.to_numpy(), 3, replace=False):
        res = eng.topk(int(q), k)
        bf = eng.brute_force(int(q), k)
        got = sorted((s for _, s in res.results), reverse=True)
        want = sorted((s for _, s in bf.results), reverse=True)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_upper_bounds_are_sound(random_setup):
    """Thm 4.1: every leaf's UB >= the exact score of each member."""
    spark, tree = random_setup
    for size_aware in (True, False):
        eng = TopKEngine(spark, tree, ADMParams(m=3), size_aware=size_aware)
        q = int(tree.leaves.entity.iloc[0])
        qc = eng.query_cells(q)
        ubs = eng.leaf_upper_bounds(qc)
        scores = eng.all_scores(q)
        leaf_row = {key: j for j, key in enumerate(eng.groups.keys)}
        entity_leaf = dict(zip(tree.leaves.entity, tree.leaves.key))
        for e, s in scores.items():
            if e == q:
                continue
            j = leaf_row[entity_leaf[e]]
            assert ubs[j] >= s - 1e-9, (e, ubs[j], s)


def test_size_aware_bounds_tighter(random_setup):
    spark, tree = random_setup
    pure = TopKEngine(spark, tree, ADMParams(m=3), size_aware=False)
    tight = TopKEngine(spark, tree, ADMParams(m=3), size_aware=True)
    q = int(tree.leaves.entity.iloc[3])
    qc = pure.query_cells(q)
    assert (tight.leaf_upper_bounds(qc) <= pure.leaf_upper_bounds(qc) + 1e-12).all()


def test_query_entity_excluded(random_setup):
    spark, tree = random_setup
    eng = TopKEngine(spark, tree, ADMParams(m=3))
    q = int(tree.leaves.entity.iloc[5])
    res = eng.topk(q, 10)
    assert q not in [e for e, _ in res.results]


def test_k_larger_than_population(random_setup):
    spark, tree = random_setup
    eng = TopKEngine(spark, tree, ADMParams(m=3))
    q = int(tree.leaves.entity.iloc[0])
    res = eng.topk(q, tree.n_entities + 10)
    assert len(res.results) == tree.n_entities - 1
    assert res.checked == tree.n_entities - 1


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_raises(random_setup, k):
    """k < 1 is rejected by both the index search and the full scan."""
    spark, tree = random_setup
    eng = TopKEngine(spark, tree, ADMParams(m=3))
    q = int(tree.leaves.entity.iloc[0])
    with pytest.raises(ValueError):
        eng.topk(q, k)
    with pytest.raises(ValueError):
        eng.brute_force(q, k)


def test_results_sorted_descending(random_setup):
    spark, tree = random_setup
    eng = TopKEngine(spark, tree, ADMParams(m=3))
    res = eng.topk(int(tree.leaves.entity.iloc[9]), 10)
    scores = [s for _, s in res.results]
    assert scores == sorted(scores, reverse=True)


def test_pe_in_range_and_brute_force_pe_worst(random_setup):
    spark, tree = random_setup
    eng = TopKEngine(spark, tree, ADMParams(m=3))
    q = int(tree.leaves.entity.iloc[2])
    res = eng.topk(q, 5)
    bf = eng.brute_force(q, 5)
    assert 0.0 <= res.pruning_effectiveness <= 1.0
    assert res.pruning_effectiveness <= bf.pruning_effectiveness + 1e-12
    assert res.checked <= tree.n_entities - 1


def test_missing_entity_raises(random_setup):
    spark, tree = random_setup
    eng = TopKEngine(spark, tree, ADMParams(m=3))
    with pytest.raises(KeyError):
        eng.query_cells(10_000_000)


def test_adm_m_mismatch_raises(random_setup):
    spark, tree = random_setup
    with pytest.raises(ValueError):
        TopKEngine(spark, tree, ADMParams(m=2))
