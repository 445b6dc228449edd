"""Tests for the leaf-block store and memory-budget engine (Fig. 5)."""
import numpy as np
import pytest

from repro.core.adm import ADMParams
from repro.core.hashing import HashFamily
from repro.core.minsigtree import build_minsigtree
from repro.core.query import TopKEngine
from repro.eval.memstore import LeafBlockStore, LocalScoringEngine
from repro.mobility.im_model import generate_traces_pdf
from repro.spindex.builder import build_sp_index


@pytest.fixture(scope="module")
def setting(spark, tmp_path_factory):
    sp = build_sp_index(8, 3)
    fam = HashFamily(n_h=8, r=sp.n_base * 48, seed=13)
    tr = spark.createDataFrame(generate_traces_pdf(sp, 60, 48, seed=71))
    tree = build_minsigtree(spark, tr, sp, fam)
    store = LeafBlockStore(spark, tree, tmp_path_factory.mktemp("blocks"), 8)
    yield spark, tree, store
    tree.unpersist()


def test_blocks_written(setting):
    _, tree, store = setting
    assert store.n_blocks == int(np.ceil(60 / 8))
    assert len(list(store.root.glob("block-*.parquet"))) == store.n_blocks


def test_fetch_cold(setting):
    _, tree, store = setting
    store.set_cache_fraction(0.0)
    ents = tree.leaves.entity.iloc[:5].tolist()
    got = store.fetch_many(ents)
    assert set(got) == set(ents)
    for e in ents:
        assert got[e]  # every entity has cells at some level


def test_fetch_warm_equals_cold(setting):
    _, tree, store = setting
    ents = tree.leaves.entity.iloc[10:20].tolist()
    store.set_cache_fraction(0.0)
    cold = store.fetch_many(ents)
    store.set_cache_fraction(1.0)
    warm = store.fetch_many(ents)
    for e in ents:
        assert set(cold[e]) == set(warm[e])
        for lvl in cold[e]:
            np.testing.assert_array_equal(
                np.sort(cold[e][lvl]), np.sort(warm[e][lvl])
            )


@pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
def test_local_engine_exact(setting, fraction):
    """Store-backed scoring returns the same top-k as the Spark engine."""
    spark, tree, store = setting
    store.set_cache_fraction(fraction)
    adm = ADMParams(m=3)
    local = LocalScoringEngine(spark, tree, adm, store)
    ref = TopKEngine(spark, tree, adm)
    q = int(tree.leaves.entity.iloc[7])
    res = local.topk(q, 5)
    bf = ref.brute_force(q, 5)
    np.testing.assert_allclose(
        sorted(s for _, s in res.results),
        sorted(s for _, s in bf.results),
        atol=1e-9,
    )


def test_level_counts_match_spark(setting):
    """The store-backed counting primitive returns the Spark engine's
    intersection and size matrices, for a candidate array and for every
    other entity (``None``)."""
    spark, tree, store = setting
    store.set_cache_fraction(0.5)
    adm = ADMParams(m=3)
    local = LocalScoringEngine(spark, tree, adm, store)
    ref = TopKEngine(spark, tree, adm)
    qc = ref.query_cells(int(tree.leaves.entity.iloc[7]))
    for cands in (tree.leaves.entity.to_numpy()[::3], None):
        inter, sizes = local.level_counts(qc, cands)
        ref_inter, ref_sizes = ref.level_counts(qc, cands)
        np.testing.assert_array_equal(inter, ref_inter)
        np.testing.assert_array_equal(sizes, ref_sizes)


def test_cache_fraction_bounds(setting):
    _, _, store = setting
    store.set_cache_fraction(0.5)
    assert 0 < len(store._cached_blocks) < store.n_blocks
