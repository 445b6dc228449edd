"""Tests for the cluster-bitmap baseline (Section 6.2)."""
import numpy as np
import pytest

from repro.baseline.cluster_bitmap import ClusterGroups
from repro.core.adm import ADMParams
from repro.core.hashing import HashFamily
from repro.core.minsigtree import build_minsigtree
from repro.core.query import TopKEngine
from repro.mobility.im_model import generate_traces_pdf
from repro.spindex.builder import build_sp_index


@pytest.fixture(scope="module")
def setting(spark):
    sp = build_sp_index(10, 3)
    fam = HashFamily(n_h=16, r=sp.n_base * 72, seed=11)
    tr = spark.createDataFrame(generate_traces_pdf(sp, 90, 72, seed=61))
    tree = build_minsigtree(spark, tr, sp, fam)
    yield spark, tree
    tree.unpersist()


@pytest.fixture(scope="module")
def engines(setting):
    spark, tree = setting
    adm = ADMParams(m=3)
    return (
        TopKEngine(spark, tree, adm),
        TopKEngine(
            spark,
            tree,
            adm,
            groups=ClusterGroups(spark, tree, cluster_level=1, time_window=12),
        ),
        tree,
    )


def test_groups_partition_entities(engines):
    _, bm, tree = engines
    all_ents = sorted(e for grp in bm.groups.members for e in grp)
    assert all_ents == sorted(tree.leaves.entity)


def test_vectors_match_membership(engines):
    """Bit j set iff the entity visited some base cell of cluster j."""
    _, bm, tree = engines
    groups = bm.groups
    assert groups.vectors.shape == (len(groups.members), groups.n_clusters)
    assert groups.vectors.any(axis=1).all()  # every entity hits >= 1 cluster
    # Locality clusters recomputed from the level-m cells: the unit's
    # level-1 ancestor (walked up the sp-index) and the time window t // 12.
    sp = tree.sp
    base = tree.cells.filter(f"level = {sp.m}").select("entity", "t", "unit").toPandas()
    parent = sp.units.set_index("unit").parent
    anc = base.unit
    for _ in range(sp.m - 1):
        anc = anc.map(parent)
    base["cluster"] = anc * 1_000_000 + base.t // 12
    want = base.groupby("entity").cluster.apply(set)
    for j, members in enumerate(groups.members):
        got = set(groups.cluster_ids[groups.vectors[j]].tolist())
        for e in members:
            assert got == want[e], e


@pytest.mark.parametrize("k", [1, 5, 15])
def test_baseline_exactness(engines, k):
    mst, bm, tree = engines
    rng = np.random.default_rng(k)
    for q in rng.choice(tree.leaves.entity.to_numpy(), 3, replace=False):
        res = bm.topk(int(q), k)
        bf = mst.brute_force(int(q), k)
        np.testing.assert_allclose(
            sorted(s for _, s in res.results),
            sorted(s for _, s in bf.results),
            atol=1e-9,
        )


def test_baseline_bounds_sound(engines):
    mst, bm, tree = engines
    q = int(tree.leaves.entity.iloc[4])
    qc = bm.query_cells(q)
    ubs = bm.leaf_upper_bounds(qc)
    scores = mst.all_scores(q)
    row_of = {}
    for j, grp in enumerate(bm.groups.members):
        for e in grp:
            row_of[e] = j
    for e, s in scores.items():
        if e == q:
            continue
        assert ubs[row_of[e]] >= s - 1e-9


@pytest.mark.parametrize("k", [1, 5])
def test_coupled_mode_exactness(setting, k):
    """The 'coupled' (hash-bucket) clustering variant is also exact."""
    spark, tree = setting
    adm = ADMParams(m=3)
    bm = TopKEngine(
        spark,
        tree,
        adm,
        groups=ClusterGroups(
            spark, tree, cluster_mode="coupled", n_random_clusters=16
        ),
    )
    ref = TopKEngine(spark, tree, adm)
    q = int(tree.leaves.entity.iloc[6])
    np.testing.assert_allclose(
        sorted(s for _, s in bm.topk(q, k).results),
        sorted(s for _, s in ref.brute_force(q, k).results),
        atol=1e-9,
    )


def test_unknown_cluster_mode_raises(setting):
    spark, tree = setting
    with pytest.raises(ValueError):
        ClusterGroups(spark, tree, cluster_mode="bogus")


def test_baseline_stats_sane(engines):
    """Baseline search terminates with valid accounting.

    (Whether MinSigTree or the bitmap prunes harder is scale-dependent:
    the paper's §6.7 argument — coarse regions cannot separate millions
    of entities — is exercised at experiment scale in the Fig.-6 job, not
    at this 90-entity unit-test scale where 11 level-1 regions are highly
    discriminative.)
    """
    mst, bm, tree = engines
    rng = np.random.default_rng(3)
    for q in rng.choice(tree.leaves.entity.to_numpy(), 3, replace=False):
        res = bm.topk(int(q), 5)
        assert res.checked >= 5
        assert 0.0 <= res.pruning_effectiveness <= 1.0
