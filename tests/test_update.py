"""Tests for incremental/bulk MinSigTree updates (Section 3.2.3)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.adm import ADMParams
from repro.core.hashing import HashFamily
from repro.core.minsigtree import build_minsigtree, bulk_update, path_keys
from repro.core.query import TopKEngine
from repro.mobility.im_model import generate_traces_pdf
from repro.spindex.builder import build_sp_index


@pytest.fixture(scope="module")
def setting(spark):
    sp = build_sp_index(10, 3)
    fam = HashFamily(n_h=8, r=sp.n_base * 96, seed=9)
    base = generate_traces_pdf(sp, 50, 48, seed=31)
    tree = build_minsigtree(spark, spark.createDataFrame(base), sp, fam)
    yield spark, sp, fam, base, tree
    tree.unpersist()


def _later_traces(sp, n_entities, seed, t_shift, first_id=0):
    pdf = generate_traces_pdf(sp, n_entities, 48, seed=seed)
    pdf = pdf.assign(t=(pdf.t + t_shift).astype("int32"))
    pdf["entity"] = pdf["entity"] + first_id
    return pdf


def test_update_existing_entities(setting):
    spark, sp, fam, base, tree = setting
    new = _later_traces(sp, 10, seed=41, t_shift=48)  # entities 0..9, later times
    updated, secs = bulk_update(spark, tree, spark.createDataFrame(new))
    assert secs > 0
    assert updated.n_entities == 50
    # updated entities' sizes reflect the appended records
    merged = pd.concat([base, new], ignore_index=True)
    expect = (
        merged[merged.entity == 3]
        .merge(sp.mapping, on="base_unit")[["level", "t", "unit"]]
        .drop_duplicates()
        .level.value_counts()
    )
    got = updated.sizes[np.searchsorted(updated.entity, 3)]
    for lvl in range(1, 4):
        assert got[lvl - 1] == expect[lvl]
    updated.unpersist()


def test_insert_new_entities(setting):
    spark, sp, fam, base, tree = setting
    new = _later_traces(sp, 5, seed=43, t_shift=0, first_id=100)
    updated, _ = bulk_update(spark, tree, spark.createDataFrame(new))
    assert updated.n_entities == 55
    assert set(range(100, 105)) <= set(updated.leaves.entity)
    updated.unpersist()


def test_update_preserves_exactness(setting):
    """After a mixed update, index top-k equals brute force on merged data."""
    spark, sp, fam, base, tree = setting
    new = pd.concat(
        [
            _later_traces(sp, 8, seed=47, t_shift=48),  # existing 0..7
            _later_traces(sp, 4, seed=48, t_shift=24, first_id=200),  # new
        ],
        ignore_index=True,
    )
    updated, _ = bulk_update(spark, tree, spark.createDataFrame(new))
    eng = TopKEngine(spark, updated, ADMParams(m=3))
    rng = np.random.default_rng(5)
    for q in rng.choice(updated.leaves.entity.to_numpy(), 3, replace=False):
        res = eng.topk(int(q), 5)
        bf = eng.brute_force(int(q), 5)
        np.testing.assert_allclose(
            sorted(s for _, s in res.results),
            sorted(s for _, s in bf.results),
            atol=1e-9,
        )
    updated.unpersist()


def test_node_values_conservative(setting):
    """Stored SIG values equal the true min over current members: an
    update re-derives the nodes, so no stale minimum is left behind."""
    spark, sp, fam, base, tree = setting
    new = _later_traces(sp, 12, seed=49, t_shift=48)
    updated, _ = bulk_update(spark, tree, spark.createDataFrame(new))
    from repro.core.signatures import entity_paths, entity_signatures

    paths = entity_paths(
        entity_signatures(updated.cells, updated.level_hashes, fam)
    ).toPandas()
    keys = path_keys(np.array(paths.path.tolist()), fam.n_h)
    true_min: dict[int, int] = {}
    for j, r in enumerate(paths.itertuples()):
        for i in range(updated.m):
            pk = int(keys[j, i])
            true_min[pk] = min(true_min.get(pk, 1 << 62), int(r.route_vals[i]))
    for r in updated.nodes.itertuples():
        assert r.sig_val == true_min[r.key], r.key
    updated.unpersist()


def test_update_counts_rebuilt_from_leaves(setting):
    spark, sp, fam, base, tree = setting
    new = _later_traces(sp, 6, seed=51, t_shift=48)
    updated, _ = bulk_update(spark, tree, spark.createDataFrame(new))
    leaf_counts = updated.leaves.groupby("key").size()
    leaf_nodes = updated.nodes[updated.nodes.level == updated.m]
    for r in leaf_nodes.itertuples():
        assert r.n_entities == leaf_counts.get(r.key, 0)
    assert (updated.nodes.n_entities > 0).all()
    updated.unpersist()


def test_chained_updates_match_rebuild(setting):
    """Two chained updates yield the tree a fresh build of the merged traces
    yields: same leaves, sizes, node keys, counts and stored minima."""
    spark, sp, fam, base, tree = setting
    batches = [
        pd.concat(
            [
                _later_traces(sp, 6, seed=53, t_shift=48),  # existing 0..5
                _later_traces(sp, 3, seed=54, t_shift=0, first_id=300),  # new
            ],
            ignore_index=True,
        ),
        pd.concat(
            [
                _later_traces(sp, 4, seed=55, t_shift=96, first_id=298),  # 298..301
                _later_traces(sp, 5, seed=56, t_shift=96),  # existing 0..4
            ],
            ignore_index=True,
        ),
    ]
    cur = tree
    for b in batches:
        cur, _ = bulk_update(spark, cur, spark.createDataFrame(b))
    merged = pd.concat([base, *batches], ignore_index=True)
    rebuilt = build_minsigtree(spark, spark.createDataFrame(merged), sp, fam)

    pd.testing.assert_frame_equal(cur.leaves, rebuilt.leaves)
    np.testing.assert_array_equal(cur.entity, rebuilt.entity)
    np.testing.assert_array_equal(cur.sizes, rebuilt.sizes)
    cols = ["level", "key", "route", "n_entities"]
    pd.testing.assert_frame_equal(cur.nodes[cols], rebuilt.nodes[cols])
    assert (cur.nodes.sig_val == rebuilt.nodes.sig_val).all()
    cur.unpersist()
    rebuilt.unpersist()


def _plan_chars(df) -> int:
    """Length of a DataFrame's logical plan, as Spark prints it."""
    return len(df._jdf.queryExecution().logical().toString())


def test_churn_keeps_plans_bounded_and_exact(setting):
    """Ten chained updates over existing and new entities: each version
    answers top-k exactly, the cell relation's plan does not grow with the
    chain, and the final nodes equal a fresh build's."""
    spark, sp, fam, base, tree = setting
    cur, batches, plans = tree, [], []
    for i in range(10):
        shift = 48 * (i + 1)
        batch = pd.concat(
            [
                # existing entities, later records
                _later_traces(sp, 3, seed=60 + i, t_shift=shift, first_id=3 * i),
                # the previous batch's last new entity plus two new ones
                _later_traces(sp, 3, seed=80 + i, t_shift=shift, first_id=399 + 2 * i),
            ],
            ignore_index=True,
        )
        batches.append(batch)
        cur, _ = bulk_update(spark, cur, spark.createDataFrame(batch))
        plans.append(_plan_chars(cur.cells))
        eng = TopKEngine(spark, cur, ADMParams(m=3))
        q = int(batch.entity.iloc[0])
        res, bf = eng.topk(q, 5), eng.brute_force(q, 5)
        np.testing.assert_allclose(
            sorted(s for _, s in res.results),
            sorted(s for _, s in bf.results),
            atol=1e-9,
        )
    assert plans[-1] <= plans[0], plans
    merged = pd.concat([base, *batches], ignore_index=True)
    rebuilt = build_minsigtree(spark, spark.createDataFrame(merged), sp, fam)
    pd.testing.assert_frame_equal(cur.nodes, rebuilt.nodes)
    pd.testing.assert_frame_equal(cur.leaves, rebuilt.leaves)
    cur.unpersist()
    rebuilt.unpersist()
