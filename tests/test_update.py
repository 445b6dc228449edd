"""Tests for incremental/bulk MinSigTree updates (Section 3.2.3)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.adm import ADMParams
from repro.core.hashing import HashFamily
from repro.core.minsigtree import build_minsigtree, bulk_update
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
    got = updated.sizes[updated.sizes.entity == 3].set_index("level").sz
    for lvl in range(1, 4):
        assert got[lvl] == expect[lvl]
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
    """Stored SIG values never exceed the true min over current members
    (a stale, too-small value only loosens bounds — exactness survives)."""
    spark, sp, fam, base, tree = setting
    new = _later_traces(sp, 12, seed=49, t_shift=48)
    updated, _ = bulk_update(spark, tree, spark.createDataFrame(new))
    from repro.core.signatures import entity_paths, entity_signatures

    paths = entity_paths(
        entity_signatures(updated.cells, updated.level_hashes, fam)
    ).toPandas()
    true_min: dict[str, int] = {}
    for r in paths.itertuples():
        for i in range(updated.m):
            pk = "/".join(str(x) for x in r.path[: i + 1])
            true_min[pk] = min(true_min.get(pk, 1 << 62), int(r.route_vals[i]))
    for r in updated.nodes.itertuples():
        assert r.sig_val <= true_min[r.key], r.key
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
    yields: same leaves, sizes, node keys and counts. Stored node minima
    may only be stale-low (looser bounds), never above the rebuild's."""
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
    by_el = ["entity", "level"]
    pd.testing.assert_frame_equal(
        cur.sizes.sort_values(by_el, ignore_index=True),
        rebuilt.sizes.sort_values(by_el, ignore_index=True),
    )
    cols = ["level", "key", "route", "n_entities"]
    pd.testing.assert_frame_equal(cur.nodes[cols], rebuilt.nodes[cols])
    assert (cur.nodes.sig_val <= rebuilt.nodes.sig_val).all()
    cur.unpersist()
    rebuilt.unpersist()
