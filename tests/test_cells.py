"""Tests for ST-cell set sequences (Section 3.1)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.cells import entity_level_cells, entity_level_cells_pdf
from repro.core.hashing import HashFamily
from repro.core.minsigtree import build_minsigtree
from repro.mobility.im_model import generate_traces_pdf
from repro.oracle import assert_equivalent
from repro.spindex.builder import build_sp_index
from tests.paper_example import example_sp_index, example_traces


@pytest.fixture(scope="module")
def sp():
    return build_sp_index(8, 3)


@pytest.fixture(scope="module")
def traces_pdf(sp):
    return generate_traces_pdf(sp, 40, 48, seed=2)


@pytest.fixture(scope="module")
def cells(spark, sp, traces_pdf):
    df = entity_level_cells(spark, spark.createDataFrame(traces_pdf), sp)
    df.persist().count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def tree(spark, sp, traces_pdf):
    fam = HashFamily(n_h=8, r=sp.n_base * 48, seed=2)
    tree = build_minsigtree(spark, spark.createDataFrame(traces_pdf), sp, fam)
    yield tree
    tree.unpersist()


def test_example_31_rollup(spark):
    """Example 3.1: seq_e^1 = {T1L5, T2L6} from presences at L1@T1, L3@T2."""
    sp = example_sp_index()
    tr = pd.DataFrame({"entity": [0, 0], "t": [0, 1], "base_unit": [0, 2]})
    out = entity_level_cells(spark, spark.createDataFrame(tr), sp).toPandas()
    lvl1 = out[out.level == 1].sort_values("t")
    assert list(zip(lvl1.t, lvl1.unit)) == [(0, 4), (1, 5)]  # T1L5, T2L6
    lvl2 = out[out.level == 2].sort_values("t")
    assert list(zip(lvl2.t, lvl2.unit)) == [(0, 0), (1, 2)]  # T1L1, T2L3


def test_matches_pandas_reference(spark, sp, traces_pdf, cells):
    got = (
        cells.toPandas()
        .sort_values(["entity", "level", "cell"], ignore_index=True)
        .astype("int64")
    )
    ref = entity_level_cells_pdf(traces_pdf, sp).astype("int64")
    pd.testing.assert_frame_equal(got, ref)


def test_oracle_rollup(spark, sp, traces_pdf, cells):
    """DuckDB oracle: the rollup is a join + distinct over the mapping."""
    n_units = sp.n_units_total
    got = cells.select("entity", "level", "t", "unit", "cell")
    sql = f"""
        SELECT DISTINCT tr.entity, mp.level, tr.t, mp.unit,
               CAST(tr.t AS BIGINT) * {n_units} + mp.unit AS cell
        FROM traces tr JOIN mapping mp USING (base_unit)
    """
    assert_equivalent(got, sql, traces=traces_pdf, mapping=sp.mapping)


def test_distinct_rows(cells):
    assert cells.count() == cells.distinct().count()


def test_every_level_present(cells, sp):
    lv = {r.level for r in cells.select("level").distinct().collect()}
    assert lv == set(range(1, sp.m + 1))


def test_level_sizes_monotone(tree, sp):
    """|seq^i| <= |seq^{i+1}|: rolling up can only merge cells."""
    assert (tree.sizes[:, :-1] <= tree.sizes[:, 1:]).all()


def test_level_sizes_against_oracle(spark, tree, traces_pdf, sp):
    """The tree's size matrix holds the per-level cell counts."""
    got = spark.createDataFrame(
        pd.DataFrame(
            {
                "entity": np.repeat(tree.entity, sp.m),
                "level": np.tile(np.arange(1, sp.m + 1), len(tree.entity)),
                "sz": tree.sizes.ravel(),
            }
        )
    )
    n_units = sp.n_units_total
    sql = f"""
        SELECT entity, level, COUNT(*) AS sz FROM (
          SELECT DISTINCT tr.entity, mp.level,
                 CAST(tr.t AS BIGINT) * {n_units} + mp.unit AS cell
          FROM traces tr JOIN mapping mp USING (base_unit)
        ) GROUP BY entity, level
    """
    assert_equivalent(got, sql, traces=traces_pdf, mapping=sp.mapping)


def test_cell_codes_unique_per_level(cells):
    """cell encodes (t, unit) injectively."""
    dup = (
        cells.select("level", "t", "unit", "cell")
        .distinct()
        .groupBy("cell")
        .agg(F.countDistinct("t", "unit").alias("n"))
        .filter(F.col("n") > 1)
        .count()
    )
    assert dup == 0


def test_shared_base_cell_implies_shared_at_all_levels(spark):
    """AjPI propagation: base-level overlap rolls up to every level."""
    sp = example_sp_index()
    tr = example_traces()
    out = entity_level_cells(spark, spark.createDataFrame(tr), sp).toPandas()
    a = out[out.entity == 0]
    c = out[out.entity == 2]
    for lvl in (1, 2):
        sa = set(a[a.level == lvl].cell)
        sc = set(c[c.level == lvl].cell)
        assert sa & sc, f"expected overlap at level {lvl}"
