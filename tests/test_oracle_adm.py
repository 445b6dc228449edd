"""DuckDB-oracle checks of the relational scoring pipeline.

The exact ADM (Eq. 20) reduces to per-level set intersections; both the
intersection counts and the full brute-force ranking are recomputed in
DuckDB over the same inputs via `repro.oracle.assert_equivalent`.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.adm import ADMParams, adm_score
from repro.core.cells import entity_level_cells
from repro.core.hashing import HashFamily
from repro.core.minsigtree import build_minsigtree
from repro.core.query import TopKEngine
from repro.mobility.im_model import generate_traces_pdf
from repro.oracle import assert_equivalent
from repro.spindex.builder import build_sp_index


@pytest.fixture(scope="module")
def setup(spark):
    sp = build_sp_index(10, 3)
    fam = HashFamily(n_h=8, r=sp.n_base * 48, seed=7)
    traces = generate_traces_pdf(sp, 80, 48, seed=23)
    tree = build_minsigtree(spark, spark.createDataFrame(traces), sp, fam)
    eng = TopKEngine(spark, tree, ADMParams(m=3, u=1.0, v=1.0))
    yield spark, sp, tree, eng
    tree.unpersist()


def _query_entity(tree) -> int:
    return int(tree.entity[np.argmax(tree.sizes[:, -1])])  # most active


def test_intersection_counts_match_duckdb(setup):
    spark, sp, tree, eng = setup
    q = _query_entity(tree)
    qc = eng.query_cells(q)
    cand = F.broadcast(
        spark.createDataFrame(
            pd.DataFrame({"entity": [e for e in eng.all_entities if e != q]})
        )
    )
    inter = (
        tree.cells.join(cand, "entity")
        .join(F.broadcast(spark.createDataFrame(qc.pdf)), ["level", "cell"])
        .groupBy("entity", "level")
        .agg(F.count("*").alias("cnt"))
    )
    cells_pdf = tree.cells.select("entity", "level", "cell").toPandas()
    sql = f"""
        SELECT c.entity, c.level, COUNT(*) AS cnt
        FROM cells c
        JOIN cells q ON q.level = c.level AND q.cell = c.cell
        WHERE q.entity = {q} AND c.entity <> {q}
        GROUP BY c.entity, c.level
    """
    assert_equivalent(inter, sql, cells=cells_pdf)


def test_level_sizes_match_duckdb(setup):
    spark, sp, tree, eng = setup
    got = spark.createDataFrame(
        pd.DataFrame(
            {
                "entity": np.repeat(tree.entity, tree.m),
                "level": np.tile(np.arange(1, tree.m + 1), len(tree.entity)),
                "sz": tree.sizes.ravel(),
            }
        )
    )
    cells_pdf = tree.cells.select("entity", "level", "cell").toPandas()
    sql = "SELECT entity, level, COUNT(*) AS sz FROM cells GROUP BY entity, level"
    assert_equivalent(got, sql, cells=cells_pdf)


def test_brute_force_ranking_matches_duckdb(setup):
    """Full Eq.-20 scores recomputed in SQL match the engine's ranking."""
    spark, sp, tree, eng = setup
    q = _query_entity(tree)
    bf = eng.brute_force(q, 10)
    cells_pdf = tree.cells.select("entity", "level", "cell").toPandas()
    m, u, v = 3, 1.0, 1.0
    max_norm = ADMParams(m=m, u=u, v=v).max_norm
    con_sql = f"""
        WITH sizes AS (
          SELECT entity, level, COUNT(*) AS sz FROM cells GROUP BY entity, level
        ), inter AS (
          SELECT c.entity, c.level, COUNT(*) AS cnt
          FROM cells c JOIN cells q ON q.level = c.level AND q.cell = c.cell
          WHERE q.entity = {q} AND c.entity <> {q}
          GROUP BY c.entity, c.level
        ), joined AS (
          SELECT s.entity, s.level, s.sz,
                 COALESCE(i.cnt, 0) AS cnt,
                 qs.sz AS qsz
          FROM sizes s
          LEFT JOIN inter i ON i.entity = s.entity AND i.level = s.level
          JOIN sizes qs ON qs.level = s.level AND qs.entity = {q}
          WHERE s.entity <> {q}
        )
        SELECT entity,
               SUM(POWER(level, {u}) * POWER(cnt / (sz + qsz), {v})) / {max_norm}
                 AS score
        FROM joined GROUP BY entity ORDER BY score DESC LIMIT 10
    """
    import duckdb

    con = duckdb.connect()
    con.register("cells", cells_pdf)
    expected = con.execute(con_sql).fetchdf()
    con.close()
    np.testing.assert_allclose(
        sorted([s for _, s in bf.results], reverse=True),
        sorted(expected.score.to_numpy(), reverse=True),
        atol=1e-9,
    )


def test_topk_scores_match_duckdb_ranking(setup):
    """Index-accelerated top-k returns the same score multiset as SQL."""
    spark, sp, tree, eng = setup
    q = _query_entity(tree)
    res = eng.topk(q, 5)
    bf = eng.brute_force(q, 5)
    np.testing.assert_allclose(
        sorted(s for _, s in res.results),
        sorted(s for _, s in bf.results),
        atol=1e-9,
    )

