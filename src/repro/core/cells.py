"""ST-cell set sequences — Section 3.1.

An ST-cell is a ``(time-unit, spatial-unit)`` pair; at level ``m`` the unit
is a base unit, at level ``i < m`` it is the base unit's level-``i``
ancestor (Example 3.1's rollup). Cells are encoded as a single long,
``cell = t * n_units_total + unit``, which is unique because unit ids are
globally unique across levels.

`entity_level_cells` produces the relation ``(entity, level, t, unit,
cell)`` — one row per distinct ST-cell of each entity at each level. This
is the set sequence ``seq_e^i`` of the paper in columnar form, and the
single relation every downstream step (hashing, signatures, exact scoring,
the DuckDB oracle) operates on.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.spindex.builder import SpIndex


def cell_code(t, unit, n_units_total: int):
    """Column expression (or scalar) encoding an ST-cell as a long."""
    return t * n_units_total + unit


def mapping_df(spark: SparkSession, sp: SpIndex) -> DataFrame:
    """The sp-index base_unit -> (level, unit) mapping as a DataFrame."""
    return spark.createDataFrame(
        sp.mapping.astype({"base_unit": "int32", "level": "int32", "unit": "int64"})
    )


def entity_level_cells(
    spark: SparkSession, traces: DataFrame, sp: SpIndex
) -> DataFrame:
    """Distinct ``(entity, level, t, unit, cell)`` rows for all entities.

    ``traces`` must have columns ``(entity, t, base_unit)``. The rollup
    joins each detection with the sp-index mapping at every level, then
    de-duplicates — exactly the ``seq_e^{i}`` construction of Section 3.1
    (a level-i cell exists iff some base-level detection rolls up to it).
    """
    mp = F.broadcast(mapping_df(spark, sp))
    n_units = sp.n_units_total
    return (
        traces.join(mp, "base_unit")
        .select(
            "entity",
            "level",
            F.col("t").cast("int").alias("t"),
            "unit",
            cell_code(F.col("t").cast("long"), F.col("unit"), n_units).alias("cell"),
        )
        .distinct()
    )


def entity_level_cells_pdf(traces: pd.DataFrame, sp: SpIndex) -> pd.DataFrame:
    """Pandas reference implementation of `entity_level_cells` (for tests)."""
    out = traces.merge(sp.mapping, on="base_unit")
    out["cell"] = out["t"].astype("int64") * sp.n_units_total + out["unit"]
    return (
        out[["entity", "level", "t", "unit", "cell"]]
        .drop_duplicates(ignore_index=True)
        .sort_values(["entity", "level", "cell"], ignore_index=True)
    )

