"""Entity signatures and MinSigTree routing paths — Section 3.2.

For each entity and sp-index level ``i``, the signature ``sig_e^i`` is the
element-wise min of the hash vectors of the entity's level-``i`` cells
(``sig_e^i[u] = min_{s in seq_e^i} h_u(s)``). The *routing index* at level
``i`` is ``argmax_u sig_e^i[u]`` (1-based; ties broken by first position,
the paper breaks them arbitrarily), and ``route_val = sig_e^i[route]`` is
the value a MinSigTree node materializes. ``sz = |seq_e^i|`` comes from
the same aggregation (one hash row per cell).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.hashing import HashFamily, elementwise_min


def entity_signatures(
    cells: DataFrame, level_hashes: DataFrame, fam: HashFamily
) -> DataFrame:
    """``(entity, level, sig, route, route_val, sz)`` for every entity/level.

    ``cells`` is the `entity_level_cells` relation and ``level_hashes``
    the `build_level_hashes` relation; they join on ``(level, cell)``.
    """
    joined = cells.select("entity", "level", "cell").join(
        level_hashes.select("level", "cell", "h"), ["level", "cell"]
    )
    sigs = joined.groupBy("entity", "level").agg(
        elementwise_min(F.col("h"), fam.n_h, fam.r).alias("sig"),
        F.count("*").alias("sz"),
    )
    return sigs.select(
        "entity",
        "level",
        "sig",
        F.array_position(F.col("sig"), F.array_max(F.col("sig")))
        .cast("int")
        .alias("route"),
        F.array_max(F.col("sig")).alias("route_val"),
        "sz",
    )


def entity_paths(signatures: DataFrame) -> DataFrame:
    """Per-entity root-to-leaf routing path, routed values and level sizes.

    Returns ``(entity, path, route_vals, sizes)`` where ``path[i-1]`` is
    the routing index at level ``i``, ``route_vals[i-1]`` the signature
    value at that index and ``sizes[i-1] = |seq_e^i|``. Entities present
    at any cell have rows at every level, so all arrays have length ``m``.
    """
    return (
        signatures.groupBy("entity")
        .agg(
            F.array_sort(
                F.collect_list(F.struct("level", "route", "route_val", "sz"))
            ).alias("lv")
        )
        .select(
            "entity",
            F.transform(F.col("lv"), lambda s: s["route"]).alias("path"),
            F.transform(F.col("lv"), lambda s: s["route_val"]).alias("route_vals"),
            F.transform(F.col("lv"), lambda s: s["sz"]).alias("sizes"),
        )
    )
