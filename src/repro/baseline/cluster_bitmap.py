"""Locality-cluster bitmap baseline — Section 6.2.

The paper's baseline partitions ST-cells into clusters of frequently
co-occurring cells, gives each entity an n-bit membership vector, and
searches groups of identical bit vectors in upper-bound order. We realize
the clustering as (coarse spatial ancestor x time window) — cells in the
same region during the same window are exactly the ones that co-occur in
entity "transactions", so this is the *strongest* instance of the
transaction-clustering family the paper describes (see DESIGN.md); the
paper's argument for why such baselines lose (ST-cells have low locality,
so bit vectors give loose bounds, §6.7) applies unchanged.

Exactness is preserved: bit ``j = 0`` certifies the entity visited no
observed base cell of cluster ``j``, and a level-l query cell can only be
shared through an observed base cell below it, so a query cell none of
whose covering clusters are set cannot contribute to the intersection.

`ClusterGroups` is only a group table for `TopKEngine`
(``groups=ClusterGroups(...)``): the baseline runs the MinSigTree's search
loop and differs from it in exactly its grouping and bound.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.cells import mapping_df
from repro.core.minsigtree import MinSigTree
from repro.core.query import _QueryCells, group_members


class ClusterGroups:
    """Entities grouped by identical cluster-membership bitmaps (§6.2)."""

    def __init__(
        self,
        spark: SparkSession,
        tree: MinSigTree,
        cluster_level: int = 1,
        time_window: int = 24,
        cluster_mode: str = "locality",
        n_random_clusters: int = 32,
    ):
        """``cluster_mode``:

        * ``"locality"`` — (coarse region x time window) clusters: the
          *strongest* member of the transaction-clustering family, an
          upper bound on what FP mining could extract;
        * ``"coupled"`` — cells hashed uniformly into
          ``n_random_clusters`` buckets: the regime the paper describes
          for FP-mined clusters at scale ("strong coupling", no locality,
          §6.2/§6.7), where bit vectors saturate and bounds go slack.
        """
        if cluster_mode not in ("locality", "coupled"):
            raise ValueError(f"unknown cluster_mode {cluster_mode!r}")
        self.m = tree.m
        sp = tree.sp
        mp = mapping_df(spark, sp)
        bridge = mp.filter(F.col("level") == sp.m).select(
            "base_unit", F.col("unit").alias("b_uid")
        )
        clus = mp.filter(F.col("level") == cluster_level).select(
            "base_unit", F.col("unit").alias("c_unit")
        )
        base = tree.cells.filter(F.col("level") == sp.m).select(
            "entity", "t", F.col("unit").alias("b_uid"), F.col("cell").alias("b_cell")
        )
        if cluster_mode == "coupled":
            cluster_col = F.pmod(
                F.col("b_cell") * 2654435761 + 97, F.lit(n_random_clusters)
            )
        else:
            cluster_col = F.col("c_unit") * 1_000_000 + (
                F.col("t") / time_window
            ).cast("long")
        with_cluster = (
            base.join(F.broadcast(bridge), "b_uid")
            .join(F.broadcast(clus), "base_unit")
            .withColumn("cluster", cluster_col)
        ).persist()
        pairs = with_cluster.select("entity", "cluster").distinct().toPandas()
        # Cover table: level-l cell -> clusters of observed base cells below.
        n_units = sp.n_units_total
        anc = mp.select("base_unit", "level", F.col("unit").alias("anc_unit"))
        cover_pdf = (
            with_cluster.select("base_unit", "t", "cluster")
            .distinct()
            .join(F.broadcast(anc), "base_unit")
            .select(
                "level",
                (F.col("t").cast("long") * n_units + F.col("anc_unit")).alias("cell"),
                "cluster",
            )
            .distinct()
            .toPandas()
        )
        with_cluster.unpersist()

        self.cluster_ids = np.sort(cover_pdf.cluster.unique())
        self.n_clusters = len(self.cluster_ids)
        # Entity bit rows, grouped by identical rows (the paper's bitmap
        # rows); group keys are integer ids into the unique rows.
        entities, row = np.unique(pairs.entity.to_numpy(), return_inverse=True)
        bits = np.zeros((len(entities), self.n_clusters), dtype=bool)
        bits[row, np.searchsorted(self.cluster_ids, pairs.cluster.to_numpy())] = True
        self.vectors, group = np.unique(bits, axis=0, return_inverse=True)
        self.keys, self.members = group_members(group.ravel(), entities)
        # Per level: sorted cell codes and each cell's cluster row.
        self._cover: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for l, grp in cover_pdf.groupby("level"):
            cells, row = np.unique(grp.cell.to_numpy(), return_inverse=True)
            cover = np.zeros((len(cells), self.n_clusters), dtype=bool)
            cover[row, np.searchsorted(self.cluster_ids, grp.cluster)] = True
            self._cover[int(l)] = (cells, cover)

    def survivors(self, qc: _QueryCells) -> np.ndarray:
        """``(G, m)`` count of query cells reachable through set bits."""
        surv = np.zeros((len(self.keys), self.m), dtype=np.float64)
        for l, q in qc.levels.items():
            cells, cover = self._cover[l]
            pos = np.minimum(np.searchsorted(cells, q), len(cells) - 1)
            q_mat = cover[pos] & (cells[pos] == q)[:, None]
            surv[:, l - 1] = (q_mat @ self.vectors.T).sum(axis=0)  # bool @: any shared bit
        return surv
