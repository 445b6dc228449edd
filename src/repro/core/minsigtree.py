"""MinSigTree construction and updates — Sections 3.2.2-3.2.3.

The tree is materialized as two small relations (the paper stores two
integers per node — routing index and the hash value at it):

* ``nodes``: one row per tree node — ``(level, key, route, sig_val,
  n_entities)`` where ``key`` is the "/"-joined routing path from the root
  and ``sig_val = min over subtree entities of sig_e^level[route]`` (the
  materialized ``SIG_N[u]`` of §3.2.2);
* ``leaves``: ``(entity, key)`` leaf membership (full ``m``-length path).

Signatures and routing paths are Catalyst aggregations; the per-entity
paths (one row per entity) are collected to the driver once, and both
tables are derived from them there with pandas (≤ ``m·|E|`` tiny rows),
where the best-first search runs. The per-cell relations (``cells``,
``level_hashes``) stay distributed and persisted for scoring joins.

Bulk update (§3.2.3) appends new trace records: affected entities get
fresh signatures, move leaves, and node values merge via
``SIG_N := min(SIG_N, SIG_new)``. Removal does not raise stale node
minima — a too-small ``SIG_N`` only loosens upper bounds, never breaks
exactness (tested).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.cells import entity_level_cells, level_sizes
from repro.core.hashing import HashFamily, build_level_hashes
from repro.core.signatures import entity_paths, entity_signatures
from repro.spindex.builder import SpIndex


@dataclass
class MinSigTree:
    """A built index plus the distributed relations needed to query it."""

    sp: SpIndex
    fam: HashFamily
    nodes: pd.DataFrame  # (level, key, route, sig_val, n_entities)
    leaves: pd.DataFrame  # (entity, key)
    sizes: pd.DataFrame  # (entity, level, sz)  — |seq_e^l|
    cells: DataFrame  # (entity, level, t, unit, cell)   [persisted]
    level_hashes: DataFrame  # (level, t, unit, cell, h) [persisted]
    traces: DataFrame  # raw (entity, t, base_unit)      [persisted]

    @property
    def m(self) -> int:
        return self.sp.m

    @property
    def n_entities(self) -> int:
        return len(self.leaves)

    def index_size_bytes(self) -> int:
        """Paper's accounting: 2 ints per node + 1 pointer per leaf entity."""
        n_nodes = len(self.nodes)
        return 2 * 4 * n_nodes + 8 * len(self.leaves)

    def unpersist(self) -> None:
        for df in (self.cells, self.level_hashes, self.traces):
            try:
                df.unpersist()
            except Exception:
                pass


def prefix_keys(path: np.ndarray) -> np.ndarray:
    """``(n, m)`` "/"-joined routing prefixes of ``(n, m)`` routing paths.

    Column ``i`` holds each path's level-``i+1`` node key, so the last
    column is the leaf key.
    """
    keys = np.empty(path.shape, dtype=object)
    if path.size:
        pref = pd.Series(path[:, 0]).astype(str)
        keys[:, 0] = pref
        for i in range(1, path.shape[1]):
            pref = pref + "/" + pd.Series(path[:, i]).astype(str)
            keys[:, i] = pref
    return keys


def key_paths(keys: pd.Series | pd.Index, m: int) -> np.ndarray:
    """``(n, m)`` routing paths of "/"-joined leaf keys."""
    return np.array(keys.str.split("/").tolist(), dtype=np.int64).reshape(-1, m)


def _tree_tables(paths: pd.DataFrame, m: int) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Node and leaf tables from collected `entity_paths` rows."""
    route = np.array(paths.path.tolist(), dtype=np.int32).reshape(-1, m)
    keys = prefix_keys(route)
    nodes = (
        pd.DataFrame(
            {
                "level": np.tile(np.arange(1, m + 1, dtype=np.int32), len(route)),
                "key": keys.ravel(),
                "route": route.ravel(),
                "sig_val": np.array(paths.route_vals.tolist(), np.int64).ravel(),
            }
        )
        .groupby(["level", "key", "route"], as_index=False)
        .agg(sig_val=("sig_val", "min"), n_entities=("sig_val", "size"))
        .sort_values(["level", "key"], ignore_index=True)
    )
    leaves = pd.DataFrame(
        {"entity": paths.entity.to_numpy(), "key": keys[:, -1]}
    ).sort_values("entity", ignore_index=True)
    return nodes, leaves


def build_minsigtree(
    spark: SparkSession, traces: DataFrame, sp: SpIndex, fam: HashFamily
) -> MinSigTree:
    """Build the MinSigTree (Algorithm 1) over a trace DataFrame."""
    traces = traces.persist()
    cells = entity_level_cells(spark, traces, sp).persist()
    lh = build_level_hashes(spark, cells, sp, fam).persist()
    paths = entity_paths(entity_signatures(cells, lh, fam)).toPandas()
    nodes, leaves = _tree_tables(paths, sp.m)
    sizes = level_sizes(cells).toPandas()
    return MinSigTree(
        sp=sp,
        fam=fam,
        nodes=nodes,
        leaves=leaves,
        sizes=sizes,
        cells=cells,
        level_hashes=lh,
        traces=traces,
    )


def bulk_update(
    spark: SparkSession, tree: MinSigTree, new_traces: DataFrame
) -> tuple[MinSigTree, float]:
    """Apply a batch of new trace records (§3.2.3); returns (tree, seconds).

    Entities appearing in ``new_traces`` may be existing (their records are
    appended and signatures recomputed — steps 1-4 of §3.2.3) or brand new
    (steps 3-4 only). Node signature values merge by min; leaf membership
    moves. The timing covers signature recomputation and index surgery,
    which is what Fig. 8 measures.
    """
    t0 = time.perf_counter()
    new_traces = new_traces.persist()
    updated = new_traces.select("entity").distinct()

    merged_traces = tree.traces.unionByName(new_traces).persist()
    # Recompute the full per-entity relations for affected entities only.
    affected_traces = merged_traces.join(F.broadcast(updated), "entity")
    new_cells = entity_level_cells(spark, affected_traces, tree.sp).persist()
    merged_cells = (
        tree.cells.join(F.broadcast(updated), "entity", "left_anti")
        .unionByName(new_cells)
        .persist()
    )
    # Cell hashes are a pure function of the cell (min over *all* grid
    # children — see hashing.build_level_hashes), so existing rows stay
    # valid; only hash cells never observed before and union-dedup.
    lh_new = build_level_hashes(spark, new_cells, tree.sp, tree.fam)
    lh = (
        tree.level_hashes.unionByName(lh_new)
        .dropDuplicates(["level", "cell"])
        .persist()
    )
    paths = entity_paths(entity_signatures(new_cells, lh, tree.fam)).toPandas()
    new_nodes, new_leaves = _tree_tables(paths, tree.m)

    upd_ids = set(new_leaves.entity)
    leaves = pd.concat(
        [tree.leaves[~tree.leaves.entity.isin(upd_ids)], new_leaves],
        ignore_index=True,
    ).sort_values("entity", ignore_index=True)
    nodes = (
        pd.concat([tree.nodes, new_nodes], ignore_index=True)
        .groupby(["level", "key", "route"], as_index=False)
        .agg(sig_val=("sig_val", "min"))
        .sort_values(["level", "key"], ignore_index=True)
    )
    prefixes = prefix_keys(key_paths(leaves.key, tree.m)).ravel()
    counts = pd.Series(prefixes).value_counts()
    nodes["n_entities"] = nodes.key.map(counts).fillna(0).astype("int64")
    # An emptied leaf (every entity moved away) is removed, as in §3.2.3.
    nodes = nodes[nodes.n_entities > 0].reset_index(drop=True)
    new_sizes = level_sizes(new_cells).toPandas()
    sizes = pd.concat(
        [
            tree.sizes[~tree.sizes.entity.isin(upd_ids)],
            new_sizes,
        ],
        ignore_index=True,
    )
    elapsed = time.perf_counter() - t0
    out = MinSigTree(
        sp=tree.sp,
        fam=tree.fam,
        nodes=nodes,
        leaves=leaves,
        sizes=sizes,
        cells=merged_cells,
        level_hashes=lh,
        traces=merged_traces,
    )
    return out, elapsed
