"""MinSigTree construction and updates — Sections 3.2.2-3.2.3.

A node is fully determined by its members' routing paths: it stores two
integers, the routing index and the minimum of the members' signature
values at that index (§3.2.2). The driver keeps one entity-sorted set of
aligned arrays — ``entity``, ``path`` (routing index per level),
``route_vals`` (signature value at it) and ``sizes`` (``|seq_e^l|``) — and
`_tree_tables` derives the two small relations the search reads:

* ``nodes``: ``(level, key, route, sig_val, n_entities)``, one row per
  node; ``key`` is the int64 `path_keys` code of the routing prefix and
  ``sig_val`` the min over subtree entities of ``sig_e^level[route]``;
* ``leaves``: ``(entity, key)``, one row per entity.

Signatures, paths and sizes are Catalyst aggregations collected to the
driver once per build or update (one row per entity). The per-cell
relations (``cells``, ``level_hashes``) stay distributed for scoring.

Bulk update (§3.2.3) replaces the affected entities' rows and derives the
tables again, so node values equal a fresh build's. Its merged relations
are local checkpoints: plans stay bounded over chained updates, at the
price of lineage-based recovery.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.cells import entity_level_cells
from repro.core.hashing import HashFamily, build_level_hashes
from repro.core.signatures import entity_paths, entity_signatures
from repro.spindex.builder import SpIndex


def path_keys(path: np.ndarray, n_h: int) -> np.ndarray:
    """``(E, m)`` int64 node keys of ``(E, m)`` routing paths.

    Column ``i`` holds the level-``i+1`` node key: the routing prefix read
    as a base-``(n_h+1)`` number (digits ``1..n_h``). Key order is the
    lexicographic order of the prefixes, and keys of different levels
    never collide. Raises `ValueError` when ``(n_h+1)^m`` overflows int64.
    """
    path = np.asarray(path, dtype=np.int64)
    m = path.shape[1]
    if (n_h + 1) ** m > 2**63:
        raise ValueError(f"node keys overflow int64 at n_h={n_h}, m={m}")
    keys = np.empty(path.shape, dtype=np.int64)
    acc = np.zeros(len(path), dtype=np.int64)
    for i in range(m):
        acc = acc * (n_h + 1) + path[:, i]
        keys[:, i] = acc
    return keys


def _tree_tables(
    entity: np.ndarray, path: np.ndarray, route_vals: np.ndarray, n_h: int
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Node and leaf tables of entity-aligned routing paths and values."""
    keys = path_keys(path, n_h)
    levels = np.arange(1, path.shape[1] + 1, dtype=np.int32)
    nodes = (
        pd.DataFrame(
            {
                "level": np.tile(levels, len(path)),
                "key": keys.ravel(),
                "route": path.ravel(),
                "sig_val": route_vals.ravel(),
            }
        )
        .groupby(["level", "key", "route"], as_index=False)
        .agg(sig_val=("sig_val", "min"), n_entities=("sig_val", "size"))
    )
    return nodes, pd.DataFrame({"entity": entity, "key": keys[:, -1]})


@dataclass
class MinSigTree:
    """A built index plus the distributed relations needed to query it.

    ``entity``, ``path``, ``route_vals`` and ``sizes`` are row-aligned and
    sorted by entity; ``nodes`` and ``leaves`` are derived from them.
    """

    sp: SpIndex
    fam: HashFamily
    entity: np.ndarray  # (E,) int64, sorted
    path: np.ndarray  # (E, m) routing index per level, 1-based
    route_vals: np.ndarray  # (E, m) sig_e^l at the routing index
    sizes: np.ndarray  # (E, m) |seq_e^l|
    cells: DataFrame  # (entity, level, t, unit, cell)
    level_hashes: DataFrame  # (level, t, unit, cell, h)
    traces: DataFrame  # raw (entity, t, base_unit)
    nodes: pd.DataFrame = field(init=False)  # (level, key, route, sig_val, n_entities)
    leaves: pd.DataFrame = field(init=False)  # (entity, key)

    def __post_init__(self):
        self.nodes, self.leaves = _tree_tables(
            self.entity, self.path, self.route_vals, self.fam.n_h
        )

    @property
    def m(self) -> int:
        return self.sp.m

    @property
    def n_entities(self) -> int:
        return len(self.entity)

    def index_size_bytes(self) -> int:
        """Paper's accounting: 2 ints per node + 1 pointer per leaf entity."""
        n_nodes = len(self.nodes)
        return 2 * 4 * n_nodes + 8 * len(self.leaves)

    def unpersist(self) -> None:
        """Drop the cached relations. An updated tree's local checkpoints
        are not caches: Spark frees them once the tree is garbage."""
        for df in (self.cells, self.level_hashes, self.traces):
            try:
                df.unpersist()
            except Exception:
                pass


def _arrays(paths: pd.DataFrame, m: int) -> dict[str, np.ndarray]:
    """Entity-sorted arrays of collected `entity_paths` rows."""
    paths = paths.sort_values("entity", ignore_index=True)

    def matrix(col: str, dtype) -> np.ndarray:
        return np.array(paths[col].tolist(), dtype=dtype).reshape(-1, m)

    return {
        "entity": paths.entity.to_numpy(dtype=np.int64),
        "path": matrix("path", np.int32),
        "route_vals": matrix("route_vals", np.int64),
        "sizes": matrix("sizes", np.int64),
    }


def build_minsigtree(
    spark: SparkSession, traces: DataFrame, sp: SpIndex, fam: HashFamily
) -> MinSigTree:
    """Build the MinSigTree (Algorithm 1) over a trace DataFrame."""
    path_keys(np.zeros((0, sp.m)), fam.n_h)  # key range, before any Spark work
    traces = traces.persist()
    cells = entity_level_cells(spark, traces, sp).persist()
    lh = build_level_hashes(spark, cells, sp, fam).persist()
    rows = _arrays(entity_paths(entity_signatures(cells, lh, fam)).toPandas(), sp.m)
    return MinSigTree(sp, fam, **rows, cells=cells, level_hashes=lh, traces=traces)


def bulk_update(
    spark: SparkSession, tree: MinSigTree, new_traces: DataFrame
) -> tuple[MinSigTree, float]:
    """Apply a batch of new trace records (§3.2.3); returns (tree, seconds).

    Entities appearing in ``new_traces`` may be existing (their records are
    appended and signatures recomputed — steps 1-4 of §3.2.3) or brand new
    (steps 3-4 only). Their rows replace the old ones, and nodes and leaves
    are derived again as in a build. The source tree is left untouched.
    The timing covers signature recomputation and index surgery, which is
    what Fig. 8 measures.
    """
    t0 = time.perf_counter()
    new_traces = new_traces.persist()
    updated = new_traces.select("entity").distinct()

    # Local checkpoints cut the merged relations' lineage, so plans do not
    # grow with every chained update.
    merged_traces = tree.traces.unionByName(new_traces).localCheckpoint(eager=False)
    # Recompute the full per-entity relations for affected entities only.
    affected_traces = merged_traces.join(F.broadcast(updated), "entity")
    new_cells = entity_level_cells(spark, affected_traces, tree.sp).persist()
    merged_cells = (
        tree.cells.join(F.broadcast(updated), "entity", "left_anti")
        .unionByName(new_cells)
        .localCheckpoint(eager=False)
    )
    # Cell hashes are a pure function of the cell (min over *all* grid
    # children — see hashing.build_level_hashes), so existing rows stay
    # valid; only cells never observed before are hashed.
    unseen = new_cells.join(
        tree.level_hashes.select("level", "cell"), ["level", "cell"], "left_anti"
    )
    lh_new = build_level_hashes(spark, unseen, tree.sp, tree.fam)
    lh = tree.level_hashes.unionByName(lh_new).localCheckpoint(eager=False)
    new = _arrays(
        entity_paths(entity_signatures(new_cells, lh, tree.fam)).toPandas(), tree.m
    )
    keep = ~np.isin(tree.entity, new["entity"])
    order = np.argsort(np.concatenate([tree.entity[keep], new["entity"]]))
    rows = {
        name: np.concatenate([getattr(tree, name)[keep], arr])[order]
        for name, arr in new.items()
    }
    # Release the batch's frames: nothing cached then pins the checkpoints,
    # so they are freed once the tree is garbage; merged_cells recomputes
    # new_cells from the materialized merged_traces on first use.
    new_traces.unpersist()
    new_cells.unpersist()
    out = MinSigTree(
        tree.sp, tree.fam, **rows, cells=merged_cells, level_hashes=lh, traces=merged_traces
    )
    return out, time.perf_counter() - t0
