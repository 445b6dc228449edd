"""Leaf-ordered block store with a memory budget — Figure 5 substrate.

The paper varies the memory allocated to the system relative to the raw
data size: records are laid out on disk in MinSigTree-leaf order, and at
query time the entities explored by the search must be fetched — from
memory if their block is resident, from disk otherwise. Because leaf
adjacency is only partially correlated with association degree, misses
persist until the cache covers a large share of the data (§6.6).

We reproduce the mechanism literally: per-entity cell sets are written to
parquet blocks in leaf order; `set_cache_fraction(f)` pins the first
``f``-fraction of blocks in memory; `LocalScoringEngine` scores candidate
batches by fetching their cell sets through the store (pandas/numpy
intersection — the data-access cost, which is what Fig. 5 isolates,
dominates either way).
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.minsigtree import MinSigTree
from repro.core.query import TopKEngine, _QueryCells


class LeafBlockStore:
    """Per-entity cell sets in leaf-ordered parquet blocks + partial cache."""

    def __init__(
        self,
        spark: SparkSession,
        tree: MinSigTree,
        root: str | os.PathLike,
        entities_per_block: int = 64,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.entities_per_block = entities_per_block
        cells_pdf = tree.cells.select("entity", "level", "cell").toPandas()
        order = tree.leaves.sort_values(["key", "entity"]).entity.to_numpy()
        blocks = np.array_split(
            order, max(1, int(np.ceil(len(order) / entities_per_block)))
        )
        self._entity_block: dict[int, int] = {}
        self.n_blocks = len(blocks)
        by_entity = dict(tuple(cells_pdf.groupby("entity")))
        for bid, ents in enumerate(blocks):
            rows = [by_entity[e] for e in ents if e in by_entity]
            pdf = (
                pd.concat(rows, ignore_index=True)
                if rows
                else pd.DataFrame(columns=["entity", "level", "cell"])
            )
            pdf.to_parquet(self.root / f"block-{bid:05d}.parquet", index=False)
            for e in ents:
                self._entity_block[int(e)] = bid
        self._cache: dict[int, dict[int, np.ndarray]] = {}
        self._cached_blocks: set[int] = set()

    def set_cache_fraction(self, fraction: float) -> None:
        """Pin the first ``fraction`` of blocks (leaf order) in memory."""
        self._cache.clear()
        self._cached_blocks = set(range(int(round(fraction * self.n_blocks))))
        for bid in self._cached_blocks:
            self._load_block_into(bid, self._cache)

    def _load_block_into(
        self, bid: int, target: dict[int, dict[int, np.ndarray]]
    ) -> None:
        pdf = pd.read_parquet(self.root / f"block-{bid:05d}.parquet")
        for (e, l), grp in pdf.groupby(["entity", "level"]):
            target.setdefault(int(e), {})[int(l)] = grp.cell.to_numpy()

    def fetch_many(self, entities: list[int]) -> dict[int, dict[int, np.ndarray]]:
        """Cell sets for ``entities``; cache misses read parquet blocks."""
        out: dict[int, dict[int, np.ndarray]] = {}
        misses: dict[int, list[int]] = {}
        for e in entities:
            if e in self._cache:
                out[e] = self._cache[e]
            else:
                misses.setdefault(self._entity_block[int(e)], []).append(e)
        for bid in misses:
            scratch: dict[int, dict[int, np.ndarray]] = {}
            self._load_block_into(bid, scratch)
            for e in misses[bid]:
                out[e] = scratch.get(e, {})
        return out


class LocalScoringEngine(TopKEngine):
    """TopKEngine whose counting primitive reads through a LeafBlockStore."""

    def __init__(self, spark, tree: MinSigTree, adm, store: LeafBlockStore):
        super().__init__(spark, tree, adm)
        self.store = store

    def level_counts(
        self, qc: _QueryCells, candidates: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        if candidates is None:
            candidates = self._others(qc.entity)
        fetched = self.store.fetch_many([int(e) for e in candidates])
        qsets = {l: set(map(int, cs)) for l, cs in qc.levels.items()}
        cnt = np.zeros((len(candidates), self.m), dtype=np.float64)
        for i, e in enumerate(candidates):
            per_level = fetched.get(int(e), {})
            for l, cells in per_level.items():
                qs = qsets.get(l)
                if qs:
                    cnt[i, l - 1] = sum(1 for c in cells if int(c) in qs)
        return cnt, self._sizes_of(candidates)
