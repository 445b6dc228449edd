"""Top-k query processing over the MinSigTree — Section 4.

The engine follows Algorithm 2 adapted to the Spark driver/executor split,
as one best-first loop over a *group table* plus one counting primitive:

* the group table says which entities are searched together and bounds
  their per-level overlap with the query; the driver turns that into
  every group's Thm-4.1 upper bound in one vectorized pass. `LeafGroups`
  (default) are the MinSigTree leaves with the materialized
  ``SIG_N[route]`` values (the paper's *partial pruned set*, §4.1);
  `repro.baseline.cluster_bitmap.ClusterGroups` are §6.2's bitmap rows;
* every exact score comes from `level_counts`: one distributed job that
  joins the persisted cell relation against the (broadcast) query cells
  and returns per-level intersection and size matrices. An exploration
  round passes its candidate batch (broadcast join); brute force and the
  App.-D evaluations pass none (every other entity, a filtered scan).

Level-aware pruning: a constraint from the tree node at level ``i``
applies to query cells of level ``j >= i`` only (generalized Thm 3.2 —
``sig^i <= sig^j`` holds only upward), matching the paper's Example 4.1
where a level-2 node cannot shrink the level-1 term.

Termination (early stop): return once the k-th best exact score is >= the
maximum upper bound among unexplored groups. Pruning effectiveness is
Def. 5.1: ``(checked - k) / |E|`` (lower is better).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.adm import ADMParams, adm_score
from repro.core.minsigtree import MinSigTree, path_keys

_EPS = 1e-12


@dataclass
class TopKResult:
    """Outcome of one top-k query."""

    query: int
    k: int
    results: list[tuple[int, float]]  # (entity, score), best first
    checked: int  # entities whose exact ADM was computed
    rounds: int  # distributed scoring rounds issued
    n_entities: int

    @property
    def pruning_effectiveness(self) -> float:
        """Def. 5.1 — fraction of *extra* entities checked; lower=better."""
        return max(0, self.checked - self.k) / max(1, self.n_entities)


@dataclass
class _QueryCells:
    """Per-level cell arrays + hash matrices for one query entity."""

    entity: int
    levels: dict[int, np.ndarray]  # level -> cell codes (C_l,)
    hashes: dict[int, np.ndarray]  # level -> (C_l, n_h) hash matrix
    sizes: np.ndarray  # (m,) |seq_q^l|
    pdf: pd.DataFrame  # (level, cell) for the scoring join


def group_members(keys: np.ndarray, entities: np.ndarray) -> tuple[list, list]:
    """Sorted distinct ``keys`` and, per key, its ``entities`` in input order."""
    order = np.argsort(keys, kind="stable")
    uniq, first = np.unique(keys[order], return_index=True)
    return list(uniq), np.split(entities[order], first[1:])


class LeafGroups:
    """MinSigTree leaves as search groups, bounded by Thm 3.2's pruned sets."""

    def __init__(self, tree: MinSigTree):
        self.m = tree.m
        keys = path_keys(tree.path, tree.fam.n_h)
        self.keys, self.members = group_members(keys[:, -1], tree.entity)
        # (J, m) routing path of each leaf and the stored SIG value at
        # every prefix of it.
        first = np.unique(keys[:, -1], return_index=True)[1]
        self._route = tree.path[first]
        sig = tree.nodes.set_index("key").sig_val.loc[keys[first].ravel()]
        self._sig = sig.to_numpy(dtype=np.int64).reshape(self._route.shape)

    def survivors(self, qc: _QueryCells) -> np.ndarray:
        """``(J, m)`` count of the query's level-l cells outside each
        leaf's pruned set (level-aware)."""
        surv = np.zeros((len(self.keys), self.m), dtype=np.float64)
        for l, h_l in qc.hashes.items():
            mask = np.ones((h_l.shape[0], len(self.keys)), dtype=bool)
            for i in range(l):  # tree levels 1..l apply to level-l cells
                mask &= h_l[:, self._route[:, i] - 1] >= self._sig[:, i][None, :]
            surv[:, l - 1] = mask.sum(axis=0)
        return surv


class TopKEngine:
    """Exact top-k search over the groups of a built `MinSigTree`.

    ``groups`` is the group table searched: ``keys``, ``members`` (entity
    arrays, in group order) and ``survivors(qc) -> (G, m)``, an upper
    bound on each group member's per-level intersection with the query.
    It defaults to the tree's leaves (`LeafGroups`).

    ``size_aware=True`` (default) additionally caps each group's bound
    using the known ``|seq_e^l|`` of its member entities: the true
    per-level intersection is at most ``min(survivors, |seq_e^l|)`` and
    the member's own size appears in the ADM denominator, so

    ``UB_group = max over members e of
        Σ_l l^u (min(surv_l, sz_e_l) / (sz_e_l + |seq_q^l|))^v / max``

    This is never larger than the paper's artificial-entity bound
    (Thm 4.1) and never smaller than the member's true score, so
    exactness is preserved (tested); ``size_aware=False`` gives the
    paper-pure bound.
    """

    def __init__(
        self,
        spark: SparkSession,
        tree: MinSigTree,
        adm: ADMParams,
        size_aware: bool = True,
        groups=None,
    ):
        if adm.m != tree.m:
            raise ValueError("ADM level count must match the sp-index height")
        self.spark = spark
        self.tree = tree
        self.adm = adm
        self.m = tree.m
        self.size_aware = size_aware
        self.groups = LeafGroups(tree) if groups is None else groups
        # Sorted entities and their |seq_e^l| rows, for exact scoring.
        self.all_entities = tree.entity
        self._sz_matrix = tree.sizes.astype(np.float64)
        # Group row of every entity, in `all_entities` order.
        members = self.groups.members
        rows = np.repeat(np.arange(len(members)), list(map(len, members)))
        row_of = pd.Series(rows, index=np.concatenate(members))
        self._entity_rows = row_of.loc[self.all_entities].to_numpy()
        self._qc_cache: dict[int, _QueryCells] = {}

    def _bounds_from_surv(self, surv: np.ndarray, qc: "_QueryCells") -> np.ndarray:
        """Group upper bounds given per-group per-level survivor counts."""
        base = self._adm(qc, surv, surv)
        if not self.size_aware:
            return base
        es = surv[self._entity_rows]  # (E, m)
        eb = self._adm(qc, np.minimum(es, self._sz_matrix), self._sz_matrix)
        ub = np.zeros(len(surv))
        np.maximum.at(ub, self._entity_rows, eb)
        return ub

    # ---------------------------------------------------------------- query

    def query_cells(self, entity: int) -> _QueryCells:
        """Collect the query entity's per-level cells and hash vectors."""
        if int(entity) in self._qc_cache:
            return self._qc_cache[int(entity)]
        rows = (
            self.tree.cells.filter(F.col("entity") == int(entity))
            .join(self.tree.level_hashes.select("level", "cell", "h"), ["level", "cell"])
            .select("level", "cell", "h")
            .toPandas()
        )
        if not len(rows):
            raise KeyError(f"entity {entity} has no presence instances")
        levels: dict[int, np.ndarray] = {}
        hashes: dict[int, np.ndarray] = {}
        sizes = np.zeros(self.m, dtype=np.int64)
        for l, grp in rows.groupby("level"):
            levels[int(l)] = grp["cell"].to_numpy()
            hashes[int(l)] = np.stack(grp["h"].to_numpy())
            sizes[int(l) - 1] = len(grp)
        qc = _QueryCells(
            entity=int(entity),
            levels=levels,
            hashes=hashes,
            sizes=sizes,
            pdf=rows[["level", "cell"]].reset_index(drop=True),
        )
        self._qc_cache[int(entity)] = qc
        return qc

    def leaf_upper_bounds(self, qc: _QueryCells) -> np.ndarray:
        """Thm-4.1 upper bound for every group (vectorized)."""
        return self._bounds_from_surv(self.groups.survivors(qc), qc)

    def level_counts(
        self, qc: _QueryCells, candidates: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-level overlap of ``candidates`` with the query (one Spark job).

        Returns ``(inter, sizes)``, both ``(n, m)``: ``inter[i, l-1] =
        |seq_c^l ∩ seq_q^l|`` and ``sizes[i, l-1] = |seq_c^l|`` for the
        i-th candidate ``c`` — enough to evaluate any per-level measure
        (ADM with any u/v, Dice, Jaccard, Cosine). A candidate array is
        broadcast-joined to the cell relation; ``None`` means every entity
        but the query (`_others`), scanned with a filter instead.
        """
        cells = self.tree.cells
        if candidates is None:
            candidates = self._others(qc.entity)
            cells = cells.filter(F.col("entity") != qc.entity)
        else:
            cand = self.spark.createDataFrame(
                pd.DataFrame({"entity": candidates.astype("int64")})
            )
            cells = cells.join(F.broadcast(cand), "entity")
        inter = np.zeros((len(candidates), self.m), dtype=np.float64)
        if len(candidates):
            qdf = F.broadcast(self.spark.createDataFrame(qc.pdf))
            cnt = (
                cells.join(qdf, ["level", "cell"])
                .groupBy("entity", "level")
                .agg(F.count("*").alias("cnt"))
                .toPandas()
            )
            rows = pd.Index(candidates).get_indexer(cnt.entity)
            inter[rows, cnt.level.to_numpy() - 1] = cnt.cnt.to_numpy()
        return inter, self._sizes_of(candidates)

    def _sizes_of(self, entities: np.ndarray) -> np.ndarray:
        """``(n, m)`` ``|seq_e^l|`` rows of indexed ``entities``."""
        return self._sz_matrix[np.searchsorted(self.all_entities, entities)]

    def _others(self, entity: int) -> np.ndarray:
        """Every indexed entity except ``entity``, in index order."""
        return self.all_entities[self.all_entities != int(entity)]

    def _adm(self, qc: _QueryCells, inter: np.ndarray, sz: np.ndarray) -> np.ndarray:
        """Eq. 20 between the query and each row of per-level counts."""
        return adm_score(self.adm, inter, sz, np.broadcast_to(qc.sizes, inter.shape))

    def exact_scores(
        self, qc: _QueryCells, candidates: np.ndarray
    ) -> pd.Series:
        """Exact ADM for ``candidates`` (one Spark job)."""
        scores = self._adm(qc, *self.level_counts(qc, candidates))
        return pd.Series(scores, index=candidates)

    def topk(
        self, entity: int, k: int, batch_size: int | None = None
    ) -> TopKResult:
        """Algorithm 2: best-first group exploration with early termination."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        qc = self.query_cells(entity)
        ubs = self.leaf_upper_bounds(qc)
        order = np.argsort(-ubs, kind="stable")
        batch = batch_size or max(2 * k, 32)
        top: list[tuple[float, int]] = []  # (score, entity) sorted desc
        checked = 0
        rounds = 0
        ptr = 0

        def settled() -> bool:  # the k-th score beats the next group's UB
            return len(top) >= k and top[k - 1][0] >= ubs[order[ptr]] - _EPS

        while ptr < len(order) and not settled():
            cand: list[int] = []
            while ptr < len(order) and len(cand) < batch and not settled():
                members = self.groups.members[order[ptr]]
                cand.extend(members[members != entity])
                ptr += 1
            if not cand:
                break
            scores = self.exact_scores(qc, np.asarray(cand, dtype=np.int64))
            rounds += 1
            checked += len(cand)
            top.extend(zip(scores.to_numpy(), scores.index.to_numpy()))
            top.sort(key=lambda t: (-t[0], t[1]))
            top = top[:k]
        results = [(int(e), float(s)) for s, e in top[:k]]
        return TopKResult(
            query=int(entity),
            k=k,
            results=results,
            checked=checked,
            rounds=rounds,
            n_entities=len(self.all_entities),
        )

    # ----------------------------------------------------------- brute force

    def all_scores(self, entity: int) -> pd.Series:
        """Exact ADM of ``entity`` vs every other entity (one Spark scan)."""
        qc = self.query_cells(entity)
        scores = self._adm(qc, *self.level_counts(qc))
        return pd.Series(scores, index=self._others(entity))

    def brute_force(self, entity: int, k: int) -> TopKResult:
        """Full scan: exact ADM against every other entity (baseline oracle)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores = self.all_scores(entity)
        order = sorted(
            zip(scores.to_numpy(), scores.index.to_numpy()),
            key=lambda t: (-t[0], t[1]),
        )
        results = [(int(e), float(s)) for s, e in order[:k]]
        return TopKResult(
            query=int(entity),
            k=k,
            results=results,
            checked=len(scores),
            rounds=1,
            n_entities=len(self.all_entities),
        )
