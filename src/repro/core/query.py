"""Top-k query processing over the MinSigTree — Section 4.

The engine follows Algorithm 2 adapted to the Spark driver/executor split:

* the driver holds the (tiny) node/leaf tables and runs the best-first
  loop, computing every leaf's upper bound in one vectorized pass
  (Thm 4.1 with the materialized ``SIG_N[route]`` values — the paper's
  *partial pruned set* variant, §4.1);
* every exact score comes from one counting primitive, `level_counts`:
  one distributed job that joins the persisted cell relation against the
  (broadcast) query cells and returns per-level intersection and size
  matrices. An exploration round passes its candidate batch (broadcast
  join); brute force and the App.-D evaluations pass none (every other
  entity, a filtered scan).

Level-aware pruning: a constraint from the tree node at level ``i``
applies to query cells of level ``j >= i`` only (generalized Thm 3.2 —
``sig^i <= sig^j`` holds only upward), matching the paper's Example 4.1
where a level-2 node cannot shrink the level-1 term.

Termination (early stop): return once the k-th best exact score is >= the
maximum upper bound among unexplored leaves. Pruning effectiveness is
Def. 5.1: ``(checked - k) / |E|`` (lower is better).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.adm import ADMParams, adm_score
from repro.core.minsigtree import MinSigTree, key_paths, prefix_keys

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


class TopKEngine:
    """Exact top-k search over a built `MinSigTree`.

    ``size_aware=True`` (default) additionally caps each leaf's bound
    using the known ``|seq_e^l|`` of its member entities: the true
    per-level intersection is at most ``min(survivors, |seq_e^l|)`` and
    the member's own size appears in the ADM denominator, so

    ``UB_leaf = max over members e of
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
    ):
        if adm.m != tree.m:
            raise ValueError("ADM level count must match the sp-index height")
        self.spark = spark
        self.tree = tree
        self.adm = adm
        self.m = tree.m
        self.size_aware = size_aware
        # Leaf table: key -> entity list; constraint matrices (J, m) of
        # each leaf's routing path and the stored SIG value at every prefix.
        leaf_groups = tree.leaves.groupby("key").entity.apply(list)
        self._leaf_keys = list(leaf_groups.index)
        self._leaf_entities = list(leaf_groups.values)
        self._entity_leaf = dict(zip(tree.leaves.entity, tree.leaves.key))
        self._u = key_paths(leaf_groups.index, self.m)
        prefixes = prefix_keys(self._u).ravel()
        sig = tree.nodes.set_index("key").sig_val.loc[prefixes]
        self._s = sig.to_numpy(dtype=np.int64).reshape(self._u.shape)
        # |seq_e^l| matrix for exact scoring.
        self._sizes = tree.sizes.pivot_table(
            index="entity", columns="level", values="sz", fill_value=0
        ).reindex(columns=range(1, self.m + 1), fill_value=0)
        self.all_entities = self._sizes.index.to_numpy()
        self._qc_cache: dict[int, _QueryCells] = {}
        self._finalize_groups()

    def _finalize_groups(self) -> None:
        """Index entities by their group row (leaf or bitmap group)."""
        members = pd.Series(self._leaf_entities, dtype=object).explode()
        row_of = pd.Series(members.index, index=members.to_numpy(np.int64))
        self._entity_rows = row_of.loc[self.all_entities].to_numpy(np.int64)
        self._sz_matrix = self._sizes.to_numpy(dtype=np.float64)

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
        """Thm-4.1 upper bound for every leaf (vectorized, level-aware)."""
        j = len(self._leaf_keys)
        surv = np.zeros((j, self.m), dtype=np.float64)
        for l in range(1, self.m + 1):
            h_l = qc.hashes.get(l)
            if h_l is None or not len(h_l):
                continue
            mask = np.ones((h_l.shape[0], j), dtype=bool)
            for i in range(l):  # tree levels 1..l apply to level-l cells
                mask &= h_l[:, self._u[:, i] - 1] >= self._s[:, i][None, :]
            surv[:, l - 1] = mask.sum(axis=0)
        return self._bounds_from_surv(surv, qc)

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
        return inter, self._sizes.reindex(candidates).to_numpy(dtype=np.float64)

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
        """Algorithm 2: best-first leaf exploration with early termination."""
        qc = self.query_cells(entity)
        ubs = self.leaf_upper_bounds(qc)
        order = np.argsort(-ubs, kind="stable")
        batch = batch_size or max(2 * k, 32)
        top: list[tuple[float, int]] = []  # (score, entity) sorted desc
        checked = 0
        rounds = 0
        ptr = 0
        n_leaves = len(order)
        while ptr < n_leaves:
            if len(top) >= k and top[k - 1][0] >= ubs[order[ptr]] - _EPS:
                break
            cand: list[int] = []
            while ptr < n_leaves and (
                len(cand) < batch
                and not (
                    len(top) >= k and top[k - 1][0] >= ubs[order[ptr]] - _EPS
                )
            ):
                cand.extend(
                    e for e in self._leaf_entities[order[ptr]] if e != entity
                )
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
