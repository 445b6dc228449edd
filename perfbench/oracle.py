"""Independent exactness oracle: a numpy Eq.-20 scan over collected cells.

The oracle shares no scoring code with the program. It takes the cell
relation ``(entity, level, cell)`` of one index version, collected once
outside any timed region, and scores a query entity against every other
entity with its own copy of the ADM formula

``d(a, b) = Σ_l l^u · (|A_l ∩ B_l| / (|A_l| + |B_l|))^v / Σ_l l^u · 0.5^v``

(paper Eq. 20 over discrete ST-cells). A ``topk`` or ``brute_force``
result passes when it has ``min(k, |E| - 1)`` entries, never returns the
query itself, reports each entity's true score, and its score multiset
equals the oracle's top-k scores, all within ``TOL``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

TOL = 1e-9


class ScanOracle:
    """Exact scores of one query entity against all others, from raw cells."""

    def __init__(self, cells: pd.DataFrame, m: int, u: float = 1.0, v: float = 1.0):
        self.m, self.u, self.v = m, u, v
        self.entities = np.unique(cells["entity"].to_numpy())
        ent_idx = np.searchsorted(self.entities, cells["entity"].to_numpy())
        level = cells["level"].to_numpy()
        cell = cells["cell"].to_numpy()
        n = len(self.entities)
        self._ent: list[np.ndarray] = []
        self._cell: list[np.ndarray] = []
        self.sizes = np.zeros((n, m), dtype=np.float64)
        for lvl in range(1, m + 1):
            sel = level == lvl
            self._ent.append(ent_idx[sel])
            self._cell.append(cell[sel])
            self.sizes[:, lvl - 1] = np.bincount(ent_idx[sel], minlength=n)
        w = np.arange(1, m + 1, dtype=np.float64) ** u
        self._weights = w / (w.sum() * 0.5**v)

    def scores(self, query: int) -> pd.Series:
        """Eq.-20 score of ``query`` against every other indexed entity."""
        qi = int(np.searchsorted(self.entities, query))
        if qi >= len(self.entities) or self.entities[qi] != query:
            raise KeyError(f"entity {query} is not in the index")
        n = len(self.entities)
        inter = np.zeros((n, self.m), dtype=np.float64)
        for lvl in range(self.m):
            ent, cell = self._ent[lvl], self._cell[lvl]
            qcells = cell[ent == qi]
            hit = np.isin(cell, qcells)
            inter[:, lvl] = np.bincount(ent[hit], minlength=n)
        denom = self.sizes + self.sizes[qi]
        ratio = np.divide(inter, denom, out=np.zeros_like(inter), where=denom > 0)
        score = (ratio**self.v) @ self._weights
        keep = np.arange(n) != qi
        return pd.Series(score[keep], index=self.entities[keep])

    def check(self, query: int, k: int, results: list[tuple[int, float]]) -> str | None:
        """``None`` when ``results`` is an exact top-k answer, else why not."""
        truth = self.scores(query)
        want = min(k, len(truth))
        if len(results) != want:
            return f"returned {len(results)} entities, expected {want}"
        got_ent = np.array([e for e, _ in results], dtype=np.int64)
        got_score = np.array([s for _, s in results], dtype=np.float64)
        if query in set(got_ent.tolist()):
            return "the query entity is in its own answer"
        if len(set(got_ent.tolist())) != len(got_ent):
            return "an entity is returned twice"
        missing = ~np.isin(got_ent, truth.index.to_numpy())
        if missing.any():
            return f"unknown entity {int(got_ent[missing][0])} in the answer"
        true_of_got = truth.reindex(got_ent).to_numpy()
        if np.abs(true_of_got - got_score).max(initial=0.0) > TOL:
            return "a reported score differs from the entity's true score"
        best = np.sort(truth.to_numpy())[::-1][:want]
        if np.abs(np.sort(got_score)[::-1] - best).max(initial=0.0) > TOL:
            return "the score multiset differs from the true top-k"
        return None
