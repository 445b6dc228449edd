"""Table 2 (Appendix D): simulation effectiveness of the ADM.

For each query entity, rank every other entity by (a) the Eq.-20 ADM and
(b) a classic level-weighted measure (Dice, Jaccard, Cosine); report the
average generalized Kendall's tau distance (K_avg) between the top-k
lists and the mean association-degree difference at equal ranks (ADDiff).
Per the paper, the ADM simulates Dice/Cosine best at v=1 and Jaccard at
v=1.2.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.adm import ADMParams, CLASSIC_MEASURES, adm_score
from repro.core.query import TopKEngine
from repro.eval.harness import build_index, pick_queries, syn_spec
from repro.eval.measures import ad_diff, k_avg

V_FOR = {"dice": 1.0, "jaccard": 1.2, "cosine": 1.0}
KS = (1, 10, 50)


def run(spark, quick: bool = False) -> pd.DataFrame:
    spec = syn_spec(n_entities=300 if quick else 1500, n_side=24, t_max=96)
    tree, _ = build_index(spark, spec, n_h=32)
    eng = TopKEngine(spark, tree, ADMParams(m=spec.m))
    queries = pick_queries(tree, 4 if quick else 12)
    acc: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for q in queries:
        qc = eng.query_cells(int(q))
        cnt, sz = eng.level_counts(qc)
        cands = eng.all_entities[eng.all_entities != q]
        qsz_b = np.broadcast_to(qc.sizes, sz.shape)
        for mname, fn in CLASSIC_MEASURES.items():
            adm = ADMParams(m=spec.m, u=1.0, v=V_FOR[mname])
            s_adm = adm_score(adm, cnt, sz, qsz_b)
            s_cls = fn(cnt, sz, qsz_b, spec.m)
            # stable rankings, ties broken by entity id on both sides
            ord_adm = cands[np.lexsort((cands, -s_adm))]
            ord_cls = cands[np.lexsort((cands, -s_cls))]
            deg_adm = np.sort(s_adm)[::-1]
            deg_cls = np.sort(s_cls)[::-1]
            for k in KS:
                kk = min(k, len(cands))
                acc.setdefault((mname, k), []).append(
                    (
                        k_avg(list(ord_adm[:kk]), list(ord_cls[:kk])),
                        ad_diff(deg_adm[:kk], deg_cls[:kk]),
                    )
                )
    rows = []
    for (mname, k), vals in acc.items():
        ka = float(np.mean([v[0] for v in vals]))
        ad = float(np.mean([v[1] for v in vals]))
        rows.append({"measure": mname, "k": k, "K_avg": ka, "ADDiff": ad})
    tree.unpersist()
    return pd.DataFrame(rows).sort_values(["measure", "k"], ignore_index=True)


if __name__ == "__main__":
    from jobs._common import run_main

    run_main(run, "table2_measure_sim")
