"""Figure 6: pruning effectiveness vs. result size k — index vs. baseline.

MinSigTree and the §6.2 cluster-bitmap baseline answer the same Top-k
workloads on SYN and REALSIM; PE (Def. 5.1, lower = better) is reported
per k. The paper's claim: PE degrades slowly with k and the MinSigTree
outperforms the bitmap baseline by large factors at scale.
"""
from __future__ import annotations

import pandas as pd

from repro.baseline.cluster_bitmap import ClusterGroups
from repro.core.adm import ADMParams
from repro.core.query import TopKEngine
from repro.eval.harness import (
    build_index,
    measure_pe,
    pick_queries,
    realsim_spec,
    syn_spec,
)

KS = (1, 10, 50)


def run(spark, quick: bool = False) -> pd.DataFrame:
    from dataclasses import replace

    from repro.mobility.im_model import IMParams

    n_entities = 300 if quick else 2000
    n_queries = 2 if quick else 6
    rows = []
    specs = [syn_spec(n_entities=n_entities, n_side=24, t_max=96)]
    if not quick:
        specs.append(realsim_spec(n_entities=n_entities, n_side=24, t_max=96))
        # SYN-DENSE: near-continuous detection per device, the regime of
        # the paper's REAL data (~650K detections/device). Bitmap vectors
        # saturate here — the §6.7 failure mode the paper argues for.
        specs.append(
            syn_spec(
                name="SYN-DENSE",
                n_entities=1200,
                n_side=24,
                t_max=72,
                params=replace(IMParams(), activity_skew=0.2, p_co=0.7),
            )
        )
    for spec in specs:
        tree, _ = build_index(spark, spec, n_h=32 if quick else 128)
        adm = ADMParams(m=spec.m)

        def baseline(**opts) -> TopKEngine:
            groups = ClusterGroups(spark, tree, **opts)
            return TopKEngine(spark, tree, adm, groups=groups)

        engines = {
            "minsigtree": TopKEngine(spark, tree, adm),
            "baseline-locality": baseline(cluster_level=1, time_window=24),
            "baseline-coupled": baseline(cluster_mode="coupled", n_random_clusters=32),
        }
        queries = pick_queries(tree, n_queries)
        for method, eng in engines.items():
            for k in KS:
                res = measure_pe(eng, queries, k)
                rows.append(
                    {
                        "dataset": spec.name,
                        "method": method,
                        "k": k,
                        "pe": res.mean_pe,
                        "mean_checked": res.mean_checked,
                        "seconds_per_query": res.mean_seconds,
                    }
                )
        tree.unpersist()
    return pd.DataFrame(rows)


if __name__ == "__main__":
    from jobs._common import run_main

    run_main(run, "fig6_pe_vs_k")
