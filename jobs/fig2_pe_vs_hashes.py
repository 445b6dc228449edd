"""Figure 2: pruning effectiveness vs. the number of hash functions.

Measured PE (Def. 5.1, lower = better) on SYN and REALSIM for Top-1/10/50
queries, next to the Eq.-16-19 model prediction (fed with the measured
mean |seq^m| and the n_c implied by the measured expected k-th degree).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.adm import ADMParams
from repro.core.prune_model import n_c_from_expected_degree, predicted_pe
from repro.core.query import TopKEngine
from repro.eval.harness import build_index, pick_queries, realsim_spec, syn_spec

KS = (1, 10, 50)


def run(spark, quick: bool = False) -> pd.DataFrame:
    n_hashes = (8, 32) if quick else (8, 32, 128, 512)
    n_entities = 400 if quick else 1500
    n_queries = 3 if quick else 6
    rows = []
    for spec in (
        syn_spec(n_entities=n_entities, n_side=24, t_max=96),
        realsim_spec(n_entities=n_entities, n_side=24, t_max=96),
    ):
        for n_h in n_hashes:
            tree, _ = build_index(spark, spec, n_h=n_h)
            eng = TopKEngine(spark, tree, ADMParams(m=spec.m))
            queries = pick_queries(tree, n_queries)
            seq_m = float(tree.sizes[:, -1].mean())
            for k in KS:
                pes, checks, kth = [], [], []
                for q in queries:
                    r = eng.topk(int(q), k)
                    pes.append(r.pruning_effectiveness)
                    checks.append(r.checked)
                    kth.append(r.results[-1][1] if r.results else 0.0)
                d_e = float(np.mean(kth))
                n_c = n_c_from_expected_degree(
                    d_e, max(1, int(seq_m)), spec.m, 1.0, 1.0
                )
                pred = predicted_pe(
                    spec.hash_range, max(1, int(seq_m)), n_h, n_c
                )
                rows.append(
                    {
                        "dataset": spec.name,
                        "n_h": n_h,
                        "k": k,
                        "pe_measured": float(np.mean(pes)),
                        "pe_predicted": pred,
                        "mean_checked": float(np.mean(checks)),
                        "kth_degree": d_e,
                    }
                )
            tree.unpersist()
    return pd.DataFrame(rows)


if __name__ == "__main__":
    from jobs._common import run_main

    run_main(run, "fig2_pe_vs_hashes")
