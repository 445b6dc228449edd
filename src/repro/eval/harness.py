"""Experiment harness: dataset specs, index building, PE sweeps.

Each figure/table job in ``jobs/`` composes these helpers. Scales are
laptop-sized stand-ins for the paper's cluster-scale runs (see DESIGN.md);
every knob of the paper's sensitivity analysis is exposed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.adm import ADMParams
from repro.core.hashing import HashFamily
from repro.core.minsigtree import MinSigTree, build_minsigtree
from repro.core.query import TopKEngine
from repro.mobility.im_model import IMParams, REALSIM_PARAMS, generate_traces
from repro.spindex.builder import SpIndex, build_sp_index


@dataclass(frozen=True)
class DatasetSpec:
    """A fully reproducible dataset: sp-index shape + mobility regime."""

    name: str
    n_entities: int = 2000
    n_side: int = 32
    m: int = 4
    a: float = 2.0
    b: float = 2.0
    t_max: int = 120
    params: IMParams = field(default_factory=IMParams)
    seed: int = 7

    def sp_index(self) -> SpIndex:
        return build_sp_index(self.n_side, self.m, self.a, self.b)

    def traces(self, spark: SparkSession, sp: SpIndex | None = None) -> DataFrame:
        sp = sp or self.sp_index()
        return generate_traces(
            spark, sp, self.n_entities, self.t_max, self.params, self.seed
        )

    @property
    def hash_range(self) -> int:
        """|S| = n_base * T, the paper's hash range."""
        return self.n_side * self.n_side * self.t_max


def syn_spec(**overrides) -> DatasetSpec:
    """The paper's SYN configuration (normal mobility, a=b=2, m=4)."""
    return replace(DatasetSpec(name="SYN"), **overrides)


def realsim_spec(**overrides) -> DatasetSpec:
    """REALSIM — hotspot-regime stand-in for the proprietary REAL data."""
    return replace(
        DatasetSpec(name="REALSIM", n_side=28, params=REALSIM_PARAMS), **overrides
    )


def build_index(
    spark: SparkSession, spec: DatasetSpec, n_h: int, hash_seed: int = 0
) -> tuple[MinSigTree, float]:
    """Generate traces and build the MinSigTree; returns (tree, seconds)."""
    sp = spec.sp_index()
    traces = spec.traces(spark, sp).persist()
    traces.count()  # materialize so build timing excludes data generation
    fam = HashFamily(n_h=n_h, r=spec.hash_range, seed=hash_seed)
    t0 = time.perf_counter()
    tree = build_minsigtree(spark, traces, sp, fam)
    return tree, time.perf_counter() - t0


def pick_queries(tree: MinSigTree, n_queries: int, seed: int = 13) -> np.ndarray:
    """Deterministic sample of query entities (active ones preferred)."""
    sizes = pd.Series(tree.sizes[:, -1], index=tree.entity)
    active = sizes[sizes >= max(2, sizes.median() / 2)].index.to_numpy()
    pool = active if len(active) >= n_queries else sizes.index.to_numpy()
    rng = np.random.default_rng(seed)
    return rng.choice(pool, size=min(n_queries, len(pool)), replace=False)


@dataclass
class PEResult:
    mean_pe: float
    mean_checked: float
    mean_seconds: float
    per_query: pd.DataFrame


def measure_pe(engine: TopKEngine, queries: np.ndarray, k: int) -> PEResult:
    """Average Def.-5.1 pruning effectiveness over a query workload."""
    rows = []
    for q in queries:
        t0 = time.perf_counter()
        res = engine.topk(int(q), k)
        dt = time.perf_counter() - t0
        rows.append(
            {
                "query": int(q),
                "k": k,
                "checked": res.checked,
                "pe": res.pruning_effectiveness,
                "seconds": dt,
            }
        )
    pdf = pd.DataFrame(rows)
    return PEResult(
        mean_pe=float(pdf.pe.mean()),
        mean_checked=float(pdf.checked.mean()),
        mean_seconds=float(pdf.seconds.mean()),
        per_query=pdf,
    )
