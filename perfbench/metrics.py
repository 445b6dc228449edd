"""End-to-end and per-layer metrics from a run's op records and spans."""
from __future__ import annotations

import resource
import statistics

import numpy as np

from perfbench.workloads import MIN_CYCLES, Run


TAIL_PERCENTILE = 75


def tail(values: list[float]) -> float:
    """``TAIL_PERCENTILE``-th percentile, interpolated between order statistics.

    A run holds 8 to 12 queries, not the hundreds that would leave ten
    samples beyond a high percentile, so the sample count is reported
    beside it. Of so few, p90 is nearly the slowest query, which a single
    scheduling stall decides; p75 is the highest percentile that stays
    steady from run to run. The percentile is fixed so that a faster
    program, which completes more queries in the same time, is still
    compared at the same percentile.
    """
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def _secs(run: Run, kind: str, phases: tuple[str, ...]) -> list[float]:
    return [o.seconds for o in run.ops if o.kind == kind and o.phase in phases]


def _median(run: Run, kind: str, fallback: tuple[str, ...] = ()) -> float:
    """Median seconds of the timed ``kind`` ops, else of those in ``fallback`` phases."""
    return statistics.median(_secs(run, kind, ("timed",)) or _secs(run, kind, fallback))


def end_to_end(run: Run) -> tuple[dict, dict]:
    """``(metrics, notes)``; metrics map name -> (value, unit)."""
    topk = _secs(run, "topk", ("timed",))
    prefix_pe = [
        o.pe
        for o in run.ops
        if o.kind == "topk" and o.phase == "timed" and o.cycle < MIN_CYCLES[run.workload]
    ]
    metrics = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "query_qps": (len(topk) / run.timed_s, "1/s"),
        "query_p50_s": (statistics.median(topk), "s"),
        "query_tail_s": (tail(topk), "s"),
        "scan_p50_s": (_median(run, "brute_force"), "s"),
        "build_s": (_median(run, "build", ("setup",)), "s"),
        "update_s": (_median(run, "update", ("warmup",)), "s"),
        "pe_mean": (float(np.mean(prefix_pe)), "ratio"),
        "index_bytes": (float(run.index_bytes), "bytes"),
        "driver_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed = sum(not o.ok for o in run.ops)
    notes = {
        "error_rate": failed / len(run.ops),
        "query_tail_percentile": TAIL_PERCENTILE,
        "query_samples": len(topk),
        "timed_s": run.timed_s,
        "cycles": run.cycles,
        "setup_reps_s": run.setup_s,
    }
    return metrics, notes


def per_layer(run: Run, tracer, task_s: dict[str, float]) -> tuple[dict, dict]:
    """``(metrics, notes)`` from the traced spans of a ``--trace 1`` run.

    Layer seconds are means per call over every traced op (the cold first
    set-up runs untraced); query-side seconds are per traced timed ``topk``. Counts
    and PE come from the deterministic prefix, so they repeat for a seed.
    Untraced passes enter only ``trace.overhead_ratio``.
    """
    ops = {o.id: o for o in run.ops}
    spans = [(sp, s) for sp, s in zip(tracer.spans, tracer.self_times()) if sp.op is not None]
    timed = [(sp, s) for sp, s in spans if ops[sp.op].phase == "timed"]
    topk_ids = {o.id for o in run.ops if o.kind == "topk" and o.phase == "timed" and o.traced}
    topk = [(sp, s) for sp, s in spans if sp.name == "query.topk" and sp.op in topk_ids]
    prefix = [
        o
        for o in run.ops
        if o.kind == "topk" and o.phase == "timed" and o.cycle < MIN_CYCLES[run.workload]
    ]
    first_cycle = [o for o in prefix if o.cycle == 0 and o.traced]
    timed_ops = [o for o in run.ops if o.phase == "timed" and o.traced]
    qc = [sp for sp, _ in timed if sp.name == "query.query_cells"]

    def mean(xs) -> float:
        return float(np.mean(xs)) if len(xs) else 0.0

    def dur(name, among=spans) -> float:
        return mean([sp.end - sp.start for sp, _ in among if sp.name == name])

    def self_of(name) -> float:
        return mean([s for sp, s in spans if sp.name == name])

    def rows(name) -> float:
        return mean([sp.rows for sp, _ in spans if sp.name == name])

    def per_topk(name) -> float:
        inside = [sp.end - sp.start for sp, _ in spans if sp.name == name and sp.op in topk_ids]
        return sum(inside) / max(1, len(topk_ids))

    def pe_at(k) -> float:
        warmup = [o.pe for o in run.ops if o.kind == "topk" and o.k == k and o.phase == "warmup"]
        return mean([o.pe for o in prefix if o.k == k] or warmup)

    def jobs(kind) -> float:
        return mean([o.jobs for o in run.ops if o.kind == kind and o.traced])

    m = {
        "query.topk_s": (mean([sp.end - sp.start for sp, _ in topk]), "s"),
        "query.query_cells_s": (per_topk("query.query_cells"), "s"),
        "query.leaf_upper_bounds_s": (per_topk("query.leaf_upper_bounds"), "s"),
        "query.exact_scores_s": (per_topk("query.exact_scores"), "s"),
        "query.topk_self_s": (mean([s for _, s in topk]), "s"),
        # A cache hit serves the query cells without a Spark job.
        "query.query_cells_cache_hit_ratio": (mean([sp.jobs == 0 for sp in qc]), "ratio"),
        "query.rounds_per_query": (mean([o.rounds for o in first_cycle]), "count"),
        "query.checked_per_query": (mean([o.checked for o in first_cycle]), "count"),
        "query.spark_jobs_per_query": (mean([o.jobs for o in first_cycle]), "count"),
        "query.engine_init_s": (dur("query.engine_init"), "s"),
        "query.brute_force_s": (dur("query.brute_force", timed), "s"),
        "query.pe_k1": (pe_at(1), "ratio"),
        "query.pe_k10": (pe_at(10), "ratio"),
        "query.pe_k50": (pe_at(50), "ratio"),
        "spark.jobs": (mean([o.jobs for o in timed_ops]), "count"),
        "spark.task_s": (mean([task_s.get(f"perfbench-op-{o.id}", 0.0) for o in timed_ops]), "s"),
        "cells.entity_level_cells_s": (dur("cells.entity_level_cells"), "s"),
        "cells.rows": (rows("cells.entity_level_cells"), "count"),
        "hashing.build_level_hashes_s": (dur("hashing.build_level_hashes"), "s"),
        "hashing.cells_hashed": (rows("hashing.build_level_hashes"), "count"),
        "signatures.entity_signatures_s": (dur("signatures.entity_signatures"), "s"),
        "signatures.entity_paths_s": (dur("signatures.entity_paths"), "s"),
        "minsigtree.build_self_s": (self_of("minsigtree.build_minsigtree"), "s"),
        "minsigtree.update_self_s": (self_of("minsigtree.bulk_update"), "s"),
        "minsigtree.nodes": (float(run.tree_shape[0]), "count"),
        "minsigtree.leaves": (float(run.tree_shape[1]), "count"),
        "minsigtree.spark_jobs_per_build": (jobs("build"), "count"),
        "minsigtree.spark_jobs_per_update": (jobs("update"), "count"),
        "mobility.generate_traces_s": (dur("mobility.generate_traces"), "s"),
        "mobility.trace_rows": (rows("mobility.generate_traces"), "count"),
        "trace.overhead_ratio": (overhead(run), "ratio"),
    }
    children = ("query.query_cells_s", "query.leaf_upper_bounds_s", "query.exact_scores_s")
    notes = {
        "traced_topk_calls": len(topk_ids),
        "topk_children_plus_self_s": sum(m[n][0] for n in children) + m["query.topk_self_s"][0],
    }
    return m, notes


def overhead(run: Run) -> float:
    """Traced over untraced op seconds of the timed phase.

    Each timed cycle of a traced run has a traced and an untraced pass of
    the same ops on the same entities and starting index, so the ratio
    compares the same work; 1.0 means tracing costs nothing.
    """
    timed = [o for o in run.ops if o.phase == "timed"]
    on = sum(o.seconds for o in timed if o.traced)
    off = sum(o.seconds for o in timed if not o.traced)
    return on / off
