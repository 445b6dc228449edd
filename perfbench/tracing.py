"""Outside-in tracing: spans around the public functions of each layer.

Nothing inside the program is changed. `install` replaces module and class
attributes with wrappers that open a span around each call, so the layer
boundaries are the public functions of ``mobility.im_model``,
``core.cells``, ``core.hashing``, ``core.signatures``, ``core.minsigtree``
and ``core.query``. The build-stage functions return lazy Spark
DataFrames; while tracing is on, their wrappers force the result with
``persist().count()`` inside the span, so the span holds the stage's work
(this forcing is part of the tracing overhead). When the operation ends,
the forced results that the program did not persist itself are
unpersisted again, so the traced program keeps the cache it would keep
untraced. Each benchmark operation runs in its own Spark job group, so a
span's Spark job count is the change in the group's job list across the
span. Executor task seconds per operation come from Spark's event log,
read after the session stops.

Spans are kept in memory as ``(name, start, end, parent, op, jobs, rows)``
and written out as JSON lines when the benchmark ends.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int | None  # benchmark operation id
    jobs: int = 0  # Spark jobs started inside the span
    rows: int | None = None  # rows of a forced stage result


class Tracer:
    """In-memory span recorder with per-operation Spark job groups."""

    def __init__(self, sc):
        self.sc = sc
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._group: str | None = None
        self.forced: list = []  # stage results forced in the current op
        self.kept: set[int] = set()  # ids of frames persisted by the program

    # ------------------------------------------------------------ operations

    def begin_op(self, op_id: int, kind: str) -> None:
        self._op = op_id
        self.kept.clear()
        if self.enabled:
            self._group = f"perfbench-op-{op_id}"
            self.sc.setJobGroup(self._group, kind)

    def end_op(self) -> int:
        """Close the current operation; returns its Spark job count."""
        jobs = self._jobs()
        for df in self.forced:
            if id(df) not in self.kept:
                df.unpersist()
        self.forced.clear()
        self.kept.clear()
        if self._group is not None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        self._op = None
        self._group = None
        return jobs

    def _jobs(self) -> int:
        if self._group is None:
            return 0
        return len(self.sc.statusTracker().getJobIdsForGroup(self._group))

    # ----------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        jobs0 = self._jobs()
        sp = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()
            sp.jobs = self._jobs() - jobs0

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        return [sp.end - sp.start - c for sp, c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for sp, self_s in zip(self.spans, self.self_times()):
                f.write(json.dumps({**asdict(sp), "self_s": self_s}) + "\n")


def _wrap(tracer: Tracer, fn, name: str, force: bool, persist):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
            if force:
                out = persist(out)
                tracer.forced.append(out)
                sp.rows = out.count()
            return out

    return wrapper


def install(tracer: Tracer):
    """Wrap every traced layer function; returns a callable that undoes it."""
    from pyspark.sql import DataFrame

    import repro.core.minsigtree as ms
    import repro.core.query as q
    import repro.mobility.im_model as im

    persist = DataFrame.persist

    @functools.wraps(persist)
    def noting_persist(df, *args, **kwargs):
        tracer.kept.add(id(df))
        return persist(df, *args, **kwargs)

    # (owner, attribute, span name, force the lazy DataFrame result)
    targets = [
        (im, "generate_traces", "mobility.generate_traces", True),
        # minsigtree binds the stage functions into its own namespace, so
        # the wrappers go where build_minsigtree and bulk_update look them up.
        (ms, "entity_level_cells", "cells.entity_level_cells", True),
        (ms, "build_level_hashes", "hashing.build_level_hashes", True),
        (ms, "entity_signatures", "signatures.entity_signatures", True),
        (ms, "entity_paths", "signatures.entity_paths", True),
        (ms, "build_minsigtree", "minsigtree.build_minsigtree", False),
        (ms, "bulk_update", "minsigtree.bulk_update", False),
        (q.TopKEngine, "__init__", "query.engine_init", False),
        (q.TopKEngine, "topk", "query.topk", False),
        (q.TopKEngine, "brute_force", "query.brute_force", False),
        (q.TopKEngine, "query_cells", "query.query_cells", False),
        (q.TopKEngine, "leaf_upper_bounds", "query.leaf_upper_bounds", False),
        (q.TopKEngine, "exact_scores", "query.exact_scores", False),
    ]
    saved = [(DataFrame, "persist", persist)]
    DataFrame.persist = noting_persist
    for owner, attr, name, force in targets:
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, _wrap(tracer, orig, name, force, persist))

    def uninstall() -> None:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return uninstall


_WANTED = ('{"Event":"SparkListenerJobStart"', '{"Event":"SparkListenerTaskEnd"')


def task_seconds_by_group(event_log_dir: Path) -> dict[str, float]:
    """Executor run seconds per Spark job group, from a finished event log."""
    stage_group: dict[int, str] = {}
    secs: dict[str, float] = {}
    for path in sorted(p for p in event_log_dir.iterdir() if p.is_file()):
        with open(path) as f:
            for line in f:
                # Skip the bulky plan events without parsing them.
                if not line.startswith(_WANTED):
                    continue
                ev = json.loads(line)
                kind = ev.get("Event")
                if kind == "SparkListenerJobStart":
                    group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                    if group:
                        for sid in ev.get("Stage IDs", []):
                            stage_group[sid] = group
                elif kind == "SparkListenerTaskEnd":
                    group = stage_group.get(ev.get("Stage ID"))
                    run_ms = (ev.get("Task Metrics") or {}).get("Executor Run Time", 0)
                    if group:
                        secs[group] = secs.get(group, 0.0) + run_ms / 1000.0
    return secs
