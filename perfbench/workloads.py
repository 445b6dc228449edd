"""The closed-loop workloads: run phases, seeded inputs and op cycles.

Every run has the same phases. *Set-up* repeats trace generation, index
build and engine construction ``SETUP_REPS`` times; the first repetition
also pays JVM and Python-worker warm-up, and the median repetition is
``setup_s``. *Warm-up* (untimed) applies the late batch ``-1``, whose
result is the index the timed phase starts from, and queries it until
query timings settle (``Run.warm_up``). The *timed* phase then runs the
workload's op cycles, one op at a time (a closed loop with one client),
until ``--seconds`` of op time have passed and at least ``MIN_CYCLES``
cycles are done. Those first cycles are the
deterministic prefix: ``pe_mean``, ``index_bytes`` and the per-query
counts come from it alone, so they repeat exactly for a seed, however fast
the program runs.

Every clock covers calls into the program only. A set-up repetition and
the timed phase are the sums of their op seconds, so the benchmark's own
work between ops (update batches, the oracle and its checks) is not
counted. The oracle of an index version collects its cells after the
first query on it, so that query, not the benchmark, pays for
materialising the program's lazily persisted cells.

In a traced run (``--trace 1``) every timed cycle runs twice over the same
entities and the same starting index, once traced and once untraced, the
traced pass first in even cycles. Per-layer figures come from the traced
passes; the two passes give the tracing overhead.

Each workload runs every op kind at least once, so every metric exists in
every run. Where the timed cycle has no op of a kind, that metric comes
from the untimed phases: ``build_s`` from the set-up builds, ``update_s``
from the warm-up update.

Each workload's dataset is fixed (``Spec.seed``), as the paper's SYN and
REALSIM datasets are: a different dataset per seed would change pruning
and so every latency, which no run length averages away. ``--seed`` picks
everything else: the order of the query strata, the late warm-up batch
and every update batch. The program receives only the generated inputs.
"""
from __future__ import annotations

import hashlib
import itertools
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

import repro.core.minsigtree as ms
import repro.core.query as q
import repro.mobility.im_model as im
from repro.core.adm import ADMParams
from repro.core.hashing import HashFamily
from repro.mobility.im_model import REALSIM_PARAMS, IMParams
from repro.spindex.builder import build_sp_index

from perfbench.oracle import ScanOracle

SETUP_REPS = 3
N_HASHES = 128
BATCH_ENTITIES = 30  # entities per update batch, half existing, half new
STRATA = 4  # query-difficulty strata
POOL = 3  # query entities per stratum, those nearest its median difficulty
HOT = 2  # realsim-mixed: entities in an epoch's hot set


@dataclass(frozen=True)
class Spec:
    """Dataset shape and generator seed."""

    name: str
    n_entities: int = 300
    n_side: int = 16
    m: int = 4
    t_max: int = 64
    params: IMParams = field(default_factory=IMParams)
    seed: int = 7


SPECS = {
    "syn-query": Spec("SYN"),
    "realsim-mixed": Spec("REALSIM", params=REALSIM_PARAMS),
}
# The prefix queries one entity of every stratum.
MIN_CYCLES = {"syn-query": STRATA, "realsim-mixed": STRATA // HOT}
TIMED_KS = {"syn-query": (1, 10, 50), "realsim-mixed": (10,)}  # topk k per entity
WARMUP_ROUNDS = 3  # query rounds of the warm-up, see Run.warm_up


@dataclass
class Op:
    id: int
    kind: str  # generate | build | update | engine_init | topk | brute_force
    phase: str  # cold (first set-up) | setup | warmup | timed
    cycle: int
    seconds: float
    ok: bool = True
    traced: bool = False
    k: int | None = None
    rounds: int | None = None
    checked: int | None = None
    pe: float | None = None
    jobs: int = 0
    error: str | None = None


class Index:
    """One index version: the tree, an engine over it, and its oracle."""

    def __init__(self, tree, engine, oracle: ScanOracle | None = None):
        self.tree, self.engine, self._oracle = tree, engine, oracle

    @property
    def oracle(self) -> ScanOracle:
        """The oracle over this version's cells, collected on first use."""
        if self._oracle is None:
            cells = self.tree.cells.select("entity", "level", "cell").toPandas()
            self._oracle = ScanOracle(cells, self.tree.m)
        return self._oracle

    def drop(self, keep_traces) -> None:
        for df in (self.tree.cells, self.tree.level_hashes, self.tree.traces):
            if df is not keep_traces:
                df.unpersist()


class Run:
    """One benchmark process: executes ops and keeps their records."""

    def __init__(self, spark, workload: str, seed: int, seconds: float, tracer=None):
        self.spark = spark
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.spec = SPECS[workload]
        self.sp = build_sp_index(self.spec.n_side, self.spec.m)
        self.fam = HashFamily(
            n_h=N_HASHES, r=self.spec.n_side**2 * self.spec.t_max, seed=0
        )
        self.adm = ADMParams(m=self.spec.m)
        self.rng = np.random.default_rng([seed, 0xBE4C])
        self.ops: list[Op] = []
        self.phase = "setup"
        self.cycle = 0
        self.setup_s: list[float] = []
        self.timed_s = 0.0
        self.cycles = 0
        self.index_bytes = 0
        self.tree_shape = (0, 0)  # (nodes, leaves)
        self.fingerprint: dict = {}

    # ------------------------------------------------------------------ ops

    def op(self, kind: str, fn, **info):
        """Time one call into the program; a raised error marks it failed."""
        tr = self.tracer
        rec = Op(len(self.ops), kind, self.phase, self.cycle, 0.0, **info)
        rec.traced = bool(tr and tr.enabled)
        if tr:
            tr.begin_op(rec.id, kind)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed op is counted, the run goes on
            out = None
            rec.ok, rec.error = False, repr(exc)
            traceback.print_exc(file=sys.stderr)
        rec.seconds = time.perf_counter() - t0
        if tr:
            rec.jobs = tr.end_op()
        self.ops.append(rec)
        return out, rec

    def query(self, idx: Index, kind: str, entity: int, k: int) -> None:
        """One ``topk`` or ``brute_force`` call, checked against the oracle."""
        call = idx.engine.topk if kind == "topk" else idx.engine.brute_force
        res, rec = self.op(kind, lambda: call(int(entity), k), k=k)
        if res is None:
            return
        rec.rounds, rec.checked = res.rounds, res.checked
        rec.pe = res.pruning_effectiveness
        why = idx.oracle.check(int(entity), k, res.results)
        if why is not None:
            rec.ok, rec.error = False, f"{kind}({entity}, k={k}): {why}"
            print(f"oracle mismatch: {rec.error}", file=sys.stderr)

    def index(self, tree) -> Index:
        engine, _ = self.op("engine_init", lambda: q.TopKEngine(self.spark, tree, self.adm))
        if engine is None:
            raise RuntimeError("engine construction failed")
        return Index(tree, engine)

    def fresh_engine(self, idx: Index) -> Index:
        """A new engine over ``idx``, with an empty query-cell cache (untimed)."""
        return Index(idx.tree, q.TopKEngine(self.spark, idx.tree, self.adm), idx._oracle)

    def build(self, traces) -> Index:
        tree, _ = self.op(
            "build", lambda: ms.build_minsigtree(self.spark, traces, self.sp, self.fam)
        )
        if tree is None:
            raise RuntimeError("build failed")
        return self.index(tree)

    def update(self, idx: Index, batch: pd.DataFrame) -> Index:
        sdf = self.spark.createDataFrame(batch)
        out, _ = self.op("update", lambda: ms.bulk_update(self.spark, idx.tree, sdf))
        if out is None:
            raise RuntimeError("bulk update failed")
        return self.index(out[0])

    def record_index(self, idx: Index) -> None:
        """Size and shape of the index version that ends the prefix."""
        self.index_bytes = idx.tree.index_size_bytes()
        self.tree_shape = (len(idx.tree.nodes), len(idx.tree.leaves))

    # --------------------------------------------------------------- inputs

    def generate(self):
        s = self.spec

        def gen():
            df = im.generate_traces(self.spark, self.sp, s.n_entities, s.t_max, s.params, s.seed)
            df = df.persist()
            df.count()
            return df

        traces, _ = self.op("generate", gen)
        if traces is None:
            raise RuntimeError("trace generation failed")
        return traces

    def batch(self, b: int) -> pd.DataFrame:
        """Update batch ``b``: later records of existing entities plus new ones."""
        s = self.spec
        rng = np.random.default_rng([self.seed, 0xBA7C, b + 1])
        pdf = im.generate_traces_pdf(
            self.sp, BATCH_ENTITIES, s.t_max, s.params, seed=int(rng.integers(1 << 31))
        )
        n_old = BATCH_ENTITIES // 2
        old = rng.choice(s.n_entities, size=n_old, replace=False)
        new = s.n_entities + (b + 1) * BATCH_ENTITIES + np.arange(BATCH_ENTITIES - n_old)
        ids = np.concatenate([old, new]).astype(np.int64)
        return pd.DataFrame(
            {
                "entity": ids[pdf["entity"].to_numpy()],
                "t": (pdf["t"].to_numpy() + s.t_max * (b + 2)).astype(np.int32),
                "base_unit": pdf["base_unit"].to_numpy().astype(np.int32),
            }
        )

    def take_fingerprint(self, traces) -> np.ndarray:
        """Record the input fingerprint; returns the active entities."""
        pdf = traces.toPandas().sort_values(["entity", "t", "base_unit"], ignore_index=True)
        h = hashlib.sha256()
        for col in ("entity", "t", "base_unit"):
            h.update(pdf[col].to_numpy(dtype=np.int64).tobytes())
        batch = pd.util.hash_pandas_object(self.batch(-1), index=False).to_numpy()
        bh = hashlib.sha256(batch.tobytes())
        s = self.spec
        self.fingerprint = {
            "dataset": f"{s.name} entities={s.n_entities} side={s.n_side} "
            f"t_max={s.t_max} m={s.m} seed={s.seed} n_h={N_HASHES}",
            "trace_rows": int(len(pdf)),
            "trace_sha256": h.hexdigest()[:16],
            "warmup_batch_sha256": bh.hexdigest()[:16],
        }
        per_entity = pdf.groupby("entity").size()
        return np.sort(per_entity[per_entity >= per_entity.median() / 2].index.to_numpy())

    def pools(self, idx: Index, active: np.ndarray) -> tuple[list[np.ndarray], int]:
        """Query pools, one per difficulty stratum, plus a warm-up entity.

        An entity's difficulty is the mean of its true 1st, 10th and 50th
        best scores (from the oracle): the lower they are, the more leaves
        a search must open before it can stop. Each of ``STRATA`` strata
        contributes the ``POOL`` entities nearest its median difficulty,
        nearest first, so every run queries the same mix of easy and hard
        entities: a run holds too few queries to average out a random
        pick. The warm-up entity has the overall median difficulty, which
        no pool holds.
        """
        diff = np.array([self._difficulty(idx.oracle, int(e)) for e in active])
        order = np.argsort(diff, kind="stable")
        pools = []
        for part in np.array_split(order, STRATA):
            near = np.argsort(np.abs(diff[part] - np.median(diff[part])), kind="stable")
            pools.append(active[part[near[:POOL]]])
        return pools, int(active[order[len(order) // 2]])

    @staticmethod
    def _difficulty(oracle: ScanOracle, entity: int) -> float:
        best = np.sort(oracle.scores(entity).to_numpy())[::-1]
        return float(best[[0, 9, 49]].mean())

    # --------------------------------------------------------------- phases

    def set_up(self):
        """``SETUP_REPS`` full set-ups; the last one's index is served."""
        idx = traces = None
        for rep in range(SETUP_REPS):
            if idx is not None:
                idx.drop(keep_traces=None)
            self.phase = "cold" if rep == 0 else "setup"
            if self.tracer is not None:
                # No per-layer figure uses the cold set-up, so it runs untraced.
                self.tracer.enabled = rep > 0
            n0 = len(self.ops)
            traces = self.generate()
            idx = self.build(traces)
            self.setup_s.append(sum(o.seconds for o in self.ops[n0:]))
        return traces, idx

    def warm_up(self, traces, idx: Index, entity: int) -> Index:
        """Apply the late batch ``-1``, then query until timings settle.

        Round 0 runs topk and a scan at k = 1, 10 and 50, so every query
        path is compiled. The other ``WARMUP_ROUNDS - 1`` rounds run topk
        and a scan at k = 10 on a fresh engine. In a SYN warm-up of four
        equal rounds the round times were 4.0, 3.4, 2.8 and 2.7 s: they
        stop falling after the third. Returns the served index.
        """
        self.phase = "warmup"
        upd = self.update(idx, self.batch(-1))
        idx.drop(keep_traces=traces)
        for r in range(WARMUP_ROUNDS):
            served = upd if r == 0 else self.fresh_engine(upd)
            for k in (1, 10, 50) if r == 0 else (10,):
                self.query(served, "topk", entity, k)
                self.query(served, "brute_force", entity, k)
        return upd

    def timed(self, cycles) -> None:
        """Run cycles until ``--seconds`` of op time have passed and the prefix is done.

        ``cycles`` yields ``(cycle, one_pass)``; a pass runs the cycle's ops
        once. The loop stops between cycles, so every cycle is complete.
        """
        self.phase = "timed"
        tr = self.tracer
        for cycle, one_pass in cycles:
            if cycle >= MIN_CYCLES[self.workload] and self.timed_s >= self.seconds:
                break
            self.cycle = cycle
            n0 = len(self.ops)
            if tr is None:
                one_pass()
            else:
                for traced in (True, False) if cycle % 2 == 0 else (False, True):
                    tr.enabled = traced
                    one_pass()
                tr.enabled = True
            self.timed_s += sum(o.seconds for o in self.ops[n0:])
            self.cycles = cycle + 1


# ------------------------------------------------------------------ workloads


def query_entities(run: Run, pools: list[np.ndarray]):
    """Query entities: one per difficulty pool in turn, the pools in seeded order.

    Each pool yields its entities nearest its median difficulty first, so
    every ``STRATA`` consecutive entities cover every stratum once.
    """
    order = run.rng.permutation(len(pools))
    for n in itertools.count():
        pool = pools[order[n % len(pools)]]
        yield pool[n // len(pools) % len(pool)]


def syn_query(run: Run, traces, idx: Index, pools: list[np.ndarray]):
    """Per entity: topk at k = 1, 10 and 50, each followed by a brute-force scan.

    Each pass runs on a fresh engine over the served index, so the first
    topk fetches the entity's query cells cold and the other five calls
    hit the engine's query-cell cache. The three scans of an entity do the
    same work; they are repeated because one scan per entity leaves a run
    four scans, too few for a steady ``scan_p50_s``.

    The entities come from ``query_entities``.
    """
    run.record_index(idx)
    for c, e in enumerate(query_entities(run, pools)):

        def one_pass(e=e):
            served = run.fresh_engine(idx)
            for k in TIMED_KS[run.workload]:
                run.query(served, "topk", e, k)
                run.query(served, "brute_force", e, k)

        yield c, one_pass


def realsim_mixed(run: Run, traces, idx: Index, pools: list[np.ndarray]):
    """Per epoch: one update batch, a new engine, a burst of k=10 topk and scans.

    The burst's hot set is the next ``HOT`` entities of
    ``query_entities``; it queries the set twice, each entity by topk and
    then a scan. The new engine starts with an empty query-cell cache, so
    the first topk per entity fetches its query cells cold and the other
    three calls hit the cache. A traced run applies the epoch's batch twice
    to the same index, once per pass, and keeps the first result.
    """
    state = {"idx": idx}
    entities = query_entities(run, pools)
    for c in itertools.count():
        hot = [next(entities) for _ in range(HOT)]
        made: list[Index] = []

        def one_pass(c=c, hot=hot, made=made):
            batch = run.batch(c)
            if made:
                # Spark's cache matches plans by content, so an identical
                # batch would let this pass reuse the first pass's cached
                # results; the same records in reverse order do not match.
                batch = batch.iloc[::-1].reset_index(drop=True)
            upd = run.update(state["idx"], batch)
            made.append(upd)
            if c < MIN_CYCLES[run.workload]:
                run.record_index(upd)
            for e in hot + hot:
                for k in TIMED_KS[run.workload]:
                    run.query(upd, "topk", e, k)
                run.query(upd, "brute_force", e, 10)

        yield c, one_pass
        state["idx"].drop(keep_traces=traces)
        state["idx"] = made[0]
        for extra in made[1:]:
            extra.drop(keep_traces=traces)


GENERATORS = {
    "syn-query": syn_query,
    "realsim-mixed": realsim_mixed,
}
