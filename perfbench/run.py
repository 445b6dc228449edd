"""Benchmark of the MinSigTree top-k system: one closed-loop workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload syn-query --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``):

* ``syn-query``     — read path: topk and a brute-force scan at each of
  k = 1/10/50 per query entity, on a SYN index;
* ``realsim-mixed`` — epochs of one bulk update, a new engine and a burst
  of k=10 topk calls, each followed by a scan, that queries a hot set of
  two REALSIM entities twice; two epochs cover all difficulty strata.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans around each layer's public functions, plus
the tracing overhead from untraced repeats of the same timed cycles.
Every ``topk`` and ``brute_force`` answer is checked against an
independent numpy scan (``oracle.py``). The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is non-zero if any operation failed.

The benchmark fixes its own Spark launch (``SPARK`` below) rather than
reading the test or job configuration, and keeps every file it writes
under ``.perfbench_out/`` in the checkout: run records, spans, Spark's
event log, local and temporary directories.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("syn-query", "realsim-mixed")
#: Spark launch settings, fixed here so runs do not depend on the machine's
#: memory limit detection or on the test configuration.
SPARK = {
    "master": f"local[{min(2, os.cpu_count() or 1)}]",
    "driver_memory": "1g",
    "spark.sql.shuffle.partitions": "2",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_environment(run_dir: Path) -> None:
    """Import path, worker environment and file locations, before pyspark loads."""
    src = ROOT / "src"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(ROOT)]
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    tempfile.tempdir = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    confs = " ".join(
        f"--conf {k}={v}" for k, v in SPARK.items() if k.startswith("spark.")
    )
    os.environ.update(
        {
            # Spark's Python workers import `repro` from this checkout.
            "PYTHONPATH": os.pathsep.join([str(src), str(ROOT)]),
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYSPARK_PYTHON": sys.executable,
            "TMPDIR": str(tmp),
            # The JVM that spark-submit runs first to build the command line.
            "SPARK_LAUNCHER_OPTS": java_opts,
            "SPARK_LOCAL_DIRS": str(run_dir / "spark-local"),
            "PYSPARK_SUBMIT_ARGS": (
                f"--master {SPARK['master']} --driver-memory {SPARK['driver_memory']} "
                f"{confs} --conf 'spark.driver.extraJavaOptions={java_opts}' pyspark-shell"
            ),
        }
    )


def start_spark(event_log: Path | None):
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    if event_log is not None:
        event_log.mkdir()
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", event_log.as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is None:
        return
    if proc.stdin:
        proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "query.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    prepare_environment(run_dir)

    from perfbench import metrics, tracing
    from perfbench.workloads import GENERATORS, Run

    spark = start_spark(run_dir / "eventlog" if args.trace else None)
    tracer = uninstall = None
    try:
        if args.trace:
            tracer = tracing.Tracer(spark.sparkContext)
            tracer.enabled = True
            uninstall = tracing.install(tracer)
        run = Run(spark, args.workload, args.seed, args.seconds, tracer)
        traces, idx = run.set_up()
        pools, warm_entity = run.pools(idx, run.take_fingerprint(traces))
        idx = run.warm_up(traces, idx, warm_entity)
        first_op_s = time.perf_counter() - T_PROCESS
        run.timed(GENERATORS[args.workload](run, traces, idx, pools))
    finally:
        if uninstall is not None:
            uninstall()
        stop_spark(spark)

    e2e, notes = metrics.end_to_end(run)
    notes["process_to_first_timed_op_s"] = first_op_s
    layer, layer_notes = {}, {}
    if tracer is not None:
        task_s = tracing.task_seconds_by_group(run_dir / "eventlog")
        shutil.rmtree(run_dir / "eventlog")  # ~100 MB, mostly query plans
        layer, layer_notes = metrics.per_layer(run, tracer, task_s)
        tracer.write(run_dir / "spans.jsonl")
    failed = sum(not o.ok for o in run.ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "spark": SPARK,
        "inputs": run.fingerprint,
        "end_to_end": as_json(e2e),
        "per_layer": as_json(layer),
        "notes": {**notes, **layer_notes},
        "errors": [o.error for o in run.ops if not o.ok],
        "ops": [o.__dict__ for o in run.ops],
    }
    (run_dir / "run.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"spark {json.dumps(SPARK)}")
    print(f"inputs {json.dumps(run.fingerprint)}")
    for name, (v, u) in {**e2e, **layer}.items():
        print(f"  {name:36s} {v:14.6f} {u}")
    for name, v in record["notes"].items():
        print(f"  {name:36s} {v}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(run.ops),
                "failed": failed,
                "metrics": as_json(layer if args.trace else e2e),
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
