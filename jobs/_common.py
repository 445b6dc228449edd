"""Shared plumbing for the experiment jobs.

Every ``jobs/<name>.py`` exposes ``run(spark, quick=False) -> DataFrame``
(a pandas table whose rows mirror the paper's figure/table) plus a
``main()`` wrapper for ``spark-submit``. Results are written to
``results/<name>.md`` and ``.json`` so EXPERIMENTS.md can be assembled
from committed artifacts; ``--quick`` runs write to the untracked
``results/quick/`` instead, so they never replace a full-scale table.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pandas as pd

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > half of ``MemTotal`` in ``/proc/meminfo``. The cgroup read is
    best-effort: a container's sysfs emulation may not pass the host limit
    through, and an unbounded value (cgroup-v1's ~9.2e18 "unlimited"
    sentinel, or a missing limit) is treated as absent so the JVM is
    never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            with open(p) as f:
                raw = f.read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "meminfo"
    with open("/proc/meminfo") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return f"{max(1, kib // (2 << 20))}g"


def get_spark(app: str):
    """The SparkSession of every test session and job run.

    Master and driver memory are read at JVM launch, so they go into
    ``PYSPARK_SUBMIT_ARGS`` (unless already set) before the first session
    starts. Shuffle partitions default to the session's parallelism
    (``SPARK_SHUFFLE_PARTITIONS`` overrides). Automatic broadcast joins
    stay off because the code broadcasts its tiny tables explicitly, so
    tests see the same plans as the benchmark.
    """
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.conf.set(
        "spark.sql.shuffle.partitions",
        os.environ.get("SPARK_SHUFFLE_PARTITIONS", s.sparkContext.defaultParallelism),
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def save(name: str, table: pd.DataFrame, quick: bool = False) -> None:
    out = RESULTS_DIR / "quick" if quick else RESULTS_DIR
    out.mkdir(parents=True, exist_ok=True)
    table.to_json(out / f"{name}.json", orient="records", indent=1)
    with open(out / f"{name}.md", "w") as f:
        f.write(f"# {name}\n\n")
        f.write("```\n")
        f.write(table.to_string(index=False, float_format=lambda x: f"{x:.4f}"))
        f.write("\n```\n")
    print(f"\n== {name} ==")
    print(table.to_string(index=False))


def run_main(module_run, name: str) -> None:
    quick = "--quick" in sys.argv
    spark = get_spark(name)
    try:
        table = module_run(spark, quick=quick)
        save(name, table, quick)
    finally:
        spark.stop()
