"""Run every experiment job at full scale, writing results/ artifacts.

Usage: python scripts/run_experiments.py [--quick] [job ...]
(``--quick`` tables go to results/quick/, which git ignores.)
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from jobs._common import get_spark, save  # noqa: E402

JOBS = [
    "table2_measure_sim",
    "fig7_indexing_cost",
    "fig8_update_cost",
    "fig4_pe_vs_adm",
    "fig5_time_vs_memory",
    "fig6_pe_vs_k",
    "fig2_pe_vs_hashes",
    "fig3_pe_vs_datachar",
]


def main() -> None:
    quick = "--quick" in sys.argv
    wanted = [a for a in sys.argv[1:] if not a.startswith("-")] or JOBS
    spark = get_spark("experiments")
    try:
        for name in wanted:
            mod = __import__(f"jobs.{name}", fromlist=["run"])
            t0 = time.time()
            print(f"--- running {name} (quick={quick}) ---", flush=True)
            table = mod.run(spark, quick=quick)
            save(name, table, quick)
            print(f"--- {name} done in {time.time() - t0:.0f}s ---", flush=True)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
