"""MinHash-style hash family over ST-cells — Section 3.2.1.

``n_h`` universal hash functions ``h_u(c) = ((a_u * c + b_u) mod P) mod R``
map base ST-cell codes to ``[0, R-1]`` with ``R = |S| = n_base * T`` (the
paper's range). The paper's hierarchy constraint — the hash of a coarse
cell is the min over its children — is realized by *rolling up* base-cell
hash vectors along the sp-index with an element-wise min, restricted to
cells observed in the dataset (see DESIGN.md: the two definitions give
identical pruning decisions for every cell that can appear in a signature
or a query).

`HashFamily.table` may be injected explicitly to replicate the paper's
worked Examples 3.2 / 4.1 bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

_P = 2_147_483_647  # Mersenne prime 2^31 - 1


@dataclass(frozen=True)
class HashFamily:
    """A deterministic family of ``n_h`` hash functions over cell codes.

    ``table`` (optional) maps cell code -> list of ``n_h`` hash values and
    overrides the universal-hash formula for those codes (paper examples).
    """

    n_h: int
    r: int  # hash range |S|
    seed: int = 0
    table: dict[int, list[int]] | None = field(default=None, hash=False)

    def _coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        a = rng.integers(1, _P, size=self.n_h, dtype=np.int64)
        b = rng.integers(0, _P, size=self.n_h, dtype=np.int64)
        return a, b

    def hash_codes(self, codes: np.ndarray) -> np.ndarray:
        """Vectorized: (n_codes,) -> (n_codes, n_h) int64 hash matrix."""
        codes = np.asarray(codes, dtype=np.int64)
        a, b = self._coeffs()
        # Reducing mod P first keeps (c mod P)·a + b < 2^63: exact int64
        # arithmetic for every code, where c·a would wrap.
        out = ((codes[:, None] % _P) * a[None, :] + b[None, :]) % _P % self.r
        if self.table:
            for i, c in enumerate(codes):
                if int(c) in self.table:
                    out[i, :] = np.asarray(self.table[int(c)], dtype=np.int64)
        return out


def elementwise_min(col: Column, n_h: int, r: int) -> Column:
    """Catalyst element-wise min over a collected list of hash arrays."""
    return F.aggregate(
        F.collect_list(col),
        F.array_repeat(F.lit(r).cast("long"), n_h),
        lambda acc, x: F.zip_with(acc, x, lambda a, b: F.least(a, b)),
    )


def build_level_hashes(spark, cells: DataFrame, sp, fam: HashFamily) -> DataFrame:
    """``(level, t, unit, cell, h)`` for every distinct observed cell.

    A cell's hash vector follows the paper's constraint exactly:
    ``h_u(t, l_x) = min over ALL base-unit descendants l_c of h_u(t, l_c)``
    (so for a base cell it is the raw universal hash). Because the min
    ranges over the full grid — not just observed cells — hash values are
    a pure function of the cell, independent of the dataset, which keeps
    incremental updates exact. Only *observed* cells get a row (the hash
    of an unobserved cell can never appear in a signature).
    """
    from repro.core.cells import cell_code, mapping_df

    m = sp.m
    observed = cells.select("level", "t", "unit").distinct()
    mp = mapping_df(spark, sp)
    # base_unit -> its level-m global id (the code base cells are hashed by)
    bridge = mp.filter(F.col("level") == m).select(
        "base_unit", F.col("unit").alias("b_uid")
    )
    # (level, unit) -> all base-unit descendants' level-m ids
    children = (
        mp.join(F.broadcast(bridge), "base_unit")
        .select("level", "unit", "b_uid")
    )
    n_units = sp.n_units_total
    expanded = observed.join(F.broadcast(children), ["level", "unit"]).select(
        "level",
        "t",
        "unit",
        cell_code(F.col("t").cast("long"), F.col("b_uid"), n_units).alias("b_code"),
    )
    schema = T.StructType(
        [
            T.StructField("level", T.IntegerType(), False),
            T.StructField("t", T.IntegerType(), False),
            T.StructField("unit", T.LongType(), False),
            T.StructField("b_code", T.LongType(), False),
            T.StructField("h", T.ArrayType(T.LongType()), False),
        ]
    )

    def hash_batch(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for b in batches:
            if not len(b):
                continue
            hm = fam.hash_codes(b["b_code"].to_numpy())
            b = b.copy()
            b["h"] = list(hm)
            yield b

    hashed = expanded.mapInPandas(hash_batch, schema=schema)
    return (
        hashed.groupBy("level", "t", "unit")
        .agg(elementwise_min(F.col("h"), fam.n_h, fam.r).alias("h"))
        .select(
            "level",
            "t",
            "unit",
            cell_code(F.col("t").cast("long"), F.col("unit"), n_units).alias("cell"),
            "h",
        )
    )
