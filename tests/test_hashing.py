"""Tests for the hash family and level-cell hashes (Section 3.2.1)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.cells import entity_level_cells
from repro.core.hashing import _P, HashFamily, build_level_hashes
from repro.core.signatures import entity_signatures
from repro.mobility.im_model import generate_traces_pdf
from repro.spindex.builder import build_sp_index
from tests.paper_example import example_hash_family, example_sp_index, example_traces


@pytest.fixture(scope="module")
def sp():
    return build_sp_index(8, 3)


@pytest.fixture(scope="module")
def fam(sp):
    return HashFamily(n_h=8, r=sp.n_base * 48, seed=1)


@pytest.fixture(scope="module")
def built(spark, sp, fam):
    tr = spark.createDataFrame(generate_traces_pdf(sp, 30, 48, seed=4))
    cells = entity_level_cells(spark, tr, sp)
    cells.persist().count()
    lh = build_level_hashes(spark, cells, sp, fam)
    lh.persist().count()
    yield cells, lh
    cells.unpersist()
    lh.unpersist()


@pytest.mark.parametrize("code", [2**40 + 7, 2**62])
def test_hash_codes_exact_for_large_codes(fam, code):
    """((a_u·c + b_u) mod P) mod r in exact integer arithmetic, also where
    c·a_u does not fit in int64."""
    a, b = fam._coeffs()
    want = [((int(a_u) * code + int(b_u)) % _P) % fam.r for a_u, b_u in zip(a, b)]
    assert fam.hash_codes(np.array([code])).tolist() == [want]


def test_hash_codes_shape_and_range(fam):
    codes = np.arange(100)
    h = fam.hash_codes(codes)
    assert h.shape == (100, fam.n_h)
    assert h.min() >= 0 and h.max() < fam.r


def test_hash_deterministic(fam):
    codes = np.arange(50)
    np.testing.assert_array_equal(fam.hash_codes(codes), fam.hash_codes(codes))


def test_different_seeds_differ(sp):
    f1 = HashFamily(n_h=4, r=1000, seed=0)
    f2 = HashFamily(n_h=4, r=1000, seed=9)
    assert not np.array_equal(f1.hash_codes(np.arange(20)), f2.hash_codes(np.arange(20)))


def test_injected_table_overrides():
    fam = HashFamily(n_h=2, r=12, table={5: [7, 7]})
    h = fam.hash_codes(np.array([5, 6]))
    assert list(h[0]) == [7, 7]
    assert list(h[1]) != [7, 7]


def test_every_observed_cell_hashed(built):
    cells, lh = built
    n_cells = cells.select("level", "cell").distinct().count()
    assert lh.count() == n_cells


def test_base_level_hash_is_raw_hash(built, fam, sp):
    cells, lh = built
    rows = lh.filter(F.col("level") == sp.m).limit(20).toPandas()
    # base cell code hashed directly (its only descendant is itself)
    expect = fam.hash_codes(rows.cell.to_numpy())
    got = np.stack(rows.h.to_numpy())
    np.testing.assert_array_equal(got, expect)


def test_parent_hash_leq_children(built, sp, spark, fam):
    """h_u(parent cell) <= h_u(child cell) — the §3.2.1 constraint."""
    cells, lh = built
    pdf = lh.toPandas()
    parent_of = dict(zip(sp.units.unit, sp.units.parent))
    by_cell = {(r.level, r.t, r.unit): np.asarray(r.h) for r in pdf.itertuples()}
    checked = 0
    for r in pdf.itertuples():
        if r.level == 1:
            continue
        par = parent_of[r.unit]
        key = (r.level - 1, r.t, par)
        assert key in by_cell
        assert (by_cell[key] <= np.asarray(r.h)).all()
        checked += 1
    assert checked > 0


def test_theorem_3_1_signature_order(spark, built, fam, sp):
    """Thm 3.1: sig_e^i[u] <= sig_e^{i+1}[u] for every entity, i, u."""
    cells, lh = built
    sigs = entity_signatures(cells, lh, fam).toPandas()
    for e, grp in sigs.groupby("entity"):
        g = grp.sort_values("level")
        mats = np.stack(g.sig.to_numpy())
        assert (np.diff(mats, axis=0) >= 0).all(), f"entity {e}"


def test_theorem_3_2_pruned_set(spark, built, fam, sp):
    """Thm 3.2 (generalized): sig_e^i[u] > h_u(s) => s not in seq_e^j, j>=i."""
    cells, lh = built
    sigs = entity_signatures(cells, lh, fam).toPandas()
    cells_pdf = cells.toPandas()
    hashes = lh.toPandas()
    hmap = {(r.level, r.cell): np.asarray(r.h) for r in hashes.itertuples()}
    ecells = {
        (e, l): set(g.cell) for (e, l), g in cells_pdf.groupby(["entity", "level"])
    }
    sig_map = {(r.entity, r.level): np.asarray(r.sig) for r in sigs.itertuples()}
    rng = np.random.default_rng(0)
    all_keys = list(hmap)
    for _ in range(300):
        lvl, cell = all_keys[rng.integers(len(all_keys))]
        e = int(rng.choice(cells_pdf.entity.unique()))
        for i in range(1, lvl + 1):
            sig = sig_map.get((e, i))
            if sig is None:
                continue
            h = hmap[(lvl, cell)]
            if (sig > h).any():
                assert cell not in ecells.get((e, lvl), set()), (e, i, lvl, cell)


def test_example_32_level_hashes(spark):
    """Example 3.2: coarse hashes are mins over the full child set."""
    sp = example_sp_index()
    fam = example_hash_family()
    tr = spark.createDataFrame(example_traces())
    cells = entity_level_cells(spark, tr, sp)
    lh = build_level_hashes(spark, cells, sp, fam).toPandas()
    got = {(r.level, r.t, r.unit): list(r.h) for r in lh.itertuples()}
    # h(T1L5)=min((2,8),(5,6))=(2,6); h(T2L5)=min((8,3),(1,5))=(1,3)
    assert got[(1, 0, 4)] == [2, 6]
    assert got[(1, 1, 4)] == [1, 3]
    # h(T1L6)=min((4,4),(7,2))=(4,2); h(T2L6)=min((6,1),(3,7))=(3,1)
    assert got[(1, 0, 5)] == [4, 2]
    assert got[(1, 1, 5)] == [3, 1]
