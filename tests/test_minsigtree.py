"""Tests for MinSigTree construction (Section 3.2.2, Example 3.2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.hashing import HashFamily
from repro.core.minsigtree import build_minsigtree, path_keys
from repro.mobility.im_model import generate_traces_pdf
from repro.spindex.builder import build_sp_index
from tests.paper_example import (
    EA,
    EB,
    EC,
    ED,
    example_hash_family,
    example_sp_index,
    example_traces,
)


@pytest.fixture(scope="module")
def example_tree(spark):
    tree = build_minsigtree(
        spark,
        spark.createDataFrame(example_traces()),
        example_sp_index(),
        example_hash_family(),
    )
    yield tree
    tree.unpersist()


def _key(tree, *path) -> int:
    """Node key of a routing path given as integers, e.g. node "2/1"."""
    return path_keys([path], tree.fam.n_h)[0, -1]


def test_example_32_level1_groups(example_tree):
    """N_1 = {e_d} (routing 1), N_2 = {e_a, e_b, e_c} (routing 2)."""
    leaves = example_tree.leaves
    top = leaves.key // (example_tree.fam.n_h + 1)  # level-1 prefix of m=2 keys
    by_top = dict(leaves.groupby(top).entity.apply(set))
    assert by_top == {_key(example_tree, 1): {ED}, _key(example_tree, 2): {EA, EB, EC}}


def test_example_32_node_signatures(example_tree):
    """Stored SIG values: N1->3, N2->2, N21->4, N22->5, N11->3.

    (The paper's Figure 1 shows e_d under N_12 with value 7; its own hash
    table implies sig_d^2 = <3,2>, routing e_d to child 1 with value 3 —
    the figure inherits the sig_d^2 erratum.)
    """
    tree = example_tree
    got = dict(zip(tree.nodes.key, tree.nodes.sig_val))
    assert got[_key(tree, 1)] == 3
    assert got[_key(tree, 2)] == 2  # min(3,3,2) over e_a,e_b,e_c at routing index 2
    assert got[_key(tree, 2, 1)] == 4  # min(5,4) over e_a,e_c
    assert got[_key(tree, 2, 2)] == 5  # e_b
    assert got[_key(tree, 1, 1)] == 3  # e_d
    assert len(tree.nodes) == 5


def test_example_32_routes_recorded(example_tree):
    nodes = example_tree.nodes.set_index("key")
    assert nodes.loc[_key(example_tree, 2, 1), "route"] == 1
    assert nodes.loc[_key(example_tree, 2, 2), "route"] == 2
    assert nodes.loc[_key(example_tree, 1), "route"] == 1


@pytest.fixture(scope="module")
def random_tree(spark):
    sp = build_sp_index(8, 3)
    fam = HashFamily(n_h=8, r=sp.n_base * 48, seed=3)
    tr = spark.createDataFrame(generate_traces_pdf(sp, 60, 48, seed=6))
    tree = build_minsigtree(spark, tr, sp, fam)
    yield tree
    tree.unpersist()


def test_leaves_partition_entities(random_tree):
    assert random_tree.leaves.entity.is_unique
    assert len(random_tree.leaves) == 60


def test_leaf_paths_have_length_m(random_tree):
    tree = random_tree
    assert tree.path.shape == (len(tree.leaves), tree.m)
    assert ((tree.path >= 1) & (tree.path <= tree.fam.n_h)).all()
    np.testing.assert_array_equal(
        tree.leaves.key, path_keys(tree.path, tree.fam.n_h)[:, -1]
    )


def test_node_levels_match_key_depth(random_tree):
    """A level-l key has l base-(n_h+1) digits."""
    nodes = random_tree.nodes
    base = random_tree.fam.n_h + 1
    assert (nodes.key >= base ** (nodes.level - 1)).all()
    assert (nodes.key < base**nodes.level).all()


def test_arity_at_most_nh(random_tree):
    nodes = random_tree.nodes
    base = random_tree.fam.n_h + 1
    child_of = nodes[nodes.level > 1].key // base
    assert child_of.value_counts().max() <= random_tree.fam.n_h
    assert (nodes.route.between(1, random_tree.fam.n_h)).all()
    assert (nodes.key % base == nodes.route).all()


def test_every_leaf_has_full_ancestor_chain(random_tree):
    keys = set(random_tree.nodes.key)
    base = random_tree.fam.n_h + 1
    for key in random_tree.leaves.key.unique():
        for i in range(random_tree.m):
            assert key // base**i in keys


def test_path_keys_int64_limit():
    """Keys of the largest n_h that fits are exact; one more raises."""
    n_h = int(2 ** (63 / 4))
    while (n_h + 1) ** 4 > 2**63:
        n_h -= 1
    top = path_keys(np.full((1, 4), n_h), n_h)
    assert int(top[0, -1]) == (n_h + 1) ** 4 - 1
    with pytest.raises(ValueError):
        path_keys(np.full((1, 4), n_h + 1), n_h + 1)


def test_build_rejects_key_overflow(spark):
    """The key range is checked before any Spark work."""
    sp = build_sp_index(8, 4)
    fam = HashFamily(n_h=60_000, r=sp.n_base * 48, seed=3)
    tr = spark.createDataFrame(generate_traces_pdf(sp, 5, 48, seed=6))
    with pytest.raises(ValueError):
        build_minsigtree(spark, tr, sp, fam)


def test_node_counts_consistent(random_tree):
    """n_entities at each node equals the leaves below it."""
    nodes = random_tree.nodes
    leaf_counts = random_tree.leaves.groupby("key").size()
    for r in nodes[nodes.level == random_tree.m].itertuples():
        assert r.n_entities == leaf_counts[r.key]
    root_total = nodes[nodes.level == 1].n_entities.sum()
    assert root_total == len(random_tree.leaves)


def test_node_sig_is_min_over_members(spark, random_tree):
    """SIG_N[route] = min over contained entities of sig_e^level[route]."""
    from repro.core.signatures import entity_paths, entity_signatures

    sigs = entity_signatures(
        random_tree.cells, random_tree.level_hashes, random_tree.fam
    )
    paths = entity_paths(sigs).toPandas()
    nodes = random_tree.nodes.set_index("key")
    keys = path_keys(np.array(paths.path.tolist()), random_tree.fam.n_h)
    agg: dict[int, int] = {}
    for j, r in enumerate(paths.itertuples()):
        for i in range(random_tree.m):
            pk = int(keys[j, i])
            agg[pk] = min(agg.get(pk, 1 << 62), int(r.route_vals[i]))
    for key, val in agg.items():
        assert nodes.loc[key, "sig_val"] == val


def test_index_size_accounting(random_tree):
    assert random_tree.index_size_bytes() == 8 * len(random_tree.nodes) + 8 * len(
        random_tree.leaves
    )


def test_sizes_table_complete(random_tree):
    """Every entity has a |seq_e^l| at every level, row-aligned with entity."""
    assert random_tree.sizes.shape == (len(random_tree.entity), random_tree.m)
    assert (random_tree.sizes >= 1).all()
    assert (np.diff(random_tree.entity) > 0).all()
