"""Tests for MinSigTree construction (Section 3.2.2, Example 3.2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.hashing import HashFamily
from repro.core.minsigtree import build_minsigtree
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


def test_example_32_level1_groups(example_tree):
    """N_1 = {e_d} (routing 1), N_2 = {e_a, e_b, e_c} (routing 2)."""
    leaves = example_tree.leaves
    top = leaves.key.str.split("/").str[0]
    by_top = dict(leaves.groupby(top).entity.apply(set))
    assert by_top == {"1": {ED}, "2": {EA, EB, EC}}


def test_example_32_node_signatures(example_tree):
    """Stored SIG values: N1->3, N2->2, N21->4, N22->5, N11->3.

    (The paper's Figure 1 shows e_d under N_12 with value 7; its own hash
    table implies sig_d^2 = <3,2>, routing e_d to child 1 with value 3 —
    the figure inherits the sig_d^2 erratum.)
    """
    nodes = example_tree.nodes
    got = dict(zip(nodes.key, nodes.sig_val))
    assert got["1"] == 3
    assert got["2"] == 2  # min(3,3,2) over e_a,e_b,e_c at routing index 2
    assert got["2/1"] == 4  # min(5,4) over e_a,e_c
    assert got["2/2"] == 5  # e_b
    assert got["1/1"] == 3  # e_d
    assert len(nodes) == 5


def test_example_32_routes_recorded(example_tree):
    nodes = example_tree.nodes.set_index("key")
    assert nodes.loc["2/1", "route"] == 1
    assert nodes.loc["2/2", "route"] == 2
    assert nodes.loc["1", "route"] == 1


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
    assert (random_tree.leaves.key.str.count("/") == random_tree.m - 1).all()


def test_node_levels_match_key_depth(random_tree):
    nodes = random_tree.nodes
    assert (nodes.key.str.count("/") + 1 == nodes.level).all()


def test_arity_at_most_nh(random_tree):
    nodes = random_tree.nodes
    child_of = nodes[nodes.level > 1].key.str.rsplit("/", n=1).str[0]
    assert child_of.value_counts().max() <= random_tree.fam.n_h
    assert (nodes.route.between(1, random_tree.fam.n_h)).all()


def test_every_leaf_has_full_ancestor_chain(random_tree):
    keys = set(random_tree.nodes.key)
    for key in random_tree.leaves.key.unique():
        parts = key.split("/")
        for i in range(1, len(parts) + 1):
            assert "/".join(parts[:i]) in keys


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
    agg: dict[str, int] = {}
    for r in paths.itertuples():
        for i in range(random_tree.m):
            pk = "/".join(str(x) for x in r.path[: i + 1])
            agg[pk] = min(agg.get(pk, 1 << 62), int(r.route_vals[i]))
    for key, val in agg.items():
        assert nodes.loc[key, "sig_val"] == val


def test_index_size_accounting(random_tree):
    assert random_tree.index_size_bytes() == 8 * len(random_tree.nodes) + 8 * len(
        random_tree.leaves
    )


def test_sizes_table_complete(random_tree):
    per_entity = random_tree.sizes.groupby("entity")["level"].nunique()
    assert (per_entity == random_tree.m).all()
