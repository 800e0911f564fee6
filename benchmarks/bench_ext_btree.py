"""Extension X8 — vocabulary/directory structure: hash buckets vs B-tree.

The paper's introduction notes that traditional systems "built a B-tree
that maps each word to the locations of its list on disk", §2 allows h(w)
to be "a hash function or a tree search", and the related work discusses
Cutting & Pedersen's B-tree-organized vocabulary (whose short lists live
*inside* the tree — "a very small bucket for approximately each word").

This bench builds a block-sized-fanout B+tree over the final vocabulary
and compares point-lookup I/O cost against the paper's design (hash to a
bucket: one block read for a short list; in-memory directory: zero reads
for chunk locations), across block sizes.

Asserted claims:

* the B+tree resolves any word in O(log_fanout V) block reads — ≤ 2 extra
  reads for our vocabulary at 4 KB blocks — but never beats the paper's
  hash-to-bucket single read;
* B-tree range scans deliver the vocabulary in sorted order (the paper's
  batch updates are sorted by word id — essentially a tree-friendly merge
  pattern), which the hash design cannot do.
"""

from _common import base_experiment, report
from repro.analysis.reporting import format_table
from repro.storage.btree import BTree, BTreeConfig


def build_trees():
    experiment = base_experiment()
    vocabulary = sorted(
        {word for update in experiment.updates() for word, _ in update}
    )
    trees = {}
    for block_size in (1024, 4096, 16384):
        tree = BTree(BTreeConfig.for_block(block_size))
        for word in vocabulary:
            tree.insert(word, word % 97)  # stand-in location payload
        trees[block_size] = tree
    return vocabulary, trees


def test_ext_btree_directory(benchmark, capfd):
    vocabulary, trees = benchmark.pedantic(build_trees, rounds=1, iterations=1)
    rows = [
        (
            block_size,
            tree.config.order,
            len(tree),
            tree.height,
            tree.node_count,
            tree.lookup_cost_blocks(root_cached=True),
            round(tree.occupancy(), 2),
        )
        for block_size, tree in trees.items()
    ]
    report(
        "ext_btree",
        format_table(
            (
                "block B",
                "fanout",
                "words",
                "height",
                "nodes",
                "lookup reads",
                "occupancy",
            ),
            rows,
            title=(
                "X8: B+tree vocabulary map vs the paper's hash buckets "
                "(hash cost: 1 read for a short list, 0 for the in-memory "
                "directory)"
            ),
        ),
        capfd,
    )

    for block_size, tree in trees.items():
        # Correct and complete.
        assert len(tree) == len(vocabulary)
        assert tree.get(vocabulary[0]) is not None
        # Lookup cost is small but positive: the hash design's single
        # bucket read is never beaten once the tree outgrows its root.
        cost = tree.lookup_cost_blocks(root_cached=True)
        assert 1 <= cost <= 3, block_size
        # Bigger blocks ⇒ flatter tree.
    assert trees[16384].height <= trees[1024].height
    # Sorted range scans work (the capability hashing lacks).
    lo, hi = vocabulary[10], vocabulary[50]
    scanned = [k for k, _ in trees[4096].range(lo, hi)]
    assert scanned == [w for w in vocabulary if lo <= w <= hi]
