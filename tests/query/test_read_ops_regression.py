"""Regression tests pinning the Figure-10 read-op unit across every path.

The paper's Figure 10 charges retrieval in *read operations*: one read
per chunk opened on a long list, one read for a bucket short list.  These
tests pin that unit — and pin that ``last_read_ops`` reports the same
number as the returned answer after **any** search method (``search_streamed``
historically left the facade counter stale at 0).
"""

import random
import string

import pytest

from repro.core.index import IndexConfig
from repro.query import streaming
from repro.service import IndexSnapshot
from repro.textindex import TextDocumentIndex


@pytest.fixture
def index():
    """A tiny index where "hot" owns a multi-chunk long list and "cold"
    stays bucket-resident."""
    idx = TextDocumentIndex(
        IndexConfig(
            nbuckets=2,
            bucket_size=24,
            block_postings=4,
            ndisks=2,
            nblocks_override=100_000,
        )
    )
    for i in range(40):
        words = ["hot"]
        if i % 13 == 0:
            words.append("cold")
        if i % 2 == 0:
            words.append("warm")
        idx.add_document(" ".join(words))
        if i % 9 == 8:
            idx.flush_batch()
    idx.flush_batch()
    return idx


def expected_ops(index, word):
    """The Figure-10 cost of fetching one word, from the structures."""
    word_id = index.vocabulary.lookup(word)
    assert word_id is not None, word
    entry = index.index.longlists.directory.get(word_id)
    if entry is not None:
        return entry.nchunks
    assert index.index.buckets.get(word_id) is not None
    return 1


def test_fixture_exercises_both_structures(index):
    # "hot" must have overflowed to a multi-chunk long list and "cold"
    # must still live in a bucket, or the pins below prove nothing.
    assert expected_ops(index, "hot") > 1
    assert expected_ops(index, "cold") == 1


def test_boolean_read_ops_are_figure10_units(index):
    for word in ("hot", "cold", "warm"):
        answer = index.search_boolean(word)
        assert answer.read_ops == expected_ops(index, word), word
        assert index.last_read_ops == answer.read_ops, word
    combined = index.search_boolean("hot AND cold")
    assert combined.read_ops == (
        expected_ops(index, "hot") + expected_ops(index, "cold")
    )


def test_unknown_word_costs_zero(index):
    answer = index.search_boolean("absent")
    assert answer.read_ops == 0
    assert index.last_read_ops == 0


def test_streamed_last_read_ops_matches_answer(index):
    """The regression: search_streamed must leave last_read_ops equal to
    the answer's read_ops, not stale at the previous query's value."""
    index.search_boolean("hot AND cold AND warm")  # dirty the counter
    answer = index.search_streamed("hot OR cold")
    assert answer.read_ops > 0
    assert index.last_read_ops == answer.read_ops


def test_streamed_or_charges_full_materialized_cost(index):
    # A disjunction must read everything, so its cost in Figure-10 units
    # equals the materialized evaluator's.
    streamed = index.search_streamed("hot OR cold OR warm")
    boolean = index.search_boolean("hot OR cold OR warm")
    assert streamed.read_ops == boolean.read_ops


def test_streamed_and_never_costs_more(index):
    streamed = index.search_streamed("cold AND hot")
    boolean = index.search_boolean("cold AND hot")
    assert streamed.doc_ids == boolean.doc_ids
    assert streamed.read_ops <= boolean.read_ops


def test_vector_accumulates_same_units(index):
    index.search_vector({"hot": 1.0, "cold": 2.0})
    assert index.last_read_ops == (
        expected_ops(index, "hot") + expected_ops(index, "cold")
    )


def test_served_path_reports_identical_units(index):
    snapshot = IndexSnapshot(index.clone(), snapshot_id=1)
    for query in ("hot", "cold", "hot AND cold", "(hot OR cold) AND warm"):
        assert (
            snapshot.search_boolean(query).read_ops
            == index.search_boolean(query).read_ops
        ), query
    assert (
        snapshot.search_streamed("hot OR cold").read_ops
        == index.search_streamed("hot OR cold").read_ops
    )
    _, vector_ops = snapshot.search_vector_counted({"hot": 1.0, "cold": 1.0})
    index.search_vector({"hot": 1.0, "cold": 1.0})
    assert vector_ops == index.last_read_ops


# -- golden I/O ledger for the streamed evaluator -------------------------------
#
# The pins above are Figure-10 units; nothing there holds ``blocks_read``
# or ``postings_decoded``.  These triples were recorded at db9f274 (the
# per-posting cursor): a kernel change that reads one block more — or
# decodes one it need not — fails here on a number.


def build_ledger_index():
    """Seeded corpus: alpha/beta/gamma frequent (multi-chunk long lists),
    mida–midd mid, rarea–rarez rare (bucket-resident), "fresh" only in the
    unflushed last batch."""
    rng = random.Random(1994)
    idx = TextDocumentIndex(
        IndexConfig(
            nbuckets=4,
            bucket_size=48,
            block_postings=8,
            ndisks=2,
            nblocks_override=200_000,
        )
    )
    for i in range(400):
        words = [
            word
            for word, share in (("alpha", 0.8), ("beta", 0.7), ("gamma", 0.6))
            if rng.random() < share
        ]
        words += [f"mid{k}" for k in "abcd" if rng.random() < 0.12]
        if rng.random() < 0.3:
            words.append("rare" + rng.choice(string.ascii_lowercase))
        if i >= 390:
            words.append("fresh")
        idx.add_document(" ".join(words) or "filler")
        if i % 30 == 29:
            idx.flush_batch()
    return idx


@pytest.fixture(scope="module")
def ledger_index():
    return build_ledger_index()


def streamed_io(index, query):
    """``(read_ops, blocks_read, postings_decoded)`` of one flat query,
    dispatched the way ``search_streamed`` dispatches it."""
    words, operators = streaming.parse_flat(query)
    ids = [index.vocabulary.lookup(w) for w in words]
    if operators == {"OR"} or len(words) == 1:
        _, stats = streaming.streamed_or(
            index.index, [i for i in ids if i is not None]
        )
    elif None in ids:
        stats = streaming.StreamStats()
    else:
        _, stats = streaming.streamed_and(index.index, ids)
    assert index.search_streamed(query).read_ops == stats.read_ops
    return stats.read_ops, stats.blocks_read, stats.postings_decoded


STREAMED_LEDGER = {
    "alpha AND beta AND gamma": (20, 111, 846),
    "gamma AND alpha": (13, 73, 564),
    # The rare word's two postings end the conjunction four chunks into
    # alpha's seven, in either order.
    "alpha AND rareq": (4, 18, 142),
    "rareq AND alpha": (4, 18, 142),
    "rareq AND absent": (0, 0, 0),
    "alpha AND absent AND beta": (0, 0, 0),
    "alpha OR beta OR gamma": (20, 111, 846),
    "mida OR rarek OR absent": (2, 6, 47),
    # A conjunct only in the pending batch: beta is read to its end, the
    # ten pending postings of "fresh" are decoded free of I/O.
    "beta AND fresh": (7, 38, 292),
    "fresh AND midb": (1, 7, 66),
    "mida AND midb AND alpha": (9, 56, 433),
    "beta": (7, 38, 282),
}


def test_ledger_fixture_has_the_shapes_it_names(ledger_index):
    assert expected_ops(ledger_index, "alpha") > 2
    assert expected_ops(ledger_index, "rareq") == 1
    assert ledger_index.vocabulary.lookup("absent") is None
    fresh = ledger_index.vocabulary.lookup("fresh")
    assert ledger_index.index.memory.get(fresh) is not None
    assert ledger_index.index.directory.get(fresh) is None
    assert ledger_index.index.buckets.get(fresh) is None
    assert len(STREAMED_LEDGER) == 12


@pytest.mark.parametrize("query", STREAMED_LEDGER)
def test_streamed_io_ledger(ledger_index, query):
    assert streamed_io(ledger_index, query) == STREAMED_LEDGER[query]
