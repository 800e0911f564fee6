"""Regression: a block nothing wrote must not answer short, silently.

``SimulatedDisk.read_blocks`` returns ``b""`` for an unwritten block.  At
db9f274 the streamed cursor took the empty block for the end of the list
(every later block and chunk of the word vanished from the answer) and the
materialized path never compared what it decoded with ``chunk.npostings``;
only the offline ``check_index`` noticed.  Both online paths now raise.
"""

import pytest

from repro.core.index import IndexConfig
from repro.core.invariants import check_index
from repro.core.longlists import ShortChunkError
from repro.storage.block import blocks_for_postings
from repro.textindex import TextDocumentIndex

BLOCK_POSTINGS = 4


@pytest.fixture
def torn():
    """An index whose "hot" list has lost one block of a multi-block
    chunk, and the postings that block held."""
    idx = TextDocumentIndex(
        IndexConfig(
            nbuckets=2,
            bucket_size=24,
            block_postings=BLOCK_POSTINGS,
            ndisks=2,
            nblocks_override=100_000,
        )
    )
    for i in range(60):
        idx.add_document("hot warm" if i % 2 == 0 else "hot")
        if i % 20 == 19:
            idx.flush_batch()
    entry = idx.index.directory.get(idx.vocabulary.lookup("hot"))
    chunk = next(
        c
        for c in entry.chunks
        if blocks_for_postings(c.npostings, BLOCK_POSTINGS) > 2
    )
    assert idx.search_boolean("hot").doc_ids == list(range(60))
    # Drop the chunk's second block: not its first, not its last.
    del idx.index.array.disks[chunk.disk]._blocks[chunk.start + 1]
    return idx


def test_every_online_path_raises(torn):
    for search in (
        lambda: torn.search_boolean("hot"),
        lambda: torn.search_boolean("hot AND warm"),
        lambda: torn.search_streamed("hot"),
        lambda: torn.search_streamed("hot AND warm"),
        lambda: torn.search_vector({"hot": 1.0, "warm": 2.0}),
    ):
        with pytest.raises(ShortChunkError, match="directory says"):
            search()


def test_untouched_words_still_answer(torn):
    assert torn.search_boolean("warm").doc_ids == list(range(0, 60, 2))
    assert torn.search_streamed("warm").doc_ids == list(range(0, 60, 2))


def test_the_error_is_a_value_error_and_check_index_agrees(torn):
    assert issubclass(ShortChunkError, ValueError)
    report = check_index(torn.index)
    assert "content-count" in {v.code for v in report.violations}
