"""Content-mode experiment support: a real index over the synthetic corpus.

The evaluation pipeline proper runs on posting counts.  For experiments
that must *execute* retrieval — measuring the read operations actual
boolean and vector queries pay — this module builds a full content-mode
:class:`~repro.core.index.DualStructureIndex` from the same synthetic
workload, batch by batch, so the resulting disk layout is exactly what the
counting pipeline predicts (asserted by
``tests/integration/test_mode_cross_validation.py``).
"""

from __future__ import annotations

from ..core.index import DualStructureIndex, IndexConfig
from ..core.policy import Policy
from ..workload.synthetic import SyntheticNews, SyntheticNewsConfig


def build_content_index(
    workload: SyntheticNewsConfig,
    policy: Policy,
    nbuckets: int = 256,
    bucket_size: int = 1024,
    block_postings: int = 64,
    ndisks: int = 4,
    virtual_blocks: int = 4_194_304,
) -> DualStructureIndex:
    """Ingest the whole synthetic corpus into a content-mode index.

    One flush per day, documents in arrival order — the library-side twin
    of the counting pipeline's run.
    """
    index = DualStructureIndex(
        IndexConfig(
            nbuckets=nbuckets,
            bucket_size=bucket_size,
            block_postings=block_postings,
            ndisks=ndisks,
            nblocks_override=virtual_blocks,
            policy=policy,
            trace_enabled=False,
        )
    )
    news = SyntheticNews(workload)
    doc_id = 0
    for day in range(workload.days):
        for words in news.day_documents(day):
            index.add_document([int(w) for w in words], doc_id=doc_id)
            doc_id += 1
        index.flush_batch()
    return index
