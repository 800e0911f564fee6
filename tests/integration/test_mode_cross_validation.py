"""Cross-validation of the two operating modes.

The paper's pipeline tracks only list *sizes*; the library tracks real
document ids.  Both run through the same bucket and policy code, so for
the same workload they must agree exactly on every structural quantity:
which words have long lists, every list's posting count, the directory
chunk layout, and the I/O operation count.  Any divergence would mean the
evaluated algorithms and the shipped index are not the same algorithms —
the failure mode the shared-payload design exists to prevent.
"""

import pytest

from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Limit, Policy, Style
from repro.pipeline.compute_buckets import ComputeBucketsProcess
from repro.pipeline.compute_disks import ComputeDisksProcess, DiskStageConfig
from repro.pipeline.experiment import ExperimentConfig
from repro.workload.synthetic import SyntheticNews, SyntheticNewsConfig

#: A toy geometry whose 16 buckets overflow within the first updates.
SMALL = ExperimentConfig(
    workload=SyntheticNewsConfig(days=12, docs_per_day=40),
    nbuckets=16,
    bucket_size=256,
    block_postings=16,
)


@pytest.fixture(scope="module", params=[
    *(
        pytest.param((policy, SMALL), id=policy.name)
        for policy in (
            Policy(style=Style.NEW, limit=Limit.ZERO),
            Policy(style=Style.NEW, limit=Limit.Z),
            Policy(style=Style.WHOLE, limit=Limit.ZERO),
            Policy(style=Style.FILL, limit=Limit.Z, extent_blocks=2),
        )
    ),
    # The paper's experiment at scale 0.05: the scaled region of 32
    # buckets of 1,024 units still overflows (~25 long lists).
    pytest.param(
        (Policy.recommended_new(), ExperimentConfig.at_scale(0.05)),
        id="recommended new at scale 0.05",
    ),
])
def both_modes(request):
    policy, config = request.param
    news = SyntheticNews(config.workload)

    # Size-only pipeline (the paper's evaluation path).
    bucket_stage = ComputeBucketsProcess(config.nbuckets, config.bucket_size)
    bucket_result = bucket_stage.run(news.batches())
    disks = ComputeDisksProcess(
        DiskStageConfig(
            policy=policy,
            block_postings=config.block_postings,
            bucket_flush_blocks=config.bucket_flush_blocks,
        )
    ).run(bucket_result.trace)

    # Content-mode library (real doc ids through the same algorithms).
    index = DualStructureIndex(
        IndexConfig(
            nbuckets=config.nbuckets,
            bucket_size=config.bucket_size,
            block_postings=config.block_postings,
            ndisks=4,
            nblocks_override=4_194_304,
            policy=policy,
        )
    )
    doc_id = 0
    for day in range(config.workload.days):
        for words in news.day_documents(day):
            index.add_document([int(w) for w in words], doc_id=doc_id)
            doc_id += 1
        index.flush_batch()
    return disks, index, bucket_result


class TestStructuralAgreement:
    def test_same_long_words(self, both_modes):
        disks, index, _ = both_modes
        assert set(disks.manager.directory.words()) == set(
            index.directory.words()
        )

    def test_same_list_sizes(self, both_modes):
        disks, index, _ = both_modes
        for entry in disks.manager.directory.entries():
            assert (
                index.directory.get(entry.word).npostings == entry.npostings
            ), f"word {entry.word} sizes diverge"

    def test_same_chunk_layout_shape(self, both_modes):
        disks, index, _ = both_modes
        for entry in disks.manager.directory.entries():
            content_entry = index.directory.get(entry.word)
            assert content_entry.nchunks == entry.nchunks
            assert [c.nblocks for c in content_entry.chunks] == [
                c.nblocks for c in entry.chunks
            ]

    def test_same_bucket_population(self, both_modes):
        disks, index, bucket_result = both_modes
        assert set(bucket_result.manager.words()) == set(
            index.buckets.words()
        )
        assert (
            bucket_result.manager.total_postings
            == index.buckets.total_postings
        )

    def test_same_long_list_io_ops(self, both_modes):
        disks, index, _ = both_modes
        assert (
            disks.counters.io_ops == index.longlists.counters.io_ops
        )
        assert (
            disks.counters.in_place_updates
            == index.longlists.counters.in_place_updates
        )

    def test_content_lists_hold_real_docs(self, both_modes):
        disks, index, _ = both_modes
        # Spot-check: the hottest word's content list has exactly as many
        # docs as the size-only pipeline counted.
        hottest = max(
            disks.manager.directory.entries(), key=lambda e: e.npostings
        )
        postings, _ = index.fetch(hottest.word)
        assert len(postings.doc_ids) == hottest.npostings
        assert postings.doc_ids == sorted(postings.doc_ids)
