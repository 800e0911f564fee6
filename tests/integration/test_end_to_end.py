"""End-to-end integration: raw text articles → index → queries,
and the full Figure-3 pipeline text → invert → buckets → disks → exercise.
"""

import pytest

from repro.core.index import IndexConfig
from repro.core.policy import Limit, Policy, Style
from repro.pipeline.compute_buckets import ComputeBucketsProcess
from repro.pipeline.compute_disks import ComputeDisksProcess, DiskStageConfig
from repro.pipeline.exercise import ExerciseConfig, ExerciseDisksProcess
from repro.pipeline.invert import InvertIndexProcess
from repro.storage.profiles import SEAGATE_SCSI_1994
from repro.text.documents import Document, DocumentBatch
from repro.textindex import TextDocumentIndex
from repro.workload.newsgen import generate_articles, word_for_id
from repro.workload.synthetic import SyntheticNews, SyntheticNewsConfig


class TestTextDocumentIndex:
    @pytest.fixture
    def index(self):
        idx = TextDocumentIndex(
            IndexConfig(
                nbuckets=16,
                bucket_size=128,
                block_postings=16,
                ndisks=2,
                nblocks_override=100_000,
            )
        )
        idx.add_document("Date: ignored\n\nthe cat sat with the dog")
        idx.add_document("a mouse ran past the dog")
        idx.add_document("cats and dogs and mice")
        idx.flush_batch()
        return idx

    def test_boolean_search(self, index):
        assert index.search_boolean("cat AND dog").doc_ids == [0]
        assert index.search_boolean("(cat AND dog) OR mouse").doc_ids == [0, 1]
        assert index.search_boolean("dog AND NOT cat").doc_ids == [1]

    def test_search_reports_read_ops(self, index):
        answer = index.search_boolean("cat AND dog")
        assert answer.read_ops >= 2
        assert index.last_read_ops == answer.read_ops

    def test_vector_search(self, index):
        results = index.search_vector({"dog": 1.0, "mouse": 2.0}, top_k=3)
        assert results[0].doc_id == 1  # has both words

    def test_more_like(self, index):
        results = index.more_like("the mouse and the dog", top_k=2)
        assert results[0].doc_id == 1

    def test_document_frequency(self, index):
        assert index.document_frequency("dog") == 2
        assert index.document_frequency("unicorn") == 0

    def test_unflushed_documents_searchable(self, index):
        index.add_document("a surprise cat appears")
        assert 3 in index.search_boolean("cat").doc_ids

    def test_incremental_batches(self, index):
        index.add_document("another dog day")
        index.flush_batch()
        assert index.search_boolean("dog").doc_ids == [0, 1, 3]

    def test_stats_exposed(self, index):
        assert index.stats().batches == 1


class TestSyntheticArticlesRoundtrip:
    def test_rendered_corpus_is_searchable(self):
        news = SyntheticNews(SyntheticNewsConfig(days=2, docs_per_day=15))
        index = TextDocumentIndex(
            IndexConfig(
                nbuckets=16,
                bucket_size=256,
                block_postings=16,
                ndisks=2,
                nblocks_override=100_000,
            )
        )
        doc_id = 0
        docs_by_id = {}
        for day in range(2):
            for article in generate_articles(news, day, first_doc_id=doc_id):
                got = index.add_document(article.text)
                docs_by_id[got] = article
                doc_id = got + 1
            index.flush_batch()
        # Word id 1 is the most frequent rank; it should hit many docs.
        hot_word = word_for_id(1)
        answer = index.search_boolean(hot_word)
        assert len(answer.doc_ids) > len(docs_by_id) // 2


class TestFullPipeline:
    def test_text_to_exercise(self):
        # Build two days of tiny articles, push them through every stage.
        batches = [
            DocumentBatch(
                day=d,
                documents=[
                    Document(d * 10 + i, f"alpha beta w{d}x{i} gamma " * 3)
                    for i in range(8)
                ],
            )
            for d in range(4)
        ]
        inverted = list(InvertIndexProcess().run(batches))
        assert len(inverted) == 4

        bucket_result = ComputeBucketsProcess(
            nbuckets=4, bucket_size=24
        ).run(inverted)
        assert bucket_result.trace.nbatches == 4
        assert bucket_result.trace.nupdates > 0  # hot words migrated

        disk_result = ComputeDisksProcess(
            DiskStageConfig(
                policy=Policy(style=Style.NEW, limit=Limit.Z),
                bucket_flush_blocks=4,
                block_postings=16,
            )
        ).run(bucket_result.trace)
        assert disk_result.series.nupdates == 4

        outcome = ExerciseDisksProcess(
            ExerciseConfig(profile=SEAGATE_SCSI_1994, ndisks=4)
        ).run(disk_result.trace)
        assert outcome.feasible
        assert outcome.total_s > 0
