#!/usr/bin/env python
"""News feed: the paper's motivating scenario, end to end.

"If one is indexing news articles, electronic mail, or stock information,
the latest information is required" (§1).  This example replays a stream
of synthetic NetNews days through the full text pipeline — articles are
rendered as real text, tokenized (headers skipped), filtered, and merged
into the index one daily batch at a time — then runs queries whose answers
grow as days arrive.

Run:  python examples/news_feed.py
"""

from repro import IndexConfig, Policy
from repro.textindex import TextDocumentIndex
from repro.workload.newsgen import generate_articles, word_for_id
from repro.workload.synthetic import SyntheticNews, SyntheticNewsConfig

DAYS = 7


def main() -> None:
    news = SyntheticNews(
        SyntheticNewsConfig(days=DAYS, docs_per_day=60, seed=7)
    )
    index = TextDocumentIndex(
        IndexConfig(
            nbuckets=32,
            bucket_size=256,
            block_postings=32,
            policy=Policy.recommended_new(),
        )
    )

    # The hottest and a mid-frequency word, to watch their lists grow.
    hot = word_for_id(1)
    warm = word_for_id(40)

    print(f"Watching {hot!r} (rank 1) and {warm!r} (rank 40)\n")
    doc_id = 0
    for day in range(DAYS):
        ndocs = 0
        for article in generate_articles(news, day, first_doc_id=doc_id):
            index.add_document(article.text)
            doc_id = article.doc_id + 1
            ndocs += 1
        batch = index.flush_batch()
        query = index.search_boolean(f"{hot} AND {warm}")
        print(
            f"day {day}: {ndocs:3d} articles | "
            f"new/bucket/long words {batch.new_words}/"
            f"{batch.bucket_words}/{batch.long_words} | "
            f"df({hot})={index.document_frequency(hot):4d} "
            f"df({warm})={index.document_frequency(warm):3d} | "
            f"'{hot} AND {warm}' -> {len(query.doc_ids)} docs "
            f"({query.read_ops} reads)"
        )

    stats = index.stats()
    print(
        f"\nAfter {DAYS} days: {index.ndocs} documents, "
        f"{stats.long_words} frequent words migrated to long lists, "
        f"long-list utilization {stats.long_utilization:.1%}, "
        f"avg {stats.avg_reads_per_long_list:.2f} reads per long list"
    )
    print(
        "The dual structure discovered the frequent words dynamically: "
        "no frequency statistics were supplied up front."
    )


if __name__ == "__main__":
    main()
