#!/usr/bin/env python
"""Living archive: positions, regions, deletion, and rebalancing together.

The paper's motivating environment is a 7×24 archive that can never stop
for a rebuild.  This example runs one index through everything such an
archive needs, using the library's extension features:

* positional postings — phrase and proximity queries (paper §1's "within
  so many words of each other");
* region-tagged postings — title/author-scoped search (paper §1's "occur
  within a title region");
* filter-and-sweep deletion (paper §3's design, implemented);
* automatic bucket-space growth (paper §7's rebalancing strategy).

Run:  python examples/living_archive.py
"""

from repro import GrowthPolicy, IndexConfig, Policy, Region
from repro.textindex import TextDocumentIndex

ARTICLES = [
    """Subject: markets rally on chip news
From: rivera

semiconductor stocks rallied sharply today as new fabrication
capacity came online and demand forecasts were revised upward""",
    """Subject: storage systems conference report
From: chen

researchers presented an incremental index that updates in place
as documents arrive avoiding costly rebuilds of inverted lists""",
    """Subject: chip fabrication delays expected
From: rivera

a major foundry warned of fabrication delays pushing some
semiconductor shipments into the next quarter""",
    """Subject: retraction of market note
From: editor

the earlier market note contained errors and is being withdrawn
pending review please disregard its conclusions""",
]


def main() -> None:
    index = TextDocumentIndex(
        IndexConfig(
            nbuckets=8,
            bucket_size=128,
            block_postings=32,
            policy=Policy.adaptive_new(),
            positional=True,
            grow_buckets=True,
            growth=GrowthPolicy(occupancy_threshold=0.6),
        )
    )
    for text in ARTICLES:
        index.add_document(text)
    index.flush_batch()
    print(f"indexed {index.ndocs} articles\n")

    print("== Phrase search ==")
    answer = index.search_phrase("fabrication delays")
    print(f"  'fabrication delays' -> docs {answer.doc_ids}")

    print("\n== Proximity search (within 4 words) ==")
    answer = index.search_near("semiconductor", "rallied", 4)
    print(f"  semiconductor ~4 rallied -> docs {answer.doc_ids}")

    print("\n== Region-scoped search ==")
    print(
        "  'chip' in TITLE   ->",
        index.search_region("chip", Region.TITLE).doc_ids,
    )
    print(
        "  'rivera' as AUTHOR ->",
        index.search_region("rivera", Region.AUTHOR).doc_ids,
    )

    print("\n== Deletion: the retraction withdraws doc 3 ==")
    index.delete_document(3)
    print(
        "  'market' after delete ->",
        index.search_boolean("market").doc_ids,
        "(doc 3 filtered)",
    )
    stats = index.sweep_deletions()
    print(
        f"  background sweep rewrote {stats.lists_swept} lists, "
        f"reclaimed {stats.postings_removed} postings; filter set now "
        f"{index.deletions.ndeleted} ids"
    )

    print("\n== Bucket rebalancing ==")
    # Pour in more batches until the growth policy fires.
    filler_words = [f"topic{chr(97 + i)}" for i in range(26)]
    for day in range(12):
        for n in range(10):
            body = " ".join(
                filler_words[(day * 10 + n + j) % 26] for j in range(8)
            )
            index.add_document(f"Subject: day {day}\n\n{body}")
        index.flush_batch()
    grower = index.index.grower
    print(
        f"  growth events: {len(grower.events)}; bucket count now "
        f"{index.index.buckets.nbuckets} "
        f"(occupancy {index.index.buckets.occupancy():.0%})"
    )
    for event in grower.events:
        print(
            f"    batch {event.batch}: {event.old_nbuckets} -> "
            f"{event.new_nbuckets} buckets "
            f"(occupancy was {event.occupancy_before:.0%})"
        )
    print("\narchive remained queryable throughout — no rebuilds.")


if __name__ == "__main__":
    main()
