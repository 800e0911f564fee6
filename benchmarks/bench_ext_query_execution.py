"""Extension X9 — executed query costs on real content-mode indexes.

X4 estimates query costs from the directory's shape; this bench *executes*
queries — sorted-list merges over postings decoded from the simulated
disks — and counts the read operations they actually pay, for the two ends
of the policy spectrum.

Reproduced claims, now with executed queries:

* boolean queries over infrequent words cost ≈1 read per word regardless
  of policy (the dual structure insulates short lists from the long-list
  layout);
* vector queries (document-derived, frequent-word-heavy) pay many times
  more reads per word under `new 0` than under `whole z`;
* both query styles return identical answers under both policies — layout
  is invisible to semantics.
"""

import numpy as np

from _common import report
from repro.analysis.reporting import format_table, ratio
from repro.core.policy import Limit, Policy, Style
from repro.pipeline.content import build_content_index
from repro.pipeline.experiment import ExperimentConfig
from repro.query.boolean import intersect

WORKLOAD_SCALE = 0.25
NBOOLEAN = 60
NVECTOR = 12

POLICIES = {
    "new 0": Policy(style=Style.NEW, limit=Limit.ZERO),
    "whole z": Policy.recommended_whole(),
}


def build_indexes():
    # The experiment at THIS bench's fixed workload scale, not at
    # REPRO_SCALE (the workload here is pinned at WORKLOAD_SCALE).
    config = ExperimentConfig.at_scale(WORKLOAD_SCALE)
    workload = config.workload
    indexes = {
        name: build_content_index(
            workload,
            policy,
            nbuckets=config.nbuckets,
            bucket_size=config.bucket_size,
            block_postings=config.block_postings,
        )
        for name, policy in POLICIES.items()
    }
    return workload, indexes


def run_queries(workload, indexes):
    rng = np.random.default_rng(23)
    # Vocabulary ranked by total postings, from any index's structures.
    sample = next(iter(indexes.values()))
    ranked = sorted(
        (
            (entry.npostings, entry.word)
            for entry in sample.directory.entries()
        ),
        reverse=True,
    )
    frequent_words = [w for _, w in ranked[:50]]
    bucket_words = list(sample.buckets.words())
    infrequent = rng.choice(
        np.array(bucket_words, dtype=np.int64), size=200, replace=False
    )

    results = {}
    for name, index in indexes.items():
        # Boolean IRM: conjunctions of infrequent words.
        bool_reads = 0
        bool_answers = []
        for q in range(NBOOLEAN):
            words = infrequent[3 * q : 3 * q + 3]
            lists, reads = [], 0
            for word in words:
                postings, r = index.fetch(int(word))
                lists.append(postings.doc_ids)
                reads += r
            answer = lists[0]
            for other in lists[1:]:
                answer = intersect(answer, other)
            bool_reads += reads
            bool_answers.append(answer)
        # Vector IRM: document-derived queries over frequent words.
        vec_reads = 0
        vec_words = 0
        vec_answers = []
        for q in range(NVECTOR):
            words = rng.choice(
                np.array(frequent_words, dtype=np.int64),
                size=min(30, len(frequent_words)),
                replace=False,
            )
            scores = {}
            for word in words:
                postings, r = index.fetch(int(word))
                vec_reads += r
                vec_words += 1
                for doc in postings.doc_ids:
                    scores[doc] = scores.get(doc, 0) + 1
            vec_answers.append(sorted(scores))
        results[name] = {
            "bool_reads_per_word": bool_reads / (NBOOLEAN * 3),
            "vec_reads_per_word": vec_reads / vec_words,
            "bool_answers": bool_answers,
            "vec_answers": vec_answers,
        }
    return results


def test_ext_executed_query_costs(benchmark, capfd):
    def run():
        workload, indexes = build_indexes()
        return run_queries(workload, indexes)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (
            name,
            round(r["bool_reads_per_word"], 2),
            round(r["vec_reads_per_word"], 2),
        )
        for name, r in results.items()
    ]
    report(
        "ext_query_execution",
        format_table(
            ("policy", "boolean reads/word", "vector reads/word"),
            rows,
            title=(
                "X9: executed query costs (real posting lists decoded "
                "from the simulated disks)"
            ),
        ),
        capfd,
    )

    new0 = results["new 0"]
    wholez = results["whole z"]
    # Identical answers under both layouts.
    assert new0["bool_answers"] == wholez["bool_answers"]
    assert new0["vec_answers"] == wholez["vec_answers"]
    # Boolean: ≈1 read/word everywhere (bucket-resident words).
    assert new0["bool_reads_per_word"] < 1.5
    assert wholez["bool_reads_per_word"] < 1.5
    # Vector: new 0 pays several times more reads than whole z.
    assert wholez["vec_reads_per_word"] <= 1.0 + 1e-9
    assert (
        ratio(new0["vec_reads_per_word"], wholez["vec_reads_per_word"]) > 3
    )
