"""Differential battery: the C-speed posting kernels against the per-posting
kernels they replaced (``tests/reference_kernels.py``, verbatim from
db9f274).

One on-disk encoding and one answer before and after: ``encode`` must be
byte-equal, ``decode`` / merges / ``rank`` value-equal (scores by
``float.hex``), error texts equal, and the streamed evaluator must perform
exactly the reads the reference cursor performs — ``read_ops``,
``blocks_read`` and ``postings_decoded`` all three.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Limit, Policy, Style
from repro.core.postings import decode_doc_ids, encode_doc_ids
from repro.query import boolean, streaming, vector

from .. import reference_kernels as ref

# Gaps either side of the 1/2/3-byte varint boundaries (the stored value
# is ``gap - 1``: 128 is the last one-byte gap, 16,384 the last two-byte).
BOUNDARY_GAPS = (1, 2, 127, 128, 129, 130, 16_383, 16_384, 16_385, 2**21 + 1)

gaps = st.one_of(
    st.sampled_from(BOUNDARY_GAPS),
    st.integers(min_value=1, max_value=128),
    st.integers(min_value=1, max_value=40_000),
)
# Mostly one-byte gaps (the translate fast path), sometimes mixed widths
# (the inlined fallback loops).
gap_lists = st.one_of(
    st.lists(st.integers(min_value=1, max_value=128), max_size=80),
    st.lists(gaps, max_size=80),
)


@st.composite
def id_lists(draw):
    steps = draw(gap_lists)
    if not steps:
        return []
    first = draw(
        st.one_of(
            st.sampled_from((0, 1, 127, 128, 16_383, 16_384, 2**40)),
            st.integers(min_value=0, max_value=2**40),
        )
    )
    return list(itertools.accumulate(steps[1:], initial=first))


def _error_text(fn, *args):
    with pytest.raises(ValueError) as caught:
        fn(*args)
    return str(caught.value)


# -- codec ------------------------------------------------------------------------


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(ids=id_lists())
    def test_encode_is_byte_identical_and_round_trips(self, ids):
        data = encode_doc_ids(ids)
        assert data == ref.encode_doc_ids(ids)
        assert decode_doc_ids(data) == ids == ref.decode_doc_ids(data)

    @pytest.mark.parametrize("gap", BOUNDARY_GAPS)
    @pytest.mark.parametrize("first", (0, 127, 128, 16_384, 2**40))
    def test_gap_width_boundaries(self, first, gap):
        for ids in (
            [first, first + gap],
            [first, first + 1, first + 1 + gap],
            [first, first + gap, first + gap + 1],
        ):
            data = encode_doc_ids(ids)
            assert data == ref.encode_doc_ids(ids)
            assert decode_doc_ids(data) == ids

    def test_empty_and_single(self):
        assert encode_doc_ids([]) == ref.encode_doc_ids([]) == b""
        assert decode_doc_ids(b"") == []
        for doc in (0, 127, 128, 2**40):
            assert encode_doc_ids([doc]) == ref.encode_doc_ids([doc])
            assert decode_doc_ids(encode_doc_ids([doc])) == [doc]

    def test_accepts_any_iterable(self):
        ids = [3, 4, 500, 501]
        assert encode_doc_ids(iter(ids)) == encode_doc_ids(tuple(ids))
        assert encode_doc_ids(tuple(ids)) == ref.encode_doc_ids(ids)

    @pytest.mark.parametrize(
        "ids",
        (
            [3, 3],
            [5, 2],
            [0, 1, 2, 2, 9],
            [7, 300, 299, 298],
            [-1],
            [-5, 3],
            [2**40, 2**40],
        ),
    )
    def test_non_increasing_ids_raise_the_same_error(self, ids):
        assert _error_text(encode_doc_ids, ids) == _error_text(
            ref.encode_doc_ids, ids
        )

    @settings(max_examples=100, deadline=None)
    @given(ids=id_lists().filter(bool), cut=st.integers(1, 4))
    def test_truncated_input_raises_the_same_error(self, ids, cut):
        data = encode_doc_ids(ids)
        for torn in (data + b"\x80", data[:-1] + b"\xff", data[:-cut]):
            if not torn or not torn[-1] & 0x80:
                assert decode_doc_ids(torn) == ref.decode_doc_ids(torn)
                continue
            assert (
                _error_text(decode_doc_ids, torn)
                == _error_text(ref.decode_doc_ids, torn)
                == "truncated varint"
            )

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=40))
    def test_arbitrary_bytes_decode_alike(self, data):
        # Non-canonical varints (padding continuation bytes) included.
        try:
            want = ref.decode_doc_ids(data)
        except ValueError as exc:
            assert _error_text(decode_doc_ids, data) == str(exc)
        else:
            assert decode_doc_ids(data) == want


# -- merges -----------------------------------------------------------------------

sorted_ids = st.lists(
    st.integers(min_value=0, max_value=300), unique=True, max_size=60
).map(sorted)

MERGES = ("intersect", "union", "difference")


class TestMerges:
    @settings(max_examples=150, deadline=None)
    @given(a=sorted_ids, b=sorted_ids)
    def test_lists_and_tuples(self, a, b):
        for name in MERGES:
            want = getattr(ref, name)(a, b)
            got = getattr(boolean, name)
            assert got(a, b) == want, name
            assert got(tuple(a), tuple(b)) == want, name
            assert isinstance(got(tuple(a), tuple(b)), list)

    @pytest.mark.parametrize("name", MERGES)
    @pytest.mark.parametrize(
        "a, b",
        (
            ([], []),
            ([], [1, 2, 3]),
            ([1, 2, 3], []),
            ([1, 3, 5], [2, 4, 6]),  # disjoint, interleaved
            ([1, 2, 3], [10, 11]),  # disjoint, apart
            ([4, 8, 15, 16], [4, 8, 15, 16]),  # identical
            ([1, 2, 3], [1, 2, 3, 4, 5, 6]),  # nested prefix
            ([1, 2, 3, 4, 5, 6], [1, 2, 3]),
            ([0, 2**40], [2**40]),
        ),
    )
    def test_shapes(self, name, a, b):
        assert getattr(boolean, name)(a, b) == getattr(ref, name)(a, b)

    def test_inputs_are_left_alone(self):
        a, b = [1, 2, 3, 9], [2, 3, 4]
        for name in MERGES:
            getattr(boolean, name)(a, b)
        assert (a, b) == ([1, 2, 3, 9], [2, 3, 4])


# -- ranking ----------------------------------------------------------------------

weighted_lists = st.dictionaries(
    st.sampled_from("abcdefgh"),
    st.tuples(
        st.sampled_from(
            (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 0.1, 1e-9, -0.25, -2.0)
        ),
        sorted_ids,
    ),
    max_size=6,
)


def _hexed(ranked):
    return [(d.doc_id, d.score.hex()) for d in ranked]


class TestRank:
    @settings(max_examples=150, deadline=None)
    @given(
        lists=weighted_lists,
        ndocs=st.integers(0, 400),
        top_k=st.integers(1, 30),
    )
    def test_scores_bit_identical_and_ties_to_lower_id(
        self, lists, ndocs, top_k
    ):
        weights = {word: weight for word, (weight, _) in lists.items()}
        fetch = lambda word: lists[word][1]  # noqa: E731
        got = vector.rank(weights, fetch, ndocs, top_k=top_k)
        want = ref.rank(weights, fetch, ndocs, top_k=top_k)
        assert _hexed(got) == _hexed(want)

    def test_presence_only_ties(self):
        # Equal weights over equal-length lists: whole plateaus of equal
        # scores, cut by top_k in the middle of one.
        lists = {"a": list(range(0, 60, 2)), "b": list(range(0, 90, 3))}
        weights = {"a": 1.0, "b": 1.0}
        for top_k in (1, 5, 10, 11, 40, 200):
            got = vector.rank(weights, lists.__getitem__, 100, top_k=top_k)
            want = ref.rank(weights, lists.__getitem__, 100, top_k=top_k)
            assert _hexed(got) == _hexed(want)
            ids = [d.doc_id for d in got]
            assert ids[: min(top_k, 10)] == list(range(0, 60, 6))[:top_k]


# -- the streamed evaluator -------------------------------------------------------

STYLES = {
    "new": Policy(style=Style.NEW, limit=Limit.Z),
    "new-0": Policy.update_optimized(),
    "whole": Policy.query_optimized(),
    "fill": Policy.balanced(extent_blocks=2),
}
UNKNOWN = 9_999


def seeded_index(policy, seed, block_postings):
    """Words 1–3 own multi-chunk long lists, 4–8 shorter ones, the rest
    stay in buckets; the last batch is left unflushed, and word 30 lives
    only there."""
    rng = random.Random(seed)
    index = DualStructureIndex(
        IndexConfig(
            nbuckets=4,
            bucket_size=48,
            block_postings=block_postings,
            ndisks=2,
            nblocks_override=200_000,
            store_contents=True,
            policy=policy,
        )
    )
    doc = 0
    for batch in range(9):
        for _ in range(rng.randint(8, 30)):
            words = {w for w in (1, 2, 3) if rng.random() < 0.75}
            words |= {w for w in range(4, 9) if rng.random() < 0.3}
            words |= {rng.randint(9, 25) for _ in range(rng.randint(0, 3))}
            if batch == 8 and rng.random() < 0.4:
                words.add(30)
            doc += rng.choice((1, 1, 1, 2, 40, 200))
            if words:
                index.add_document(sorted(words), doc_id=doc)
        if batch < 8:
            index.flush_batch()
    return index


def _queries(rng):
    fixed = [
        [1, 2, 3], [3, 1], [1, 4, 2], [1, 12], [12, 1], [15, 16],
        [1, UNKNOWN], [UNKNOWN], [30], [1, 30], [30, 2, 3], [1], [9, 30],
        [1, 1], [],
    ]
    drawn = [
        [rng.randint(1, 26) for _ in range(rng.randint(2, 4))]
        for _ in range(25)
    ]
    return fixed + drawn


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("seed, block_postings", ((0, 4), (1, 8), (2, 64)))
def test_streamed_answers_and_io_match_the_reference_cursor(
    style, seed, block_postings
):
    index = seeded_index(STYLES[style], seed, block_postings)
    if block_postings < 64:
        # The battery proves nothing unless lists span chunks and blocks.
        entry = index.directory.get(1)
        assert entry is not None and len(index.memory.get(1)) > 0
        assert sum(c.npostings for c in entry.chunks) > 4 * block_postings
        if style != "whole":
            assert entry.nchunks > 1
    assert index.directory.get(15) is None
    for words in _queries(random.Random(seed)):
        for name in ("streamed_and", "streamed_or"):
            got_docs, got = getattr(streaming, name)(index, words)
            want_docs, want = getattr(ref, name)(index, words)
            assert got_docs == want_docs, (name, words)
            assert (got.read_ops, got.blocks_read, got.postings_decoded) == (
                want.read_ops,
                want.blocks_read,
                want.postings_decoded,
            ), (name, words)


def test_cursor_walk_and_gallop_match_the_reference_cursor():
    index = seeded_index(STYLES["new"], 3, 4)
    for word in (1, 5, 12, 30, UNKNOWN):
        for stride in (1, 2, 7, 50, 10_000):
            got_stats, want_stats = streaming.StreamStats(), ref.StreamStats()
            got = streaming.ListCursor(index, word, got_stats)
            want = ref.ListCursor(index, word, want_stats)
            while not want.exhausted:
                assert (got.exhausted, got.current) == (False, want.current)
                target = want.current + stride
                for cursor in (got, want):
                    if stride % 2:
                        cursor.next_geq(target)
                    else:
                        cursor.next()
                        cursor.next_geq(target - 3)
                assert got_stats == want_stats
            assert got.exhausted and got.current is None
            got.next()
            got.next_geq(10**9)
            assert got.exhausted and got.current is None
            assert got_stats == want_stats
