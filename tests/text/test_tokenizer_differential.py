"""Differential battery: the compiled-pattern tokenizer against the
per-character loop it replaced (``tests/reference_tokenizer.py``).

Every index byte depends on the token stream, so every entry point must
give the oracle's exact tokens — positions and regions included — on any
text, under every configuration below.  The traps are where a regular
expression and the loop can part: ``str.isdigit`` is wider than ``re``'s
``\\d``, non-ASCII letters separate tokens, ``max_token_length`` counts
characters, ``lower()`` can turn a non-token character into an ASCII
letter, headers and stop words are matched after lowercasing, and
``str.splitlines`` breaks on more than ``\\n``.

``test_matches_the_oracle_deep`` (~20k examples) is ``slow`` and runs
only when ``-m`` names ``slow``, as in CI's deep step:
``pytest -m slow tests/text/test_tokenizer_differential.py``.
"""

import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.index import IndexConfig
from repro.core.positional import Region
from repro.text import tokenizer
from repro.text.occurrences import RegionRules, tokenize_occurrences
from repro.text.tokenizer import (
    DEFAULT_STOP_WORDS,
    TokenizerConfig,
    tokenize,
    tokenize_document,
    tokenize_line,
)
from repro.textindex import TextDocumentIndex
from repro.workload.newsgen import generate_articles
from repro.workload.synthetic import SyntheticNews, SyntheticNewsConfig

from .. import reference_tokenizer as ref

CONFIGS = {
    "default": TokenizerConfig(),
    "max3": TokenizerConfig(max_token_length=3),
    "cased": TokenizerConfig(lowercase=False),
    "full-text": TokenizerConfig.full_text(),
    "cased-stopped": TokenizerConfig(
        lowercase=False, stop_words=DEFAULT_STOP_WORDS
    ),
    # "k" also ignores lines opening with the Kelvin sign, which lowers
    # to it; superscript two is a digit that is not a decimal.
    "prefixes": TokenizerConfig(ignored_prefixes=("subject:", "k", "\u00b2")),
}

RULES = (
    None,
    RegionRules(prefixes={"headline:": Region.TITLE, "\u00df": Region.AUTHOR}),
)

TRAPS = (
    "\u00b2",  # superscript two: isdigit, not isdecimal
    "\u2460",  # circled digit one: likewise
    "\u0663",  # Arabic-Indic three: a decimal digit
    "\U0001d7ce",  # mathematical bold digit zero: likewise
    "\u00e9",  # e acute: a letter, not an ASCII one
    "\u00df",  # sharp s: uppercases to two letters
    "\u0130",  # I with dot above: lowers to "i" plus a combining dot
    "\u212a",  # Kelvin sign: lowers to "k"
    "_",
    "\x1c",  # a splitlines() break that is not a newline
    "\x85",  # likewise
    "\u2028",  # likewise
    "\u00a0",  # no-break space: whitespace lstrip() removes
    " ",
    "\r\n",
)
PIECES = TRAPS + (
    "a", "Z", "7", "09", "The", "AND", "fox", "\n", "\t", "Subject:",
    "From:", "Headline:", "Kelvin", "subject",
)
LINE_STARTS = ("Date:", "dAtE:", "  date:", "Message-ID:", "Subject:", "From:")

trap_lines = st.tuples(
    st.sampled_from(("",) + LINE_STARTS),
    st.lists(st.sampled_from(PIECES), max_size=20).map("".join),
).map("".join)
trap_texts = st.lists(
    st.tuples(trap_lines, st.sampled_from(("\n", "\r\n", "\x1c", "\x85", "\u2028"))),
    max_size=8,
).map(lambda lines: "".join(line + end for line, end in lines))
texts = st.one_of(st.text(), trap_texts)


def _occurrences(occurrences):
    return [(o.word, o.position, o.region) for o in occurrences]


def check(text: str, cfg: TokenizerConfig) -> None:
    assert list(tokenize_line(text, cfg)) == list(ref.tokenize_line(text, cfg))
    assert list(tokenize(text, cfg)) == list(ref.tokenize(text, cfg))
    assert tokenize_document(text, cfg) == ref.tokenize_document(text, cfg)
    for rules in RULES:
        assert _occurrences(tokenize_occurrences(text, cfg, rules)) == (
            _occurrences(ref.tokenize_occurrences(text, cfg, rules))
        )


#: Edges of the line and header rules, pinned so that each tier-1 run
#: meets them rather than only the deep run: an ignored header after
#: every line break ``splitlines`` knows, after any indent ``lstrip``
#: removes and in any case; tokens at and past the length limit; digit
#: runs glued to letters; one non-ASCII character anywhere.
LEXER_EDGES = (
    "one\rDate: two\nthree",
    "one\x0bdate: two\nthree",
    "one\x1cMessage-ID: <two>\nthree",
    "one\r\nPath: two\r\nthree",
    "\tDate: two\n\x1fdate: three\n \t\x1fPath: four\nfive",
    "DATE: two\nMESSAGE-ID: <three>\nXref: four\nfive date: six\n",
    "abc " + "d" * 63 + " " + "e" * 64 + " " + "f" * 65 + " abcd ghi",
    "1" * 64 + " " + "2" * 65 + " 123 1234",
    "abc123def 4x5 x99y Date2: no\ndate:99 gone\n7",
    "caf\u00e9 Date: shown\nDate: hidden\nabc",
    "Date: hidden\nabc de\u0130f",
    "\u00b2\nsubject: ab\nkelvin Kelvin",
    "date:",
    "",
)


def lexer_edges(test):
    """``test`` with each of :data:`LEXER_EDGES` as an explicit example."""
    for text in LEXER_EDGES:
        test = example(text=text)(test)
    return test


@pytest.mark.parametrize("name", CONFIGS)
@settings(deadline=None)
@given(text=texts)
@lexer_edges
def test_matches_the_oracle(name, text):
    check(text, CONFIGS[name])


@pytest.mark.slow
@pytest.mark.skipif(
    "'slow' not in config.getoption('markexpr')",
    reason="~75 s: runs when -m selects slow tests",
)
@settings(max_examples=20_000, deadline=None)
@given(text=texts, cfg=st.sampled_from(list(CONFIGS.values())))
def test_matches_the_oracle_deep(text, cfg):
    check(text, cfg)


@pytest.mark.parametrize("trap", TRAPS)
def test_each_trap_between_letters_and_digits(trap):
    text = f"Ab{trap}cd 12{trap}34 {trap}x{trap}"
    for cfg in CONFIGS.values():
        check(text, cfg)


def test_the_pattern_knows_every_digit_of_this_unicode_database():
    """The hand-written ``_OTHER_DIGITS`` literal against a scan of every
    code point: the pattern's digit class is exactly ``str.isdigit``."""
    every = "".join(map(chr, range(0x110000)))
    digits = re.compile(r"[\d" + tokenizer._OTHER_DIGITS + "]")
    assert "".join(digits.findall(every)) == "".join(
        filter(str.isdigit, every)
    )
    assert "".join(tokenizer._TOKEN.findall(every)) == "".join(
        c for c in every if (c.isascii() and c.isalpha()) or c.isdigit()
    )


def _articles():
    news = SyntheticNews(SyntheticNewsConfig(days=3, docs_per_day=12))
    texts = [d.text for day in range(3) for d in generate_articles(news, day)]
    texts.append(
        "Subject: \u0130stanbul \u00b2 \u2460 \u0663 \U0001d7ce\n"
        "Kelvin \u212a caf\u00e9 \u00df_x\x85 12\u00b34"
    )
    return texts


@pytest.mark.parametrize("positional", (False, True), ids=("plain", "positional"))
def test_saved_index_bytes_equal_the_oracle_fed_index(positional):
    config = IndexConfig(
        nbuckets=16,
        bucket_size=128,
        block_postings=16,
        ndisks=2,
        nblocks_override=100_000,
        positional=positional,
    )
    ours, theirs = TextDocumentIndex(config), TextDocumentIndex(config)
    for n, text in enumerate(_articles()):
        ours.add_document(text)
        vocabulary = theirs.vocabulary
        if positional:
            theirs.index.add_document_occurrences(
                [
                    (vocabulary.id_of(o.word), o.position, o.region)
                    for o in ref.tokenize_occurrences(text)
                ]
            )
        else:
            theirs.index.add_document(
                [vocabulary.id_of(w) for w in ref.tokenize_document(text)]
            )
        if n % 10 == 9:
            ours.flush_batch()
            theirs.flush_batch()
    ours.flush_batch()
    theirs.flush_batch()
    saved = []
    for index in (ours, theirs):
        buf = io.BytesIO()
        index.save(buf)
        saved.append(buf.getvalue())
    assert saved[0] == saved[1]
