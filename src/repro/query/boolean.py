"""Boolean information-retrieval model: parser and merge-based evaluation.

The paper's example (§1): "in a boolean system, queries are boolean
expressions such as '(cat and dog) or mouse'.  ...the system would retrieve
the inverted list for 'cat' and 'dog', intersect them, and then would union
the result with the list for 'mouse'."  Section 3 adds the structural
requirement this module relies on: document identifiers appear in sorted
order in inverted lists and all updates append, so answers are computed by
**merging sorted lists**.

Grammar (case-insensitive keywords, standard precedence NOT > AND > OR)::

    expr   := term (OR term)*
    term   := factor (AND factor)*
    factor := NOT factor | '(' expr ')' | WORD

Evaluation needs a *fetcher* — any callable ``word -> sorted list of doc
ids`` — plus the document-id universe size for NOT.  The index facade
provides both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence


class QueryParseError(Exception):
    """Raised on malformed boolean query strings."""


# -- sorted-list merges ---------------------------------------------------------
#
# Inputs are strictly increasing (paper §3: ids are sorted and every update
# appends), so each merge is a C-level pass over a hash set.


def intersect(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sorted-list intersection."""
    if len(a) > len(b):
        a, b = b, a
    return list(filter(set(a).__contains__, b))


def union(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sorted-list union."""
    return sorted({*a, *b})


def difference(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sorted-list difference ``a - b``."""
    drop = set(b)
    return [doc for doc in a if doc not in drop]


# -- AST -------------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    word: str

    def evaluate(self, fetch: Callable[[str], Sequence[int]], ndocs: int):
        return fetch(self.word)

    def complements(self) -> bool:
        return False


@dataclass(frozen=True)
class And:
    left: object
    right: object

    def evaluate(self, fetch, ndocs):
        # NOT distributes into difference when one side is negated, which
        # avoids materializing the complement.
        if isinstance(self.right, Not):
            return difference(
                self.left.evaluate(fetch, ndocs),
                self.right.child.evaluate(fetch, ndocs),
            )
        if isinstance(self.left, Not):
            return difference(
                self.right.evaluate(fetch, ndocs),
                self.left.child.evaluate(fetch, ndocs),
            )
        return intersect(
            self.left.evaluate(fetch, ndocs), self.right.evaluate(fetch, ndocs)
        )

    def complements(self) -> bool:
        # Mirrors ``evaluate``: the one ``Not`` operand taken as a
        # difference is never complemented; a second one still is.
        if isinstance(self.right, Not):
            return self.left.complements() or self.right.child.complements()
        if isinstance(self.left, Not):
            return self.right.complements() or self.left.child.complements()
        return self.left.complements() or self.right.complements()


@dataclass(frozen=True)
class Or:
    left: object
    right: object

    def evaluate(self, fetch, ndocs):
        return union(
            self.left.evaluate(fetch, ndocs), self.right.evaluate(fetch, ndocs)
        )

    def complements(self) -> bool:
        return self.left.complements() or self.right.complements()


@dataclass(frozen=True)
class Not:
    child: object

    def evaluate(self, fetch, ndocs):
        return difference(range(ndocs), self.child.evaluate(fetch, ndocs))

    def complements(self) -> bool:
        """Does evaluating this node subtract from ``range(ndocs)``
        somewhere?  Only then can the answer hold ids no fetched list
        contains — what a shard evaluating against its own postings
        must have cut back to its own slice of the universe."""
        return True


# -- parser -----------------------------------------------------------------------


def _lex(query: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(query):
        ch = query[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch.isalnum():
            j = i
            while j < len(query) and query[j].isalnum():
                j += 1
            tokens.append(query[i:j])
            i = j
        else:
            raise QueryParseError(f"unexpected character {ch!r} in query")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise QueryParseError("unexpected end of query")
        self.pos += 1
        return token

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise QueryParseError(f"trailing input at {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while (tok := self.peek()) is not None and tok.lower() == "or":
            self.take()
            node = Or(node, self.term())
        return node

    def term(self):
        node = self.factor()
        while (tok := self.peek()) is not None and tok.lower() == "and":
            self.take()
            node = And(node, self.factor())
        return node

    def factor(self):
        token = self.take()
        lowered = token.lower()
        if lowered == "not":
            return Not(self.factor())
        if token == "(":
            node = self.expr()
            if self.take() != ")":
                raise QueryParseError("missing closing parenthesis")
            return node
        if token == ")" or lowered in ("and", "or"):
            raise QueryParseError(f"unexpected token {token!r}")
        return Word(lowered)


def parse(query: str):
    """Parse a boolean query string into an AST."""
    tokens = _lex(query)
    if not tokens:
        raise QueryParseError("empty query")
    return _Parser(tokens).parse()


def evaluate(
    query: str, fetch: Callable[[str], Sequence[int]], ndocs: int
) -> list[int]:
    """Parse and evaluate a boolean query.

    ``fetch`` maps a lowercased word to its sorted posting list (empty for
    unknown words); ``ndocs`` bounds the universe for NOT.  A fetched list
    belongs to the caller: a single-word query returns it uncopied, so
    ``fetch`` must hand out a list nothing else will mutate.
    """
    return parse(query).evaluate(fetch, ndocs)
