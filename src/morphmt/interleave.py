"""Sentence encodings: interleaved tag/word training representations.

Four representation modes:

* ``baseline``        - surface forms only.
* ``morphgen``        - tag token before each lemma token.
* ``serialization``   - tag token before each surface token.
* ``german-stemmed``  - per word, either one bare token (``und[KON]``) or
  a stem token followed by its feature-sequence token
  (``sehen <+V><3><Sg><Pres><Ind>``).

The pipeline encodes each word in one of these representations
(``morphmt.pipeline``); this module decodes them.  :func:`walk` is the
one pass over a decoded token stream.  It classifies each token once and
returns the stream's items in order - runs of positional (tag, word)
pairs, German (stem, features) pairs, bare tokens, orphan words and
orphan tags - together with the first violation of the strict
alternation, which the pipeline's postprocessing reports; the pipeline
and the ``merge-compounds`` command consume the items.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .conventions import (
    MODE_BASELINE,
    MODE_GERMAN_STEMMED,
    MODE_MORPHGEN,
    MODE_SERIALIZATION,
)
from .tagsets import (
    GermanFeatureSeq,
    classify_czech_tokens,
    classify_german_tokens,
)

__all__ = [
    "MODE_BASELINE",
    "MODE_MORPHGEN",
    "MODE_SERIALIZATION",
    "MODE_GERMAN_STEMMED",
    "ITEM_PAIR",
    "ITEM_RUN",
    "ITEM_BARE",
    "EVENT_WORD_WITHOUT_TAG",
    "EVENT_DROPPED_TAG",
    "Item",
    "Walk",
    "WellformednessError",
    "LengthMismatch",
    "walk",
    "tag_source",
]

ERROR_ODD_LENGTH = "odd-length"
ERROR_TAG_EXPECTED = "tag-expected"
ERROR_WORD_EXPECTED = "word-expected"

ITEM_PAIR = "pair"
ITEM_RUN = "run"
ITEM_BARE = "bare"
# Orphan items are named after the repair event they stand for.
EVENT_WORD_WITHOUT_TAG = "word-without-tag"
EVENT_DROPPED_TAG = "dropped-tag"


class WellformednessError(ValueError):
    """A token sequence violates the tag/word alternation of its mode."""

    def __init__(self, position: int, kind: str, message: str | None = None):
        self.position = position
        self.kind = kind
        super().__init__(message or f"{kind} at token {position}")


class LengthMismatch(ValueError):
    """Source words and source tags differ in count."""


class Item(NamedTuple):
    """One unit of a walked stream, at the position of its first token.

    ``kind`` is :data:`ITEM_PAIR` (a German pair), :data:`ITEM_RUN`,
    :data:`ITEM_BARE` (``lexeme[TAG]`` split into ``word`` and ``tag``),
    or a repair event kind for an orphan word or tag.  A run is a stretch
    of positional (tag, word) pairs; its ``tag`` and ``word`` are the
    lists of its tags and of its words, in stream order.  ``features`` is
    the parsed feature sequence of a German pair.
    """

    kind: str
    position: int
    tag: str | list[str]
    word: str | list[str]
    features: GermanFeatureSeq | None = None


class Walk(NamedTuple):
    """The items of a stream and its first strict violation, if any.

    The orphan items are the stream's repair events: their ``kind`` is
    the event kind and their ``position`` the token it concerns.
    """

    items: list[Item]
    error: WellformednessError | None


def walk(tokens: list[str], mode: str) -> Walk:
    """Classify each token and pair tags with words leniently, in one pass.

    Positional-tag modes put the tag first, the German stemmed mode puts
    the word first.  An open tag (or German stem) is either closed by its
    partner or becomes an orphan item, and so does any token that cannot
    open a pair.  The strict error is derived from the first orphan: an
    orphan that opens a pair is reported where its partner was expected.
    An odd-length positional-tag stream is reported as ``odd-length`` at
    its last token before any other violation.  Tokens are classified
    once per distinct token (:func:`~morphmt.tagsets.classify_czech_tokens`,
    :func:`~morphmt.tagsets.classify_german_tokens`).  Positional-tag
    pairs come as runs: one regular-expression scan over the token classes
    finds each stretch of pairs, and its tags and words are sliced out as
    two lists.  Inputs must have BPE reverted already.
    """
    if mode in (MODE_MORPHGEN, MODE_SERIALIZATION):
        return _walk_tag_first(tokens)
    if mode == MODE_GERMAN_STEMMED:
        return _walk_word_first(tokens)
    if mode == MODE_BASELINE:
        raise ValueError("baseline sequences carry no tag/word pairs")
    raise ValueError(f"unknown mode {mode!r}")


# Items are built with tuple.__new__, which skips the Python-level
# constructor that a NamedTuple class call runs.
_new = tuple.__new__

# Over the token classes (1 a tag, 0 a word): a run of (tag, word) pairs,
# else one orphan tag or one orphan word.
_RUNS = re.compile(rb"(?:\x01\x00)+|\x01|\x00")


def _walk_tag_first(tokens: list[str]) -> Walk:
    items: list[Item] = []
    append = items.append
    error = None
    classes = bytes(classify_czech_tokens(tokens))
    for match in _RUNS.finditer(classes):
        start, end = match.span()
        if end - start > 1:
            append(_new(Item, (ITEM_RUN, start, tokens[start:end:2], tokens[start + 1 : end : 2], None)))
        elif classes[start]:
            append(_new(Item, (EVENT_DROPPED_TAG, start, tokens[start], "", None)))
            if error is None:
                error = WellformednessError(start + 1, ERROR_WORD_EXPECTED)
        else:
            append(_new(Item, (EVENT_WORD_WITHOUT_TAG, start, "", tokens[start], None)))
            if error is None:
                error = WellformednessError(start, ERROR_TAG_EXPECTED)
    if len(tokens) % 2 != 0:
        error = WellformednessError(len(tokens) - 1, ERROR_ODD_LENGTH)
    return Walk(items, error)


def _walk_word_first(tokens: list[str]) -> Walk:
    items: list[Item] = []
    append = items.append
    error = None
    open_stem = -1
    # A separator is a word here: split streams are rejoined before the walk.
    for i, (features, bare, _) in enumerate(classify_german_tokens(tokens)):
        if features is not None:
            if open_stem >= 0:
                append(_new(Item, (ITEM_PAIR, open_stem, tokens[i], tokens[open_stem], features)))
                open_stem = -1
                continue
            append(_new(Item, (EVENT_DROPPED_TAG, i, tokens[i], "", None)))
            if error is None:
                error = WellformednessError(i, ERROR_WORD_EXPECTED)
            continue
        if open_stem >= 0:
            append(_new(Item, (EVENT_WORD_WITHOUT_TAG, open_stem, "", tokens[open_stem], None)))
            if error is None:
                error = WellformednessError(open_stem + 1, ERROR_TAG_EXPECTED)
        if bare is None:
            open_stem = i
        else:
            append(_new(Item, (ITEM_BARE, i, *bare, None)))
            open_stem = -1
    if open_stem >= 0:
        append(_new(Item, (EVENT_WORD_WITHOUT_TAG, open_stem, "", tokens[open_stem], None)))
        if error is None:
            error = WellformednessError(open_stem + 1, ERROR_TAG_EXPECTED)
    return Walk(items, error)


def tag_source(words: list[str], tags: list[str]) -> list[str]:
    """Interleave source tags with source words (tag before word).

    Balances source/target sentence lengths when the target side is
    interleaved; any POS inventory is accepted.
    """
    if len(words) != len(tags):
        raise LengthMismatch(f"{len(words)} words vs {len(tags)} tags")
    out: list[str] = []
    for word, tag in zip(words, tags):
        out += [tag, word]
    return out
