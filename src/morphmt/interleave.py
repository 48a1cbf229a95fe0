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
returns the stream's items in order, as plain tuples - runs of
positional (tag, word) pairs, German (stem, features) pairs, bare
tokens, orphan words and orphan tags - together with the first
violation of the strict alternation as a ``(kind, position)`` pair,
which the pipeline's postprocessing reports; the pipeline and the
``merge-compounds`` command consume the items.
"""

from __future__ import annotations

import re

from .conventions import (
    MODE_BASELINE,
    MODE_GERMAN_STEMMED,
    MODE_GERMAN_STEMMED_SPLIT,
    MODE_MORPHGEN,
    MODE_SERIALIZATION,
)
from .tagsets import classify_czech_tokens, classify_german_tokens

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


class LengthMismatch(ValueError):
    """Source words and source tags differ in count."""


def walk(tokens: list[str], mode: str) -> tuple[list[tuple], tuple[str, int] | None]:
    """Classify each token and pair tags with words leniently, in one pass.

    Returns ``(items, error)``.  Each item is a tuple ``(kind, position,
    tag, word, features)``, at the position of its first token.  ``kind``
    is :data:`ITEM_PAIR` (a German pair), :data:`ITEM_RUN`,
    :data:`ITEM_BARE` (``lexeme[TAG]`` split into ``word`` and ``tag``),
    or the repair event kind of an orphan word or tag, whose ``position``
    is the token it concerns.  A run is a stretch of positional (tag,
    word) pairs; its ``tag`` and ``word`` are the lists of its tags and
    of its words, in stream order.  ``features`` is the parsed feature
    sequence of a German pair, else ``None``.  ``error`` is the stream's
    first strict violation as ``(kind, position)``, or ``None``.

    Positional-tag modes put the tag first, the German stemmed modes put
    the word first (a ``german-stemmed-split`` stream has its split
    compounds rejoined before the walk).  An open tag (or German stem) is either closed by its
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
    if mode in (MODE_GERMAN_STEMMED, MODE_GERMAN_STEMMED_SPLIT):
        return _walk_word_first(tokens)
    if mode == MODE_BASELINE:
        raise ValueError("baseline sequences carry no tag/word pairs")
    raise ValueError(f"unknown mode {mode!r}")


# Over the token classes (1 a tag, 0 a word): a run of (tag, word) pairs,
# else one orphan tag or one orphan word.
_RUNS = re.compile(rb"(?:\x01\x00)+|\x01|\x00")


def _walk_tag_first(tokens: list[str]) -> tuple[list[tuple], tuple[str, int] | None]:
    items: list[tuple] = []
    append = items.append
    error = None
    classes = bytes(classify_czech_tokens(tokens))
    for match in _RUNS.finditer(classes):
        start, end = match.span()
        if end - start > 1:
            append((ITEM_RUN, start, tokens[start:end:2], tokens[start + 1 : end : 2], None))
        elif classes[start]:
            append((EVENT_DROPPED_TAG, start, tokens[start], "", None))
            if error is None:
                error = (ERROR_WORD_EXPECTED, start + 1)
        else:
            append((EVENT_WORD_WITHOUT_TAG, start, "", tokens[start], None))
            if error is None:
                error = (ERROR_TAG_EXPECTED, start)
    if len(tokens) % 2 != 0:
        error = (ERROR_ODD_LENGTH, len(tokens) - 1)
    return items, error


def _walk_word_first(tokens: list[str]) -> tuple[list[tuple], tuple[str, int] | None]:
    items: list[tuple] = []
    append = items.append
    error = None
    open_stem = -1
    # A separator is a word here: split streams are rejoined before the walk.
    for i, (features, bare, _) in enumerate(classify_german_tokens(tokens)):
        if features is not None:
            if open_stem >= 0:
                append((ITEM_PAIR, open_stem, tokens[i], tokens[open_stem], features))
                open_stem = -1
                continue
            append((EVENT_DROPPED_TAG, i, tokens[i], "", None))
            if error is None:
                error = (ERROR_WORD_EXPECTED, i)
            continue
        if open_stem >= 0:
            append((EVENT_WORD_WITHOUT_TAG, open_stem, "", tokens[open_stem], None))
            if error is None:
                error = (ERROR_TAG_EXPECTED, open_stem + 1)
        if bare is None:
            open_stem = i
        else:
            append((ITEM_BARE, i, *bare, None))
            open_stem = -1
    if open_stem >= 0:
        append((EVENT_WORD_WITHOUT_TAG, open_stem, "", tokens[open_stem], None))
        if error is None:
            error = (ERROR_TAG_EXPECTED, open_stem + 1)
    return items, error


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
