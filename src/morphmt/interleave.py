"""Sentence encodings: interleaved tag/word training representations.

Four representation modes:

* ``baseline``        - surface forms only.
* ``morphgen``        - tag token before each lemma token.
* ``serialization``   - tag token before each surface token.
* ``german-stemmed``  - per word, either one bare token (``und[KON]``) or
  a stem token followed by its feature-sequence token
  (``sehen <+V><3><Sg><Pres><Ind>``).

:func:`walk` is the one pass over a decoded token stream.  It classifies
each token once and returns the stream's items in order - (tag, word)
pairs, bare tokens, orphan words and orphan tags - together with the
first violation of the strict alternation.  :func:`decode` is its strict
view and the well-formedness checker of the evaluation module; the
pipeline's postprocessing and the ``merge-compounds`` command consume
the items directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .tagsets import (
    GermanFeatureSeq,
    MorphAnalysis,
    format_tag,
    is_bare_token,
    is_czech_tag,
    parse_feature_token,
    KIND_BARE,
)

__all__ = [
    "MODES",
    "MODE_BASELINE",
    "MODE_MORPHGEN",
    "MODE_SERIALIZATION",
    "MODE_GERMAN_STEMMED",
    "ITEM_PAIR",
    "ITEM_BARE",
    "EVENT_WORD_WITHOUT_TAG",
    "EVENT_DROPPED_TAG",
    "InterleavedSentence",
    "Item",
    "Walk",
    "WellformednessError",
    "LengthMismatch",
    "encode",
    "walk",
    "decode",
    "tag_source",
]

MODE_BASELINE = "baseline"
MODE_MORPHGEN = "morphgen"
MODE_SERIALIZATION = "serialization"
MODE_GERMAN_STEMMED = "german-stemmed"
MODES = (MODE_BASELINE, MODE_MORPHGEN, MODE_SERIALIZATION, MODE_GERMAN_STEMMED)

ERROR_ODD_LENGTH = "odd-length"
ERROR_TAG_EXPECTED = "tag-expected"
ERROR_WORD_EXPECTED = "word-expected"

ITEM_PAIR = "pair"
ITEM_BARE = "bare"
# Orphan items are named after the repair event they stand for.
EVENT_WORD_WITHOUT_TAG = "word-without-tag"
EVENT_DROPPED_TAG = "dropped-tag"
_STRICT_ERROR = {
    EVENT_WORD_WITHOUT_TAG: ERROR_TAG_EXPECTED,
    EVENT_DROPPED_TAG: ERROR_WORD_EXPECTED,
}


class WellformednessError(ValueError):
    """A token sequence violates the tag/word alternation of its mode."""

    def __init__(self, position: int, kind: str, message: str | None = None):
        self.position = position
        self.kind = kind
        super().__init__(message or f"{kind} at token {position}")


class LengthMismatch(ValueError):
    """Source words and source tags differ in count."""


@dataclass(frozen=True)
class InterleavedSentence:
    """A validated token sequence in one representation mode."""

    mode: str
    tokens: tuple[str, ...]

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def encode(analyses: list[MorphAnalysis], mode: str) -> InterleavedSentence:
    """Encode per-word analyses into one token sequence.

    Interleaved modes emit the tag token before the word token; the
    German stemmed mode emits the stem first and its feature sequence
    second, matching the stem||features boundary direction.  Baseline and
    serialization need the original surface on every analysis.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    tokens: list[str] = []
    for a in analyses:
        if mode == MODE_BASELINE:
            tokens.append(_surface_of(a))
            continue
        if mode == MODE_MORPHGEN:
            tokens += [format_tag(a.tag), a.lemma]
        elif mode == MODE_SERIALIZATION:
            tokens += [format_tag(a.tag), _surface_of(a)]
        elif _is_bare(a):  # german-stemmed
            tokens.append(f"{a.lemma}{format_tag(a.tag)}")
        else:
            tokens += [a.lemma, format_tag(a.tag)]
    return InterleavedSentence(mode, tuple(tokens))


def _surface_of(a: MorphAnalysis) -> str:
    if a.surface is None:
        raise ValueError(f"analysis of {a.lemma!r} carries no surface form")
    return a.surface


def _is_bare(a: MorphAnalysis) -> bool:
    return getattr(a.tag, "kind", None) == KIND_BARE


class Item(NamedTuple):
    """One unit of a walked stream, at the position of its first token.

    ``kind`` is :data:`ITEM_PAIR`, :data:`ITEM_BARE` (``lexeme[TAG]``
    split into ``word`` and ``tag``), or a repair event kind for an
    orphan word or tag.  ``features`` is the parsed feature sequence of a
    German pair.
    """

    kind: str
    position: int
    tag: str
    word: str
    features: GermanFeatureSeq | None = None


class Walk(NamedTuple):
    """The items of a stream and its first strict violation, if any.

    The orphan items are the stream's repair events: their ``kind`` is
    the event kind and their ``position`` the token it concerns.
    """

    items: list[Item]
    error: WellformednessError | None


def walk(tokens: list[str], mode: str) -> Walk:
    """Classify each token once and pair tags with words leniently.

    Positional-tag modes put the tag first, the German stemmed mode puts
    the word first.  A token that cannot open or close a pair becomes an
    orphan item.  The strict error is derived from the first orphan: an
    orphan that opens a pair is reported where its partner was expected.
    An odd-length positional-tag stream is reported as ``odd-length`` at
    its last token before any other violation.  Inputs must have BPE
    reverted already.
    """
    if mode in (MODE_MORPHGEN, MODE_SERIALIZATION):
        tag_first = True
        features: list[GermanFeatureSeq | None] = [None] * len(tokens)
        is_tag = list(map(is_czech_tag, tokens))
    elif mode == MODE_GERMAN_STEMMED:
        tag_first = False
        features = list(map(parse_feature_token, tokens))
        is_tag = [f is not None for f in features]
    elif mode == MODE_BASELINE:
        raise ValueError("baseline sequences carry no tag/word pairs")
    else:
        raise ValueError(f"unknown mode {mode!r}")

    items: list[Item] = []
    n = len(tokens)
    i = 0
    while i < n:
        token = tokens[i]
        if is_tag[i]:
            if tag_first and i + 1 < n and not is_tag[i + 1]:
                items.append(Item(ITEM_PAIR, i, token, tokens[i + 1]))
                i += 2
                continue
            items.append(Item(EVENT_DROPPED_TAG, i, token, ""))
        elif not tag_first and is_bare_token(token):
            lexeme, bracket, rest = token.partition("[")
            items.append(Item(ITEM_BARE, i, bracket + rest, lexeme))
        elif not tag_first and i + 1 < n and is_tag[i + 1]:
            items.append(Item(ITEM_PAIR, i, tokens[i + 1], token, features[i + 1]))
            i += 2
            continue
        else:
            items.append(Item(EVENT_WORD_WITHOUT_TAG, i, "", token))
        i += 1

    error = None
    if tag_first and n % 2 != 0:
        error = WellformednessError(n - 1, ERROR_ODD_LENGTH)
    else:
        for item in items:
            if item.kind in _STRICT_ERROR:
                opens_pair = (item.kind == EVENT_DROPPED_TAG) == tag_first
                position = item.position + 1 if opens_pair else item.position
                error = WellformednessError(position, _STRICT_ERROR[item.kind])
                break
    return Walk(items, error)


def decode(tokens: list[str], mode: str) -> list[tuple[str, str]]:
    """Validate a token sequence and return its (tag, word) pairs.

    The strict view of :func:`walk`: raises its first
    :class:`WellformednessError` (odd-length, tag-expected,
    word-expected) or returns the pairs, bare tokens included.
    """
    stream = walk(tokens, mode)
    if stream.error is not None:
        raise stream.error
    return [(item.tag, item.word) for item in stream.items]


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
