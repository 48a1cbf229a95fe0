"""Morphological tag formats: Czech positional tags and German stem+feature analyses.

Two tag families are supported:

* fixed-width 15-slot positional tags, one character per category
  (``AAIP7----2A----``), and
* German analyses consisting of a stem side (one or more lexeme segments,
  each optionally carrying verbatim markup such as ``<NN>`` or ``<Pos>``)
  and, after a ``||`` boundary, a feature sequence such as
  ``<+NN><Fem><Acc><Sg><NA>``.  Non-inflected words are written as a
  lexeme with a bracketed parse tag (``und[KON]``, ``,[$]``).

A parsed tag formats back byte for byte: ``format_tag(parse(x)) == x``.
A German analysis token is checked and cut into its halves, the
(tag text, lemma) row key a lexicon stores; no record is built from it
and nothing formats it back.  Text is cut into lines by
:func:`~morphmt.conventions.split_lines` (re-exported here) everywhere
in the package.

Every stream-token shape is defined here: positional tags, and German
feature, bare and compound-separator (``§§<NN>§§``) tokens, which
:func:`classify_german_tokens` classifies in one memo that all readers share.
"""

from __future__ import annotations

import re
import string
from typing import Callable, Sequence

from . import FrozenRecord
from .conventions import MODE_BASELINE, split_lines

__all__ = [
    "MalformedTag",
    "MalformedAnalysis",
    "PositionalTag",
    "GermanFeatureSeq",
    "StemSegment",
    "parse_czech_tag",
    "parse_feature_seq",
    "parse_stem_side",
    "parse_german_analysis",
    "format_tag",
    "is_czech_tag",
    "is_german_tag_token",
    "format_separator",
    "tag_predicate_for_mode",
    "classify_czech_tokens",
    "classify_german_tokens",
    "GERMAN_WORD",
    "GENDERS",
    "CASES",
    "NUMBERS",
    "STRENGTHS",
    "PERSONS",
    "TENSES",
    "MOODS",
    "split_lines",
]


class MalformedTag(ValueError):
    """Raised for text that is not a valid 15-slot positional tag."""


class MalformedAnalysis(ValueError):
    """Raised for text that is not a valid German stem+feature analysis."""


# ---------------------------------------------------------------------------
# Czech positional tags
# ---------------------------------------------------------------------------

TAG_LENGTH = 15

SLOT_NAMES = (
    "pos",
    "subpos",
    "gender",
    "number",
    "case",
    "possgender",
    "possnumber",
    "person",
    "tense",
    "grade",
    "negation",
    "voice",
    "reserve1",
    "reserve2",
    "var",
)

# ASCII letters and digits plus ':' (sub-POS of punctuation) and '-' (unset).
_TAG_CHARS = string.ascii_letters + string.digits + ":-"
TAG_ALPHABET = frozenset(_TAG_CHARS)
_TAG_RE = re.compile(f"[{re.escape(_TAG_CHARS)}]{{{TAG_LENGTH}}}")

# The token parsers below memoize per distinct text in a plain dict (an
# lru_cache wrapper would hide them from function-level tracing), and the
# pipeline keeps one dict per call for its per-token work.  A memo's values
# are never mutated, and _remember empties a memo when it reaches this size.
_MEMO_LIMIT = 1 << 16


def _remember(memo: dict, key, value):
    """Store and return ``value``, emptying ``memo`` first when it is full."""
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


def _classify_tokens(memo: dict, classify, tokens: Sequence[str]) -> list:
    """``classify(token)`` for each token, called once per distinct token.

    A token already in ``memo`` costs a dict lookup and no Python-level
    call; ``classify`` must never return None, which marks a miss.
    """
    values = list(map(memo.get, tokens))
    if None in values:
        for i, value in enumerate(values):
            if value is None:
                token = tokens[i]
                value = memo.get(token)
                if value is None:
                    value = _remember(memo, token, classify(token))
                values[i] = value
    return values


class PositionalTag(FrozenRecord):
    """A 15-character positional tag; each position encodes one category.

    ``raw`` is the authoritative representation.  The named slot accessors
    index into it, so formatting a parsed tag reproduces the input exactly.
    """

    def __init__(self, raw: str) -> None:
        if _TAG_RE.fullmatch(raw) is None:
            if len(raw) != TAG_LENGTH:
                raise MalformedTag(f"positional tag must have {TAG_LENGTH} characters, "
                                   f"got {len(raw)}: {raw!r}")
            i, ch = next((i, ch) for i, ch in enumerate(raw) if ch not in TAG_ALPHABET)
            raise MalformedTag(f"illegal character {ch!r} at position {i} in tag {raw!r}")
        object.__setattr__(self, "raw", raw)

    def slot(self, name: str) -> str:
        return self.raw[SLOT_NAMES.index(name)]

    @property
    def slots(self) -> dict[str, str]:
        return dict(zip(SLOT_NAMES, self.raw))

    @property
    def pos(self) -> str:
        return self.raw[0]

    @property
    def subpos(self) -> str:
        return self.raw[1]

    @property
    def gender(self) -> str:
        return self.raw[2]

    @property
    def number(self) -> str:
        return self.raw[3]

    @property
    def case(self) -> str:
        return self.raw[4]

    @property
    def possgender(self) -> str:
        return self.raw[5]

    @property
    def possnumber(self) -> str:
        return self.raw[6]

    @property
    def person(self) -> str:
        return self.raw[7]

    @property
    def tense(self) -> str:
        return self.raw[8]

    @property
    def grade(self) -> str:
        return self.raw[9]

    @property
    def negation(self) -> str:
        return self.raw[10]

    @property
    def voice(self) -> str:
        return self.raw[11]

    @property
    def var(self) -> str:
        return self.raw[14]

    def __str__(self) -> str:
        return self.raw


def parse_czech_tag(raw: str) -> PositionalTag:
    """Parse a 15-character positional tag, rejecting other lengths."""
    return PositionalTag(raw)


def is_czech_tag(token: str) -> bool:
    """True iff ``token`` parses as a positional tag."""
    return len(token) == TAG_LENGTH and _TAG_RE.fullmatch(token) is not None


_CZECH_TOKENS: dict[str, bool] = {}


def classify_czech_tokens(tokens: list[str]) -> list[bool]:
    """:func:`is_czech_tag` of each token, computed once per distinct token."""
    return _classify_tokens(_CZECH_TOKENS, is_czech_tag, tokens)


# ---------------------------------------------------------------------------
# German feature sequences
# ---------------------------------------------------------------------------

GENDERS = frozenset({"Fem", "Masc", "Neut", "NoGend"})
CASES = frozenset({"Nom", "Acc", "Dat", "Gen"})
NUMBERS = frozenset({"Sg", "Pl"})
STRENGTHS = frozenset({"St", "Wk", "NA"})
PERSONS = frozenset({"1", "2", "3"})
TENSES = frozenset({"Pres", "Past"})
MOODS = frozenset({"Ind", "Subj"})

KIND_NOMINAL = "nominal"
KIND_VERBAL_FINITE = "verbal-finite"
KIND_PARTICIPLE = "participle"
KIND_INFINITIVE = "infinitive"
KIND_BARE = "bare"

_ANGLE_SEQ_RE = re.compile(r"^(?:<[^<>\s]+>)+$")
_ANGLE_VALUE_RE = re.compile(r"<([^<>\s]+)>")
_BARE_RE = re.compile(r"^([^<>\[\]\s]+)\[([^\[\]\s]+)\]$")
_BARE_TAG_RE = re.compile(r"^\[([^\[\]\s]+)\]$")
_SEPARATOR_RE = re.compile(r"^§§<([^<>\s]+)>§§$")


class GermanFeatureSeq(FrozenRecord):
    """The tag half of a German analysis.

    ``values`` holds the angle-bracketed feature values in order, without
    brackets.  Nominal sequences consist of a head tag (``+NN``, ``+ADJ``,
    ``+ART``, ...), optional verbatim extras such as the degree marker
    ``Pos``, and then exactly gender, case, number and strength; the
    strength slot must be present (``NA`` when inflection does not depend
    on it).  Finite verbs are ``+V`` + person/number/tense/mood;
    participles and infinitives are ``+V PPast`` / ``+V Inf``.  Bare kinds
    carry a bracketed parse tag in ``bare_tag`` instead.
    """

    def __init__(self, kind: str, values: tuple[str, ...] = (), bare_tag: str = "") -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bare_tag", bare_tag)
        if kind == KIND_BARE:
            if not bare_tag or values:
                raise MalformedAnalysis("bare feature sequence needs only a parse tag")
            return
        if bare_tag:
            raise MalformedAnalysis(f"{kind} sequence cannot carry a bare tag")
        v = values
        if kind == KIND_PARTICIPLE:
            if v != ("+V", "PPast"):
                raise MalformedAnalysis(f"participle must be <+V><PPast>, got {v}")
        elif kind == KIND_INFINITIVE:
            if v != ("+V", "Inf"):
                raise MalformedAnalysis(f"infinitive must be <+V><Inf>, got {v}")
        elif kind == KIND_VERBAL_FINITE:
            if (
                len(v) != 5
                or v[0] != "+V"
                or v[1] not in PERSONS
                or v[2] not in NUMBERS
                or v[3] not in TENSES
                or v[4] not in MOODS
            ):
                raise MalformedAnalysis(f"bad finite-verb feature sequence: {v}")
        elif kind == KIND_NOMINAL:
            if len(v) < 5 or not v[0].startswith("+") or v[0] == "+V":
                raise MalformedAnalysis(f"bad nominal feature sequence: {v}")
            if v[-4] not in GENDERS:
                raise MalformedAnalysis(f"bad gender {v[-4]!r} in {v}")
            if v[-3] not in CASES:
                raise MalformedAnalysis(f"bad case {v[-3]!r} in {v}")
            if v[-2] not in NUMBERS:
                raise MalformedAnalysis(f"bad number {v[-2]!r} in {v}")
            if v[-1] not in STRENGTHS:
                raise MalformedAnalysis(
                    f"bad or missing strength {v[-1]!r} in {v} "
                    "(the dummy value NA is required when strength is immaterial)"
                )
        else:
            raise MalformedAnalysis(f"unknown feature-sequence kind {kind!r}")

    # Nominal accessors (undefined for other kinds).
    @property
    def head(self) -> str:
        return self.values[0]

    @property
    def gender(self) -> str:
        return self.values[-4]

    @property
    def case(self) -> str:
        return self.values[-3]

    @property
    def number(self) -> str:
        if self.kind == KIND_VERBAL_FINITE:
            return self.values[2]
        return self.values[-2]

    def __str__(self) -> str:
        return format_tag(self)


def parse_feature_seq(text: str) -> GermanFeatureSeq:
    """Parse a feature token: angle-value run or a bracketed bare tag."""
    bare = _BARE_RE.match(text)
    if bare and "<" not in text:
        raise MalformedAnalysis(
            f"{text!r} is a full bare analysis, not a feature sequence"
        )
    if _ANGLE_SEQ_RE.match(text):
        values = tuple(_ANGLE_VALUE_RE.findall(text))
        return GermanFeatureSeq(_classify_values(values), values)
    bracketed = _BARE_TAG_RE.match(text)
    if bracketed:
        return GermanFeatureSeq(KIND_BARE, bare_tag=bracketed.group(1))
    raise MalformedAnalysis(f"not a feature sequence: {text!r}")


def _classify_values(values: tuple[str, ...]) -> str:
    if not values:
        raise MalformedAnalysis("empty feature sequence")
    if values[0] == "+V":
        if values == ("+V", "PPast"):
            return KIND_PARTICIPLE
        if values == ("+V", "Inf"):
            return KIND_INFINITIVE
        return KIND_VERBAL_FINITE
    return KIND_NOMINAL


def format_separator(markup: str) -> str:
    """The compound-separator token carrying a modifier's markup."""
    return f"§§<{markup}>§§"


_GermanClass = tuple[GermanFeatureSeq | None, tuple[str, str] | None, str | None]
GERMAN_WORD: _GermanClass = (None, None, None)
_GERMAN_TOKENS: dict[str, _GermanClass] = {}


def _german_class(token: str) -> _GermanClass:
    if _ANGLE_SEQ_RE.match(token):
        try:
            return parse_feature_seq(token), None, None
        except MalformedAnalysis:
            return GERMAN_WORD
    bare = _BARE_RE.match(token)
    if bare:
        lexeme = bare.group(1)
        return None, (token[len(lexeme):], lexeme), None
    separator = _SEPARATOR_RE.match(token)
    if separator:
        return None, None, separator.group(1)
    return GERMAN_WORD


def classify_german_tokens(tokens: Sequence[str]) -> list[_GermanClass]:
    """The class of each German stream token, found once per distinct token.

    A feature token gives ``(features, None, None)``, a bare
    ``lexeme[TAG]`` token ``(None, ("[TAG]", lexeme), None)``, a compound
    separator ``§§<T>§§`` ``(None, None, "T")`` and any other token, a
    word, the one tuple :data:`GERMAN_WORD`.
    """
    return _classify_tokens(_GERMAN_TOKENS, _german_class, tokens)


def is_german_tag_token(token: str) -> bool:
    """True iff ``token`` is a feature sequence, a bare token or a separator."""
    return _classify_tokens(_GERMAN_TOKENS, _german_class, (token,))[0] is not GERMAN_WORD


def tag_predicate_for_mode(mode: str) -> Callable[[str], bool] | None:
    """Predicate marking the tag tokens that BPE leaves whole, or None.

    Baseline streams carry no tags.  A module-level function, so it is
    the same object on every call (``segment_line`` keys its memo by it).
    """
    if mode == MODE_BASELINE:
        return None
    return is_german_tag_token if mode.startswith("german") else is_czech_tag


# ---------------------------------------------------------------------------
# German analyses (stem side + feature sequence)
# ---------------------------------------------------------------------------

_SEGMENT_RE = re.compile(r"([^<>\[\]|\s]+)(?:<([^<>\s]+)>)?")


class StemSegment(FrozenRecord):
    """One lexeme of a stem, with its verbatim markup tag if any."""

    def __init__(self, lexeme: str, markup: str | None = None) -> None:
        object.__setattr__(self, "lexeme", lexeme)
        object.__setattr__(self, "markup", markup)

    def __str__(self) -> str:
        if self.markup is None:
            return self.lexeme
        return f"{self.lexeme}<{self.markup}>"


_STEM_SIDES: dict[str, tuple[StemSegment, ...]] = {}


def parse_stem_side(text: str) -> tuple[StemSegment, ...]:
    """Decompose the stem side of an analysis at embedded markup tags."""
    segments = _STEM_SIDES.get(text)
    if segments is None:
        segments = _remember(_STEM_SIDES, text, _parse_stem_side(text))
    return segments


def _parse_stem_side(text: str) -> tuple[StemSegment, ...]:
    if not text:
        raise MalformedAnalysis("empty stem side")
    segments: list[StemSegment] = []
    pos = 0
    while pos < len(text):
        m = _SEGMENT_RE.match(text, pos)
        if m is None or m.start() != pos:
            raise MalformedAnalysis(f"cannot parse stem side {text!r} at offset {pos}")
        segments.append(StemSegment(m.group(1), m.group(2)))
        pos = m.end()
    return tuple(segments)


def parse_german_analysis(raw: str) -> tuple[str, str, GermanFeatureSeq]:
    """Check one analysis token, inflected (``||``) or bare (``[TAG]``), and
    return its halves as a lexicon row key and its parsed tag:
    ``(tag text, lemma, features)``.

    The lemma of an inflected token is its stem side, which must parse;
    that of a bare token is its lexeme.
    """
    if not raw or any(c.isspace() for c in raw):
        raise MalformedAnalysis(f"analysis must be a single token: {raw!r}")
    if raw.count("<") != raw.count(">") or raw.count("[") != raw.count("]"):
        raise MalformedAnalysis(f"unbalanced brackets in {raw!r}")
    if "||" in raw:
        parts = raw.split("||")
        if len(parts) != 2:
            raise MalformedAnalysis(f"more than one boundary in {raw!r}")
        stem_text, feature_text = parts
        parse_stem_side(stem_text)
        feature_seq = parse_feature_seq(feature_text)
        if feature_seq.kind == KIND_BARE:
            raise MalformedAnalysis(f"bare tag after boundary in {raw!r}")
        return feature_text, stem_text, feature_seq
    m = _BARE_RE.match(raw)
    if m is None:
        raise MalformedAnalysis(f"not an analysis: {raw!r}")
    lexeme = m.group(1)
    return raw[len(lexeme):], lexeme, GermanFeatureSeq(KIND_BARE, bare_tag=m.group(2))


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def format_tag(tag: PositionalTag | GermanFeatureSeq) -> str:
    """Render a tag as the single text token used in corpus files."""
    if isinstance(tag, PositionalTag):
        return tag.raw
    if tag.kind == KIND_BARE:
        return f"[{tag.bare_tag}]"
    return "".join(f"<{v}>" for v in tag.values)
