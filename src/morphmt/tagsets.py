"""Morphological tag formats: Czech positional tags and German stem+feature analyses.

Two tag families are supported:

* fixed-width 15-slot positional tags, one character per category
  (``AAIP7----2A----``), and
* German analyses consisting of a stem side (one or more lexeme segments,
  each optionally carrying verbatim markup such as ``<NN>`` or ``<Pos>``)
  and, after a ``||`` boundary, a feature sequence such as
  ``<+NN><Fem><Acc><Sg><NA>``.  Non-inflected words are written as a
  lexeme with a bracketed parse tag (``und[KON]``, ``,[$]``).

Parsing and formatting are exact inverses: ``format(parse(x)) == x`` for
every accepted input, byte for byte.  Text is cut into lines by
:func:`split_lines` everywhere in the package.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

__all__ = [
    "MalformedTag",
    "MalformedAnalysis",
    "PositionalTag",
    "GermanFeatureSeq",
    "StemSegment",
    "GermanAnalysis",
    "MorphAnalysis",
    "parse_czech_tag",
    "parse_feature_seq",
    "parse_feature_token",
    "parse_stem_side",
    "parse_german_analysis",
    "format_tag",
    "format_stem_side",
    "format_analysis",
    "is_czech_tag",
    "is_feature_token",
    "is_bare_token",
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


def split_lines(text: str) -> list[str]:
    """Cut text into lines: a line ends at ``\\n``, and ``\\r\\n`` is one line end.

    Unlike :meth:`str.splitlines`, a lone ``\\r``, form feed, U+0085,
    U+2028 and the other Unicode separators are line content, so a line
    that contains one is never cut in two.
    """
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


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
TAG_ALPHABET = frozenset(string.ascii_letters + string.digits + ":-")
_TAG_RE = re.compile(f"[A-Za-z0-9:-]{{{TAG_LENGTH}}}")  # TAG_ALPHABET, TAG_LENGTH times

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


@dataclass(frozen=True)
class PositionalTag:
    """A 15-character positional tag; each position encodes one category.

    ``raw`` is the authoritative representation.  The named slot accessors
    index into it, so formatting a parsed tag reproduces the input exactly.
    """

    raw: str

    def __post_init__(self) -> None:
        if len(self.raw) != TAG_LENGTH:
            raise MalformedTag(
                f"positional tag must have {TAG_LENGTH} characters, "
                f"got {len(self.raw)}: {self.raw!r}"
            )
        for i, ch in enumerate(self.raw):
            if ch not in TAG_ALPHABET:
                raise MalformedTag(
                    f"illegal character {ch!r} at position {i} in tag {self.raw!r}"
                )

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


@dataclass(frozen=True)
class GermanFeatureSeq:
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

    kind: str
    values: tuple[str, ...] = ()
    bare_tag: str = ""

    def __post_init__(self) -> None:
        if self.kind == KIND_BARE:
            if not self.bare_tag or self.values:
                raise MalformedAnalysis("bare feature sequence needs only a parse tag")
            return
        if self.bare_tag:
            raise MalformedAnalysis(f"{self.kind} sequence cannot carry a bare tag")
        v = self.values
        if self.kind == KIND_PARTICIPLE:
            if v != ("+V", "PPast"):
                raise MalformedAnalysis(f"participle must be <+V><PPast>, got {v}")
        elif self.kind == KIND_INFINITIVE:
            if v != ("+V", "Inf"):
                raise MalformedAnalysis(f"infinitive must be <+V><Inf>, got {v}")
        elif self.kind == KIND_VERBAL_FINITE:
            if (
                len(v) != 5
                or v[0] != "+V"
                or v[1] not in PERSONS
                or v[2] not in NUMBERS
                or v[3] not in TENSES
                or v[4] not in MOODS
            ):
                raise MalformedAnalysis(f"bad finite-verb feature sequence: {v}")
        elif self.kind == KIND_NOMINAL:
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
            raise MalformedAnalysis(f"unknown feature-sequence kind {self.kind!r}")

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

    @property
    def strength(self) -> str:
        return self.values[-1]

    @property
    def person(self) -> str:
        return self.values[1]

    @property
    def tense(self) -> str:
        return self.values[3]

    @property
    def mood(self) -> str:
        return self.values[4]

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


_FEATURE_TOKENS: dict[str, GermanFeatureSeq | None] = {}


def parse_feature_token(token: str) -> GermanFeatureSeq | None:
    """The feature sequence of a pure angle-bracket token, else None."""
    if token in _FEATURE_TOKENS:
        return _FEATURE_TOKENS[token]
    features = None
    if _ANGLE_SEQ_RE.match(token):
        try:
            features = parse_feature_seq(token)
        except MalformedAnalysis:
            pass
    return _remember(_FEATURE_TOKENS, token, features)


def is_feature_token(token: str) -> bool:
    """True iff ``token`` is a pure angle-bracket feature sequence."""
    return parse_feature_token(token) is not None


def is_bare_token(token: str) -> bool:
    """True iff ``token`` has the non-inflected ``lexeme[TAG]`` shape."""
    return bool(_BARE_RE.match(token))


# ---------------------------------------------------------------------------
# German analyses (stem side + feature sequence)
# ---------------------------------------------------------------------------

_SEGMENT_RE = re.compile(r"([^<>\[\]|\s]+)(?:<([^<>\s]+)>)?")


@dataclass(frozen=True)
class StemSegment:
    """One lexeme of a stem, with its verbatim markup tag if any."""

    lexeme: str
    markup: str | None = None

    def __str__(self) -> str:
        if self.markup is None:
            return self.lexeme
        return f"{self.lexeme}<{self.markup}>"


@dataclass(frozen=True)
class GermanAnalysis:
    """A word analysis: stem segments plus a feature sequence.

    Inflected analyses are written ``STEM||<features>``; non-inflected
    ones are ``lexeme[TAG]`` with a single segment and a bare feature
    sequence.  Markup inside the stem (``<NN>``, ``<ADJ>``, ``<Pos>``,
    ``<Def>``, ``<Indef>``, ...) stays attached to its segment verbatim
    and is never interpreted here.
    """

    stem_segments: tuple[StemSegment, ...]
    feature_seq: GermanFeatureSeq
    inflected: bool = True

    def __post_init__(self) -> None:
        if not self.stem_segments:
            raise MalformedAnalysis("analysis needs at least one stem segment")
        if not self.inflected:
            if self.feature_seq.kind != KIND_BARE:
                raise MalformedAnalysis("non-inflected analyses carry a bare tag")
            if len(self.stem_segments) != 1:
                raise MalformedAnalysis("non-inflected analyses have one segment")

    @property
    def stem_text(self) -> str:
        return format_stem_side(self.stem_segments)

    def __str__(self) -> str:
        return format_analysis(self)


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


def format_stem_side(segments: tuple[StemSegment, ...]) -> str:
    return "".join(str(s) for s in segments)


def parse_german_analysis(raw: str) -> GermanAnalysis:
    """Parse one analysis token, inflected (``||``) or bare (``[TAG]``)."""
    if not raw or any(c.isspace() for c in raw):
        raise MalformedAnalysis(f"analysis must be a single token: {raw!r}")
    if raw.count("<") != raw.count(">") or raw.count("[") != raw.count("]"):
        raise MalformedAnalysis(f"unbalanced brackets in {raw!r}")
    if "||" in raw:
        parts = raw.split("||")
        if len(parts) != 2:
            raise MalformedAnalysis(f"more than one boundary in {raw!r}")
        stem_text, feature_text = parts
        segments = parse_stem_side(stem_text)
        feature_seq = parse_feature_seq(feature_text)
        if feature_seq.kind == KIND_BARE:
            raise MalformedAnalysis(f"bare tag after boundary in {raw!r}")
        return GermanAnalysis(segments, feature_seq, inflected=True)
    m = _BARE_RE.match(raw)
    if m is None:
        raise MalformedAnalysis(f"not an analysis: {raw!r}")
    segment = StemSegment(m.group(1))
    return GermanAnalysis(
        (segment,), GermanFeatureSeq(KIND_BARE, bare_tag=m.group(2)), inflected=False
    )


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


def format_analysis(a: PositionalTag | GermanAnalysis) -> str:
    """Inverse of the corresponding parse operation, byte-exact."""
    if isinstance(a, PositionalTag):
        return a.raw
    if not a.inflected:
        return f"{a.stem_segments[0].lexeme}[{a.feature_seq.bare_tag}]"
    return f"{a.stem_text}||{format_tag(a.feature_seq)}"


# ---------------------------------------------------------------------------
# The unit exchanged between modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MorphAnalysis:
    """A (lemma, tag) pair, optionally with the original surface form.

    ``lemma`` is the plain lemma for positional tags and the stem-side
    text (markup included) for German analyses.
    """

    lemma: str
    tag: PositionalTag | GermanFeatureSeq
    surface: str | None = None

    @property
    def tag_text(self) -> str:
        return format_tag(self.tag)

    @classmethod
    def from_german(cls, a: GermanAnalysis, surface: str | None = None) -> MorphAnalysis:
        if not a.inflected:
            return cls(a.stem_segments[0].lexeme, a.feature_seq, surface)
        return cls(a.stem_text, a.feature_seq, surface)

    def to_german_analysis(self) -> GermanAnalysis:
        if not isinstance(self.tag, GermanFeatureSeq):
            raise MalformedAnalysis("not a German analysis")
        if self.tag.kind == KIND_BARE:
            return GermanAnalysis((StemSegment(self.lemma),), self.tag, inflected=False)
        return GermanAnalysis(parse_stem_side(self.lemma), self.tag, inflected=True)
