"""Compound splitting and reassembly for German stem representations.

Multi-segment stems such as ``Meer<NN>Boden`` are split at mid-word noun
and adjective borders into separate lexeme tokens joined by separator
tokens that carry the modifier's markup::

    Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA>

Merging is the inverse direction, applied to translated output: modifier
lexemes are looked up in the lexicon's modifier table, which supplies the
full in-compound form (linking elements and Umlautung base-form changes,
e.g. ``Meer -> Meeres``, ``Haus -> Häuser``), and the parts are
concatenated into a single stem carrying the head's feature sequence.
Unknown modifiers degrade to plain concatenation so that a sentence is
always produced; such events are reported to the caller.
The separator token's shape belongs to :mod:`morphmt.tagsets`, like
every stream token's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import FrozenRecord
from .tagsets import (
    GERMAN_WORD,
    GermanAnalysis,
    GermanFeatureSeq,
    MalformedAnalysis,
    StemSegment,
    classify_german_tokens,
    format_analysis,
    format_separator,
    format_tag,
    is_german_tag_token,
    parse_stem_side,
    KIND_NOMINAL,
)

if TYPE_CHECKING:
    from .morphlex import ParadigmLexicon

__all__ = [
    "SPLIT_MARKUP",
    "CompoundSplit",
    "split_compound",
    "split_tokens",
    "merge_compound",
    "merge_stem",
    "rejoin_split_tokens",
]

# Only noun and adjective borders are split points; other stem markup
# (degree and determiner markers) stays attached to its segment.
SPLIT_MARKUP = frozenset({"NN", "ADJ"})

class CompoundSplit(FrozenRecord):
    """Token sequence of a split compound.

    Lexeme tokens alternate with ``§§<TAG>§§`` separators; the final
    token is the head's feature sequence.
    """

    def __init__(self, tokens: tuple[str, ...]) -> None:
        t = tokens
        if len(t) < 4 or len(t) % 2 != 0:
            raise MalformedAnalysis(f"not a compound split: {t}")
        classes = classify_german_tokens(t)
        if classes[-1][0] is None:
            raise MalformedAnalysis(f"split must end on a feature sequence: {t}")
        for i, (features, _, markup) in enumerate(classes[:-1]):
            if i % 2 == 0:
                if markup is not None or features is not None:
                    raise MalformedAnalysis(f"lexeme expected at {i} in {t}")
            elif markup is None:
                raise MalformedAnalysis(f"separator expected at {i} in {t}")
        object.__setattr__(self, "tokens", tokens)

    @property
    def modifier_lexemes(self) -> tuple[str, ...]:
        return self.tokens[0:-2:2]

    @property
    def head_token(self) -> str:
        return self.tokens[-2]

    @property
    def feature_token(self) -> str:
        return self.tokens[-1]

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def split_compound(a: GermanAnalysis) -> CompoundSplit | GermanAnalysis:
    """Split a multi-segment stem at noun/adjective borders.

    Single-segment analyses (and non-inflected ones) pass through
    unchanged; borders whose markup is not a split point stay fused
    inside their token.  The feature sequence is never altered.
    """
    if not a.inflected or len(a.stem_segments) == 1:
        return a
    tokens: list[str] = []
    current = ""
    for i, segment in enumerate(a.stem_segments):
        current += segment.lexeme
        is_last = i == len(a.stem_segments) - 1
        if segment.markup is None:
            continue
        if not is_last and segment.markup in SPLIT_MARKUP:
            tokens += [current, format_separator(segment.markup)]
            current = ""
        else:
            current += f"<{segment.markup}>"
    tokens.append(current)
    if len(tokens) == 1:
        # No splittable border found; leave the analysis intact.
        return a
    tokens.append(format_tag(a.feature_seq))
    return CompoundSplit(tuple(tokens))


def split_tokens(a: GermanAnalysis) -> tuple[str, ...]:
    """The stream tokens of one analysis in split mode: its ``lexeme[TAG]``
    token if bare, its :class:`CompoundSplit` tokens, or stem and features."""
    if not a.inflected:
        return (format_analysis(a),)
    split = split_compound(a)
    if isinstance(split, CompoundSplit):
        return split.tokens
    return (a.stem_text, format_tag(a.feature_seq))


def _lower_first(text: str) -> str:
    return text[:1].lower() + text[1:]


def _upper_first(text: str) -> str:
    return text[:1].upper() + text[1:]


def merge_compound(
    split: CompoundSplit,
    lex: ParadigmLexicon,
    unknown_modifiers: list[str] | None = None,
) -> GermanAnalysis:
    """Reassemble a split compound into one concatenated stem.

    Modifiers are replaced by their in-compound forms from the lexicon's
    modifier table; lexemes missing from the table are concatenated
    verbatim and appended to ``unknown_modifiers`` when given.  Parts
    after the first start lowercase, and the whole stem is capitalized
    for noun heads and lowercased for adjective heads.  The head's
    feature sequence, as the German token memo holds it, is preserved
    for subsequent generation.
    """
    feature_seq = classify_german_tokens((split.feature_token,))[0][0]
    head_lexeme, head_markup = _split_head(split.head_token)
    parts: list[str] = []
    for lexeme in split.modifier_lexemes:
        form = lex.modifier_table.get(lexeme)
        if form is None:
            if unknown_modifiers is not None:
                unknown_modifiers.append(lexeme)
            form = lexeme
        parts.append(form)
    parts.append(head_lexeme)
    stem = parts[0] + "".join(_lower_first(p) for p in parts[1:])
    if feature_seq.kind == KIND_NOMINAL:
        if feature_seq.head == "+NN":
            stem = _upper_first(stem)
        elif feature_seq.head == "+ADJ":
            stem = _lower_first(stem)
    return GermanAnalysis(
        (StemSegment(stem, head_markup),), feature_seq, inflected=True
    )


def merge_stem(
    stem: str,
    feature_seq: GermanFeatureSeq,
    lex: ParadigmLexicon,
    unknown_modifiers: list[str] | None = None,
) -> tuple[GermanAnalysis, bool]:
    """The analysis of a decoded ``stem <features>`` pair, compound merged.

    A stem with split-point borders is split and reassembled with
    :func:`merge_compound`.  Returns the analysis and whether a compound
    was merged.  Raises :class:`MalformedAnalysis` when the stem does not
    parse or does not split into a well-formed compound (for example
    when its segments spell a separator token).
    """
    segments = parse_stem_side(stem)
    analysis = GermanAnalysis(segments, feature_seq, inflected=True)
    if len(segments) > 1:
        split = split_compound(analysis)
        if isinstance(split, CompoundSplit):
            return merge_compound(split, lex, unknown_modifiers), True
    return analysis, False


def _split_head(token: str) -> tuple[str, str | None]:
    """Separate the head's own trailing markup (kept on the merged stem)."""
    segments = parse_stem_side(token)
    markup = segments[-1].markup
    body = "".join(str(s) for s in segments[:-1]) + segments[-1].lexeme
    return body, markup


def rejoin_split_tokens(tokens: list[str]) -> tuple[list[str], list[tuple[int, str]]]:
    """Collapse split-compound runs in a token stream back to stem form.

    ``lexeme §§<T>§§ lexeme`` becomes ``lexeme<T>lexeme`` so the stream
    can be decoded like an unsplit one.  Orphan separators (at the edges
    or not flanked by lexeme tokens) are dropped; each dropped position
    is reported as ``(position, "orphan-separator")``.
    """

    classes = classify_german_tokens(tokens)
    out: list[str] = []
    events: list[tuple[int, str]] = []
    last_is_word = False
    i = 0
    while i < len(tokens):
        features, bare, markup = classes[i]
        if markup is None:
            out.append(tokens[i])
            last_is_word = features is None and bare is None
            i += 1
        elif last_is_word and i + 1 < len(tokens) and classes[i + 1] is GERMAN_WORD:
            # The joined token is classified too: it may spell a separator.
            out[-1] = joined = f"{out[-1]}<{markup}>{tokens[i + 1]}"
            last_is_word = not is_german_tag_token(joined)
            i += 2
        else:
            events.append((i, "orphan-separator"))
            i += 1
    return out, events
