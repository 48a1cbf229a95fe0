"""Compound splitting and reassembly for German stem representations.

Multi-segment stems such as ``Meer<NN>Boden`` are split at mid-word noun
and adjective borders into separate lexeme tokens joined by separator
tokens that carry the modifier's markup::

    Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA>

Both directions start from a stem's parsed segments: splitting
(:func:`split_compound`) cuts them into those tokens, split-mode
``prepare`` and ``split-compounds`` encode (and German ``prepare``
checks) a stem text and its tag through :func:`split_tokens`, and merging
(:func:`merge_stem`), applied to translated output, cuts a decoded stem
the same way.  Modifier lexemes are looked up in the lexicon's modifier
table, which supplies the full in-compound form (linking elements and
Umlautung base-form changes, e.g. ``Meer -> Meeres``, ``Haus -> Häuser``),
and the parts are concatenated into one stem text that keeps the head's
own markup.  Unknown modifiers degrade to plain concatenation so that a
sentence is always produced; such events are reported to the caller.
The separator token's shape belongs to :mod:`morphmt.tagsets`, like
every stream token's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .tagsets import (
    GERMAN_WORD,
    GermanFeatureSeq,
    MalformedAnalysis,
    StemSegment,
    classify_german_tokens,
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
    "split_compound",
    "split_tokens",
    "merge_stem",
    "rejoin_split_tokens",
]

# Only noun and adjective borders are split points; other stem markup
# (degree and determiner markers) stays attached to its segment.
SPLIT_MARKUP = frozenset({"NN", "ADJ"})


def split_compound(
    segments: tuple[StemSegment, ...], feature_seq: GermanFeatureSeq
) -> tuple[str, ...] | None:
    """The split tokens of a stem, or None when it has no split point.

    Each segment but the last whose markup is a split point ends a lexeme
    token, and a ``§§<TAG>§§`` separator follows it; other markup stays
    fused inside its token, and the last token is the formatted feature
    sequence.  Raises :class:`MalformedAnalysis` when a lexeme token reads
    as a separator or a feature sequence.
    """
    tokens: list[str] = []
    current = ""
    for segment in segments[:-1]:
        if segment.markup in SPLIT_MARKUP:
            tokens += [current + segment.lexeme, format_separator(segment.markup)]
            current = ""
        else:
            current += str(segment)
    if not tokens:
        return None
    tokens += [current + str(segments[-1]), format_tag(feature_seq)]
    split = tuple(tokens)
    for i, (features, _, markup) in enumerate(classify_german_tokens(split[:-1:2])):
        if features is not None or markup is not None:
            raise MalformedAnalysis(f"lexeme expected at {2 * i} in {split}")
    return split


def split_tokens(stem: str, tag_text: str, features: GermanFeatureSeq) -> tuple[str, ...]:
    """The split-mode tokens of the inflected analysis ``stem||tag_text``,
    ``features`` its parsed tag: the :func:`split_compound` tokens of the
    parsed stem, or the stem and the tag text when it has no split point."""
    return split_compound(parse_stem_side(stem), features) or (stem, tag_text)


def _lower_first(text: str) -> str:
    return text[:1].lower() + text[1:]


def _upper_first(text: str) -> str:
    return text[:1].upper() + text[1:]


def merge_stem(
    stem: str,
    feature_seq: GermanFeatureSeq,
    lex: ParadigmLexicon,
    unknown_modifiers: list[str] | None = None,
) -> tuple[str, bool]:
    """The stem text of a decoded ``stem <features>`` pair, compound merged,
    and whether a compound was merged.

    A stem with split points is cut by :func:`split_compound`.  Its
    modifiers are replaced by their in-compound forms from the lexicon's
    modifier table; lexemes missing from the table are concatenated
    verbatim and appended to ``unknown_modifiers`` when given.  Parts
    after the first start lowercase, and the whole stem is capitalized
    for noun heads and lowercased for adjective heads.  The head's own
    trailing markup stays on the merged stem.  Raises
    :class:`MalformedAnalysis` when the stem does not parse or a part
    spells a separator.
    """
    segments = parse_stem_side(stem)
    split = split_compound(segments, feature_seq)
    if split is None:
        return stem, False
    parts: list[str] = []
    for lexeme in split[:-2:2]:
        form = lex.modifier_table.get(lexeme)
        if form is None:
            if unknown_modifiers is not None:
                unknown_modifiers.append(lexeme)
            form = lexeme
        parts.append(form)
    markup = segments[-1].markup
    head = split[-2]
    parts.append(head if markup is None else head[: -len(markup) - 2])
    merged = parts[0] + "".join(_lower_first(p) for p in parts[1:])
    if feature_seq.kind == KIND_NOMINAL:
        if feature_seq.head == "+NN":
            merged = _upper_first(merged)
        elif feature_seq.head == "+ADJ":
            merged = _lower_first(merged)
    return (merged if markup is None else f"{merged}<{markup}>"), True


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
