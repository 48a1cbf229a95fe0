"""The record path of ``prepare`` and the strict decoder, kept as oracles.

``prepare`` encodes each target word from the lexicon row key that
``select_analysis`` picks, (tag text, lemma).  It used to build an
analysis record per candidate (lemma, parsed tag, surface), pick one with
a disambiguator, and format the record's parsed tag back into text.  The
interleave module also had a strict decoder that raised a stream's first
well-formedness violation.  The tests check the code that replaced them
against these functions.
"""

from typing import NamedTuple

from morphmt.compounds import split_tokens
from morphmt.interleave import WellformednessError, walk
from morphmt.morphlex import (
    Diagnostics,
    NoCompatibleAnalysis,
    _compatible,
    _parse_context,
    parse_tag_text,
)
from morphmt.tagsets import (
    GermanAnalysis,
    GermanFeatureSeq,
    MalformedAnalysis,
    PositionalTag,
    StemSegment,
    format_tag,
    parse_stem_side,
)


class Analysis(NamedTuple):
    """A (lemma, parsed tag) pair, with the surface form it analyses if known.

    ``lemma`` is the plain lemma for positional tags and the stem-side
    text (markup included) for German analyses.
    """

    lemma: str
    tag: PositionalTag | GermanFeatureSeq
    surface: str | None = None

    @property
    def tag_text(self) -> str:
        return format_tag(self.tag)


def from_german(a: GermanAnalysis, surface: str | None = None) -> Analysis:
    if not a.inflected:
        return Analysis(a.stem_segments[0].lexeme, a.feature_seq, surface)
    return Analysis(a.stem_text, a.feature_seq, surface)


def to_german_analysis(a: Analysis) -> GermanAnalysis:
    if not isinstance(a.tag, GermanFeatureSeq):
        raise MalformedAnalysis("not a German analysis")
    if a.tag.kind == "bare":
        return GermanAnalysis((StemSegment(a.lemma),), a.tag, inflected=False)
    return GermanAnalysis(parse_stem_side(a.lemma), a.tag, inflected=True)


def candidates(lex, surface: str) -> list[Analysis]:
    """Every analysis of ``surface``: lexicographic by tag text, then lemma."""
    return [
        Analysis(lemma, parse_tag_text(tag_text), surface)
        for tag_text, lemma in sorted(lex.keys_for(surface))
    ]


def disambiguate(options: list[Analysis], context: str) -> Analysis:
    """The first analysis compatible with the context parse tag."""
    if not options:
        raise ValueError("disambiguate needs at least one candidate")
    pos, constraints = _parse_context(context)
    for a in options:
        if _compatible(a.tag, pos, constraints):
            return a
    raise NoCompatibleAnalysis(f"none of {len(options)} analyses is compatible with {context!r}")


def _surface_of(a: Analysis) -> str:
    if a.surface is None:
        raise ValueError(f"analysis of {a.lemma!r} carries no surface form")
    return a.surface


def encode_record(a: Analysis, mode: str) -> tuple[str, ...]:
    """The tokens of one analysis record in a pipeline mode."""
    if mode == "german-stemmed-split":
        return split_tokens(to_german_analysis(a))
    if mode == "baseline":
        return (_surface_of(a),)
    if mode == "morphgen":
        return (a.tag_text, a.lemma)
    if mode == "serialization":
        return (a.tag_text, _surface_of(a))
    if mode != "german-stemmed":
        raise ValueError(f"unknown mode {mode!r}")
    if getattr(a.tag, "kind", None) == "bare":
        return (f"{a.lemma}{a.tag_text}",)
    return (a.lemma, a.tag_text)


def decode(tokens: list[str], mode: str) -> list[tuple[str, str]]:
    """The (tag, word) pairs of a stream, bare tokens included, or its
    first :class:`WellformednessError` raised: the strict view of ``walk``."""
    stream = walk(tokens, mode)
    if stream.error is not None:
        raise stream.error
    return [(item.tag, item.word) for item in stream.items]


def wellformedness(lines: list[str], mode: str) -> Diagnostics:
    """Each line's strict violation, as ``(line, kind, position)`` errors."""
    diagnostics = Diagnostics()
    for line in lines:
        try:
            decode(line.split(), mode)
        except WellformednessError as exc:
            diagnostics.errors.append((diagnostics.lines, exc.kind, exc.position))
        diagnostics.lines += 1
    return diagnostics
